"""Shell biases, bad points, threshold constants, censuses, predictor orbits."""

import random
from fractions import Fraction
from math import comb, isclose, sqrt

import numpy as np
import pytest

from boolsp import (
    BooleanFunction,
    InvalidArgument,
    bad_point_detect,
    construct_named,
    finite_n_bound,
    friendly_neighborhood,
    graph_scan,
    is_sp,
    predictor_orbit,
    shell_bias,
    sp_fraction,
    threshold_constants,
)
from boolsp.experiments import (
    _all_tables,
    _binary_divergence,
    _crossover_level,
    _scaled_predictor_values,
)
from boolsp.noise import scaled_t_values

import oracles


def rand_fn(rng, n):
    return BooleanFunction.from_values([rng.choice((-1, 1)) for _ in range(1 << n)])


# ---------------------------------------------------------------------------
# shell bias / bad points


def test_shell_bias_known_values():
    maj = construct_named("majority", 3)
    assert shell_bias(maj, 0, 1) == 0  # weight-1 points still vote +1
    assert shell_bias(maj, 0, 2) == 1  # weight-2 points vote -1
    assert shell_bias(maj, 0, 3) == 1
    const = BooleanFunction.from_values([1] * 8)
    assert all(shell_bias(const, 5, d) == 0 for d in (1, 2, 3))
    chi = construct_named("character", 3, coords=[1, 2, 3])
    assert shell_bias(chi, 6, 1) == 1  # any single flip changes the parity
    assert shell_bias(chi, 6, 2) == 0


def test_shell_bias_brute_force():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 4)
        f = rand_fn(rng, n)
        v = rng.randrange(1 << n)
        d = rng.randint(1, n)
        want = Fraction(
            sum(
                1
                for u in range(1 << n)
                if bin(u ^ v).count("1") == d and f.value_at(u) != f.value_at(v)
            ),
            comb(n, d),
        )
        assert shell_bias(f, v, d) == want


def test_shell_bias_validates_distance():
    f = construct_named("majority", 3)
    with pytest.raises(InvalidArgument):
        shell_bias(f, 0, 0)
    with pytest.raises(InvalidArgument):
        shell_bias(f, 0, 4)


def test_bad_point_or_apex():
    f = construct_named("or", 3)
    rep = bad_point_detect(f, 0, Fraction(1, 4))
    assert rep.ell == 2  # default ceil(log2(3))
    assert rep.beta == (Fraction(1), Fraction(1))
    assert rep.bad


def test_majority_center_not_bad():
    rep = bad_point_detect(construct_named("majority", 3), 0, Fraction(1, 4), ell=2)
    assert rep.beta[0] == 0
    assert not rep.bad


def test_bad_point_eta_domain():
    f = construct_named("majority", 3)
    bad_point_detect(f, 0, 0)  # closed left endpoint is allowed
    with pytest.raises(InvalidArgument):
        bad_point_detect(f, 0, Fraction(1, 2))
    with pytest.raises(InvalidArgument):
        bad_point_detect(f, 0, Fraction(1, 4), ell=5)


def test_bad_at_eta0_ell1_is_unfriendliness():
    rng = random.Random(32)
    for _ in range(10):
        n = rng.randint(1, 4)
        f = rand_fn(rng, n)
        friendly = friendly_neighborhood(f, 1)
        for v in range(1 << n):
            rep = bad_point_detect(f, v, 0, ell=1)
            assert rep.bad == (not friendly[v])


# ---------------------------------------------------------------------------
# finite-n bound


def test_finite_n_bound_exact_value():
    n, alpha, eta, ell = 24, Fraction(2), Fraction(1, 4), 4
    rep = finite_n_bound(n, alpha, eta, ell)
    bracket = (1 - eta) * 2 + Fraction(1, 2) * (
        Fraction(4, 2) + Fraction(8, 6) + Fraction(16, 24)
    )
    want = (1 - Fraction(2, 24)) ** 24 * (1 - Fraction(4, 24)) ** 4 * bracket
    assert rep.value == want
    assert not rep.holds  # ~0.14 < 1/2 at desk scales
    assert rep.value < Fraction(1, 2)


def test_finite_n_bound_domain():
    with pytest.raises(InvalidArgument):
        finite_n_bound(8, 8, Fraction(1, 4), 2)
    with pytest.raises(InvalidArgument):
        finite_n_bound(8, 2, Fraction(1, 4), 8)


# ---------------------------------------------------------------------------
# sharp-threshold constants


def test_eta_alpha_values_and_monotonicity():
    vals = []
    for a in (Fraction(3, 2), Fraction(2), Fraction(3), Fraction(10)):
        c = threshold_constants(alpha=a)
        assert c.eta_alpha == (a - 1) / (2 * a)
        vals.append(c.eta_alpha)
    assert vals[1] == Fraction(1, 4)
    assert vals == sorted(vals)
    assert all(v < Fraction(1, 2) for v in vals)


def test_eta_delta_defined_case():
    c = threshold_constants(delta=Fraction(9, 100))
    assert c.eta_delta_defined
    assert c.eta_delta < 0.25
    # minimality: the divergence level is met at eta_delta, not just below it
    level = _crossover_level(0.09)
    assert _binary_divergence(c.eta_delta, 0.09) >= level
    assert _binary_divergence(c.eta_delta - 1e-9, 0.09) < level
    assert c.eta_delta > 0.09


def test_eta_delta_undefined_above_delta_max():
    c = threshold_constants(delta=Fraction(1, 10))
    assert not c.eta_delta_defined
    assert c.eta_delta is None
    assert "delta_max" in c.eta_delta_reason


def test_delta_max_value():
    c = threshold_constants()
    assert isclose(c.delta_max, 0.097424653, abs_tol=1e-6)
    # the boundary behaves: just below defined, just above undefined
    assert threshold_constants(delta=Fraction(97, 1000)).eta_delta_defined
    assert not threshold_constants(delta=Fraction(98, 1000)).eta_delta_defined


def test_threshold_constants_domain():
    with pytest.raises(InvalidArgument):
        threshold_constants(alpha=1)
    with pytest.raises(InvalidArgument):
        threshold_constants(delta=Fraction(1, 2))


# ---------------------------------------------------------------------------
# censuses


def test_sp_fraction_n1_always_full():
    for k in range(5):
        rep = sp_fraction(1, Fraction(k, 4))
        assert rep.total == 4
        assert rep.fraction == 1


def test_sp_fraction_matches_per_function_oracle():
    rho = Fraction(1, 8)
    rep = sp_fraction(2, rho)
    want = 0
    for bits in range(16):  # any full enumeration of tables works
        vals = [1 if (bits >> u) & 1 else -1 for u in range(4)]
        want += oracles.is_sp(vals, 2, rho)
    assert rep.sp_count == want
    assert rep.fraction == Fraction(want, 16)


def test_sp_fraction_full_above_universal_threshold():
    # 3/4 clears the n=3 bound 2^(2/3)-1, so every function is SP
    rep = sp_fraction(3, Fraction(3, 4))
    assert rep.fraction == 1


def test_sp_fraction_threads_equivalent():
    a = sp_fraction(3, Fraction(1, 3), threads=1)
    b = sp_fraction(3, Fraction(1, 3), threads=4)
    assert a.sp_count == b.sp_count and a.fraction == b.fraction


def test_sp_fraction_sample_mode():
    a = sp_fraction(3, Fraction(1, 2), mode="sample", samples=400, seed=7)
    b = sp_fraction(3, Fraction(1, 2), mode="sample", samples=400, seed=7)
    assert (a.sp_count, a.estimate, a.stderr) == (b.sp_count, b.estimate, b.stderr)
    assert a.fraction is None and a.seed == 7
    assert a.stderr == pytest.approx(sqrt(a.estimate * (1 - a.estimate) / 400))
    exact = sp_fraction(3, Fraction(1, 2)).estimate
    assert abs(a.estimate - exact) <= 5 * max(a.stderr, 1e-3)


def test_sp_fraction_domain():
    with pytest.raises(InvalidArgument):
        sp_fraction(5, Fraction(1, 2))
    with pytest.raises(InvalidArgument):
        sp_fraction(3, Fraction(1, 2), mode="sample", samples=10)  # no seed
    with pytest.raises(InvalidArgument):
        sp_fraction(3, Fraction(1, 2), mode="sample", seed=1)  # no samples
    with pytest.raises(InvalidArgument):
        sp_fraction(3, Fraction(1, 2), mode="bogus")


# ---------------------------------------------------------------------------
# predictor orbits


def test_orbit_sp_function_is_immediate_fixpoint():
    maj = construct_named("majority", 3)
    rep = predictor_orbit(maj, Fraction(1, 2))
    assert rep.status == "fixpoint"
    assert rep.trajectory_length == 1
    assert rep.terminal == maj


def test_orbit_or3_collapses_to_constant():
    f = construct_named("or", 3)
    rep = predictor_orbit(f, Fraction(1, 4))
    assert rep.status == "fixpoint"
    assert rep.trajectory_length == 2
    assert (rep.terminal.values == -1).all()
    assert is_sp(rep.terminal, Fraction(1, 4)).sp


def test_orbit_fixpoint_iff_sp():
    rng = random.Random(33)
    for _ in range(15):
        n = rng.randint(1, 3)
        f = rand_fn(rng, n)
        rho = Fraction(rng.randint(0, 4), 4)
        rep = predictor_orbit(f, rho)
        immediate = rep.status == "fixpoint" and rep.trajectory_length == 1
        assert immediate == is_sp(f, rho).sp
        if rep.status == "fixpoint":
            assert is_sp(rep.terminal, rho).sp


def test_orbit_budget_must_be_nonnegative():
    f = construct_named("or", 3)
    rep = predictor_orbit(f, Fraction(1, 4), max_steps=0)
    assert rep.status == "budget_exhausted" and rep.trajectory_length == 1
    with pytest.raises(InvalidArgument):
        predictor_orbit(f, Fraction(1, 4), max_steps=-3)


# ---------------------------------------------------------------------------
# graph scans


def test_batch_values_match_per_function_values():
    # the census/graph batch runs the same weighted butterfly as scaled_t_values
    for n in range(1, 4):
        total = 1 << (1 << n)
        tables = _all_tables(n, 0, total)
        for rho in (Fraction(0), Fraction(1, 3), Fraction(3, 8), Fraction(1), Fraction(5, 7)):
            batch = _scaled_predictor_values(tables, n, rho)
            assert batch.shape == (1 << n, total) and batch.dtype == np.int64
            for bits in range(total):
                f = BooleanFunction(n, bits)
                assert np.array_equal(tables[:, bits], f.values)
                assert np.array_equal(batch[:, bits], scaled_t_values(f, rho))


def test_graph_scan_n1_all_fixpoints():
    for rho in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        g = graph_scan(1, rho)
        assert g.num_functions == 4
        assert g.num_fixpoints == 4
        assert g.num_components == 4
        assert g.max_depth == 0
        assert g.cycles == ()


def test_graph_scan_n2_above_threshold():
    g = graph_scan(2, Fraction(1, 2))  # 1/2 > sqrt(2)-1: everything is SP
    assert g.num_fixpoints == 16
    assert g.num_components == 16
    assert g.max_depth == 0


def test_graph_scan_fixpoints_match_census():
    for n in (2, 3):
        for rho in (Fraction(1, 4), Fraction(1, 2)):
            g = graph_scan(n, rho)
            rep = sp_fraction(n, rho)
            assert g.num_fixpoints == rep.sp_count
            assert g.num_fixpoints <= g.num_components
            assert g.num_components == g.num_fixpoints + len(g.cycles)
            # every cycle member maps back within its own cycle
            for cyc in g.cycles:
                assert len(set(cyc)) == len(cyc) > 1


def test_graph_scan_domain():
    with pytest.raises(InvalidArgument):
        graph_scan(5, Fraction(1, 2))
