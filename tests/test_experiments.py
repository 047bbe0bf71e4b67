"""Shell biases, bad points, threshold constants, censuses, predictor orbits."""

import random
import tracemalloc
from fractions import Fraction
from math import comb, isclose, sqrt

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    random_function,
    shell_bias,
    sp_fraction,
    threshold_constants,
)
from boolsp.experiments import (
    GraphScan,
    _binary_divergence,
    _crossover_level,
    _eta_delta,
    _eta_delta_defined,
    _class_table,
    _read_through,
    _sign_keys,
)
from boolsp.noise import optimal_predictor, scaled_t_values

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


def test_shell_bias_and_bad_point_check_the_point():
    # -1 read the shell of point 7, and 8 raised a raw IndexError
    f = construct_named("majority", 3)
    for v in (-1, 8):
        with pytest.raises(InvalidArgument):
            shell_bias(f, v, 1)
        with pytest.raises(InvalidArgument):
            bad_point_detect(f, v, Fraction(1, 4))


def test_bad_point_or_apex():
    f = construct_named("or", 3)
    rep = bad_point_detect(f, 0, Fraction(1, 4))
    assert rep.ell == 2  # default ceil(log2(3))
    assert rep.beta == (Fraction(1), Fraction(1))
    assert rep.bad
    for n in range(1, 18):  # the default is the least ell >= 1 with 2^ell >= n
        ell = bad_point_detect(construct_named("or", n), 0, 0).ell
        assert ell >= 1 and 1 << ell >= n and (ell == 1 or 1 << (ell - 1) < n)


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


def test_eta_delta_defined_is_exact_at_the_boundary():
    # delta_max ~ 0.0974247 lies between 39/400 = 0.0975 and 487/5000 = 0.0974
    inside, outside = Fraction(487, 5000), Fraction(39, 400)
    assert _eta_delta_defined(inside) and not _eta_delta_defined(outside)
    assert threshold_constants(delta=inside).eta_delta_defined
    assert not threshold_constants(delta=outside).eta_delta_defined
    # about 1e-17 above the boundary the float divergences still meet the
    # level at 1/4; the exact test says no, and eta_delta is not rendered
    above = Fraction(56893724585295547, 583976667009182349)
    assert _eta_delta(float(above)) is not None and not _eta_delta_defined(above)
    c = threshold_constants(delta=above)
    assert not c.eta_delta_defined and c.eta_delta is None


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(1, 2), max_denominator=10**6))
def test_eta_delta_defined_matches_sympy_logs(delta):
    """Against sympy's 50-digit logs of the two sides, away from delta_max."""
    assume(delta < Fraction(1, 2))
    d = sympy.Rational(delta.numerator, delta.denominator)
    quarter = sympy.Rational(1, 4)
    divergence = quarter * sympy.log(quarter / d, 2) + (1 - quarter) * sympy.log(
        (1 - quarter) / (1 - d), 2
    )
    level = sympy.log(1 / (d * d + (1 - d) ** 2), 2) / 2
    gap = sympy.N(divergence - level, 50)
    assume(abs(gap) > sympy.Float("1e-30"))
    assert _eta_delta_defined(delta) == bool(gap > 0)


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


@pytest.mark.parametrize("n", range(5))
def test_scans_closed_form_pins(n):
    # at rho = 0 the keep rule sends f to the sign of its mean, so the fixpoints
    # are the two constants and the balanced tables (a tie at every point; none
    # at n = 0), and every other table reaches a constant in one step; at
    # rho = 1 every table is its own successor
    total = 1 << (1 << n)
    balanced = comb(1 << n, 1 << (n - 1)) if n else 0
    for rho, count, depth in ((Fraction(0), balanced + 2, int(n >= 2)), (Fraction(1), total, 0)):
        assert sp_fraction(n, rho).sp_count == count
        assert graph_scan(n, rho) == GraphScan(n, rho, total, count, depth)


def test_sp_fraction_sample_mode():
    a = sp_fraction(3, Fraction(1, 2), mode="sample", samples=400, seed=7)
    b = sp_fraction(3, Fraction(1, 2), mode="sample", samples=400, seed=7)
    assert (a.sp_count, a.estimate, a.stderr) == (b.sp_count, b.estimate, b.stderr)
    assert a.fraction is None and a.seed == 7
    assert a.stderr == pytest.approx(sqrt(a.estimate * (1 - a.estimate) / 400))
    exact = sp_fraction(3, Fraction(1, 2)).estimate
    assert abs(a.estimate - exact) <= 5 * max(a.stderr, 1e-3)


def test_low_half_orbits_partition_the_low_halves():
    # orbits of the functions of n - 1 variables under permutations, flips and
    # negation: 1, 1, 2, 4, 14, 222 (one point, so two tables, at n = 0)
    for n, count in enumerate((1, 1, 2, 4, 14, 222)):
        _, reps, sizes = _class_table(max(n - 1, 0))
        assert len(reps) == len(sizes) == count
        assert int(sizes.sum()) == 1 << (1 << max(n - 1, 0))
        assert reps[0] == 0 and (np.diff(reps) > 0).all()
    # n = 3: constant, dictator and parity of x_1, x_2, and the eight tables
    # where one point differs from the other three
    assert _class_table(2)[1].tolist() == [0, 1, 3, 6]
    assert _class_table(2)[2].tolist() == [2, 8, 4, 2]


def test_class_table_is_the_orbit_partition():
    # classes of the tables of m variables under permutations, flips and
    # negation (OEIS A000370): a least-id label constant along every
    # generator, with as many values as there are orbits
    for m, count in enumerate((1, 2, 4, 14, 222)):
        label, reps, sizes = _class_table(m)
        ids = np.arange(1 << (1 << m))
        assert len(reps) == len(sizes) == count
        assert reps[0] == 0 and (np.diff(reps) > 0).all()
        assert int(sizes.sum()) == len(ids) == len(label)
        assert (label[reps] == reps).all() and (label <= ids).all()
        assert (np.bincount(label)[reps] == sizes).all()
        j = np.arange(1 << m)
        flips = [j ^ (1 << i) for i in range(m)]
        swaps = [j ^ (((j >> i) ^ (j >> (i + 1))) & 1) * (3 << i) for i in range(m - 1)]
        gens = [ids ^ ids[-1]]
        if m:
            gens += list(_read_through(np.array(flips + swaps).reshape(-1, 1 << m)))
        for g in gens:
            assert (label[g] == label).all()
    assert _class_table(4)[0].dtype == np.uint16


def test_class_table_peak_memory():
    # one generator at a time, in uint16 ids: a few 128 KiB arrays at m = 4
    _class_table.cache_clear()
    tracemalloc.start()
    try:
        label = _class_table(4)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(label) == 1 << 16 and peak < 2 << 20


# from n = 2 (n = 1 for 1/3^40) q^n > 2^62
BEYOND_INT64 = (Fraction(1, 3**40), Fraction(999999999999, 10**13), Fraction(2**70 - 1, 2**70))


# graph_scan's depth is at most 5 at n <= 4 over rho = k/16, k/24, k/40, k/60
# and k/97, so a walk that has not stood still after this many steps is caught
# in a cycle (or a fault) and fails at once instead of running on.
_MAX_MAP_STEPS = 32


def _full_map_scan(n, rho):
    """(successors of all tables, their GraphScan): the whole map of
    oracles.keep_successors is iterated until every table stands at its
    fixpoint, within _MAX_MAP_STEPS steps."""
    succ = oracles.keep_successors(n, rho)
    x = np.arange(len(succ))
    for depth in range(_MAX_MAP_STEPS + 1):
        if np.array_equal(succ[x], x):
            break
        x = succ[x]
    else:
        raise AssertionError(f"no standstill after {_MAX_MAP_STEPS} steps at n={n}, rho={rho}")
    fixpoints = int(np.count_nonzero(succ == np.arange(len(succ))))
    return succ, GraphScan(n, rho, len(succ), fixpoints, depth)


def _examples(cases):
    """Run a hypothesis test on every (n, rho) of cases besides its draws."""

    def wrap(test):
        for case in cases:
            test = example(*case)(test)
        return test

    return wrap


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 4),
    st.sampled_from(BEYOND_INT64)
    | st.fractions(min_value=0, max_value=1, max_denominator=10**6),
)
@_examples(
    (n, rho)
    for n in range(5)
    for rho in [Fraction(k, d) for d in (60, 97) for k in range(d + 1)] + [*BEYOND_INT64]
)
def test_orbit_census_matches_every_fixpoint(n, rho):
    # both scans read the successors of the class representatives; the
    # successors of all tables, from keys of their own, give the same results
    succ, want = _full_map_scan(n, rho)
    rep = sp_fraction(n, rho)
    assert (rep.sp_count, rep.total) == (want.num_fixpoints, len(succ))
    assert graph_scan(n, rho) == want
    if n <= 3:  # the depth-first walk takes about 60 ms at n = 4
        fixpoints, depth = want.num_fixpoints, want.max_depth
        assert oracles.functional_graph(succ.tolist()) == (fixpoints, fixpoints, depth, ())


def test_census_peak_memory():
    # the keys and the successors of the 222 class representatives at n = 4;
    # the class table, key index and own bits are built (and memoised) by the
    # first call.  The successors of all 2^16 tables alone would take 128 KiB.
    rho = Fraction(2, 5)
    sp_fraction(4, rho)
    tracemalloc.start()
    try:
        rep = sp_fraction(4, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.total == 1 << 16 and peak < 128 << 10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.sampled_from(BEYOND_INT64) | st.fractions(min_value=0, max_value=1))
@_examples(  # at n = 5 the oracle takes about 0.1 s per rho
    (5, rho) for rho in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), BEYOND_INT64[2])
)
def test_sign_keys_match_half_sums(n, rho):
    # the ranks of the count forms, gathered, are the ranks of the doubled sums
    cols, rows = _sign_keys(n, rho)
    want_cols, want_rows = oracles.half_sum_keys(n, rho)
    assert cols.dtype == rows.dtype == np.int32
    assert np.array_equal(cols, want_cols) and np.array_equal(rows, want_rows)


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


@st.composite
def rationals_in_unit(draw):
    q = draw(st.integers(1, 10**6))
    return Fraction(draw(st.integers(0, q)), q)


@settings(max_examples=200, deadline=None)
@given(
    st.builds(random_function, st.sampled_from(range(1, 11)), st.integers(0, 2**32 - 1)),
    rationals_in_unit(),
)
@example(random_function(10, 3), Fraction(7, 10))  # 32 steps
@example(random_function(9, 4), Fraction(7, 10))  # 25 steps
def test_orbit_energy_falls_to_the_fixpoint(f, rho):
    # the key step of the no-cycles proof (see graph_scan), on real orbits: with
    # W x = scaled_t_values, the keep rule is x -> sgn(2 W x + x) and
    # 2E(t) = -(2 x(t+1).W x(t) + x(t+1).x(t)) falls by at least 2 a step
    x = f.values.astype(np.int64)
    energies = []
    for _ in range(256):
        wx = scaled_t_values(BooleanFunction.from_values(x), rho).astype(object)
        y = np.where(2 * wx + x > 0, 1, -1)  # 2 W x + x is odd: never zero
        energies.append(-(2 * int(y @ wx) + int(y @ x)))
        if np.array_equal(y, x):
            break
        x = y
    assert np.array_equal(y, x), "no fixpoint within 256 steps"
    assert all(b <= a - 2 for a, b in zip(energies, energies[1:])), energies
    rep = predictor_orbit(f, rho)
    assert rep.status == "fixpoint" and rep.trajectory_length == len(energies)
    assert rep.terminal == BooleanFunction.from_values(x)


# ---------------------------------------------------------------------------
# graph scans


def _kernel_signs(n, rho):
    """Signs of 2^n q^n T_rho f from _sign_keys, one list per table id."""
    cols, rows = _sign_keys(n, rho)
    ids = np.arange(1 << (1 << n))
    return np.sign(cols[:, ids % cols.shape[1]] - rows[:, ids // cols.shape[1]]).T.tolist()


def _value_signs(n, rho, bits):
    """Signs of the per-function scaled_t_values (at n = 0, T_rho f = f)."""
    if n == 0:
        return [2 * bits - 1]
    return [(x > 0) - (x < 0) for x in scaled_t_values(BooleanFunction(n, bits), rho).tolist()]


def test_batch_values_match_per_function_values():
    # the whole-space kernel gives the signs of scaled_t_values, and its
    # keep-rule successors are the keep-rule predictors, for every table
    for n in range(4):
        total = 1 << (1 << n)
        for rho in (Fraction(0), Fraction(1, 3), Fraction(3, 8), Fraction(1), Fraction(5, 7)):
            signs = _kernel_signs(n, rho)
            succ = oracles.keep_successors(n, rho).tolist()
            assert len(signs) == len(succ) == total
            for bits in range(total):
                assert signs[bits] == _value_signs(n, rho, bits), (n, rho, bits)
                if n:
                    keep = optimal_predictor(BooleanFunction(n, bits), rho, tie_rule="keep")
                    assert succ[bits] == keep.to_boolean().bits, (n, rho, bits)
            assert n or succ == [0, 1]


def test_batch_signs_match_per_function_values_beyond_int64():
    # the kernel's ranks stay exact where q^n passes 2^62
    for n in range(4):
        for rho in BEYOND_INT64:
            for bits, signs in enumerate(_kernel_signs(n, rho)):
                assert signs == _value_signs(n, rho, bits), (n, rho, bits)


def test_graph_scan_walks_the_class_map_only():
    # a warm scan of either kind builds the successors of the 222 class
    # representatives, not the 2^16 successors of all tables (128 KiB alone)
    rho = Fraction(3, 8)
    _, want = _full_map_scan(4, rho)
    for scan in (graph_scan, sp_fraction):
        scan(4, rho)
        tracemalloc.start()
        try:
            scan(4, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 << 10, (scan.__name__, peak)
    assert graph_scan(4, rho) == want


def test_graph_scan_n1_all_fixpoints():
    for rho in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        g = graph_scan(1, rho)
        assert g.num_functions == 4
        assert g.num_fixpoints == 4
        assert g.max_depth == 0


def test_graph_scan_n2_above_threshold():
    g = graph_scan(2, Fraction(1, 2))  # 1/2 > sqrt(2)-1: everything is SP
    assert g.num_fixpoints == 16
    assert g.max_depth == 0


def test_graph_scan_fixpoints_match_census():
    # 2/5 and 5/12 lie on either side of a jump of the n = 4 census
    for n in (2, 3, 4):
        for rho in (Fraction(1, 4), Fraction(2, 5), Fraction(5, 12), Fraction(1, 2)):
            g = graph_scan(n, rho)
            rep = sp_fraction(n, rho)
            assert g.num_fixpoints == rep.sp_count


ORBIT_RHOS = (Fraction(0), Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1))


def test_orbit_steps_agree_with_graph_depth():
    # predictor_orbit (the dense T_rho path) never takes more steps than the
    # graph scan's depth, and the deepest table takes exactly that many
    for n in (1, 2, 3):
        for rho in ORBIT_RHOS:
            depth = graph_scan(n, rho).max_depth
            steps = [
                predictor_orbit(BooleanFunction(n, bits), rho).trajectory_length - 1
                for bits in range(1 << (1 << n))
            ]
            assert max(steps) == depth, (n, rho)


@pytest.mark.parametrize("rho", ORBIT_RHOS)
def test_deepest_n4_table_takes_max_depth_orbit_steps(rho):
    succ, scan = _full_map_scan(4, rho)
    x, steps = np.arange(len(succ)), np.zeros(len(succ), dtype=int)
    for _ in range(scan.max_depth):
        steps += succ[x] != x
        x = succ[x]
    deepest = int(np.argmax(steps))
    assert steps[deepest] == scan.max_depth == graph_scan(4, rho).max_depth
    rep = predictor_orbit(BooleanFunction(4, deepest), rho)
    assert rep.status == "fixpoint" and rep.trajectory_length == scan.max_depth + 1
    assert rep.terminal.bits == x[deepest]


def test_graph_scan_domain():
    with pytest.raises(InvalidArgument):
        graph_scan(5, Fraction(1, 2))
