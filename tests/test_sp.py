"""SP decisions, regions, taxonomy, thresholds — frozen values and oracles."""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolsp import (
    BooleanFunction,
    InvalidArgument,
    LtfSpec,
    PreconditionError,
    chow_gap_bound,
    classify,
    construct_ltf,
    construct_named,
    dominating_boundary_points,
    is_sp,
    is_sp_at,
    ltf_approximation,
    ltf_ratio_check,
    necessary_checks,
    negate_inputs,
    product_compose,
    random_function,
    sp_polynomial,
    sp_region,
    spectral_summary,
    stability_report,
    sufficient_thresholds,
)
from boolsp.noise import disagreement, scaled_t_values
from boolsp.sp import _sqrt_lower

import oracles


def maj(n):
    return construct_named("majority", n)


def rand_fn(rng, n):
    return BooleanFunction.from_values([rng.choice((-1, 1)) for _ in range(1 << n)])


# ---------------------------------------------------------------------------
# point decisions


def test_sp_polynomial_at_one_gives_function_value():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        f = rand_fn(rng, n)
        for v in range(1 << n):
            row = sp_polynomial(f, v)
            assert sum(row) == (1 << n) * f.value_at(v)


def test_is_sp_matches_oracle_exhaustively():
    rng = random.Random(12)
    grid = [Fraction(k, 8) for k in range(9)]
    for _ in range(30):
        n = rng.randint(1, 4)
        f = rand_fn(rng, n)
        vals = oracles.table(f)
        for rho in grid:
            assert is_sp(f, rho).sp == oracles.is_sp(vals, n, rho)


def test_is_sp_witness_is_least_failing_index():
    f = construct_named("or", 3)
    dec = is_sp(f, Fraction(1, 2))
    assert not dec.sp
    # recompute the least disagreeing index from the oracle side
    vals = oracles.table(f)
    for v in range(8):
        t = oracles.t_rho(vals, 3, Fraction(1, 2))[v]
        if t != 0 and (t > 0) != (vals[v] > 0):
            assert dec.witness == v
            break


def test_balanced_function_ties_at_zero():
    f = construct_named("character", 3, coords=[1, 2])
    d = is_sp_at(f, Fraction(0), 5)
    assert d.sp and d.tie


def test_dominating_boundary_decides_sp_for_monotone():
    """For monotone f, T_rho f disagrees with f somewhere exactly when it does
    at a dominating boundary point, so those points decide is_sp."""
    rng = random.Random(13)
    grid = [Fraction(k, 7) for k in range(8)]
    outcomes = set()
    checked = 0
    while checked < 12:
        n = rng.randint(2, 4)
        a = tuple(rng.randrange(1, 8) * 2 - 1 for _ in range(n))
        a0 = rng.randrange(-3, 4) * 2 * (1 - n % 2) + (1 - n % 2)
        try:
            f = construct_ltf(LtfSpec(a0 if (sum(a) + a0) % 2 else a0 + 1, a))
        except Exception:
            continue
        points = dominating_boundary_points(f)
        for rho in grid:
            bad = disagreement(f.values, scaled_t_values(f, rho))
            sp = is_sp(f, rho).sp
            assert bool(bad[points].any()) == (not sp)
            outcomes.add(sp)
        checked += 1
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# regions


def check_region_on_grid(f, region, den=32):
    vals = oracles.table(f)
    for k in range(den + 1):
        x = Fraction(k, den)
        member = oracles.region_membership(region, x)
        if member is None:
            continue  # endpoint enclosure straddles the grid point
        assert member == oracles.is_sp(vals, f.n, x), (k, den)


def test_majority_regions_are_full_interval():
    for n in (3, 5):
        region = sp_region(maj(n))
        assert len(region.intervals) == 1
        iv = region.intervals[0]
        assert iv.lo.kind == "exact" and iv.lo.value == 0
        assert iv.hi.kind == "exact" and iv.hi.value == 1
        assert iv.lo_closed and iv.hi_closed


def test_character_region_full():
    f = construct_named("character", 4, coords=[1, 3, 4])
    region = sp_region(f)
    assert len(region.intervals) == 1
    assert region.intervals[0].lo.value == 0
    assert region.intervals[0].hi.value == 1


def test_or_region_boundary_exact_containment():
    # left endpoint is the root of (1+rho)^n = 2^(n-1)
    for n in (2, 3, 4):
        region = sp_region(construct_named("or", n), epsilon=Fraction(1, 10**9))
        assert len(region.intervals) == 1
        iv = region.intervals[0]
        assert iv.hi.kind == "exact" and iv.hi.value == 1
        assert iv.lo.kind == "enclosure"
        assert (1 + iv.lo.lo) ** n <= (1 << (n - 1)) <= (1 + iv.lo.hi) ** n
        assert iv.lo.hi - iv.lo.lo <= Fraction(1, 10**9)
        check_region_on_grid(construct_named("or", n), region)


def test_epsilon_controls_enclosure_width():
    f = construct_named("or", 3)
    wide = sp_region(f, epsilon=Fraction(1, 10**3)).intervals[0].lo
    tight = sp_region(f, epsilon=Fraction(1, 10**12)).intervals[0].lo
    assert wide.hi - wide.lo <= Fraction(1, 10**3)
    assert tight.hi - tight.lo <= Fraction(1, 10**12)
    assert wide.lo <= tight.lo and tight.hi <= wide.hi


def test_balanced_product_gets_degenerate_zero_component():
    # OR(2) x fresh character: balanced, so {0} joins OR(2)'s own region
    g = product_compose(
        construct_named("or", 2), construct_named("character", 1, coords=[1])
    )
    region = sp_region(g)
    assert len(region.intervals) == 2
    first, second = region.intervals
    assert first.lo.kind == "exact" and first.lo.value == 0
    assert first.hi.kind == "exact" and first.hi.value == 0
    assert (1 + second.lo.lo) ** 2 <= 2 <= (1 + second.lo.hi) ** 2
    assert second.hi.value == 1
    # pointwise: the product region is OR(2)'s region plus the origin
    base = sp_region(construct_named("or", 2))
    for k in range(33):
        x = Fraction(k, 32)
        got = oracles.region_membership(region, x)
        want = oracles.region_membership(base, x)
        if got is None or want is None or x == 0:
            continue
        assert got == want


def test_regions_match_grid_oracle_randomly():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(1, 3)
        f = rand_fn(rng, n)
        check_region_on_grid(f, sp_region(f))


def test_edic9_known_points():
    f = construct_named("edic", 9)
    assert is_sp(f, Fraction(9, 10)).sp
    assert not is_sp(f, Fraction(4, 5)).sp


# ---------------------------------------------------------------------------
# classification


def test_majority_classification():
    c = classify(maj(3))
    assert c.usp and c.lcsp and c.wst and c.sst
    assert c.monotonically_sp and c.rho0.kind == "exact" and c.rho0.value == 0
    assert c.lev == 1 and c.lev_zero_count == 0


def test_or_classification():
    c = classify(construct_named("or", 3))
    assert not c.usp
    assert not c.lcsp  # not SP near 0 (unbalanced, non-constant)
    assert not c.wst  # lev = 0 and the mean disagrees with f off the top point
    assert not c.sst
    assert c.monotonically_sp
    assert c.rho0.kind == "enclosure"
    assert (1 + c.rho0.lo) ** 3 <= 4 <= (1 + c.rho0.hi) ** 3
    assert "usp" in c.witnesses and "wst" in c.witnesses


def test_characters_are_usp():
    rng = random.Random(15)
    for _ in range(10):
        n = rng.randint(1, 6)
        coords = [i + 1 for i in range(n) if rng.random() < 0.5] or [1]
        c = classify(construct_named("character", n, coords=coords))
        assert c.usp and c.lcsp and c.wst and c.sst
        assert c.monotonically_sp and c.rho0.value == 0


def test_weighted_majority_2111():
    f = construct_ltf(LtfSpec(0, (2, 1, 1, 1)))
    c = classify(f)
    assert c.usp and c.lcsp and c.wst
    assert not c.sst
    assert c.lev == 1 and c.lev_zero_count == 2
    # the two zeros of the level-1 form, from its Chow coefficients
    # (3/4, 1/4, 1/4, 1/4): 3x1 = -(x2+x3+x4)
    summary = spectral_summary(f)
    assert summary.chow[1:] == (
        Fraction(3, 4),
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(1, 4),
    )


def test_usp_family_small_members():
    for a in ((1, 1, 3, 3, 5), (1, 1, 3, 3, 3, 5, 7)):
        c = classify(construct_ltf(LtfSpec(0, a)))
        assert c.usp
        assert c.region.intervals[0].lo.value == 0
        assert c.region.intervals[-1].hi.value == 1


def test_classification_invariants_exhaustive_n3():
    grid = [Fraction(k, 16) for k in range(17)]
    for bits in range(256):
        f = BooleanFunction(3, bits)
        c = classify(f)
        vals = oracles.table(f)
        balanced = sum(vals) == 0
        constant = all(v == vals[0] for v in vals)
        # implication chain
        if c.sst:
            assert c.lcsp
        if c.lcsp:
            assert c.wst
        if c.usp:
            assert c.lcsp
        # LCSP functions are balanced or constant
        if c.lcsp:
            assert balanced or constant
        # 0 in region iff balanced (tie everywhere) or constant
        zero_in = oracles.region_membership(c.region, Fraction(0))
        assert zero_in == (balanced or constant)
        # 1 is always in the region; last interval reaches exactly 1
        assert c.region.intervals
        assert c.region.intervals[-1].hi.kind == "exact"
        assert c.region.intervals[-1].hi.value == 1
        # usp iff region is the whole [0,1]
        full = (
            len(c.region.intervals) == 1
            and c.region.intervals[0].lo.kind == "exact"
            and c.region.intervals[0].lo.value == 0
            and c.region.intervals[0].hi.value == 1
        )
        assert c.usp == full
        # lcsp iff SP on a right-neighborhood of 0; for n=3 the smallest
        # positive root of any point polynomial exceeds 1/25 (Cauchy bound),
        # so membership at rho=1/100 decides it for balanced/constant f
        if balanced or constant:
            assert c.lcsp == oracles.is_sp(vals, 3, Fraction(1, 100))
        # region agrees with the exact oracle on the grid
        for x in grid:
            member = oracles.region_membership(c.region, x)
            if member is not None:
                assert member == oracles.is_sp(vals, 3, x)


def test_monotonically_sp_ignores_origin_component():
    g = product_compose(
        construct_named("or", 2), construct_named("character", 1, coords=[1])
    )
    c = classify(g)
    assert c.monotonically_sp
    assert (1 + c.rho0.lo) ** 2 <= 2 <= (1 + c.rho0.hi) ** 2


@pytest.mark.parametrize("name", ["majority", "edic"])
def test_classification_invariant_under_input_negation_n21(name):
    # 2^21 points but few orbits: majority is one block, edic the blocks
    # {1} and {2..21}; the seeded negations only move the orbits around.
    # Witnesses are points, so only their names must agree.
    f = construct_named(name, 21)
    rng = np.random.Generator(np.random.PCG64(21))
    masked = classify(negate_inputs(f, [int(s) for s in rng.choice((-1, 1), size=21)]))
    plain = classify(f)
    assert sorted(masked.witnesses) == sorted(plain.witnesses)
    assert replace(masked, witnesses={}) == replace(plain, witnesses={})


# ---------------------------------------------------------------------------
# sufficient thresholds


def test_no_flip_threshold_values():
    t1 = sufficient_thresholds(construct_named("character", 1, coords=[1]))
    assert t1.no_flip.kind == "exact" and t1.no_flip.value == 0
    t3 = sufficient_thresholds(maj(3), epsilon=Fraction(1, 10**9))
    ep = t3.no_flip
    assert (1 + ep.lo) ** 3 <= 4 <= (1 + ep.hi) ** 3


def test_no_flip_threshold_grows_with_n():
    approx = []
    for n in (2, 3, 5, 8):
        ep = sufficient_thresholds(construct_named("or", n)).no_flip
        approx.append(ep.approx())
    assert approx == sorted(approx)
    assert approx[1] == pytest.approx(2 ** (2 / 3) - 1, abs=1e-6)


def test_every_n3_function_sp_above_universal_threshold():
    # 3/5 lies above the n=3 universal bound 2^(2/3) - 1 = 0.5874
    for bits in range(256):
        f = BooleanFunction(3, bits)
        assert is_sp(f, Fraction(3, 5)).sp
    # ... and the bound is tight enough that 0.58 fails for OR(3)
    assert not is_sp(construct_named("or", 3), Fraction(58, 100)).sp


def test_degree_bound_majority():
    t = sufficient_thresholds(maj(3))
    # Deg = 3, spectral 1-norm = 2: 1 - 1/(3*min(3,2)) = 5/6
    assert t.degree_bound == Fraction(5, 6)
    assert is_sp(maj(3), Fraction(5, 6)).sp


def test_degree_bound_constant_is_zero():
    f = BooleanFunction.from_values([1, 1])
    t = sufficient_thresholds(f)
    assert t.degree_bound == 0
    assert t.sparsity_bound.kind == "exact" and t.sparsity_bound.value == 0


def test_sparsity_bound_majority_against_sympy():
    import sympy

    t = sufficient_thresholds(maj(3), epsilon=Fraction(1, 10**9))
    ep = t.sparsity_bound
    # support levels of maj3: three singletons, one triple -> 3r + r^3 = 3
    x = sympy.Symbol("x")
    root = sympy.real_roots(sympy.Poly(x**3 + 3 * x - 3, x))[0]
    assert sympy.Rational(ep.lo) <= root.evalf(30) <= sympy.Rational(ep.hi)
    assert is_sp(maj(3), Fraction(ep.hi).limit_denominator(10**6) + Fraction(1, 100)).sp


def test_sufficient_thresholds_actually_suffice():
    rng = random.Random(16)
    for _ in range(15):
        n = rng.randint(1, 3)
        f = rand_fn(rng, n)
        t = sufficient_thresholds(f)
        vals = oracles.table(f)
        for ep in (t.no_flip, t.sparsity_bound):
            start = ep.value if ep.kind == "exact" else ep.hi
            for step in range(4):
                x = start + (1 - start) * Fraction(step, 4) + Fraction(1, 1000)
                if x <= 1:
                    assert oracles.is_sp(vals, n, x)
        d = t.degree_bound
        assert oracles.is_sp(vals, n, d + Fraction(1, 1000)) or d + Fraction(1, 1000) > 1


# ---------------------------------------------------------------------------
# necessary checks


def test_necessary_checks_majority_frozen():
    r = necessary_checks(maj(3), Fraction(1, 2))
    assert r.stab == Fraction(13, 32)
    assert r.max_term == Fraction(1, 4)  # rho^1 * 1/2
    assert r.basic_ok
    assert r.hyper_ok is True


def test_necessary_checks_consistency_random():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 4)
        f = rand_fn(rng, n)
        rho = Fraction(rng.randint(0, 8), 8)
        r = necessary_checks(f, rho)
        assert r.basic_ok == (r.stab >= r.max_term)
        if r.hyper_ok is True:
            assert r.stab * r.stab >= r.hyper_rhs_hi
        elif r.hyper_ok is False:
            assert r.stab * r.stab < r.hyper_rhs_lo
        else:
            assert r.hyper_rhs_lo <= r.stab * r.stab < r.hyper_rhs_hi
        # SP functions must pass both (hyper may be indeterminate, never False)
        if is_sp(f, rho).sp:
            assert r.basic_ok
            assert r.hyper_ok is not False


# ---------------------------------------------------------------------------
# LTF approximation from level-1 coefficients


def test_ltf_approximation_recovers_majority():
    rep = ltf_approximation(maj(3))
    assert rep.distance == 0
    assert rep.zero_set_size == 0
    g = construct_ltf(rep.g)
    assert (g.values == maj(3).values).all()


def test_ltf_approximation_dictator():
    f = construct_named("character", 3, coords=[2])
    rep = ltf_approximation(f)
    assert rep.distance == 0
    assert rep.zero_set_size == 0


def test_ltf_approximation_zero_set_bounds():
    f = construct_ltf(LtfSpec(0, (2, 1, 1, 1)))
    rep = ltf_approximation(f)
    assert rep.zero_set_size == 2
    assert Fraction(rep.zero_set_size, 16) <= rep.sperner_cap
    # cap <= certified lower bound of sqrt(2/(pi m)) (m = 4 active coords)
    assert rep.sperner_cap <= rep.bound
    assert rep.bound * rep.bound <= Fraction(2, 4) / Fraction(31415, 10**4)
    assert rep.distance <= Fraction(rep.zero_set_size, 16)


def test_ltf_approximation_needs_level_one_mass():
    from boolsp import InvalidArgument

    f = construct_named("character", 2, coords=[1, 2])
    with pytest.raises(InvalidArgument):
        ltf_approximation(f)


def ltf_fits(fns):
    """Compare ltf_approximation with the per-point loops of the oracle on
    each function; return the oracle's offsets."""
    offsets = []
    for f in fns:
        want = oracles.ltf_approximation(oracles.table(f), f.n)
        if want is None:
            with pytest.raises(InvalidArgument):
                ltf_approximation(f)
            continue
        rep = ltf_approximation(f)
        got = ((rep.g.a0, rep.g.a), rep.distance, rep.sperner_cap, rep.bound, rep.zero_set_size)
        assert got == want[:5], (f.n, f.bits)
        offsets.append(want[5])
    return offsets


def test_ltf_approximation_matches_point_loops_on_small_tables():
    for n in (1, 2):
        ltf_fits(BooleanFunction(n, bits) for bits in range(1 << (1 << n)))
    offsets = ltf_fits(BooleanFunction(3, bits) for bits in range(256))
    assert sum(s != 0 for s in offsets) == 24  # tables whose offset search skips 0


def test_ltf_approximation_matches_point_loops():
    ltf_fits(random_function(n, s) for n in range(4, 13) for s in range(10))
    ties = [LtfSpec(1, (1,) * k) for k in range(4, 19, 2)] + [LtfSpec(1, (2, 2, 1, 1, 1, 1, 3, 3))]
    ltf_fits(construct_ltf(spec) for spec in ties)


@given(st.fractions(min_value=0))
def test_sqrt_lower_is_the_floor_on_the_1e12_grid(x):
    r = _sqrt_lower(x)
    assert r >= 0 and r * r <= x < (r + Fraction(1, 10**12)) ** 2


def test_sperner_cap_below_analytic_bound():
    from math import comb

    for m in range(1, 25):
        cap = Fraction(comb(m, m // 2), 1 << m)
        # cap^2 <= 2/(pi m) using a rational upper bound of pi
        assert cap * cap * m * Fraction(31416, 10**4) <= 2


# ---------------------------------------------------------------------------
# ratio check


def test_ratio_check_majority_not_violating():
    r = ltf_ratio_check(LtfSpec(0, (1, 1, 1)))
    assert r.ratio == 1.0
    assert not r.violates


def test_ratio_check_preconditions():
    with pytest.raises(PreconditionError):
        ltf_ratio_check(LtfSpec(0, (1,)))
    with pytest.raises(PreconditionError):
        ltf_ratio_check(LtfSpec(1, (2, 0, 1)))
    with pytest.raises(PreconditionError):
        ltf_ratio_check(LtfSpec(0, (25, 1, 1)))  # dictator: dead coordinates


def test_ratio_violation_implies_not_lcsp():
    # n = 10 is the smallest n where the bound sqrt(2n ln 2n)+1 < n-1 allows
    # a fully dependent violator; 35/4 = 8.75 >= 8.7405
    spec = LtfSpec(0, (35, 4, 4, 4, 4, 4, 4, 4, 4, 4))
    r = ltf_ratio_check(spec)
    assert r.violates
    f = construct_ltf(spec)
    c = classify(f)
    assert not c.lcsp


def test_ratio_check_detects_functionally_dead_coordinate():
    # the weight-1 coordinate never decides the sign here (188 is not a
    # signed subset sum of the other weights), so the dependence
    # precondition fires even though every written coefficient is nonzero
    spec = LtfSpec(0, (1, 5, 16, 19, 25, 58, 68, 91, 94))
    with pytest.raises(PreconditionError) as exc:
        ltf_ratio_check(spec)
    assert "1" in str(exc.value)


@pytest.mark.parametrize(
    "big, small",
    [
        (586920495, 67149878),  # convergent just below sqrt(20 ln 20) + 1
        (1839493879, 210457448),  # the next convergent below
        (626286692, 71653785),  # a convergent just above
    ],
)
def test_ratio_violation_decided_exactly_near_the_bound(big, small):
    # n = 10: the ratios are continued-fraction convergents of the bound, all
    # within 2e-16 of it, where comparing floats used to misjudge
    import sympy

    bound = sympy.sqrt(20 * sympy.log(20)) + 1
    diff = sympy.N(sympy.Rational(big, small) - bound, 60)
    r = ltf_ratio_check(LtfSpec(0, (big,) + (small,) * 9))
    assert r.violates == bool(diff >= 0)
    assert abs(r.ratio - r.bound) < 1e-15  # renderings only


def test_ln_enclosure_brackets_ln():
    import sympy

    from boolsp.sp import _ln_enclosure

    for m in (2, 3, 4, 6, 20, 97, 1024, 10**9 + 7):
        lo, hi = _ln_enclosure(m, 8)
        exact = sympy.log(m)
        assert sympy.Rational(lo.numerator, lo.denominator) < exact
        assert exact < sympy.Rational(hi.numerator, hi.denominator)
        assert hi - lo < Fraction(1, 10**7)


def test_non_violating_ratio_on_fully_dependent_ltf():
    r = ltf_ratio_check(LtfSpec(0, (1, 1, 3, 3, 5)))
    assert r.ratio == pytest.approx(5 / 3)
    assert not r.violates  # the proposition is one-directional


# ---------------------------------------------------------------------------
# Chow gap bound


def test_chow_gap_bound_majority_vs_negated():
    f = maj(3)
    g = negate_inputs(f, (-1, 1, 1))
    rep = chow_gap_bound(f, g)
    assert rep.chow_sq == 1  # level-1 coefficients differ by 1 in slot 1
    assert rep.gap == Fraction(1, 2)
    assert rep.bound == 1
    assert rep.distance == Fraction(1, 2)  # disagree exactly when x1 is pivotal
    assert rep.ok


def test_chow_gap_bound_identical_functions():
    rep = chow_gap_bound(maj(3), maj(3))
    assert rep.distance == 0 and rep.chow_sq == 0 and rep.ok


def test_chow_gap_bound_preconditions_reported():
    with pytest.raises(PreconditionError) as exc:
        chow_gap_bound(construct_named("or", 3), maj(3))
    assert "balanced" in str(exc.value)
    with pytest.raises(PreconditionError) as exc:
        chow_gap_bound(maj(3), construct_named("character", 3, coords=[1]))
    assert "depend" in str(exc.value)
