"""Noise operator, optimal prediction, stability — exact, against slow oracles."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolsp import (
    BooleanFunction,
    InvalidArgument,
    LtfSpec,
    closeness_to_sp,
    construct_ltf,
    construct_named,
    is_sp,
    level_values,
    noise_operator,
    optimal_predictor,
    prediction_gain,
    properties,
    stability_report,
    wht,
)
from boolsp import noise
from boolsp.noise import scaled_t_values
from boolsp.sp import SpDecision
from boolsp.spectrum import ScaledSpectrum, _limb_plan, _weighted_signs

import oracles

RHO_GRID = [Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(1, 2),
            Fraction(7, 9), Fraction(1)]


def random_fn(rng, n):
    return BooleanFunction.from_values([rng.choice((-1, 1)) for _ in range(1 << n)])


def test_rho_domain():
    f = construct_named("majority", 3)
    with pytest.raises(InvalidArgument):
        noise_operator(f, Fraction(3, 2))
    with pytest.raises(InvalidArgument):
        noise_operator(f, Fraction(-1, 10))


def test_majority3_at_half():
    f = construct_named("majority", 3)
    vals = noise_operator(f, Fraction(1, 2))
    assert vals[0] == Fraction(11, 16)
    assert vals[4] == Fraction(5, 16)
    assert vals[7] == Fraction(-11, 16)


def test_three_routes_agree():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        for rho in RHO_GRID:
            fast = noise_operator(f, rho)
            outside = oracles.t_rho(oracles.table(f), n, rho)
            assert list(fast) == outside


def test_rho_endpoints():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        mean = Fraction(int(f.values.sum()), 1 << n)
        assert all(v == mean for v in noise_operator(f, Fraction(0)))
        assert list(noise_operator(f, Fraction(1))) == f.values.tolist()


def test_big_denominator_falls_back_to_exact():
    # q^n alone overflows int64: the multi-limb path must kick in silently
    f = construct_named("majority", 5)
    rho = Fraction(999999999999, 10**13)
    vals = noise_operator(f, rho)
    assert vals[0] == oracles.t_rho(oracles.table(f), 5, rho)[0]


def test_scaled_values_are_weighted_level_sums():
    # 2^n q^n T_rho f = sum_k p^k q^(n-k) * (2^n level-k part of f), in Python ints;
    # int64 exactly when sum_k w_k * L1_k < 2^62 and every w_k < 2^62
    rng = random.Random(47)
    fns = [random_fn(rng, n) for n in range(1, 9) for _ in range(2)]
    fns.append(construct_named("majority", 5))
    seen = set()
    for f in fns:
        n = f.n
        levels = [level_values(f, k).tolist() for k in range(n + 1)]
        coeffs = wht(f).coeffs.tolist()
        l1 = [sum(abs(c) for m, c in enumerate(coeffs) if m.bit_count() == k) for k in range(n + 1)]

        def weights(rho):
            return [rho.numerator**k * rho.denominator ** (n - k) for k in range(n + 1)]

        def fits(rho):
            w = weights(rho)
            return sum(a * b for a, b in zip(w, l1)) < 2**62 and max(w) < 2**62

        # the last 1/q on the int64 side and the first on the object side
        lo, hi = 1, 2**62
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fits(Fraction(1, mid)) else (lo, mid)
        rhos = [Fraction(1, 16), Fraction(3, 8), Fraction(1, 16385), Fraction(1, 3**40),
                Fraction(1, lo), Fraction(1, hi)]
        for rho in rhos:
            w = weights(rho)
            want = [sum(w[k] * levels[k][v] for k in range(n + 1)) for v in range(1 << n)]
            got = scaled_t_values(f, rho)
            assert got.dtype == (np.int64 if fits(rho) else object), (n, rho)
            assert [int(x) for x in got.tolist()] == want
            seen.add(got.dtype)
    assert seen == {np.dtype(np.int64), np.dtype(object)}


# q^n > 2^62 for every n >= 2 here, so the values take several int64 limbs and
# scaled_t_values returns Python ints
BIG_DENOMINATOR_RHOS = [Fraction(999999999999, 10**13), Fraction(1, 3**40)]


def test_object_path_consumers_match_oracles():
    rng = random.Random(31)
    fns = [random_fn(rng, n) for n in (2, 3, 4, 5, 5)]
    fns.append(construct_named("majority", 5))
    for f in fns:
        n, tab = f.n, oracles.table(f)
        for rho in BIG_DENOMINATOR_RHOS:
            assert scaled_t_values(f, rho).dtype == object
            ts = oracles.t_rho(tab, n, rho)
            signs = [(t > 0) - (t < 0) for t in ts]
            assert optimal_predictor(f, rho).values.tolist() == signs
            keep = [s or v for s, v in zip(signs, tab)]
            assert optimal_predictor(f, rho, tie_rule="keep").values.tolist() == keep
            bad = [v for v, (s, x) in enumerate(zip(signs, tab)) if s and s != x]
            assert is_sp(f, rho) == SpDecision(not bad, bad[0] if bad else None)
            stab = oracles.stability(tab, n, rho)
            ties = signs.count(0)
            for ties_agree, extra in ((True, 0), (False, ties)):
                rep = closeness_to_sp(f, rho, ties_agree=ties_agree)
                assert rep.distance == Fraction(len(bad) + extra, 1 << n)
                assert rep.bound == 1 - stab
            rep = stability_report(f, rho)
            assert rep.stab == stab
            assert rep.stab_star == sum(abs(t) for t in ts) / (1 << n)


def rho_weights(n, rho):
    return [rho.numerator**k * rho.denominator ** (n - k) for k in range(n + 1)]


def level_sums(f, rho):
    """2^n q^n T_rho f in Python ints, as sum_k w_k * (2^n level-k part of f)."""
    n, w = f.n, rho_weights(f.n, rho)
    levels = [level_values(f, k).tolist() for k in range(n + 1)]
    return [sum(w[k] * levels[k][v] for k in range(n + 1)) for v in range(1 << n)]


def int64_rule(f, rho):
    """The one-limb rule: sum_k w_k * L1_k < 2^62 and every w_k < 2^62."""
    n, coeffs, w = f.n, wht(f).coeffs.tolist(), rho_weights(f.n, rho)
    l1 = [sum(abs(c) for m, c in enumerate(coeffs) if m.bit_count() == k) for k in range(n + 1)]
    return sum(a * b for a, b in zip(w, l1)) < 2**62 and max(w) < 2**62


@st.composite
def rho_near_ends(draw):
    """p/q with q up to 2^200 and p within 3 of 0 or of q."""
    q = draw(st.integers(1, 2**200))
    d = draw(st.integers(0, min(3, q)))
    return Fraction(q - d if draw(st.booleans()) else d, q)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 8), st.data(), rho_near_ends())
def test_limb_stream_matches_python_ints(n, data, rho):
    f = BooleanFunction(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    want = level_sums(f, rho)
    signs = [(x > 0) - (x < 0) for x in want]
    spec, w = wht(f), rho_weights(n, rho)
    assert (_limb_plan(spec, w)[1] == 1) == int64_rule(f, rho)
    assert np.sign(_weighted_signs(spec, w)).tolist() == signs
    assert [int(x) for x in scaled_t_values(f, rho).tolist()] == want
    keep = [s or v for s, v in zip(signs, f.values.tolist())]
    bad = [v for v, (s, x) in enumerate(zip(signs, f.values.tolist())) if s and s != x]
    scale = (1 << n) * rho.denominator**n
    noise._sign_stream.cache_clear()
    for _ in range(2):  # the kept sign stream: built cold, then read warm
        assert optimal_predictor(f, rho).values.tolist() == signs
        assert optimal_predictor(f, rho, tie_rule="keep").values.tolist() == keep
        assert is_sp(f, rho) == SpDecision(not bad, bad[0] if bad else None)
        strict = closeness_to_sp(f, rho, ties_agree=False).distance
        assert strict == Fraction(len(bad) + signs.count(0), 1 << n)
        star = stability_report(f, rho).stab_star
        assert star == Fraction(sum(abs(x) for x in want), scale << n)
    if n <= 5:
        assert [Fraction(x, scale) for x in want] == oracles.t_rho(oracles.table(f), n, rho)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.data())
def test_limb_signs_across_cancelling_limbs(n, data):
    # weights a_k 2^e + r with small a_k and one shared r < 2^(e+3), on spectra of
    # tables in {-1,0,1}: where the table is 0 the r part cancels and the value
    # is 2^e times a small integer (often 0); elsewhere both parts are of one
    # size and cancel partly, so every sign hangs on the carries between limbs
    table = data.draw(st.lists(st.integers(-1, 1), min_size=1 << n, max_size=1 << n))
    coeffs = [sum(t * (-1) ** (m & u).bit_count() for u, t in enumerate(table)) for m in range(1 << n)]
    e = data.draw(st.integers(0, 200))
    r = data.draw(st.integers(0, 2 ** (e + 3)))
    weights = [(data.draw(st.integers(0, 3)) << e) + r for _ in range(n + 1)]
    exact = [
        sum(weights[m.bit_count()] * c * (-1) ** (m & v).bit_count() for m, c in enumerate(coeffs))
        for v in range(1 << n)
    ]
    got = _weighted_signs(ScaledSpectrum(n, np.array(coeffs, dtype=np.int64)), weights)
    assert np.sign(got).tolist() == [(x > 0) - (x < 0) for x in exact]


def test_one_limb_iff_int64_rule():
    # at the last 1/q inside the int64 rule and the first outside it
    rng = random.Random(48)
    fns = [random_fn(rng, n) for n in range(1, 9)] + [construct_named("majority", 7)]
    for f in fns:
        spec = wht(f)
        lo, hi = 1, 2**62
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if int64_rule(f, Fraction(1, mid)) else (lo, mid)
        for q, limbs in ((lo, 1), (hi, 2)):
            rho = Fraction(1, q)
            assert _limb_plan(spec, rho_weights(f.n, rho))[1] == limbs, (f.n, q)
            want = [(x > 0) - (x < 0) for x in level_sums(f, rho)]
            assert optimal_predictor(f, rho).values.tolist() == want


def test_many_limbs_stay_in_linear_memory():
    # the limb stream keeps O(2^n) int64 arrays alive whatever the limb count
    f = construct_ltf(LtfSpec(0, (9, 7, 6, 5, 4, 4, 3, 2, 2, 1, 1, 1)))
    spec = wht(f)
    peaks = []
    for digits in (120, 240):
        rho = Fraction(1, 10**digits)
        assert _limb_plan(spec, rho_weights(f.n, rho))[1] > 100
        tracemalloc.start()
        stability_report(f, rho)
        closeness_to_sp(f, rho)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    array = (1 << f.n) * 8
    assert max(peaks) < 8 * array
    assert peaks[1] < peaks[0] + array // 2


def test_stab_star_sums_beyond_int64():
    # every entry 16 * 16385^4 fits int64, their sum over 16 points does not
    f = construct_named("character", 4, coords=[])
    rho = Fraction(1, 16385)
    assert scaled_t_values(f, rho).dtype == np.int64
    rep = stability_report(f, rho)
    assert rep.stab_star == 1
    assert rep.stab == 1


def test_predictor_tie_rules():
    f = construct_named("character", 2, coords=[1, 2])  # balanced
    zero = optimal_predictor(f, Fraction(0), tie_rule="zero")
    assert zero.values.tolist() == [0, 0, 0, 0]
    keep = optimal_predictor(f, Fraction(0), tie_rule="keep")
    assert keep.values.tolist() == f.values.tolist()
    with pytest.raises(InvalidArgument):
        optimal_predictor(f, Fraction(0), tie_rule="drop")
    with pytest.raises(InvalidArgument):
        zero.to_boolean()


def test_predictor_matches_oracle_signs():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        for rho in (Fraction(1, 3), Fraction(4, 5)):
            pred = optimal_predictor(f, rho)
            ts = oracles.t_rho(oracles.table(f), n, rho)
            for v, t in enumerate(ts):
                want = 0 if t == 0 else (1 if t > 0 else -1)
                assert pred.values[v] == want


def test_predictor_preserves_structure():
    rng = random.Random(24)
    seen = 0
    while seen < 20:
        n = rng.randint(2, 5)
        a = tuple(2 * rng.randint(0, 3) + 1 for _ in range(n))
        a0 = 1 - (n % 2)
        f = construct_ltf(LtfSpec(a0, a))
        props = properties(f)
        seen += 1
        for rho in (Fraction(1, 4), Fraction(3, 5)):
            g = optimal_predictor(f, rho, tie_rule="keep").to_boolean()
            gprops = properties(g)
            assert gprops.monotone >= props.monotone
            if props.odd:
                assert gprops.odd
            if props.even:
                assert gprops.even
            if props.symmetric:
                assert gprops.symmetric


def test_stability_against_oracle():
    rng = random.Random(25)
    for _ in range(15):
        n = rng.randint(1, 3)
        f = random_fn(rng, n)
        for rho in (Fraction(0), Fraction(2, 7), Fraction(1, 2), Fraction(1)):
            rep = stability_report(f, rho)
            assert rep.stab == oracles.stability(oracles.table(f), n, rho)
            ts = oracles.t_rho(oracles.table(f), n, rho)
            assert rep.stab_star == sum(abs(t) for t in ts) / (1 << n)
            assert rep.ns == (1 - rep.stab) / 2
            assert rep.ns_star == (1 - rep.stab_star) / 2


def test_stability_star_dominates():
    rng = random.Random(26)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        for rho in RHO_GRID:
            rep = stability_report(f, rho)
            assert rep.stab <= rep.stab_star
            # equality certifies self-prediction and vice versa
            assert (rep.stab == rep.stab_star) == is_sp(f, rho).sp


def test_noise_sensitivity_sandwich():
    rng = random.Random(27)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        balanced = int(f.values.sum()) == 0
        for rho in RHO_GRID:
            rep = stability_report(f, rho)
            assert rep.ns / 2 <= rep.ns_star <= rep.ns
            if balanced:
                assert rep.ns / (1 + rho) <= rep.ns_star


def test_two_step_stability():
    rng = random.Random(28)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        for rho in RHO_GRID:
            star = stability_report(f, rho).stab_star
            assert star * star <= stability_report(f, rho * rho).stab


def test_closeness():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        for rho in (Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)):
            rep = closeness_to_sp(f, rho)
            assert rep.bound == 1 - stability_report(f, rho).stab
            assert 0 <= rep.distance <= rep.bound
            assert (rep.distance == 0) == is_sp(f, rho).sp
            strict = closeness_to_sp(f, rho, ties_agree=False)
            assert strict.distance >= rep.distance


def test_closeness_or3():
    # OR(3) at rho=1/2: the top point flips, nothing else
    f = construct_named("or", 3)
    rep = closeness_to_sp(f, Fraction(1, 2))
    assert rep.distance == Fraction(1, 8)


def test_prediction_gain():
    rng = random.Random(30)
    for _ in range(30):
        n = rng.randint(1, 4)
        f = random_fn(rng, n)
        rep = stability_report(f, Fraction(1, 3))
        if rep.stab == 0:
            continue
        gain = prediction_gain(f, Fraction(1, 3))
        assert gain.ratio >= 1
        assert gain.khintchine_ok
        # Khintchine bracketing, spelled out
        assert gain.w1 / 2 <= gain.l1_level1**2 <= gain.w1


def test_prediction_gain_majority3():
    gain = prediction_gain(construct_named("majority", 3), Fraction(1, 2))
    assert gain.l1_level1 == Fraction(3, 4)
    assert gain.w1 == Fraction(3, 4)
    assert gain.ratio == 1
