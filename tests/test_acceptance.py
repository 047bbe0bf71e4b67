"""Acceptance gate: one test per shipped guarantee, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
[PASS] lines and the n=4 census curve inline).  Every test carries its own
wall-clock budget and exact tolerance.
"""

import random
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from boolsp import (
    BooleanFunction,
    LtfSpec,
    PtfSpec,
    classify,
    construct_ltf,
    construct_named,
    construct_ptf,
    graph_scan,
    is_sp,
    level_values,
    noise_operator,
    optimal_predictor,
    properties,
    sp_fraction,
    sp_region,
    spectral_summary,
    stability_report,
    threshold_constants,
    wht,
)
from boolsp.spectrum import function_from_scaled
from boolsp.noise import closeness_to_sp

import oracles

PASS = "[PASS] criterion {:>2}: {} ({:.2f}s)"


def report(num, text, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
    print(PASS.format(num, text, elapsed))


def full_unit_region(region):
    return (
        len(region.intervals) == 1
        and region.intervals[0].lo.kind == "exact"
        and region.intervals[0].lo.value == 0
        and region.intervals[0].hi.kind == "exact"
        and region.intervals[0].hi.value == 1
        and region.intervals[0].lo_closed
        and region.intervals[0].hi_closed
    )


def test_c01_majority_usp():
    t0 = time.monotonic()
    for n in (3, 5, 7, 9, 11):
        region = sp_region(construct_named("majority", n))
        assert full_unit_region(region), f"majority({n}) region is not [0,1]"
    report(1, "majority(3,5,7,9,11) has SP region exactly [0,1]", t0, 10)


def test_c02_characters_usp():
    t0 = time.monotonic()
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(1, 16)
        coords = [i + 1 for i in range(n) if rng.random() < 0.5]
        if not coords:
            coords = [rng.randint(1, n)]
        c = classify(construct_named("character", n, coords=coords))
        assert c.usp, f"character on {coords} (n={n}) not USP"
    report(2, "50 random characters up to n=16 classify as USP", t0, 5)


def test_c03_or_threshold():
    t0 = time.monotonic()
    eps = Fraction(1, 10**9)
    for n in range(3, 11):
        region = sp_region(construct_named("or", n), epsilon=eps)
        assert len(region.intervals) == 1
        lo = region.intervals[0].lo
        assert lo.kind == "enclosure"
        assert lo.hi - lo.lo <= eps
        # the isolating interval must contain 2^((n-1)/n) - 1 exactly:
        # (1+r)^n = 2^(n-1) at the true boundary
        assert (1 + lo.lo) ** n <= 1 << (n - 1) <= (1 + lo.hi) ** n
        assert region.intervals[0].hi.value == 1
    report(3, "OR(3..10) boundary = 2^((n-1)/n)-1 within 1e-9", t0, 10)


def _pure_sp_oracle(f):
    """Rho -> SP decision by pure-Fraction direct summation (no package math).

    Precomputes, for every point v, the sum of f over each Hamming shell
    around v; each rho evaluation is then n+1 exact kernel terms per point.
    """
    n = 1 << f.n
    vals = [int(x) for x in f.values]
    shells = []
    for v in range(n):
        by_dist = [0] * (f.n + 1)
        for u in range(n):
            by_dist[bin(u ^ v).count("1")] += vals[u]
        shells.append(by_dist)

    def decide(rho):
        rho = Fraction(rho)
        stay, flip = (1 + rho) / 2, (1 - rho) / 2
        weights = [flip**d * stay ** (f.n - d) for d in range(f.n + 1)]
        for v in range(n):
            t = sum(w * s for w, s in zip(weights, shells[v]))
            if t != 0 and (t > 0) != (vals[v] > 0):
                return False
        return True

    return decide


def test_c04_irregular_region_two_intervals():
    t0 = time.monotonic()
    f = construct_ltf(LtfSpec(0, (13, 43, 67, 67, 67, 117, 153, 165, 165, 179, 179)))
    # independent oracle first: exact direct summation (no package math, no
    # root isolation) brackets both breakpoints.  It confirms the first
    # reported digit string (0.312 +- 1e-3) but corrects the second: the SP
    # region provably resumes inside (0.5425, 0.5430), so the widely quoted
    # 0.544 is a rounding artifact; the exact boundary is 0.542748...
    oracle = _pure_sp_oracle(f)
    assert oracle(Fraction(3129, 10000))
    assert not oracle(Fraction(3131, 10000))
    assert not oracle(Fraction(5425, 10000))
    assert oracle(Fraction(5430, 10000))
    region = sp_region(f, epsilon=Fraction(1, 10**6))
    assert len(region.intervals) == 2
    first, second = region.intervals
    assert first.lo.kind == "exact" and first.lo.value == 0
    b1, b2 = first.hi, second.lo
    assert abs(b1.approx() - 0.312) < 1e-3
    assert Fraction(5425, 10000) < b2.lo and b2.hi < Fraction(5430, 10000)
    assert abs(b2.approx() - 0.5427481) < 1e-3
    assert second.hi.kind == "exact" and second.hi.value == 1
    report(
        4,
        "n=11 LTF region = [0,~0.3129] u [~0.5427,1]; oracle confirms 0.312, "
        "corrects 0.544 -> 0.5427",
        t0,
        60,
    )


def test_c05_usp_ltf_family():
    t0 = time.monotonic()
    family = (
        (1, 1, 3, 3, 5),
        (1, 1, 3, 3, 3, 5, 7),
        (1, 1, 3, 3, 3, 5, 5, 5, 7),
        (1, 1, 3, 3, 3, 3, 5, 5, 5, 7, 7),
    )
    for a in family:
        c = classify(construct_ltf(LtfSpec(0, a)))
        assert c.usp, f"LTF {a} not USP"
        assert full_unit_region(c.region)
    report(5, "USP LTF family (n=5,7,9,11) all classify usp=true", t0, 120)


def test_c06_wst_not_lcsp_fixture():
    t0 = time.monotonic()
    f = construct_ltf(LtfSpec(0, (1, 5, 16, 19, 25, 58, 68, 91, 94)))
    c = classify(f, epsilon=Fraction(1, 10**6))
    assert c.wst and not c.lcsp and not c.usp
    # independent direct-evaluation bracket of the 0.577 boundary
    assert not is_sp(f, Fraction(576, 1000)).sp
    assert is_sp(f, Fraction(578, 1000)).sp
    solid = [iv for iv in c.region.intervals if iv.hi.approx() > 0]
    assert len(solid) == 1
    assert abs(solid[0].lo.approx() - 0.577) < 1e-3
    assert solid[0].hi.value == 1
    report(6, "n=9 LTF is WST, not LCSP; boundary within 1e-3 of 0.577", t0, 30)


def test_c07_sst_wst_zero_sets():
    t0 = time.monotonic()
    c = classify(construct_ltf(LtfSpec(0, (2, 1, 1, 1))))
    assert c.usp and c.wst and not c.sst
    assert c.lev_zero_count == 2
    c = classify(construct_ltf(LtfSpec(0, (1, 1, 1, 3, 3, 3, 5, 5, 7))))
    assert c.usp and c.wst and not c.sst
    assert c.lev_zero_count == 30
    report(7, "(2,1,1,1) has 2 level-form zeros; (1,1,1,3,3,3,5,5,7) has 30", t0, 30)


def test_c08_balanced_function_unbalanced_predictor():
    t0 = time.monotonic()
    spec = PtfSpec(
        4,
        (
            (0b0001, 2),
            (0b0100, 1),
            (0b0011, -2),
            (0b0101, 1),
            (0b0110, 1),
            (0b1100, -1),
            (0b0111, 1),
            (0b1101, 1),
            (0b1110, -1),
            (0b1111, 1),
        ),
    )
    f = construct_ptf(spec)
    assert properties(f).balanced
    pred = optimal_predictor(f, Fraction(1, 2), tie_rule="zero")
    assert int((pred.values == 0).sum()) == 0
    assert int(pred.values.sum()) != 0
    report(8, "balanced 4-var example has an unbalanced rho=1/2 predictor", t0, 1)


def test_c09_census_oracle_suite():
    t0 = time.monotonic()
    grid = [Fraction(k, 64) for k in range(64)] + [Fraction(1)]
    checked = 0
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            f = BooleanFunction(n, bits)
            vals = oracles.table(f)
            balanced = sum(vals) == 0
            constant = all(v == vals[0] for v in vals)
            c = classify(f)
            # taxonomy chain
            if c.sst:
                assert c.lcsp
            if c.lcsp:
                assert c.wst
                assert balanced or constant
                # W1 mass is 0 or at least 1/2
                coeffs = wht(f).coeffs
                w1 = sum(
                    Fraction(int(coeffs[1 << i]) ** 2, 1 << (2 * n))
                    for i in range(n)
                )
                assert w1 == 0 or Fraction(1, 2) <= w1 <= 1
                # the lowest level form satisfies E|l| = E[l^2] (sign agreement)
                lev_vals = level_values(f, c.lev).astype(object)
                e_abs = Fraction(int(sum(abs(x) for x in lev_vals)), 1 << (2 * n))
                e_sq = sum(
                    Fraction(int(coeffs[s]) ** 2, 1 << (2 * n))
                    for s in range(1 << n)
                    if bin(s).count("1") == c.lev
                )
                assert e_abs == e_sq
            for rho in grid:
                fast = is_sp(f, rho).sp
                assert fast == oracles.is_sp(vals, n, rho)
                rep = stability_report(f, rho)
                assert (rep.stab == rep.stab_star) == fast
                checked += 1
    assert checked == (4 + 16 + 256) * 65
    report(9, f"n<=3 census: {checked} exact oracle checks, zero violations", t0, 300)


def test_c10_n4_census_and_graph():
    t0 = time.monotonic()
    rows = []
    for k in range(1, 16):
        rho = Fraction(k, 16)
        rep = sp_fraction(4, rho)
        rows.append((rho, rep.fraction))
    print("n=4 census: rho_num,rho_den,fraction_num,fraction_den")
    for rho, frac in rows:
        print(f"{rho.numerator},{rho.denominator},{frac.numerator},{frac.denominator}")
    # 2^(3/4)-1 = 0.68179...: every rho = k/16 with k >= 11 exceeds it
    for rho, frac in rows:
        if (1 + rho) ** 4 > 8:
            assert frac == 1, f"fraction at {rho} should be 1"
    assert rows[0][1] < 1  # tiny rho: most functions are not SP
    scan = graph_scan(4, Fraction(1, 2))  # checks the no-cycles theorem as it walks
    half = [frac for rho, frac in rows if rho == Fraction(1, 2)][0]
    assert scan.num_fixpoints == half * 65536
    report(10, "n=4 census curve emitted; fraction=1 above 2^(3/4)-1; no cycles", t0, 1800)


def test_c11_threshold_constants():
    t0 = time.monotonic()
    near_one = threshold_constants(alpha=Fraction(10**7 + 1, 10**7))
    assert near_one.eta_alpha < Fraction(1, 10**6)
    huge = threshold_constants(alpha=Fraction(10**7))
    assert Fraction(1, 2) - huge.eta_alpha < Fraction(1, 10**6)
    c = threshold_constants()
    assert abs(c.delta_max - 0.0974) < 1e-3
    report(11, "eta_alpha limits hit 0 and 1/2 within 1e-6; delta_max = 0.0974 +- 1e-3", t0, 1)


def test_c12_property_suites():
    t0 = time.monotonic()
    rng = random.Random(424242)

    # WHT involution + Plancherel, 1000 cases each (interleaved)
    for _ in range(1000):
        n = rng.randint(1, 5)
        f = BooleanFunction.from_values(
            [rng.choice((-1, 1)) for _ in range(1 << n)]
        )
        spec = wht(f)
        assert function_from_scaled(n, spec.coeffs) == f
        assert int((spec.coeffs.astype(object) ** 2).sum()) == 1 << (2 * n)

    # Sperner anti-concentration: C(m, m//2)/2^m <= sqrt(2/(pi m))
    pi_hi = Fraction(31416, 10**4)
    for m in range(1, 1001):
        cap = Fraction(comb(m, m // 2), 1 << m)
        assert cap * cap * m * pi_hi <= 2
    # noise sensitivity sandwich and hypercontractive stability bound
    for _ in range(1000):
        n = rng.randint(1, 4)
        f = BooleanFunction.from_values(
            [rng.choice((-1, 1)) for _ in range(1 << n)]
        )
        rho = Fraction(rng.randint(0, 16), 16)
        rep = stability_report(f, rho)
        assert rep.ns / 2 <= rep.ns_star <= rep.ns
        assert rep.stab_star**2 <= stability_report(f, rho * rho).stab

    # predictor preserves structure (keep rule), 250 cases per property
    made = {"monotone": 0, "odd": 0, "even": 0, "symmetric": 0}
    while min(made.values()) < 250:
        n = rng.randint(2, 5)
        kind = min(made, key=made.get)
        if kind == "monotone":
            a = tuple(rng.randrange(1, 6) * 2 - 1 for _ in range(n))
            a0 = rng.randrange(-2, 3) * 2 + (1 + sum(a)) % 2
            try:
                f = construct_ltf(LtfSpec(a0, a))
            except Exception:
                continue
        elif kind == "odd":
            a = tuple(rng.randrange(1, 6) * 2 - 1 for _ in range(n))
            if sum(a) % 2 == 0:
                continue
            f = construct_ltf(LtfSpec(0, a))
        elif kind == "even":
            h = BooleanFunction.from_values(
                [rng.choice((-1, 1)) for _ in range(1 << (n - 1))]
            )
            u = np.arange(1 << n)
            z = np.zeros(1 << n, dtype=np.int64)
            for j in range(1, n):
                z |= (((u >> j) & 1) ^ (u & 1)) << (j - 1)
            f = BooleanFunction.from_values(h.values[z])
        else:
            by_weight = [rng.choice((-1, 1)) for _ in range(n + 1)]
            f = BooleanFunction.from_values(
                [by_weight[bin(u).count("1")] for u in range(1 << n)]
            )
        props = properties(f)
        if not getattr(props, kind):
            continue
        rho = Fraction(rng.randint(0, 8), 8)
        g = optimal_predictor(f, rho, tie_rule="keep").to_boolean()
        assert getattr(properties(g), kind), (kind, f.n, f.bits, rho)
        made[kind] += 1

    # product SP-iff over every pair of 2-variable functions, rho in (0,1]
    from boolsp import product_compose

    pairs = [BooleanFunction(2, bits) for bits in range(16)]
    rhos = [Fraction(k, 8) for k in range(1, 9)]
    for g in pairs:
        for h in pairs:
            prod = product_compose(g, h)
            for rho in rhos:
                assert is_sp(prod, rho).sp == (
                    is_sp(g, rho).sp and is_sp(h, rho).sp
                )
    report(12, "property suites: involution, Plancherel, Sperner, NS/Stab, predictor, product", t0, 600)
