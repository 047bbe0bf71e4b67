"""Exact integer-polynomial machinery versus sympy as the outside referee."""

import random
from fractions import Fraction

import sympy

from boolsp import roots as rt

X = sympy.Symbol("x")


def to_sympy(p):
    return sympy.Poly(list(reversed(p)), X)


def real_roots_in(p, a, b, open_interval=True):
    """Distinct real roots of p in (a,b) (or [a,b]) via sympy."""
    found = set(r for r in sympy.Poly(list(reversed(p)), X).real_roots())
    a, b = sympy.Rational(a.numerator, a.denominator), sympy.Rational(
        b.numerator, b.denominator
    )
    if open_interval:
        return [r for r in sorted(found) if a < r < b]
    return [r for r in sorted(found) if a <= r <= b]


def random_poly(rng, max_deg=6, span=9):
    while True:
        deg = rng.randint(1, max_deg)
        p = tuple(rng.randint(-span, span) for _ in range(deg + 1))
        p = rt.trim(p)
        if rt.degree(p) >= 1:
            return p


def test_evaluate_matches_horner_free_form():
    p = (1, -5, 7, -5, 6)
    for x in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7), Fraction(1)):
        direct = sum(c * x**k for k, c in enumerate(p))
        assert rt.evaluate(p, x) == direct
        num, den = x.numerator, x.denominator
        scaled = rt.eval_scaled(p, num, den)
        assert scaled == direct * den ** rt.degree(p)


def test_eval_scaled_sign_agrees():
    rng = random.Random(20240811)
    for _ in range(300):
        p = random_poly(rng)
        num = rng.randint(0, 12)
        den = rng.randint(max(1, num), 12)
        x = Fraction(num, den)
        v = rt.evaluate(p, x)
        s = rt.eval_scaled(p, num, den)
        assert (v > 0) == (s > 0) and (v == 0) == (s == 0)


def test_derivative():
    assert rt.derivative((3, 2, 1)) == (2, 2)
    assert rt.derivative((5,)) == ()  # zero polynomial is the empty tuple


def test_known_quartic_roots():
    # (3x-1)(2x-1)(x^2+1): exactly 1/3 and 1/2 inside (0,1)
    p = (1, -5, 7, -5, 6)
    isolated = rt.isolate_roots(p, Fraction(0), Fraction(1))
    assert len(isolated) == 2
    refined = [rt.refine_root(rt.square_free_part(p), r, Fraction(1, 10**12)) for r in isolated]
    for target, res in zip((Fraction(1, 3), Fraction(1, 2)), refined):
        if res[0] == "exact":
            assert res[1] == target
        else:
            assert res[1] < target < res[2]
            assert res[2] - res[1] <= Fraction(1, 10**12)


def test_sturm_count_against_sympy():
    rng = random.Random(977)
    checked = 0
    while checked < 200:
        p = random_poly(rng)
        a = Fraction(rng.randint(-3, 2), rng.randint(1, 4))
        b = a + Fraction(rng.randint(1, 8), rng.randint(1, 4))
        if rt.evaluate(p, a) == 0 or rt.evaluate(p, b) == 0:
            continue
        sf = rt.square_free_part(p)
        chain = rt.sturm_chain(sf)
        assert rt.count_roots(chain, a, b) == len(real_roots_in(p, a, b))
        checked += 1


def test_isolation_brackets_each_root_once():
    rng = random.Random(1201)
    checked = 0
    while checked < 120:
        p = random_poly(rng)
        if rt.evaluate(p, Fraction(0)) == 0 or rt.evaluate(p, Fraction(1)) == 0:
            continue
        roots = rt.isolate_roots(rt.square_free_part(p), Fraction(0), Fraction(1))
        expected = real_roots_in(p, Fraction(0), Fraction(1))
        assert len(roots) == len(expected)
        prev_hi = Fraction(0)
        for item, true_root in zip(roots, expected):
            if item[0] == "exact":
                lo = hi = item[1]
            else:
                lo, hi = item[1], item[2]
            assert prev_hi <= lo <= hi
            srl = sympy.Rational(lo.numerator, lo.denominator)
            srh = sympy.Rational(hi.numerator, hi.denominator)
            assert srl <= true_root <= srh
            prev_hi = hi
        checked += 1


def test_refine_root_narrows():
    p = (-1, 0, 0, 2)  # 2x^3 = 1, root (1/2)^(1/3) ~ 0.7937
    (root,) = rt.isolate_roots(p, Fraction(0), Fraction(1))
    res = rt.refine_root(p, root, Fraction(1, 10**9))
    assert res[0] == "interval"
    lo, hi = res[1], res[2]
    assert hi - lo <= Fraction(1, 10**9)
    assert rt.evaluate(p, lo) < 0 < rt.evaluate(p, hi)


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return rt.trim(tuple(out))


def test_gcd_of_known_share():
    p = _mul((1, -3), (1, 1, 1))  # (1-3x)(1+x+x^2)
    q = _mul((1, -3), (2, 1))  # (1-3x)(2+x)
    g = rt.poly_gcd(p, q)
    assert g in ((1, -3), (-1, 3))
    assert g[-1] > 0  # canonical positive leading coefficient


def test_exact_hit_at_isolation_is_reported():
    p = _mul((1, -2), (1, -3))  # roots 1/2 and 1/3
    roots = rt.isolate_roots(p, Fraction(0), Fraction(1))
    # both roots rational: refinement may collapse to exact values
    refined = [rt.refine_root(p, r, Fraction(1, 1000)) for r in roots]
    values = []
    for res in refined:
        values.append(res[1] if res[0] == "exact" else (res[1] + res[2]) / 2)
    assert abs(values[0] - Fraction(1, 3)) <= Fraction(1, 1000)
    assert abs(values[1] - Fraction(1, 2)) <= Fraction(1, 1000)
