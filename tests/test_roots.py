"""Exact integer-polynomial machinery versus sympy as the outside referee."""

import random
from fractions import Fraction

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolsp import random_function, sp_region
from boolsp import roots as rt
from boolsp import sp

import oracles

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


def to_rational(x):
    return sympy.Rational(x.numerator, x.denominator)


def assert_isolates_distinct_roots(p):
    """isolate_roots on sturm_chain(p) brackets each distinct root of p in
    (0,1) exactly once, in order, and refinement narrows every bracket."""
    chain = rt.sturm_chain(p)
    roots = rt.isolate_roots(chain, Fraction(0), Fraction(1))
    expected = real_roots_in(p, Fraction(0), Fraction(1))
    assert len(roots) == len(expected)
    prev_hi = Fraction(0)
    for (lo, hi), true_root in zip(roots, expected):
        assert prev_hi <= lo <= hi
        assert to_rational(lo) <= true_root <= to_rational(hi)
        prev_hi = hi
        eps = (hi - lo) / 64
        rlo, rhi = rt.refine_root(chain[0], lo, hi, eps)
        assert lo <= rlo <= rhi <= hi and rhi - rlo <= eps
        assert to_rational(rlo) <= true_root <= to_rational(rhi)


def test_evaluate_matches_horner_free_form():
    p = (1, -5, 7, -5, 6)
    for x in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7), Fraction(1)):
        direct = sum(c * x**k for k, c in enumerate(p))
        assert oracles.evaluate(p, x) == direct
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
        v = oracles.evaluate(p, x)
        s = rt.eval_scaled(p, num, den)
        assert (v > 0) == (s > 0) and (v == 0) == (s == 0)


def test_derivative():
    assert rt.derivative((3, 2, 1)) == (2, 2)
    assert rt.derivative((5,)) == ()  # zero polynomial is the empty tuple


def test_known_quartic_roots():
    # (3x-1)(2x-1)(x^2+1): exactly 1/3 and 1/2 inside (0,1)
    p = (1, -5, 7, -5, 6)
    chain = rt.sturm_chain(p)
    isolated = rt.isolate_roots(chain, Fraction(0), Fraction(1))
    assert len(isolated) == 2
    refined = [rt.refine_root(chain[0], lo, hi, Fraction(1, 10**12)) for lo, hi in isolated]
    for target, (lo, hi) in zip((Fraction(1, 3), Fraction(1, 2)), refined):
        if lo == hi:
            assert lo == target
        else:
            assert lo < target < hi
            assert hi - lo <= Fraction(1, 10**12)


def test_sturm_count_against_sympy():
    rng = random.Random(977)
    checked = 0
    while checked < 200:
        p = random_poly(rng)
        a = Fraction(rng.randint(-3, 2), rng.randint(1, 4))
        b = a + Fraction(rng.randint(1, 8), rng.randint(1, 4))
        if oracles.evaluate(p, a) == 0 or oracles.evaluate(p, b) == 0:
            continue
        chain = rt.sturm_chain(p)
        assert rt.count_roots(chain, a, b) == len(real_roots_in(p, a, b))
        checked += 1


def test_isolation_brackets_each_root_once():
    rng = random.Random(1201)
    checked = 0
    while checked < 120:
        p = random_poly(rng)
        if oracles.evaluate(p, Fraction(0)) == 0 or oracles.evaluate(p, Fraction(1)) == 0:
            continue
        assert_isolates_distinct_roots(p)
        checked += 1


def test_refine_root_narrows():
    p = (-1, 0, 0, 2)  # 2x^3 = 1, root (1/2)^(1/3) ~ 0.7937
    (root,) = rt.isolate_roots(rt.sturm_chain(p), Fraction(0), Fraction(1))
    lo, hi = rt.refine_root(p, *root, Fraction(1, 10**9))
    assert lo < hi
    assert hi - lo <= Fraction(1, 10**9)
    assert oracles.evaluate(p, lo) < 0 < oracles.evaluate(p, hi)


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
    roots = rt.isolate_roots(rt.sturm_chain(p), Fraction(0), Fraction(1))
    # both roots rational: refinement may collapse to exact values
    refined = [rt.refine_root(p, lo, hi, Fraction(1, 1000)) for lo, hi in roots]
    values = [(lo + hi) / 2 for lo, hi in refined]
    assert abs(values[0] - Fraction(1, 3)) <= Fraction(1, 1000)
    assert abs(values[1] - Fraction(1, 2)) <= Fraction(1, 1000)


# Repeated roots: the random polynomials above are square-free almost surely.
RATIONAL_FACTORS = ((-1, 3), (-1, 2), (-2, 5))  # 3x-1, 2x-1, 5x-2
IRRATIONAL_FACTORS = ((-1, 0, 2), (1, -5, 5))  # 2x^2-1, 5x^2-5x+1: roots in (0,1)


def repeated_root_polys(rng, count):
    """Products of squared or cubed factors with roots in (0,1) and a random
    cofactor; paired with a random interval (a, b) whose ends are not roots."""
    factors = RATIONAL_FACTORS + IRRATIONAL_FACTORS
    made = 0
    while made < count:
        p = random_poly(rng, max_deg=3)
        for factor in rng.sample(factors, rng.randint(1, 2)):
            for _ in range(rng.randint(2, 3)):
                p = _mul(p, factor)
        a = Fraction(rng.randint(-3, 2), rng.randint(1, 4))
        b = a + Fraction(rng.randint(1, 8), rng.randint(1, 4))
        if any(oracles.evaluate(p, x) == 0 for x in (a, b, Fraction(0), Fraction(1))):
            continue
        made += 1
        yield p, a, b


def test_repeated_roots_against_sympy():
    cube = _mul(_mul((-1, 0, 2), (-1, 0, 2)), (-1, 0, 2))  # (2x^2-1)^3
    unit = (Fraction(0), Fraction(1))
    pure_powers = [(_mul((-1, 3), (-1, 3)), *unit), (cube, *unit)]  # (3x-1)^2, cube
    for p, a, b in pure_powers + list(repeated_root_polys(random.Random(6), 60)):
        chain = rt.sturm_chain(p)
        _, sqf = to_sympy(p).sqf_part().primitive()
        head = to_sympy(chain[0])
        assert head in (sqf, -sqf)
        assert rt.count_roots(chain, a, b) == len(real_roots_in(p, a, b))
        assert_isolates_distinct_roots(p)


def _root_near(p, x):
    """The isolated root of p whose bracket holds x, as an sp._Root."""
    chain = rt.sturm_chain(p)
    for lo, hi in rt.isolate_roots(chain):
        if lo <= x <= hi:
            return sp._Root(chain[0], lo, hi)
    raise AssertionError(f"no root of {p} near {x}")


def test_compare_decides_shared_and_close_irrational_roots():
    half_sqrt2 = Fraction(7071067811865476, 10**16)  # 1/sqrt(2) to 1e-16
    # both share the root 1/sqrt(2); their other roots differ
    a = _root_near(_mul((-1, 0, 2), (-1, 3)), half_sqrt2)
    b = _root_near(_mul((-1, 0, 2), (-4, 5)), half_sqrt2)
    assert a.lo < a.hi and b.lo < b.hi  # not exact: the gcd test decides
    eps = sp.DEFAULT_EPSILON
    assert sp._compare(a, b, eps) == 0 and sp._compare(b, a, eps) == 0
    assert (a.lo, a.hi) == (b.lo, b.hi)  # both now hold the intersection
    # a common factor whose root lies outside the overlap decides nothing
    a = sp._Root(_mul((-1, 0, 2), (-1, 3)), Fraction(1, 2), Fraction(1))  # 1/sqrt(2)
    b = sp._Root(_mul((-1, 0, 2), (-4, 5)), Fraction(3, 4), Fraction(1))  # 4/5
    assert sp._compare(a, b, eps) == -1 and a.hi <= b.lo
    # 2(x - d)^2 - 1 has the root 1/sqrt(2) + d with d = 10^-13
    d = 10**13
    shifted = (2 - d * d, -4 * d, 2 * d * d)
    lo_root = _root_near((-1, 0, 2), half_sqrt2)
    hi_root = _root_near(shifted, half_sqrt2)
    assert sp._compare(lo_root, hi_root, eps) == -1
    lo_root = _root_near((-1, 0, 2), half_sqrt2)
    hi_root = _root_near(shifted, half_sqrt2)
    assert sp._compare(hi_root, lo_root, eps) == 1
    assert lo_root.hi <= hi_root.lo


def test_compare_defers_gcd_and_keeps_shared_root_enclosure(monkeypatch):
    """The shared root 1/sqrt(2) is decided by one gcd, only once the wider
    bracket is at most epsilon wide, and is enclosed exactly as an eager gcd
    (intersect at once, then refine) enclosed it."""
    gcds = []
    gcd = rt.poly_gcd
    monkeypatch.setattr(rt, "poly_gcd", lambda p, q: gcds.append(1) or gcd(p, q))
    half_sqrt2 = Fraction(7071067811865476, 10**16)
    eps = Fraction(1, 1000)
    a = _root_near(_mul((-1, 0, 2), (-1, 3)), half_sqrt2)
    b = _root_near(_mul((-1, 0, 2), (-4, 5)), half_sqrt2)
    assert (a.lo, a.hi, b.lo, b.hi) == (Fraction(1, 2), 1, Fraction(1, 2), Fraction(3, 4))
    assert sp._compare(a, b, eps) == 0 and len(gcds) == 1
    assert (a.lo, a.hi) == (b.lo, b.hi) and a.hi - a.lo <= eps
    cell = sp.Endpoint("enclosure", lo=Fraction(181, 256), hi=Fraction(725, 1024))
    assert a.endpoint(eps) == b.endpoint(eps) == cell


def test_compare_halving_onto_a_shared_exact_root_is_equal():
    # 2x - 1 on (0, 1): the first halving lands on its root 1/2 exactly,
    # which (2x - 1)(5x - 4) shares; neither bracket is epsilon narrow yet
    eps = Fraction(1, 1000)
    for flip in (False, True):
        a = sp._Root((-1, 2), Fraction(0), Fraction(1))
        b = sp._Root(_mul((-1, 2), (-4, 5)), Fraction(3, 8), Fraction(5, 8))
        assert (sp._compare(b, a, eps) if flip else sp._compare(a, b, eps)) == 0
        assert a.lo == a.hi == b.lo == b.hi == Fraction(1, 2)
    # two exact roots at one point compare 0, whatever their polynomials
    a = sp._Root((-1, 2), Fraction(1, 2), Fraction(1, 2))
    b = sp._Root(_mul((-1, 2), (-4, 5)), Fraction(1, 2), Fraction(1, 2))
    assert sp._compare(a, b, eps) == 0 and sp._compare(b, a, eps) == 0
    # an exact root at the end of an open bracket is not in it
    c = sp._Root((-4, 5), Fraction(1, 2), Fraction(1))
    assert sp._compare(a, c, eps) == -1 and sp._compare(c, a, eps) == 1


def test_region_of_random_function_needs_no_gcd(monkeypatch):
    """Distinct roots part by halving alone: a region-random pool function
    (random n=9, seed 1) gets its region without one gcd."""
    calls = []
    gcd = rt.poly_gcd
    monkeypatch.setattr(rt, "poly_gcd", lambda p, q: calls.append(1) or gcd(p, q))
    region = sp_region(random_function(9, 1))
    assert region.intervals[0].lo.kind == "enclosure" and calls == []


@st.composite
def unit_polys(draw):
    """Products of small integer factors, some repeated, nonzero at 0 and 1;
    half the factors are b x - a with a root a/b in (0,1)."""
    p = (draw(st.integers(-5, 5).filter(bool)),)
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            b = draw(st.integers(2, 9))
            factor = (-draw(st.integers(1, b - 1)), b)
        else:
            factor = tuple(draw(st.integers(-6, 6)) for _ in range(draw(st.integers(2, 3))))
        if rt.trim(factor) and factor[0] and sum(factor):
            for _ in range(draw(st.integers(1, 3))):
                p = _mul(p, rt.trim(factor))
    return p


@settings(max_examples=300, deadline=None)
@given(unit_polys())
@example((26, -100, 100))  # roots 1/2 +- i/10: 2 variations, no real root
def test_descartes_count_bounds_roots_in_unit_interval(p):
    """Against sympy's real roots in (0,1), repeated roots counted: 0
    variations means no root, 1 means exactly one simple root, and any count
    is at least the number of roots and has its parity."""
    unit = [r for r in to_sympy(p).real_roots() if 0 < r < 1]
    v = rt.coeff_sign_variations(p)
    assert v >= len(unit) and (v - len(unit)) % 2 == 0
    if v == 0:
        assert unit == []
    if v == 1:
        assert len(unit) == 1


@settings(max_examples=200, deadline=None)
@given(unit_polys())
def test_unit_roots_bracket_each_distinct_root_once(p):
    sf, roots = rt._unit_roots(p)
    expected = real_roots_in(p, Fraction(0), Fraction(1))
    assert len(roots) == len(expected)
    for (lo, hi), true_root in zip(roots, expected):
        assert to_rational(lo) <= true_root <= to_rational(hi)
        assert len(real_roots_in(sf, lo, hi, open_interval=lo < hi)) == 1
        rlo, rhi = rt.refine_root(sf, lo, hi, Fraction(1, 1 << 12))
        assert to_rational(rlo) <= true_root <= to_rational(rhi)
