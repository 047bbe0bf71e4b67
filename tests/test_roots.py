"""Exact integer-polynomial machinery versus sympy as the outside referee."""

import random
from fractions import Fraction
from math import comb, lcm

import numpy as np
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolsp import random_function, sp_region
from boolsp import roots as rt
from boolsp import sp

import oracles

X = sympy.Symbol("x")
EPS = Fraction(1, 10**9)


def to_sympy(p):
    return sympy.Poly(list(reversed(p)), X)


def random_poly(rng, max_deg=6, span=9):
    while True:
        deg = rng.randint(1, max_deg)
        p = tuple(rng.randint(-span, span) for _ in range(deg + 1))
        p = rt.trim(p)
        if rt.degree(p) >= 1:
            return p


def region_of(classes, eps):
    """The intervals of {x in [0,1]: p(x) >= 0 for every p in classes}, each p
    positive at 1, from the cell walk of the SP region over them."""
    width = max(map(len, classes))
    rows = np.array([tuple(q) + (0,) * (width - len(q)) for q in classes], dtype=object)
    return sp._region(0, sp._live_rows(rows), eps).intervals


def check_region_of(p, eps):
    """region_of(p) against sympy: each root where p changes sign or touches
    0 from below ends a component, exactly or in its depth-D cell."""
    components, roots = oracles.nonnegative_components([p])
    oracles.check_region(region_of([p], eps), components, roots, sp._depth(eps))


def positive_at_one(p):
    return p if sum(p) > 0 else rt.negate(p)


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


def test_row_helpers_match_per_polynomial_loops():
    """_variations against a plain loop over the nonzero signs, on padded
    rows (zero runs included), in int64 and in Python ints."""
    rng = random.Random(31)
    polys = [random_poly(rng) for _ in range(200)]
    polys += [tuple(rng.choice((0, 0, -1, 1)) * c for c in p) for p in polys]
    width = 1 + max(map(len, polys))
    for dtype in (np.int64, object):
        rows = np.array([p + (0,) * (width - len(p)) for p in polys], dtype=dtype)
        for p, v in zip(polys, rt._variations(rows)):
            signs = [c > 0 for c in p if c]
            assert v == sum(s != t for s, t in zip(signs, signs[1:])), p
            assert rt._variations(np.array(p, dtype=dtype)) == v


def test_derivative():
    assert rt.derivative((3, 2, 1)) == (2, 2)
    assert rt.derivative((5,)) == ()  # zero polynomial is the empty tuple


def test_known_quartic_roots():
    # (3x-1)(2x-1)(x^2+1): exactly 1/3 and 1/2 inside (0,1), negative between
    p = (1, -5, 7, -5, 6)
    eps = Fraction(1, 10**12)
    head, tail = region_of([p], eps)
    assert head.lo == sp.Endpoint("exact", value=Fraction(0))
    assert head.hi.kind == "enclosure" and head.hi.lo < Fraction(1, 3) < head.hi.hi
    assert head.hi.hi - head.hi.lo == Fraction(1, 1 << 40) <= eps
    assert tail.lo == sp.Endpoint("exact", value=Fraction(1, 2))
    check_region_of(p, eps)


def test_cell_counts_against_sympy():
    """Descartes' count on a dyadic cell (_descend of the [0,1] coefficients,
    at the polynomial's degree and elevated) against sympy's roots in the
    open cell, counted with multiplicity: 0 means none, 1 one simple root,
    and any count is at least the roots and has their parity."""
    rng = random.Random(977)
    for _ in range(200):
        p = random_poly(rng)
        k = rng.randint(0, 4)
        a = rng.randrange(1 << k)
        lo, hi = sympy.Rational(a, 1 << k), sympy.Rational(a + 1, 1 << k)
        inside = sum(1 for r in to_sympy(p).real_roots() if lo < r < hi)
        for d in (rt.degree(p), rt.degree(p) + 2):
            v = rt._variations(rt._descend(rt._unit_bernstein(p, d), a, k))
            assert v >= inside and (v - inside) % 2 == 0, (p, a, k, d)
            if v <= 1:
                assert inside == v, (p, a, k, d)


def test_walk_encloses_each_root_once():
    rng = random.Random(1201)
    checked = 0
    while checked < 120:
        p = random_poly(rng)
        if oracles.evaluate(p, Fraction(1)) == 0:
            continue
        check_region_of(positive_at_one(p), Fraction(1, 1 << 20))
        checked += 1


def test_single_root_cell_narrows():
    # 2x^3 = 1, root (1/2)^(1/3) ~ 0.7937: the threshold halving keeps the
    # sign change, and stops at the depth-30 cell
    p = (-1, 0, 0, 2)
    ep = sp._bisect(p, 0, 0, sp._depth(Fraction(1, 10**9)), True)
    assert ep.kind == "enclosure" and ep.hi - ep.lo == Fraction(1, 1 << 30)
    assert oracles.evaluate(p, ep.lo) < 0 < oracles.evaluate(p, ep.hi)
    assert sp._bisect((-1, 4), 0, 0, 30, True) == sp.Endpoint(
        "exact", value=Fraction(1, 4)
    )


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
    # roots 1/3 and 1/2: a split lands on 1/2, while 1/3 stays enclosed
    p = _mul((1, -2), (1, -3))
    eps = Fraction(1, 1000)
    head, tail = region_of([p], eps)
    assert head.hi.lo < Fraction(1, 3) < head.hi.hi <= head.hi.lo + eps
    assert tail.lo == sp.Endpoint("exact", value=Fraction(1, 2))


# Repeated roots: the random polynomials above are square-free almost surely.
RATIONAL_FACTORS = ((-1, 3), (-1, 2), (-2, 5))  # 3x-1, 2x-1, 5x-2
IRRATIONAL_FACTORS = ((-1, 0, 2), (1, -5, 5))  # 2x^2-1, 5x^2-5x+1: roots in (0,1)


def repeated_root_polys(rng, count):
    """Products of squared or cubed factors with roots in (0,1) and a random
    cofactor, nonzero at 1."""
    factors = RATIONAL_FACTORS + IRRATIONAL_FACTORS
    made = 0
    while made < count:
        p = random_poly(rng, max_deg=3)
        for factor in rng.sample(factors, rng.randint(1, 2)):
            for _ in range(rng.randint(2, 3)):
                p = _mul(p, factor)
        if oracles.evaluate(p, Fraction(1)) == 0:
            continue
        made += 1
        yield p


def test_repeated_roots_against_sympy():
    """The square-free part has p's distinct roots, each simple, and the walk
    settles repeated roots: touching from below is a single point, from above
    nothing, an odd power a sign change."""
    cube = _mul(_mul((-1, 0, 2), (-1, 0, 2)), (-1, 0, 2))  # (2x^2-1)^3
    pure_powers = [_mul((-1, 3), (-1, 3)), cube]  # (3x-1)^2, cube
    for p in pure_powers + list(repeated_root_polys(random.Random(6), 60)):
        _, sqf = to_sympy(p).sqf_part().primitive()
        assert to_sympy(rt.primitive(rt._square_free(p))) in (sqf, -sqf)
        for eps in (Fraction(1, 1000), Fraction(1, 1 << 30)):
            check_region_of(positive_at_one(p), eps)


HALF_SQRT2 = (-1, 0, 2)  # 2x^2 - 1, root 1/sqrt(2) ~ 0.7071


def test_walk_decides_shared_and_close_irrational_roots():
    """A rising and a falling root in one depth-D cell: split below D until
    they part, or one gcd shows they are one root."""
    # (2x^2-1)(3x-1) is negative on (1/3, 1/sqrt 2), (2x^2-1)(5x-4) on
    # (1/sqrt 2, 4/5): the shared root is a single-point component
    shared = [_mul(HALF_SQRT2, (-1, 3)), _mul(HALF_SQRT2, (-4, 5))]
    low, point, high = region_of(shared, EPS)
    assert point.lo == point.hi and point.lo.kind == "enclosure"
    assert point.lo.lo < Fraction(7071067811865476, 10**16) < point.lo.hi
    assert high.lo.lo < Fraction(4, 5) < high.lo.hi
    # (1-2x^2)(9-10x) falls at 1/sqrt(2); 2(x -+ d)^2 - 1 rises 10^-13 later
    # or earlier: no component, or one between two cells deeper than D
    falling = _mul(rt.negate(HALF_SQRT2), (9, -10))
    d = 10**13
    for sign in (1, -1):
        rising = (2 - d * d, -4 * d * sign, 2 * d * d)  # times d^2
        components, roots = oracles.nonnegative_components([falling, rising])
        for eps in (EPS, Fraction(1, 1000)):
            region = region_of([falling, rising], eps)
            oracles.check_region(region, components, roots, sp._depth(eps))
            assert len(region) == (1 if sign > 0 else 2)
        if sign < 0:
            lo, hi = region[0].lo, region[0].hi
            assert lo.hi <= hi.lo and hi.hi - hi.lo < Fraction(1, 1 << 40)


def test_walk_defers_gcd_and_keeps_shared_root_enclosure(monkeypatch):
    """At epsilon = 1/1000 the shared root 1/sqrt(2) is decided by one gcd,
    taken in its depth-10 cell, which encloses it."""
    gcds = []
    gcd = rt.poly_gcd
    monkeypatch.setattr(rt, "poly_gcd", lambda p, q: gcds.append(1) or gcd(p, q))
    shared = [_mul(HALF_SQRT2, (-1, 3)), _mul(HALF_SQRT2, (-4, 5))]
    region = region_of(shared, Fraction(1, 1000))
    cell = sp.Endpoint("enclosure", lo=Fraction(181, 256), hi=Fraction(725, 1024))
    assert region[1] == sp.SpInterval(cell, cell, True, True)
    assert len(gcds) == 1


def test_walk_halving_onto_a_shared_exact_root_is_one_point(monkeypatch):
    """2x - 1 rises and (2x - 1)(5x - 4) falls at 1/2, the first midpoint: an
    exact single-point component, with no gcd."""
    gcds = []
    monkeypatch.setattr(rt, "poly_gcd", lambda p, q: gcds.append(1))
    classes = [(-1, 2), _mul((-1, 2), (-4, 5))]
    point, tail = region_of(classes, Fraction(1, 1000))
    half = sp.Endpoint("exact", value=Fraction(1, 2))
    assert point == sp.SpInterval(half, half, True, True)
    assert tail.lo.lo < Fraction(4, 5) < tail.lo.hi and gcds == []


def test_region_of_random_function_needs_no_gcd(monkeypatch):
    """Distinct roots part by halving alone, and no class needs its
    square-free part: a region-random pool function (random n=9, seed 1)
    gets its region without one gcd."""
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
    v = rt._variations(rt._unit_bernstein(p, rt.degree(p)))
    assert v >= len(unit) and (v - len(unit)) % 2 == 0
    if v == 0:
        assert unit == []
    if v == 1:
        assert len(unit) == 1


@settings(max_examples=200, deadline=None)
@given(unit_polys())
def test_walk_encloses_each_distinct_unit_root_once(p):
    """The walk over one class, repeated roots included, against sympy."""
    check_region_of(positive_at_one(p), Fraction(1, 1 << 12))


@settings(max_examples=150, deadline=None)
@given(unit_polys())
@example((26, -100, 100))  # complex roots only
@example((1, 0, -4, 0, 4))  # (2x^2 - 1)^2: touches 0 from above
@example((3, -16, 16))  # (4x - 1)(4x - 3): negative between its roots
def test_dips_decides_negative_somewhere(p):
    """classify's per-class subdivision against sympy, for a class positive
    at 0 and 1: is it negative somewhere in (0,1)?"""
    if p[0] < 0:
        p = rt.negate(p)
    if sum(p) <= 0:
        return
    live = sp._live_rows(np.array([p], dtype=object))
    dips = bool(live.index) and sp._dips(live, 0, Fraction(1, 1 << 12))
    assert dips == oracles.negative_on_01(tuple(map(Fraction, p)))


@st.composite
def rows_around(draw, limit):
    """(d, peak, rows): an int64 matrix of 1-3 rows of degree d = 1..24 whose
    largest magnitude is peak, drawn on both sides of limit(d): just below,
    at, just above, or anywhere up to twice it."""
    d = draw(st.integers(1, 24))
    edge = limit(d)
    peak = draw(st.sampled_from([edge - 1, edge, edge + 1]) | st.integers(1, 2 * edge))
    top = min(peak, (1 << 63) - 1)  # a peak of 2^63 can only be -2^63 in int64
    size = draw(st.integers(1, 3)) * (d + 1)
    entries = draw(st.lists(st.integers(-peak, top), min_size=size, max_size=size))
    entries[draw(st.integers(0, size - 1))] = draw(st.sampled_from([peak, -peak] if top == peak else [-peak]))
    return d, peak, np.array(entries, dtype=np.int64).reshape(-1, d + 1)


def _unit_lcm(d):
    return lcm(*(comb(d, i) for i in range(d + 1)))


@settings(max_examples=300, deadline=None)
@given(rows_around(lambda d: -(-(1 << 62) // _unit_lcm(d))))
@example((1, 1 << 63, np.array([[-(1 << 63), 0]], dtype=np.int64)))  # np.abs keeps it negative
def test_bernstein_int64_exactly_below_bound(case):
    """_bernstein gives L b_i = sb_i L/C(d,i) with L = lcm_i C(d,i) in Python
    ints; _bernstein_bounds gives the same entries as one exact int64 matrix
    (hi is lo) exactly while peak * L < 2^62, and past that an int64 lower
    and upper row, bounds of them scaled by one 2^-s, that split in int64."""
    d, peak, sb = case
    big = _unit_lcm(d)
    expected = [[c * big // comb(d, i) for i, c in enumerate(row)] for row in sb.tolist()]
    b = rt._bernstein(sb)
    assert b.dtype == object and b.tolist() == expected
    lo, hi = rt._bernstein_bounds(sb)
    assert lo.dtype == hi.dtype == np.int64
    assert (hi is lo) == (peak * big < 1 << 62)
    if hi is lo:
        assert lo.tolist() == expected
    else:
        assert rt._fits(lo) and rt._fits(hi)
        assert any(
            all(l << s <= e <= h << s for l, e, h in zip(*(m.ravel().tolist() for m in (lo, b, hi))))
            for s in range(128)
        )


@settings(max_examples=300, deadline=None)
@given(rows_around(lambda d: 1 << (62 - d)), st.data())
def test_split_and_descend_int64_exactly_below_bound(case, data):
    """_split_bounds(b, b) keeps each half one exact int64 matrix exactly
    while max |b| < 2^(62-d), for a matrix and for its row holding the peak,
    with the entries of _split's Python ints; _descend gives the entries
    that Python ints give; _first and _last are Python ints (an np.int64
    there would make _bisect's cell index an np.int64, which overflows in
    eval_scaled)."""
    d, peak, rows = case
    fits = peak < 1 << (62 - d)
    for b in (rows, rows[np.abs(rows).max(axis=1).argmax()]):
        for (lo, hi), exact in zip(rt._split_bounds(b, b), rt._split(b)):
            assert lo.dtype == hi.dtype == np.int64 and exact.dtype == object
            assert (hi is lo) == fits
            if fits:
                assert lo.tolist() == exact.tolist()
    k = data.draw(st.integers(0, 8))
    a = data.draw(st.integers(0, (1 << k) - 1))
    cell = rt._descend(rows, a, k)
    assert cell.tolist() == rt._descend(rows.astype(object), a, k).tolist()
    for b in (rows.ravel(), cell.ravel()):
        if b.any():
            assert type(rt._first(b)) is int and type(rt._last(b)) is int
