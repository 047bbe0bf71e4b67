"""The SP-region walk: touching roots, the distinct point polynomials, and
independent checks against sympy."""

import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolsp import (
    BooleanFunction,
    CapacityError,
    Endpoint,
    classify,
    construct_named,
    is_sp,
    negate_inputs,
    product_compose,
    random_function,
    level_values,
    sp_region,
)
from boolsp import roots as rt
from boolsp import sp, spectrum
from boolsp.sp import _depth, _live_rows, _region
from boolsp.spectrum import ScaledSpectrum

import oracles

EPS = Fraction(1, 10**9)

# (2x - 1)^2 (4x - 3): negative on [0, 1/2) and on (1/2, 3/4), zero at 1/2
TOUCHING = (-3, 16, -28, 16)
# (2x^2 - 1)^2 (10x - 9): negative on [0, 9/10) but for a double root at 1/sqrt 2
TOUCHING_IRRATIONAL = (-9, 10, 36, -40, -36, 40)


def region_of_classes(n, classes, eps=EPS):
    """_region over point polynomials given as coefficient tuples."""
    width = max(map(len, classes))
    rows = np.array([q + (0,) * (width - len(q)) for q in classes], dtype=np.int64)
    return _region(n, _live_rows(rows), eps)


def test_negative_set_keeps_touching_root_as_hole():
    # 1/2 is the first midpoint, where TOUCHING is 0: a tie, so in the region,
    # though TOUCHING is negative on both sides; 0 is not (TOUCHING(0) = -3)
    region = region_of_classes(0, [TOUCHING])
    half = Endpoint("exact", value=Fraction(1, 2))
    assert region.intervals[0] == sp.SpInterval(half, half, True, True)
    assert region.intervals[1].lo == Endpoint("exact", value=Fraction(3, 4))


def test_sweep_leaves_touching_root_as_degenerate_component():
    for q, root, tail in ((TOUCHING, Fraction(1, 2), Fraction(3, 4)),
                          (TOUCHING_IRRATIONAL, Fraction(7071067811865476, 10**16),
                           Fraction(9, 10))):
        for eps in (EPS, Fraction(1, 1000)):
            point, rest = region_of_classes(0, [q], eps).intervals
            assert point.lo == point.hi and point.lo_closed and point.hi_closed
            if point.lo.kind == "exact":
                assert point.lo.value == root
            else:  # the double root takes the square-free part: a depth-D cell
                assert point.lo.lo < root < point.lo.hi
                assert point.lo.hi - point.lo.lo == Fraction(1, 1 << _depth(eps))
            assert rest.hi == Endpoint("exact", value=Fraction(1))
            assert rest.lo.kind == "exact" or rest.lo.lo < tail < rest.lo.hi
            components, roots = oracles.nonnegative_components([q])
            oracles.check_region((point, rest), components, roots, _depth(eps))


def test_double_root_takes_one_square_free_gcd(monkeypatch):
    """A class with a double root keeps two or more variations down to depth
    D; one gcd(q, q') then lets its cells part."""
    calls = []
    gcd = rt.poly_gcd
    monkeypatch.setattr(rt, "poly_gcd", lambda p, q: calls.append(1) or gcd(p, q))
    region_of_classes(0, [TOUCHING_IRRATIONAL])
    assert len(calls) == 1
    calls.clear()
    assert region_of_classes(0, [TOUCHING]).intervals[0].lo.kind == "exact"
    assert calls == []  # the exact midpoint 1/2 settles it


# (3x - 1)^2 (4x - 3): a double root at 1/3, which no midpoint hits
TOUCHING_THIRD = (-3, 22, -51, 36)
# (3x - 1)(x + 1) rises and (3x - 1)(2x - 1) falls through the root 1/3
SHARED_THIRD = [(-1, 2, 3, 0), (1, -5, 6, 0)]


def test_walk_takes_python_int_rows_at_the_leaves(monkeypatch):
    """At epsilon = 2^-12 the Bernstein rows of these small classes (degree 3,
    and 5 for TOUCHING_IRRATIONAL) stay exact int64 down to depth D, where
    the cell casts them to Python ints: every leaf sees a Python-int Q, also
    where a class took its square-free part and where a rising and a falling
    class share their root, and no class takes its row from [0,1]."""
    seen = interval_walk(monkeypatch)
    leaves, common = [], []
    leaf, common_root = sp._Walk.leaf, sp._Walk.common_root

    def leaf_spy(self, a, k, ids, Q, S, red, tested):
        out = leaf(self, a, k, ids, Q, S, red, tested)
        leaves.append((k, Q.dtype, bool(self.square_free)))
        return out

    def common_spy(self, group, a, k):
        common.append(common_root(self, group, a, k))
        return common[-1]

    monkeypatch.setattr(sp._Walk, "leaf", leaf_spy)
    monkeypatch.setattr(sp._Walk, "common_root", common_spy)
    eps = Fraction(1, 1 << 12)
    for classes, square_free, shared in (
        ([TOUCHING], False, False),  # 1/2 and 3/4 are midpoints: no leaf
        ([TOUCHING_IRRATIONAL], True, False),
        ([TOUCHING_THIRD], True, False),
        (SHARED_THIRD, False, True),
    ):
        leaves.clear()
        common.clear()
        region = region_of_classes(0, classes, eps)
        assert all(k == 12 and dtype == object for k, dtype, _ in leaves), leaves
        assert seen["fallback"] == 0
        assert bool(leaves) == (classes != [TOUCHING])
        assert any(taken for *_, taken in leaves) == square_free
        assert common == ([True] if shared else [])
        components, roots = oracles.nonnegative_components(classes)
        oracles.check_region(region.intervals, components, roots, _depth(eps))


# (2x^2 - 1)(x + 2) rises and (2x^2 - 1)(10x - 9) falls through 1/sqrt 2
SHARED_IRRATIONAL = [(-2, -1, 4, 2), (9, -10, -18, 20)]
# ends that midpoints hit: 1/2 (a double root) and 3/4; 1/4 and 1/2; 1/2 and 3/4
DYADIC = [[TOUCHING], [(1, -6, 8)], [(-1, 2), (3, -16, 16)]]
# 20 (5x - 1)(100x - 21)(100x - 51): a narrow bump above 0 between 1/5 and
# 21/100, and a third root in the same half, which bounds can hide
BUMP = (-21420, 251100, -920000, 1000000)
# TOUCHING_THIRD and (5461 - 16384x)(9 - 10x), which falls through 5461/16384
# in the depth-12 cell of 1/3: split past D, the cell just left of 5461/16384
# holds TOUCHING_THIRD's square-free row positive and its own row negative
PAST_DEPTH = [TOUCHING_THIRD, (49149, -202066, 163840)]
# self-products g x g of random n=3 functions (n=6): the bounds leave a cell
# open with the default int64 range, and the walk takes the exact fallback
SELF_PRODUCTS = [product_compose(g, g) for g in (random_function(3, 4), random_function(3, 8))]


def interval_walk(monkeypatch):
    """Count the splits of exact int64 rows and the classes given exact rows
    on a cell from their rows on [0,1] (the fallback: rows that enter as
    bounds, not as exact int64 rows) while the test narrows the walk's int64
    range (roots._BITS)."""
    seen = {"exact splits": 0, "fallback": 0}
    split_bounds, exact = rt._split_bounds, sp._Walk.exact

    def bounds_spy(lo, hi):
        seen["exact splits"] += hi is lo and rt._fits(lo)
        return split_bounds(lo, hi)

    def exact_spy(self, part, a, k):
        ids, lo, hi = part
        seen["fallback"] += len(ids) if hi is not lo else 0
        return exact(self, part, a, k)

    monkeypatch.setattr(rt, "_split_bounds", bounds_spy)
    monkeypatch.setattr(sp._Walk, "exact", exact_spy)
    return seen


def test_interval_walk_falls_back_to_exact_rows(monkeypatch):
    """At epsilon = 2^-12 these classes walk on exact int64 rows.  With the
    int64 range cut to 2^0 every bound is -1, 0 or 1, so the bounds decide
    next to nothing and the walk falls back to exact rows: on touching roots,
    on rising and falling classes sharing a root (rational or not, settled
    by a gcd), on ends that midpoints hit, and on a split past depth D.
    Wider ranges let the bounds decide more and more.  Each region is the
    exact walk's.  A self-product takes the fallback even with the default
    range."""
    eps = Fraction(1, 1 << 12)
    cases = [[TOUCHING_THIRD], [TOUCHING_IRRATIONAL], SHARED_THIRD, SHARED_IRRATIONAL,
             *DYADIC, [BUMP], PAST_DEPTH]
    seen = interval_walk(monkeypatch)
    want = [region_of_classes(0, classes, eps) for classes in cases]
    assert seen["fallback"] == 0
    sp_region(SELF_PRODUCTS[0])
    assert seen["fallback"] > 0
    for classes, region in zip(cases, want):
        components, roots = oracles.nonnegative_components(classes)
        oracles.check_region(region.intervals, components, roots, _depth(eps))
    for bits in range(0, 44, 3):
        monkeypatch.setattr(rt, "_BITS", bits)
        for classes, region in zip(cases, want):
            seen.update({"exact splits": 0, "fallback": 0})
            assert region_of_classes(0, classes, eps) == region, (classes, bits)
            if bits == 0:
                assert seen["exact splits"] == 0, classes
                assert seen["fallback"] >= len(classes), classes


def test_walk_keeps_only_the_largest_rising_root():
    """Of the classes with one sign variation, each rising through one root,
    only those with the largest root bound the region, which the walk over
    every class finds; whether 0 is in the region is read off every class."""
    classes = [(-1, 4), (-3, 4), (-7, 10), (0, -3, 4), (3, -16, 16)]
    rows = np.array([q + (0,) * (3 - len(q)) for q in classes], dtype=np.int64)
    live = _live_rows(rows)
    three_quarters = Endpoint("exact", value=Fraction(3, 4))
    one = Endpoint("exact", value=Fraction(1))
    whole = sp.SpInterval(three_quarters, one, True, True)
    assert _region(0, live, EPS).intervals == (whole,)
    # x(4x - 3) alone has 0 in its region; 2x - 1, whose root 1/2 lies left
    # of 3/4, not
    zero = Endpoint("exact", value=Fraction(0))
    assert region_of_classes(0, [(0, -3, 4)]).intervals[0] == sp.SpInterval(zero, zero, True, True)
    assert region_of_classes(0, [(0, -3, 4), (-1, 2)]).intervals == (whole,)
    components, roots = oracles.nonnegative_components(classes)
    oracles.check_region((whole,), components, roots, _depth(EPS))


def test_enclosures_not_refined_past_epsilon():
    # Every enclosure is a cell of depth D, the least with 2^-D <= eps, so
    # its width lies in (eps/2, eps], unless a rising and a falling root
    # shared one such cell and had to be told apart.
    for n in range(4, 7):
        for seed in range(10):
            f = random_function(n, seed)
            for eps in (EPS, Fraction(1, 1000)):
                for iv in sp_region(f, eps).intervals:
                    for ep in (iv.lo, iv.hi):
                        if ep.kind == "enclosure":
                            assert eps / 2 < ep.hi - ep.lo <= eps, (n, seed, eps)


def test_usp_matches_sympy_oracle_exhaustive_n3():
    for bits in range(256):
        f = BooleanFunction(3, bits)
        vals = oracles.table(f)
        failing = [
            (tuple(int(8 * c) for c in coeffs), v)
            for v, coeffs in enumerate(oracles.point_polynomials(vals, 3))
            if oracles.negative_on_01(tuple(coeffs))
        ]
        c = classify(f)
        assert c.usp == (not failing), bits
        # witness: least point of the lexicographically first failing
        # polynomial (the order of the distinct-polynomial list)
        assert c.witnesses.get("usp") == (min(failing)[1] if failing else None), bits


# ---------------------------------------------------------------------------
# the distinct point polynomials


def distinct_polys(f):
    """sp._distinct_point_polys as (trimmed row, rep, size) triples."""
    rows, reps, sizes = sp._distinct_point_polys(f)
    return list(zip([rt.trim(tuple(row)) for row in rows.tolist()], reps, sizes))


def oracle_distinct_polys(f):
    """Distinct scaled rows of oracles.point_polynomials in sorted order,
    trimmed of high zero coefficients, each with its least point and the
    number of points that have it."""
    points = {}
    for v, coeffs in enumerate(oracles.point_polynomials(oracles.table(f), f.n)):
        points.setdefault(tuple(int(c * (1 << f.n)) for c in coeffs), []).append(v)
    out = []
    for row in sorted(points):
        trimmed = list(row)
        while trimmed[-1] == 0:
            trimmed.pop()
        out.append((tuple(trimmed), points[row][0], len(points[row])))
    return out


def named_negations():
    for n in range(3, 8):
        for name in ("majority", "or", "edic"):
            if name == "majority" and n % 2 == 0:
                continue
            f = construct_named(name, n)
            rng = np.random.Generator(np.random.PCG64(n))
            for _ in range(3):
                yield negate_inputs(f, [int(s) for s in rng.choice((-1, 1), size=n)])


def test_distinct_polys_match_oracle_n3_and_named():
    for f in [BooleanFunction(3, b) for b in range(256)] + list(named_negations()):
        assert distinct_polys(f) == oracle_distinct_polys(f), (f.n, f.bits)


def dense_distinct_polys(f):
    """np.unique over the dense signed table f(v) * level_values(f, k)[v]:
    (rows, least point of each, number of points of each)."""
    table = np.column_stack([level_values(f, k) for k in range(f.n + 1)])
    rows, first, counts = np.unique(
        table * f.values[:, None], axis=0, return_index=True, return_counts=True
    )
    return rows, first.tolist(), counts.tolist()


def large_functions():
    for n in (11, 12, 13):
        yield pytest.param(random_function(n, n), id=f"random{n}")
    rng = np.random.Generator(np.random.PCG64(12))
    for name, n in [("edic", 12), ("edic", 13), ("majority", 13), ("or", 12), ("or", 13)]:
        signs = [int(s) for s in rng.choice((-1, 1), size=n)]
        yield pytest.param(negate_inputs(construct_named(name, n), signs),
                           id=f"masked-{name}{n}")


@pytest.mark.parametrize("f", large_functions())
def test_distinct_polys_match_dense_unique(f):
    # beyond the sympy oracle's reach: the dense 2^n-row table, deduplicated
    rows, reps, sizes = sp._distinct_point_polys(f)
    want_rows, want_reps, want_sizes = dense_distinct_polys(f)
    assert np.array_equal(rows, want_rows)
    assert reps == want_reps and sizes == want_sizes


def test_distinct_polys_peak_memory():
    # the graded transform holds two (2^n, n + 1) buffers, the gathered rows
    # replace them, and no per-level copies are kept: under 2.6 times the rows
    f = random_function(14, 1)
    sp._distinct_point_polys(f)  # the spectrum is cached from here on
    tracemalloc.start()
    try:
        sp._distinct_point_polys(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * (1 << f.n) * (f.n + 1) * 8, peak


def test_distinct_polys_refuse_keys_beyond_int64(monkeypatch):
    # every scaled coefficient 2^61: majority 3 is one block of 4 orbits
    # (weights w = 0..3, signs + + - -).  Level 0 gives the columns
    # +-2^61, two classes; level 1 gives (3 - 2w) * 2^61 * sign, that is
    # 3 * 2^61 or 2^61, so its keys would need 2 * (2^62 + 1) >= 2^63
    monkeypatch.setattr(
        sp, "wht", lambda f: ScaledSpectrum(f.n, np.full(1 << f.n, 1 << 61))
    )
    with pytest.raises(CapacityError, match="level 1 of n=3"):
        sp._distinct_point_polys(construct_named("majority", 3))


def krawtchouk(b):
    """K[k][w] = sum_j (-1)^j C(w, j) C(b-w, k-j), summed the obvious way."""
    return [
        [sum((-1) ** j * comb(w, j) * comb(b - w, k - j) for j in range(k + 1))
         for w in range(b + 1)]
        for k in range(b + 1)
    ]


def test_krawtchouk_transform_matches_formula():
    for sizes in [[b] for b in range(13)] + [[3, 1, 2], [1, 1, 1], [2, 5]]:
        # block 0 is the fastest axis, so the flat tensor is transformed by
        # the Kronecker product of the blocks' matrices, last block first
        matrix = np.ones((1, 1), dtype=np.int64)
        for b in sizes:
            matrix = np.kron(np.array(krawtchouk(b), dtype=np.int64), matrix)
        # column j of the identity is basis vector j as a flat tensor, and the
        # columns ride along unmixed: column j comes out as row j of matrix
        got = sp._krawtchouk_transform(np.eye(len(matrix), dtype=np.int64), sizes)
        assert np.array_equal(got, matrix.T), sizes


def test_coordinate_blocks_of_masked_named_functions():
    rng = np.random.Generator(np.random.PCG64(8))
    for name, n in [("edic", 5), ("edic", 8), ("majority", 5), ("majority", 9),
                    ("or", 4), ("or", 8)]:
        signs = [int(s) for s in rng.choice((-1, 1), size=n)]
        f = negate_inputs(construct_named(name, n), signs)
        blocks, mask = sp._coordinate_blocks(f)
        expected = [[0], list(range(1, n))] if name == "edic" else [list(range(n))]
        assert blocks == expected, name
        # a coordinate swaps with its block's root negated when their signs differ
        root = {j: block[0] for block in expected for j in block}
        assert mask == sum(1 << j for j in range(n) if signs[j] != signs[root[j]]), name


# ---------------------------------------------------------------------------
# property suites on random n <= 7 functions


@st.composite
def functions(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    return BooleanFunction(n, draw(st.integers(0, (1 << (1 << n)) - 1)))


@settings(max_examples=100, deadline=None)
@given(functions())
def test_distinct_polys_match_oracle(f):
    assert distinct_polys(f) == oracle_distinct_polys(f)


def permute_inputs(f, perm):
    """g(x) = f(y) with y_perm[i] = x_i."""
    idx = [
        sum(((u >> i) & 1) << perm[i] for i in range(f.n)) for u in range(1 << f.n)
    ]
    return BooleanFunction.from_values(f.values[idx])


@st.composite
def block_symmetric(draw, max_n=8):
    """(f, planted blocks): a function of the per-block weights of blocks of
    consecutive coordinates, with inputs then permuted and negated."""
    n = draw(st.integers(1, max_n))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n - sum(sizes))))
    shape = [b + 1 for b in sizes]
    table = draw(st.lists(st.sampled_from((-1, 1)), min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    u = np.arange(1 << n)
    weights, low = [], 0
    for b in sizes:
        weights.append(np.bitwise_count((u >> low) & ((1 << b) - 1)))
        low += b
    values = np.array(table)[np.ravel_multi_index(weights, shape)]
    f = BooleanFunction.from_values(values)
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    blocks, low = [], 0
    for b in sizes:  # coordinate i of the permuted function is f's perm[i]
        blocks.append({i for i in range(n) if low <= perm[i] < low + b})
        low += b
    return negate_inputs(permute_inputs(f, perm), signs), blocks


@settings(max_examples=80, deadline=None)
@given(st.one_of(block_symmetric().map(lambda case: case[0]), functions(max_n=8)))
def test_coordinate_blocks_match_oracle(f):
    # partition and mask alike; the mask bit of a coordinate joined through a
    # block's newest member must be read relative to the root
    assert sp._coordinate_blocks(f) == oracles.coordinate_blocks(oracles.table(f), f.n)


def dense_level_flags(f):
    """classify's lev, wst, sst, lev_zero_count and witnesses (all but usp)
    from the dense level_values tables: row v of the signed level table is
    f(v) times the point polynomial's coefficients."""
    signed = np.array([level_values(f, k) for k in range(f.n + 1)]) * f.values
    lev = next(k for k in range(f.n + 1) if signed[k].any())
    lead = np.zeros(1 << f.n, dtype=np.int64)
    for row in signed:
        lead = np.where(lead == 0, np.sign(row), lead)
    witnesses = {}
    for key, bad in (
        ("lcsp", lead < 0), ("wst", signed[lev] < 0), ("lev_zero", signed[lev] == 0)
    ):
        if bad.any():
            witnesses[key] = int(np.flatnonzero(bad)[0])
    zero_count = int(np.count_nonzero(signed[lev] == 0))
    wst = "wst" not in witnesses
    return lev, wst, wst and zero_count == 0, zero_count, witnesses


@settings(max_examples=40, deadline=None)
@given(block_symmetric())
def test_orbit_polys_match_oracle_on_block_symmetric(case):
    f, planted = case
    found = sp._coordinate_blocks(f)[0]
    assert all(any(b <= set(block) for block in found) for b in planted)
    classes = distinct_polys(f)
    assert classes == oracle_distinct_polys(f)
    assert sum(size for _, _, size in classes) == 1 << f.n
    c = classify(f)
    witnesses = {k: v for k, v in c.witnesses.items() if k != "usp"}
    assert (c.lev, c.wst, c.sst, c.lev_zero_count, witnesses) == dense_level_flags(f)
    assert c.lcsp == ("lcsp" not in witnesses)


def test_classify_reads_no_dense_level_table(monkeypatch):
    def refuse(*_):
        raise AssertionError("dense level pass")

    cases = [construct_named("majority", 9), construct_named("edic", 8)]
    expected = [dense_level_flags(f) for f in cases]
    for mod, name in ((sp, "_by_level"), (spectrum, "_by_level"), (spectrum, "level_values")):
        monkeypatch.setattr(mod, name, refuse)
    for f, want in zip(cases, expected):
        c = classify(f)
        witnesses = {k: v for k, v in c.witnesses.items() if k != "usp"}
        assert (c.lev, c.wst, c.sst, c.lev_zero_count, witnesses) == want


@settings(max_examples=150, deadline=None)
@given(functions(), st.data())
def test_region_invariant_under_npn(f, data):
    region = sp_region(f)
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=f.n, max_size=f.n))
    perm = data.draw(st.permutations(range(f.n)))
    assert sp_region(negate_inputs(f, signs)) == region
    assert sp_region(permute_inputs(f, perm)) == region
    assert sp_region(BooleanFunction.from_values(-f.values)) == region


@settings(max_examples=150, deadline=None)
@given(
    functions(),
    st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=200),
        min_size=1,
        max_size=10,
    ),
)
def test_is_sp_agrees_with_region(f, rhos):
    region = sp_region(f)
    exact = [
        ep.value
        for iv in region.intervals
        for ep in (iv.lo, iv.hi)
        if ep.kind == "exact"
    ]
    for x in rhos + exact:
        member = oracles.region_membership(region, x)
        if member is not None:
            assert member == is_sp(f, x).sp, x


@settings(max_examples=25, deadline=None)
@given(functions(max_n=6), st.sampled_from([Fraction(1, 1000), Fraction(1, 1 << 20)]))
@example(SELF_PRODUCTS[0], Fraction(1, 1 << 20))
@example(SELF_PRODUCTS[1], Fraction(1, 1 << 20))
def test_region_matches_sympy_root_oracle(f, eps):
    """The region against one built from sympy's real roots of every class
    and exact signs between them: exact ends equal, enclosures the depth-D
    cell of the oracle's root."""
    polys = {
        rt.trim(tuple(int(c * (1 << f.n)) for c in coeffs))
        for coeffs in oracles.point_polynomials(oracles.table(f), f.n)
    }
    components, roots = oracles.nonnegative_components(sorted(polys))
    oracles.check_region(sp_region(f, eps).intervals, components, roots, _depth(eps))


@settings(max_examples=30, deadline=None)
@given(functions(max_n=6), st.integers(2, 40),
       st.sampled_from([Fraction(1, 1000), Fraction(1, 1 << 20)]))
# two regions of two components, {0} and [r, 1]
@example(BooleanFunction(4, 0xA64B), 12, Fraction(1, 1000))
@example(BooleanFunction(6, 0x7C89C11EF9318EAC), 20, Fraction(1, 1 << 20))
def test_interval_walk_matches_sympy_root_oracle(f, room, eps):
    """The walk on bounds from the root on, against the sympy oracle: with
    the int64 range at 2^(d+room), or lower until the root's exact rows do
    not fit, every split is one of lower and upper rows, and the region is
    still exact."""
    live = _live_rows(sp._distinct_point_polys(f)[0])
    top = int(np.abs(live.sb).max(initial=0)) * rt._weights(f.n)[0]
    with pytest.MonkeyPatch.context() as mp:
        seen = interval_walk(mp)
        mp.setattr(rt, "_BITS", max(min(f.n + room, top.bit_length() - 1), 0))
        region = _region(f.n, live, eps)
    assert seen["exact splits"] == 0
    polys = {
        rt.trim(tuple(int(c * (1 << f.n)) for c in coeffs))
        for coeffs in oracles.point_polynomials(oracles.table(f), f.n)
    }
    components, roots = oracles.nonnegative_components(sorted(polys))
    oracles.check_region(region.intervals, components, roots, _depth(eps))
