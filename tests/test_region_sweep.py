"""The SP-region sweep: negative sets, their union, and independent checks."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from boolsp import (
    BooleanFunction,
    Endpoint,
    classify,
    is_sp,
    negate_inputs,
    random_function,
    sp_region,
)
from boolsp.sp import _compare, _negative_set, _region

import oracles

EPS = Fraction(1, 10**9)

# (2x - 1)^2 (4x - 3): negative on [0, 1/2) and on (1/2, 3/4), zero at 1/2
TOUCHING = (-3, 16, -28, 16)


def brackets(root, x):
    ep = root.endpoint(EPS)
    if ep.kind == "exact":
        return ep.value == x
    return ep.lo < x < ep.hi


def test_negative_set_keeps_touching_root_as_hole():
    (first, second) = _negative_set(TOUCHING)
    zero, half = first
    assert zero.lo == zero.hi == 0  # starts at 0; q(0) = -3 < 0 covers it
    assert brackets(half, Fraction(1, 2))
    assert _compare(second[0], half) == 0
    assert brackets(second[1], Fraction(3, 4))


def test_sweep_leaves_touching_root_as_degenerate_component():
    region, negative = _region(0, [(TOUCHING, 0)], EPS)
    assert len(negative[0]) == 2
    point, tail = region.intervals  # {1/2} and [3/4, 1]
    assert point.lo is point.hi
    assert point.lo == Endpoint("exact", value=Fraction(1, 2))
    assert tail.lo.kind == "enclosure"
    assert tail.lo.lo < Fraction(3, 4) < tail.lo.hi <= tail.lo.lo + EPS
    assert tail.hi == Endpoint("exact", value=Fraction(1))
    assert point.lo_closed and point.hi_closed and tail.lo_closed


def test_enclosures_not_refined_past_epsilon():
    # Bisection from an isolating bracket stops at the first width <= eps,
    # and sorting halves only the wider of two brackets, so unless two
    # distinct roots lie within eps of each other no enclosure gets narrower
    # than eps/2: printed enclosures do not depend on the sort.
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
# property suites on random n <= 7 functions


@st.composite
def functions(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    return BooleanFunction(n, draw(st.integers(0, (1 << (1 << n)) - 1)))


def permute_inputs(f, perm):
    """g(x) = f(y) with y_perm[i] = x_i."""
    idx = [
        sum(((u >> i) & 1) << perm[i] for i in range(f.n)) for u in range(1 << f.n)
    ]
    return BooleanFunction.from_values(f.values[idx])


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
