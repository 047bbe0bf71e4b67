"""Input negation, products, character composition, random tables."""

import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolsp import (
    BooleanFunction,
    CapacityError,
    CompositionPlan,
    InvalidArgument,
    LtfSpec,
    PRNG_NAME,
    PtfSpec,
    character_compose,
    construct_ltf,
    construct_named,
    construct_ptf,
    is_sp,
    ltf_ratio_check,
    negate_inputs,
    point_of_index,
    product_compose,
    random_function,
    sp_region,
)
from boolsp.serialize import (
    FN_FORMAT,
    LTF_FORMAT,
    PLAN_FORMAT,
    PTF_FORMAT,
    function_from_obj,
    load_plan,
)

import oracles


def rand_fn(rng, n):
    return BooleanFunction.from_values([rng.choice((-1, 1)) for _ in range(1 << n)])


# ---------------------------------------------------------------------------
# negate_inputs


def test_negate_identity_and_involution():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(1, 4)
        f = rand_fn(rng, n)
        signs = tuple(rng.choice((-1, 1)) for _ in range(n))
        assert (negate_inputs(f, (1,) * n).values == f.values).all()
        twice = negate_inputs(negate_inputs(f, signs), signs)
        assert (twice.values == f.values).all()


def test_negate_matches_pointwise_definition():
    rng = random.Random(22)
    f = rand_fn(rng, 3)
    signs = (-1, 1, -1)
    g = negate_inputs(f, signs)
    for u in range(8):
        x = point_of_index(u, 3)
        flipped = tuple(s * xi for s, xi in zip(signs, x))
        from boolsp import index_of_point

        assert g.value_at(u) == f.value_at(index_of_point(flipped))


def test_negate_preserves_sp():
    f = construct_named("or", 3)
    g = negate_inputs(f, (-1, -1, 1))
    for k in range(9):
        rho = Fraction(k, 8)
        assert is_sp(f, rho).sp == is_sp(g, rho).sp


def test_negate_validates_signs():
    f = construct_named("majority", 3)
    with pytest.raises(InvalidArgument):
        negate_inputs(f, (1, 1))
    with pytest.raises(InvalidArgument):
        negate_inputs(f, (1, 0, 1))


# ---------------------------------------------------------------------------
# product_compose


def test_product_values_brute_force():
    rng = random.Random(23)
    g = rand_fn(rng, 2)
    h = rand_fn(rng, 3)
    prod = product_compose(g, h)
    assert prod.n == 5
    for u in range(32):
        lo, hi = u & 3, u >> 2
        assert prod.value_at(u) == g.value_at(lo) * h.value_at(hi)


def test_product_sp_iff_on_positive_rho():
    rng = random.Random(24)
    for _ in range(8):
        g = rand_fn(rng, 2)
        h = rand_fn(rng, 2)
        prod = product_compose(g, h)
        for k in range(1, 9):
            rho = Fraction(k, 8)
            assert is_sp(prod, rho).sp == (is_sp(g, rho).sp and is_sp(h, rho).sp)


def test_product_respects_cap(monkeypatch):
    g = construct_named("majority", 3)
    monkeypatch.setenv("BOOLSP_CAP_N", "5")
    with pytest.raises(CapacityError, match="n=6 exceeds the dense-table cap 5"):
        product_compose(g, g)
    monkeypatch.setenv("BOOLSP_CAP_N", "6")
    assert product_compose(g, g).n == 6


# ---------------------------------------------------------------------------
# character_compose


def test_character_compose_brute_force():
    rng = random.Random(25)
    outer = rand_fn(rng, 3)
    plan = CompositionPlan(((1, 2), (3,), (4, 5)))
    f = character_compose(outer, plan)
    assert f.n == 5
    for u in range(32):
        x = point_of_index(u, 5)
        inputs = []
        for block in plan.blocks:
            val = 1
            for i in block:
                val *= x[i - 1]
            inputs.append(val)
        from boolsp import index_of_point

        assert f.value_at(u) == outer.value_at(index_of_point(tuple(inputs)))


def test_character_compose_rescales_noise_per_block():
    # OR(2) on blocks of sizes (2, 1): input t sees noise rho^|S_t|, so the
    # boundary solves rho^2 * rho + rho^2 + rho = 1 at the all-ones point,
    # i.e. rho + rho^2 + rho^3 = 1 (~0.5437), not OR(2)'s own sqrt(2)-1
    outer = construct_named("or", 2)
    plan = CompositionPlan(((1, 3), (2,)))
    f = character_compose(outer, plan)
    region = sp_region(f)
    solid = [iv for iv in region.intervals if iv.hi.approx() > 0]
    assert len(solid) == 1
    lo = solid[0].lo
    assert lo.lo + lo.lo**2 + lo.lo**3 <= 1 <= lo.hi + lo.hi**2 + lo.hi**3


def test_character_compose_equal_blocks_rescale_region():
    # equal block size s=2 turns rho into rho^2: OR(2)'s boundary sqrt(2)-1
    # becomes its square root
    outer = construct_named("or", 2)
    plan = CompositionPlan(((1, 3), (2, 4)))
    f = character_compose(outer, plan)
    region = sp_region(f)
    solid = [iv for iv in region.intervals if iv.hi.approx() > 0]
    assert len(solid) == 1
    lo = solid[0].lo
    assert (1 + lo.lo**2) ** 2 <= 2 <= (1 + lo.hi**2) ** 2


def test_character_compose_validation():
    outer = construct_named("majority", 3)
    with pytest.raises(InvalidArgument):
        character_compose(outer, CompositionPlan(((1,), (2,))))  # block count
    with pytest.raises(InvalidArgument):
        CompositionPlan(((1, 2), (2,), (3,)))  # reused coordinate
    with pytest.raises(InvalidArgument):
        CompositionPlan(((1,), (), (3,)))  # empty block
    with pytest.raises(InvalidArgument):
        CompositionPlan(((0, 1), (2,), (3,)))  # 0 is not 1-based


def test_plan_n_is_max_coordinate():
    plan = CompositionPlan(((2,), (7,), (4,)))
    assert plan.n == 7


# ---------------------------------------------------------------------------
# property suites: compositions keep their SP sets


@st.composite
def functions(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    return BooleanFunction(n, draw(st.integers(0, (1 << (1 << n)) - 1)))


def _endpoints(f):
    """The rationals of f's region in (0, 1]: exact endpoints and the ends
    of enclosures, where the SP set changes."""
    out = set()
    for iv in sp_region(f).intervals:
        for ep in (iv.lo, iv.hi):
            out.update(x for x in (ep.value, ep.lo, ep.hi) if x is not None and x > 0)
    return sorted(out)


rhos = st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(bool)


@settings(max_examples=150, deadline=None)
@given(functions(), functions(), st.lists(rhos, max_size=4))
def test_product_sp_iff_factors_sp(g, h, extra):
    prod = product_compose(g, h)
    for rho in _endpoints(g) + _endpoints(h) + extra:
        assert is_sp(prod, rho).sp == (is_sp(g, rho).sp and is_sp(h, rho).sp), rho


@st.composite
def equal_block_plans(draw):
    """(outer, plan, s): blocks of one size s over some of x_1..x_(m s + 1)."""
    outer = draw(functions(max_n=3))
    s = draw(st.integers(1, 3))
    coords = draw(st.permutations(range(1, outer.n * s + 2)))
    blocks = tuple(tuple(coords[t * s:(t + 1) * s]) for t in range(outer.n))
    return outer, CompositionPlan(blocks), s


@settings(max_examples=150, deadline=None)
@given(equal_block_plans(), st.lists(rhos, max_size=4))
def test_character_compose_sp_at_rho_power(plan_case, extra):
    outer, plan, s = plan_case
    f = character_compose(outer, plan)
    for rho in _endpoints(f) + _endpoints(outer) + extra:
        assert is_sp(f, rho).sp == is_sp(outer, rho**s).sp, rho


# ---------------------------------------------------------------------------
# random_function


def test_random_function_deterministic():
    f = random_function(6, seed=12345)
    g = random_function(6, seed=12345)
    assert (f.values == g.values).all()
    h = random_function(6, seed=12346)
    assert (f.values != h.values).any()


def test_random_function_stream_semantics():
    # table bit u is the u-th integers(0,2) draw of PCG64(seed)
    assert PRNG_NAME == "pcg64"
    rng = np.random.Generator(np.random.PCG64(99))
    expect = rng.integers(0, 2, size=16, dtype=np.uint8) * 2 - 1
    f = random_function(4, seed=99)
    assert (f.values == expect.astype(np.int8)).all()


def test_random_function_cap():
    with pytest.raises(CapacityError):
        random_function(30, seed=1)


# ---------------------------------------------------------------------------
# the dense-table cap guards every producer of a 2^n table


def _plan_file(tmp_path, n):
    path = tmp_path / "plan.json"
    outer = {"format": LTF_FORMAT, "a0": 1, "a": [1] * n}
    path.write_text(json.dumps({"format": PLAN_FORMAT, "outer": outer, "blocks": [[1]]}))
    return path


TABLE_PRODUCERS = {
    "BooleanFunction": lambda n, _: BooleanFunction(n, 0),
    "named-character": lambda n, _: construct_named("character", n, [1]),
    "named-majority": lambda n, _: construct_named("majority", n),
    "named-or": lambda n, _: construct_named("or", n),
    "named-edic": lambda n, _: construct_named("edic", n),
    "ltf": lambda n, _: construct_ltf(LtfSpec(1, (2,) * n)),
    "ltf_ratio_check": lambda n, _: ltf_ratio_check(LtfSpec(1, (2,) * n)),
    "ptf": lambda n, _: construct_ptf(PtfSpec(n, ((1, 1),))),
    "random_function": lambda n, _: random_function(n, 1),
    "product_compose": lambda n, _: product_compose(
        construct_named("or", n // 2), construct_named("or", n - n // 2)),
    "character_compose": lambda n, _: character_compose(
        construct_named("or", 1), CompositionPlan(((n,),))),
    "fn-object": lambda n, _: function_from_obj(
        {"format": FN_FORMAT, "n": n, "table_hex": "0"}),
    "ltf-object": lambda n, _: function_from_obj(
        {"format": LTF_FORMAT, "a0": 1, "a": [2] * n}),
    "ptf-object": lambda n, _: function_from_obj(
        {"format": PTF_FORMAT, "n": n, "terms": [{"coords": [1], "coeff": 1}]}),
    "plan-object": lambda n, tmp_path: load_plan(_plan_file(tmp_path, n)),
}


@pytest.mark.parametrize("producer", sorted(TABLE_PRODUCERS))
def test_every_table_producer_checks_the_cap_first(producer, tmp_path, monkeypatch):
    make = TABLE_PRODUCERS[producer]
    monkeypatch.setenv("BOOLSP_CAP_N", "3")
    with pytest.raises(CapacityError, match="n=4 exceeds the dense-table cap 3"):
        make(4, tmp_path)
    monkeypatch.delenv("BOOLSP_CAP_N")
    # at the default cap of 24, n = 30 is refused before anything 2^n-sized
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="n=30 exceeds the dense-table cap 24"):
            make(30, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
