"""Truth-table core: constructions, structural predicates, boundary sets."""

import gc
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolsp import (
    BooleanFunction,
    CapacityError,
    InvalidArgument,
    LtfSpec,
    PreconditionError,
    PtfSpec,
    TieError,
    construct_ltf,
    construct_named,
    construct_ptf,
    dense_cap,
    dominating_boundary_points,
    friendly_neighborhood,
    index_of_point,
    negate_inputs,
    point_of_index,
    properties,
)
from boolsp import noise, spectrum
from boolsp.functions import _ENTRY_BYTES, bytes_lru, dominating_boundary_count, popcounts

# the running 4-variable polynomial threshold example (coefficients x4)
PTF_EX = PtfSpec(
    4,
    (
        (0b0001, 2),  # x1
        (0b0100, 1),  # x3
        (0b0011, -2),  # x1 x2
        (0b0101, 1),  # x1 x3
        (0b0110, 1),  # x2 x3
        (0b1100, -1),  # x3 x4
        (0b0111, 1),  # x1 x2 x3
        (0b1101, 1),  # x1 x3 x4
        (0b1110, -1),  # x2 x3 x4
        (0b1111, 1),  # x1 x2 x3 x4
    ),
)


def test_point_index_round_trip():
    for n in (1, 2, 5):
        for u in range(1 << n):
            assert index_of_point(point_of_index(u, n)) == u
    assert point_of_index(0, 3) == (1, 1, 1)
    assert point_of_index(5, 3) == (-1, 1, -1)


def test_call_takes_points_of_n_coordinates_only():
    f = construct_named("majority", 3)
    assert f((1, 1, -1)) == 1 and f([-1, -1, 1]) == -1
    for point in ((1, 1, 1, 1), (-1, -1), ()):
        with pytest.raises(InvalidArgument):
            f(point)


def test_table_round_trip_and_identity():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randint(1, 6)
        vals = [rng.choice((-1, 1)) for _ in range(1 << n)]
        f = BooleanFunction.from_values(vals)
        assert f.values.tolist() == vals
        assert BooleanFunction(f.n, f.bits) == f
        assert hash(BooleanFunction(f.n, f.bits)) == hash(f)


def test_immutability():
    f = construct_named("majority", 3)
    with pytest.raises(AttributeError):
        f.n = 5
    with pytest.raises(ValueError):
        f.values[0] = -1


def test_capacity():
    with pytest.raises(CapacityError):
        BooleanFunction(25, 0)
    with pytest.raises(InvalidArgument):
        BooleanFunction.from_values([1, -1, 1])  # not a power of two


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("BOOLSP_CAP_N", "3")
    with pytest.raises(CapacityError, match=r"n=5 exceeds the dense-table cap 3 \(raise via BOOLSP_CAP_N\)$"):
        construct_named("majority", 5)
    construct_named("majority", 3)
    monkeypatch.setenv("BOOLSP_CAP_N", "5")  # read on each call
    construct_named("majority", 5)


def test_cap_ceiling(monkeypatch):
    monkeypatch.delenv("BOOLSP_CAP_N", raising=False)
    assert dense_cap() == 24
    monkeypatch.setenv("BOOLSP_CAP_N", "31")
    assert dense_cap() == 31
    for value, message in [
        ("32", "BOOLSP_CAP_N must be <= 31, got 32"),
        ("40", "BOOLSP_CAP_N must be <= 31, got 40"),
        ("0", "BOOLSP_CAP_N must be >= 1, got 0"),
        ("2.5", "BOOLSP_CAP_N must be an integer, got '2.5'"),
    ]:
        monkeypatch.setenv("BOOLSP_CAP_N", value)
        with pytest.raises(InvalidArgument) as exc:
            dense_cap()
        assert str(exc.value) == message
    monkeypatch.setenv("BOOLSP_CAP_N", "31")  # no cap admits n = 32: no hint is given
    with pytest.raises(CapacityError) as exc:
        BooleanFunction(32, 0)
    assert str(exc.value) == "n=32 exceeds 31, the largest dense-table cap allowed"


def test_bytes_lru_byte_total_holds_under_threads():
    # keys 0..19 build 1..7 float64 entries, counted as 1..7 entry charges, so
    # charged 2..8 of them; those of 6 and 7 exceed the bound
    cached = bytes_lru(6 * _ENTRY_BYTES, lambda a: a.nbytes // 8 * _ENTRY_BYTES)(
        lambda k: np.zeros(k % 7 + 1)
    )

    def work(seed):
        rng = random.Random(seed)
        for _ in range(2000):
            cached(rng.randrange(20))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    keys, total = cached.cache_info()
    assert len(set(keys)) == len(keys)
    assert total == sum((k % 7 + 2) * _ENTRY_BYTES for k in keys) <= 6 * _ENTRY_BYTES


def test_bytes_lru_bound_holds_on_small_entries():
    # 16-byte results keyed by (BooleanFunction(4, .), int): what the cache
    # holds as traced, keys and result objects included, stays within its bound
    limit = 1 << 18
    cached = bytes_lru(limit, lambda a: a.nbytes)(lambda key: np.zeros(16, dtype=np.int8))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for bits in range(4000):
            cached((BooleanFunction(4, bits), bits))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= limit
    keys, total = cached.cache_info()
    assert total == len(keys) * (16 + (16 + 2) + _ENTRY_BYTES) <= limit


def test_bytes_lru_charges_the_tables_of_its_keys():
    # a kept result is charged the truth tables of a BooleanFunction key and
    # of one in a tuple key: n = 10 holds 1024 value bytes and 128 of bits
    f = BooleanFunction.from_values(np.resize([1, -1, -1], 1 << 10))
    assert f.nbytes == 1024 + 128
    spectrum.wht.cache_clear()
    noise._sign_stream.cache_clear()
    try:
        entry = noise._sign_stream((f, Fraction(1, 2)))
        summaries = (1 << 10) + 4 * (36 + 8) * 11  # wht's bound on them at n = 10
        assert spectrum.wht.cache_info() == ((f,), 8 * 1024 + summaries + 1152 + _ENTRY_BYTES)
        # the signs and the 11 int64 Stab* level sums, charged before they are built
        charged = (((f, Fraction(1, 2)),), 1024 + 8 * 11 + 1152 + _ENTRY_BYTES)
        assert "cross_sums" not in entry.__dict__
        assert noise._sign_stream.cache_info() == charged
        assert entry.cross_sums.nbytes == 8 * 11
        assert noise._sign_stream.cache_info() == charged
    finally:
        spectrum.wht.cache_clear()
        noise._sign_stream.cache_clear()


def test_equal_tables_hash_equal():
    for n, bits in ((1, 2), (4, 0xBEEF), (9, (1 << 511) | 12345)):
        f = BooleanFunction(n, bits)
        g = BooleanFunction.from_values(f.values.copy())
        assert f == g and f is not g and hash(f) == hash(g)
        assert {f: 1}[g] == 1
    assert BooleanFunction(3, 5) != BooleanFunction(2, 5)


def test_majority_table():
    maj3 = construct_named("majority", 3)
    assert maj3.values.tolist() == [1, 1, 1, -1, 1, -1, -1, -1]
    with pytest.raises(InvalidArgument):
        construct_named("majority", 4)


def test_or_table():
    orf = construct_named("or", 3)
    vals = orf.values.tolist()
    assert vals[0] == 1 and all(v == -1 for v in vals[1:])


def test_edic_3_is_majority():
    assert construct_named("edic", 3) == construct_named("majority", 3)


def test_edic_never_ties():
    # total LTF weight 2n-3 is odd, so the form cannot vanish
    for n in (3, 4, 7):
        f = construct_named("edic", n)
        assert f.n == n


def test_character_matches_parity():
    f = construct_named("character", 4, coords=[1, 3])
    for u in range(16):
        x = point_of_index(u, 4)
        assert f.value_at(u) == x[0] * x[2]


def test_ltf_matches_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 7)
        # all-odd slopes with an opposite-parity offset: the form never vanishes
        a = tuple(rng.choice((-1, 1)) * (2 * rng.randint(0, 4) + 1) for _ in range(n))
        a0 = 2 * rng.randint(-3, 3) + (0 if n % 2 else 1)
        f = construct_ltf(LtfSpec(a0, a))
        for u in range(1 << n):
            s = a0 + sum(ai * xi for ai, xi in zip(a, point_of_index(u, n)))
            assert f.value_at(u) == (1 if s > 0 else -1)


def test_ltf_tie_reports_least_witness():
    with pytest.raises(TieError) as exc:
        construct_ltf(LtfSpec(0, (1, 1, 1, 1)))
    assert exc.value.witness_index == 3  # (-1,-1,+1,+1) is the first zero
    assert exc.value.witness_point == (-1, -1, 1, 1)


def test_ptf_matches_brute_force():
    f = construct_ptf(PTF_EX)
    for u in range(16):
        x = point_of_index(u, 4)
        s = 0
        for mask, coeff in PTF_EX.terms:
            prod = coeff
            for j in range(4):
                if (mask >> j) & 1:
                    prod *= x[j]
            s += prod
        assert s != 0
        assert f.value_at(u) == (1 if s > 0 else -1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ptf_matches_per_point_evaluation(data):
    # random forms, with ties where the terms cancel: the table is the sign of
    # the form at each point, or TieError names the first point where it is 0
    n = data.draw(st.integers(1, 8))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), unique=True, max_size=12))
    coeffs = data.draw(st.lists(st.integers(-6, 6), min_size=len(masks), max_size=len(masks)))
    spec = PtfSpec(n, tuple(zip(masks, coeffs)))
    forms = [
        sum(c * (-1) ** bin(u & m).count("1") for m, c in spec.terms) for u in range(1 << n)
    ]
    zeros = [u for u, v in enumerate(forms) if v == 0]
    if zeros:
        with pytest.raises(TieError) as exc:
            construct_ptf(spec)
        assert exc.value.witness_index == zeros[0]
    else:
        assert construct_ptf(spec).values.tolist() == [1 if v > 0 else -1 for v in forms]


def test_ptf_example_is_balanced():
    f = construct_ptf(PTF_EX)
    assert int(f.values.sum()) == 0


def test_ptf_validation():
    with pytest.raises(InvalidArgument):
        PtfSpec(2, ((0, 1), (0, 2)))  # duplicate mask
    with pytest.raises(InvalidArgument):
        PtfSpec(2, ((4, 1),))  # mask out of range


def test_properties_majority():
    rec = properties(construct_named("majority", 3))
    assert rec.balanced and rec.monotone and rec.odd and rec.symmetric
    assert not rec.even


def test_properties_or_and_character():
    rec = properties(construct_named("or", 3))
    assert rec.monotone and rec.symmetric
    assert not rec.balanced and not rec.odd and not rec.even
    chi12 = construct_named("character", 3, coords=[1, 2])
    rec = properties(chi12)
    assert rec.balanced and rec.even
    assert not rec.odd and not rec.monotone and not rec.symmetric


def symmetric_by_gather(f):
    """Every point against the least point (1 << w) - 1 of its weight w."""
    vals = f.values
    return bool(np.array_equal(vals, vals[(1 << popcounts(f.n)) - 1]))


def test_symmetric_matches_gather_on_every_small_table():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            f = BooleanFunction(n, bits)
            assert properties(f).symmetric == symmetric_by_gather(f), (n, bits)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.sampled_from(("table", "weights", "flip")))
def test_symmetric_matches_gather(n, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "table":
        vals = rng.choice((-1, 1), size=1 << n)
    else:  # a function of the weight, with one point flipped for "flip"
        vals = rng.choice((-1, 1), size=n + 1)[popcounts(n)]
        if kind == "flip":
            vals[rng.integers(1 << n)] *= -1
    f = BooleanFunction.from_values(vals)
    assert properties(f).symmetric == symmetric_by_gather(f)


def permute_inputs(f, perm):
    """g(x) = f(y) with y_perm[i] = x_i."""
    u = np.arange(1 << f.n)
    idx = sum(((u >> i) & 1) << perm[i] for i in range(f.n))
    return BooleanFunction.from_values(f.values[idx])


def test_symmetric_matches_gather_on_permuted_and_negated_inputs():
    rng = random.Random(25)
    for name, n in (("majority", 7), ("majority", 9), ("or", 6), ("or", 9)):
        f = construct_named(name, n)
        for _ in range(6):
            perm = rng.sample(range(n), n)
            negated = negate_inputs(f, [rng.choice((-1, 1)) for _ in range(n)])
            for g in (permute_inputs(f, perm), negated, permute_inputs(negated, perm)):
                assert properties(g).symmetric == symmetric_by_gather(g)
        assert properties(permute_inputs(f, perm)).symmetric
        assert not properties(negate_inputs(f, [-1] + [1] * (n - 1))).symmetric


def parity_by_gather(f):
    """(odd, even): every point against its negation, index u ^ (2^n - 1)."""
    vals = f.values
    mirror = vals[np.arange(1 << f.n) ^ ((1 << f.n) - 1)]
    return bool(np.array_equal(mirror, -vals)), bool(np.array_equal(mirror, vals))


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 10),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("table", "weights", "negated", "odd", "even")),
)
def test_parity_and_symmetry_match_gather(n, seed, kind):
    rng = np.random.default_rng(seed)
    size = 1 << n
    if kind == "table":
        vals = rng.choice((-1, 1), size=size)
    elif kind in ("weights", "negated"):
        vals = rng.choice((-1, 1), size=n + 1)[popcounts(n)]
    else:  # the high half mirrors the low one, negated for "odd"
        low = rng.choice((-1, 1), size=size // 2)
        vals = np.concatenate([low, (-1 if kind == "odd" else 1) * low[::-1]])
    f = BooleanFunction.from_values(vals)
    if kind == "negated":
        f = negate_inputs(f, rng.choice((-1, 1), size=n).tolist())
    rec = properties(f)
    assert (rec.odd, rec.even) == parity_by_gather(f)
    assert rec.symmetric == symmetric_by_gather(f)


def test_monotone_against_definition():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 4)
        vals = [rng.choice((-1, 1)) for _ in range(1 << n)]
        f = BooleanFunction.from_values(vals)
        # v below u in the order <=> v's set bits contain u's
        brute = all(
            vals[u | (1 << j)] <= vals[u]
            for u in range(1 << n)
            for j in range(n)
            if not (u >> j) & 1
        )
        assert properties(f).monotone == brute


def violating_directions(vals, n):
    """The directions j with some pair vals[u | 2^j] > vals[u] (bit j of u clear)."""
    return {
        j
        for u in range(1 << n)
        for j in range(n)
        if not (u >> j) & 1 and vals[u | (1 << j)] > vals[u]
    }


def planted_violations(rng, n, j):
    """A monotone LTF f on n coordinates, its values and the points u (bit j
    clear) whose swap with u | 2^j leaves that pair the only one out of order.

    Swapping a +1 point u with its -1 lower neighbour u | 2^j does so when
    every other lower neighbour of u is -1 and every other upper one of
    u | 2^j is +1; monotone LTFs are drawn until one has such a u."""
    bit = 1 << j
    swaps = []
    while not swaps:
        a = tuple(2 * rng.randint(0, 3) + 1 for _ in range(n))
        f = construct_ltf(LtfSpec((n % 2 + 1) % 2, a))
        vals = f.values.tolist()
        swaps = [
            u for u in range(1 << n)
            if not u & bit and vals[u] == 1 and vals[u | bit] == -1
            and all(vals[u | 1 << k] == -1
                    for k in range(n) if k != j and not (u >> k) & 1)
            and all(vals[(u | bit) & ~(1 << k)] == 1
                    for k in range(n) if (u >> k) & 1)
        ]
    return f, vals, swaps


def plant(vals, u, j):
    """A copy of vals with the +1 at u and the -1 at u | 2^j swapped."""
    planted = list(vals)
    planted[u], planted[u | 1 << j] = -1, 1
    return planted


def test_monotone_against_definition_large_n():
    # a single violating pair, planted along each direction j in turn, so
    # both the column-by-column views of j <= 3 and the 3-D view of j >= 4
    # must find it
    rng = random.Random(17)
    for n in range(5, 10):
        for j in range(n):
            f, vals, swaps = planted_violations(rng, n, j)
            assert properties(f).monotone and not violating_directions(vals, n)
            checked = rng.choice(swaps)
            for u in swaps:
                planted = plant(vals, u, j)
                if u == checked:
                    assert violating_directions(planted, n) == {j}
                assert not properties(BooleanFunction.from_values(planted)).monotone


def test_dominating_boundary_majority():
    assert dominating_boundary_points(construct_named("majority", 3)) == [1, 2, 3, 4, 5, 6]


def test_dominating_boundary_or():
    # minimal +1 point is the top input; maximal -1 points are its neighbors
    assert dominating_boundary_points(construct_named("or", 3)) == [0, 1, 2, 4]


def test_dominating_boundary_requires_monotone():
    chi = construct_named("character", 3, coords=[1, 2])
    with pytest.raises(PreconditionError):
        dominating_boundary_points(chi)
    # one violating pair along each direction, on both sides of the j <= 3 split
    rng = random.Random(18)
    for n in range(5, 10):
        for j in range(n):
            f, vals, swaps = planted_violations(rng, n, j)
            assert dominating_boundary_count(f) > 0
            planted = BooleanFunction.from_values(plant(vals, rng.choice(swaps), j))
            with pytest.raises(PreconditionError):
                dominating_boundary_count(planted)


def test_dominating_boundary_definition_random():
    rng = random.Random(3)
    seen = 0
    while seen < 25:
        n = rng.randint(2, 8)
        # monotone sample: majority vote over random positive-weight forms
        a = tuple(2 * rng.randint(0, 3) + 1 for _ in range(n))
        f = construct_ltf(LtfSpec((n % 2 + 1) % 2, a))
        if not properties(f).monotone:
            continue
        seen += 1
        vals = f.values.tolist()
        expect = []
        for u in range(1 << n):
            ups = [u & ~(1 << j) for j in range(n) if (u >> j) & 1]
            downs = [u | (1 << j) for j in range(n) if not (u >> j) & 1]
            if vals[u] == 1 and all(vals[d] == -1 for d in downs):
                expect.append(u)
            elif vals[u] == -1 and all(vals[w] == 1 for w in ups):
                expect.append(u)
        assert dominating_boundary_points(f) == sorted(expect)


def test_friendly_neighborhood():
    maj3 = construct_named("majority", 3)
    assert friendly_neighborhood(maj3, 1).all()
    chi = construct_named("character", 3, coords=[1, 2, 3])
    assert not friendly_neighborhood(chi, 1).any()  # parity flips at distance 1
    assert friendly_neighborhood(chi, 2).all()
