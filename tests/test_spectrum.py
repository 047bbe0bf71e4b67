"""Walsh-Hadamard layer against direct correlation sums and Parseval."""

import gc
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolsp import (
    BooleanFunction,
    InvalidArgument,
    chow_distance,
    construct_named,
    function_from_scaled,
    influences,
    level_values,
    random_function,
    sp_polynomial,
    spectral_summary,
    wht,
)
from boolsp import noise, spectrum
from boolsp.functions import _ENTRY_BYTES, bytes_lru, linear_values, popcounts

from oracles import fourier, level_cross_sums, level_summaries, linear_abs_sum, linear_gap


def random_function_list(rng, n):
    return [rng.choice((-1, 1)) for _ in range(1 << n)]


def test_majority3_spectrum():
    coeffs = wht(construct_named("majority", 3)).coeffs.tolist()
    assert coeffs == [0, 4, 4, 0, 4, 0, 0, -4]


def test_or3_spectrum():
    coeffs = wht(construct_named("or", 3)).coeffs.tolist()
    assert coeffs == [-6, 2, 2, 2, 2, 2, 2, 2]


def test_wht_matches_direct_sums():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        vals = random_function_list(rng, n)
        f = BooleanFunction.from_values(vals)
        spec = wht(f)
        direct = fourier(vals, n)
        for m in range(1 << n):
            assert spec.fraction(m) == direct[m]
            assert spec.coeffs[m] == direct[m] * (1 << n)


def test_wht_involution():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 6)
        f = BooleanFunction.from_values(random_function_list(rng, n))
        assert function_from_scaled(n, wht(f).coeffs) == f


def test_parseval():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 6)
        f = BooleanFunction.from_values(random_function_list(rng, n))
        c = wht(f).coeffs.astype(object)
        assert int(sum(c * c)) == 1 << (2 * n)


def test_function_from_scaled_rejects_non_boolean():
    with pytest.raises(InvalidArgument):
        function_from_scaled(2, np.array([1, 1, 1, 1], dtype=np.int64))
    for coeffs in ([4], [4, 0, 0], [4, 0, 0, 0, 0, 0, 0, 0]):  # not 2^n entries
        with pytest.raises(InvalidArgument, match="length"):
            function_from_scaled(2, np.array(coeffs, dtype=np.int64))


def test_level_values_sum_to_function():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(1, 5)
        f = BooleanFunction.from_values(random_function_list(rng, n))
        total = sum(level_values(f, k).astype(object) for k in range(n + 1))
        assert np.array_equal(total, f.values.astype(object) * (1 << n))


def test_sp_polynomial_rows_are_levels():
    rng = random.Random(15)
    fns = [construct_named("majority", 3)]
    fns += [BooleanFunction.from_values(random_function_list(rng, n)) for n in (1, 2, 4, 5)]
    for f in fns:
        levels = [level_values(f, k).tolist() for k in range(f.n + 1)]
        for v in range(1 << f.n):
            assert sp_polynomial(f, v) == tuple(col[v] for col in levels)
    maj = fns[0]
    assert list(sp_polynomial(maj, 0)) == [0, 12, 0, -4]
    assert list(sp_polynomial(maj, 4)) == [0, 4, 0, 4]
    for v in (-1, 8):  # the parity of S & v would silently read another point
        with pytest.raises(InvalidArgument):
            sp_polynomial(maj, v)


def test_summary_majority3():
    s = spectral_summary(construct_named("majority", 3))
    assert s.weights == (0, Fraction(3, 4), 0, Fraction(1, 4))
    assert s.degree == 3 and s.level == 1
    assert s.spectral_norm == 2
    assert s.chow == (0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert s.gap == Fraction(1, 2)
    assert s.influences == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def test_summary_constants():
    const = BooleanFunction.from_values([1, 1])
    s = spectral_summary(const)
    assert s.weights == (1, 0)
    assert s.degree == 0 and s.level == 0
    assert s.gap == 0 and s.influences == (Fraction(0),)


def test_weights_sum_to_one():
    rng = random.Random(15)
    for _ in range(50):
        n = rng.randint(1, 5)
        f = BooleanFunction.from_values(random_function_list(rng, n))
        s = spectral_summary(f)
        assert sum(s.weights) == 1
        assert s.weights[s.level] > 0
        assert all(w == 0 for w in s.weights[: s.level])


def test_influences_flip_counting():
    # n up to 8 reaches both sides of the j <= 3 column split
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randint(1, 8)
        vals = random_function_list(rng, n)
        f = BooleanFunction.from_values(vals)
        inf = influences(f)
        for j in range(n):
            pairs = sum(
                1
                for u in range(1 << n)
                if not (u >> j) & 1 and vals[u] != vals[u | (1 << j)]
            )
            assert inf[j] == Fraction(pairs, 1 << (n - 1))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.integers(0, (1 << (1 << n)) - 1).map(lambda bits: BooleanFunction(n, bits))
    )
)
def test_total_influence_is_level_weighted_sum(f):
    # sum_j Inf_j = sum_k k W^k: the flip counts of the table against the spectrum
    level_sum = sum(Fraction(k * w, 4**f.n) for k, w in enumerate(wht(f).weights))
    assert sum(influences(f)) == level_sum


def test_monotone_influence_equals_chow():
    # for monotone f the degree-1 coefficients are the influences
    for fname, n in (("majority", 5), ("or", 4), ("edic", 5)):
        f = construct_named(fname, n)
        s = spectral_summary(f)
        assert s.influences == tuple(influences(f))
        assert s.chow[1:] == tuple(influences(f))


def test_chow_distance_majority_vs_dictator():
    maj3 = construct_named("majority", 3)
    x1 = construct_named("character", 3, coords=[1])
    assert chow_distance(maj3, x1) == Fraction(3, 4)
    assert chow_distance(maj3, maj3) == 0


def test_gap_is_min_positive_level1_value():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 4)
        vals = random_function_list(rng, n)
        f = BooleanFunction.from_values(vals)
        s = spectral_summary(f)
        direct = fourier(vals, n)
        lin = [
            sum(direct[1 << j] * (-1 if (u >> j) & 1 else 1) for j in range(n))
            for u in range(1 << n)
        ]
        positive = [v for v in lin if v > 0]
        assert s.gap == (min(positive) if positive else 0)


@st.composite
def level1_tables(draw):
    """(n, +-1 table) for n = 1..12: a random table; an even one, whose
    level-1 form vanishes (gap 0); one of the Hamming weight, whose level-1
    coefficients are all equal; or an LTF with small weights, whose half-table
    sums tie often."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("table", "even", "weight", "ltf")))
    size = 1 << n
    if kind == "table":
        vals = rng.choice((-1, 1), size=size)
    elif kind == "even":
        low = rng.choice((-1, 1), size=size // 2)
        vals = np.concatenate([low, low[::-1]])  # f(-x) = f(x)
    elif kind == "weight":
        vals = rng.choice((-1, 1), size=n + 1)[np.bitwise_count(np.arange(size))]
    else:
        # odd weights and an offset of the other parity: the form never vanishes
        a = 2 * rng.integers(0, 4, size=n) + 1
        vals = np.sign(linear_values((n + 1) % 2, a.tolist()))
    return n, vals


@settings(max_examples=150, deadline=None)
@given(level1_tables())
def test_level1_half_tables_match_full_table(case):
    n, vals = case
    f = BooleanFunction.from_values(vals)
    spec = wht(f)
    a = spec.coeffs[1 << np.arange(n)].tolist()
    assert spec.level1_gap == linear_gap(a)
    assert spec.level1_l1 == linear_abs_sum(a)


def test_level1_half_tables_on_a_vanishing_form():
    for n in (1, 2, 5):
        spec = wht(construct_named("character", n, coords=[]))  # constant: level 1 is zero
        assert spec.level1_gap == 0 and spec.level1_l1 == 0
    x1 = wht(construct_named("character", 1, coords=[1]))  # n = 1: the form is 2 x_1
    assert x1.level1_gap == 2 and x1.level1_l1 == 4


def test_spectrum_cache_is_bounded_by_bytes():
    # wht's own builder under a bound of three n=6 spectra and their entry
    # charges, each with its key's 64 value bytes and 8 bytes of bits
    bound = 3 * (8 * 64 + 72 + _ENTRY_BYTES)
    cached = bytes_lru(bound, lambda spec: spec.coeffs.nbytes)(spectrum.wht.__wrapped__)
    fs = [random_function(6, seed) for seed in range(4)]
    kept = [cached(f) for f in fs]
    assert cached.cache_info() == (tuple(fs[1:]), bound)  # the least recent left
    assert cached(fs[1]) is kept[1]  # a hit, now the most recent
    again = cached(fs[0])
    assert again is not kept[0] and np.array_equal(again.coeffs, kept[0].coeffs)
    assert cached.cache_info() == ((fs[3], fs[1], fs[0]), bound)
    big = random_function(10, 0)  # 8 KiB, more than the whole bound
    assert cached(big) is not cached(big)
    assert cached.cache_info() == ((fs[3], fs[1], fs[0]), bound)
    cached.cache_clear()
    assert cached.cache_info() == ((), 0)


def test_wht_keeps_its_name_and_cache():
    assert spectrum.wht.__name__ == "wht" and spectrum.wht.__module__ == "boolsp.spectrum"
    spectrum.wht.cache_clear()
    f = random_function(5, 1)
    assert spectrum.wht(f) is spectrum.wht(f)
    # the coefficients, the summaries' bound for n = 5 (1 KiB and 176 bytes a
    # level), the key's tables and the entry charge
    summaries = (1 << 10) + 4 * (36 + 8) * 6
    assert spectrum.wht.cache_info() == ((f,), 8 * 32 + summaries + (32 + 4) + _ENTRY_BYTES)


def _read_summaries(spec):
    return (spec.weights, spec.l1, spec.peaks, spec.support, spec.degree,
            spec.level1_gap, spec.level1_l1)


def _traced_growth(work):
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_kept_summaries_stay_within_the_cache_bound():
    fs = [random_function(n, seed) for seed in range(40) for n in range(3, 9)]
    build = spectrum.wht.__wrapped__
    _read_summaries(build(random_function(9, 0)))  # first-call allocations
    # the summaries alone hold no more than their part of wht's charge
    specs = [build(f) for f in fs]
    grown = _traced_growth(lambda: [_read_summaries(spec) for spec in specs])
    assert grown <= sum(spectrum._spectrum_bytes(s) - s.coeffs.nbytes for s in specs)
    del specs
    # wht's own builder and charge under a 128 KiB bound: many small spectra,
    # each with every summary built, hold no more than the charge reported
    # for those kept, and the others are freed as they leave
    bound = 128 << 10
    cached = bytes_lru(bound, spectrum._spectrum_bytes)(build)
    held = _traced_growth(lambda: [_read_summaries(cached(f)) and None for f in fs])
    kept, charge = cached.cache_info()
    assert len(kept) < len(set(fs)) and charge <= bound
    assert held <= charge


@st.composite
def butterfly_inputs(draw):
    """(n, entries) for n = 0..8: a +-1 table, or int64 entries below
    2^62 / 2^n in absolute value, so sum |x| < 2^62 and the transform of the
    transform, 2^n x, stays inside int64 at every stage."""
    n = draw(st.integers(0, 8))
    bound = ((1 << 62) - 1) >> n
    entry = st.sampled_from((-1, 1)) if draw(st.booleans()) else st.integers(-bound, bound)
    return n, draw(st.lists(entry, min_size=1 << n, max_size=1 << n))


@settings(max_examples=200, deadline=None)
@given(butterfly_inputs())
def test_butterfly_matches_direct_sums(case):
    # odd n ends in the second buffer, even n in the argument: both are drawn
    n, entries = case
    want = [int(c * (1 << n)) for c in fourier(entries, n)]
    got = spectrum._butterfly(np.array(entries, dtype=np.int64))
    assert got.dtype == np.int64 and got.tolist() == want
    again = spectrum._butterfly(np.array(want, dtype=np.int64))
    assert again.tolist() == [x << n for x in entries]
    strided = np.zeros(2 << n, dtype=np.int64)
    strided[::2] = entries
    assert spectrum._butterfly(strided[::2]).tolist() == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2**32 - 1))
@example(18, 1)  # above 17 the values are reduced in slabs of 2^17
@example(19, 2)
def test_by_level_matches_per_level_loop(n, seed):
    rng = np.random.default_rng(seed)
    size = 1 << n
    values = rng.integers(-(1 << 40), 1 << 40, size=size) * rng.integers(0, 2, size=size)
    levels = [[] for _ in range(n + 1)]
    for m, v in enumerate(values.tolist()):
        levels[bin(m).count("1")].append(v)
    cases = (
        (spectrum._by_level(values), [sum(lv) for lv in levels]),
        (spectrum._by_level(np.abs(values), np.maximum), [max(map(abs, lv)) for lv in levels]),
        (spectrum._by_level(values != 0), [sum(v != 0 for v in lv) for lv in levels]),
    )
    for got, want in cases:
        assert got.dtype == np.int64 and got.tolist() == want


def test_by_level_builds_no_table_of_its_input_size():
    # 2^20 int64 values (8 MiB): the slabs read one popcounts(17) of 1 MiB
    values = np.arange(1 << 20, dtype=np.int64)
    tracemalloc.start()
    try:
        got = spectrum._by_level(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    pc = popcounts(17)
    want = [sum(int(values[(j << 17) + np.flatnonzero(pc + j.bit_count() == k)].sum())
                for j in range(8)) for k in range(21)]
    assert got.tolist() == want


def test_by_level_keeps_no_popcount_table():
    table = popcounts(6)
    assert table.dtype == np.int64
    assert table.tolist() == [bin(u).count("1") for u in range(64)]
    del table
    # 2^18 values: reduced in two slabs over a popcount table of 2^17, which
    # is not kept once the reduction returns
    values = np.arange(1 << 18, dtype=np.int64)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = spectrum._by_level(values)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 64 << 10, held
    levels = np.bitwise_count(values)
    assert got.tolist() == [int(values[levels == k].sum()) for k in range(19)]


@st.composite
def summary_tables(draw):
    """(n, +-1 table, rho) for n = 1..10: a random table, one of the Hamming
    weight (many zero coefficients) or a character (one nonzero coefficient,
    its degree the size of its subset)."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("table", "weight", "character")))
    size = 1 << n
    if kind == "table":
        vals = rng.choice((-1, 1), size=size)
    elif kind == "weight":
        vals = rng.choice((-1, 1), size=n + 1)[np.bitwise_count(np.arange(size))]
    else:
        mask = int(rng.integers(0, size))
        vals = 1 - 2 * (np.bitwise_count(np.arange(size) & mask) & 1).astype(np.int64)
    rho = draw(st.fractions(min_value=0, max_value=1, max_denominator=40))
    return n, vals, rho


def _random_case(n, seed, rho):
    return n, np.random.default_rng(seed).choice((-1, 1), size=1 << n), rho


@settings(max_examples=60, deadline=None)
@given(summary_tables())
@example(_random_case(12, 1, Fraction(3, 8)))
@example(_random_case(13, 2, Fraction(1, 16)))
@example(_random_case(14, 3, Fraction(11, 16)))
def test_kept_summaries_match_per_subset_loops(case):
    n, vals, rho = case
    f = BooleanFunction.from_values(vals)

    def check():
        spec = wht(f)
        coeffs = spec.coeffs.tolist()
        weights, l1, peaks, support, degree = level_summaries(coeffs, n)
        a = [coeffs[1 << j] for j in range(n)]
        assert (spec.weights, spec.l1, spec.peaks, spec.support) == tuple(
            map(tuple, (weights, l1, peaks, support))
        )
        assert spec.degree == degree
        assert (spec.level1_gap, spec.level1_l1) == (linear_gap(a), linear_abs_sum(a))
        entry = noise._sign_stream((f, rho))
        cross = entry.cross_sums
        assert cross.tolist() == level_cross_sums(coeffs, entry.signs, n)
        assert not cross.flags.writeable
        return spec, cross

    spec, cross = check()
    kept, kept_cross = check()
    assert kept is spec and kept_cross is cross
    spectrum.wht.cache_clear()
    noise._sign_stream.cache_clear()
    again, rebuilt = check()
    assert again is not spec and rebuilt is not cross


@pytest.mark.parametrize("n", [5, 6])
def test_butterfly_outputs_are_owned(n):
    spectrum.wht.cache_clear()
    f = random_function(n, 3)
    coeffs = wht(f).coeffs
    assert not coeffs.flags.writeable
    with pytest.raises(ValueError):
        coeffs[0] = 0
    kept = coeffs.copy()
    for k in range(n + 1):
        lv = level_values(f, k)
        assert lv.flags.writeable and not np.shares_memory(lv, coeffs)
        lv[:] = 7
    assert np.array_equal(wht(f).coeffs, kept)
