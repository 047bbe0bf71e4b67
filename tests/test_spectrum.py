"""Walsh-Hadamard layer against direct correlation sums and Parseval."""

import random
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
from boolsp import spectrum

from oracles import fourier


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
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randint(1, 4)
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


def test_spectrum_cache_is_bounded_by_bytes(monkeypatch):
    monkeypatch.setattr(spectrum, "_cache", OrderedDict())
    monkeypatch.setattr(spectrum, "_cached_bytes", 0)
    monkeypatch.setattr(spectrum, "_CACHE_BYTES", 3 * 8 * 64)  # three n=6 spectra
    fs = [random_function(6, seed) for seed in range(4)]
    kept = [spectrum.wht(f) for f in fs]
    assert list(spectrum._cache) == fs[1:]  # the least recently used left
    assert spectrum.wht(fs[1]) is kept[1]  # a hit, now the most recent
    again = spectrum.wht(fs[0])
    assert again is not kept[0] and np.array_equal(again.coeffs, kept[0].coeffs)
    assert list(spectrum._cache) == [fs[3], fs[1], fs[0]]
    assert spectrum._cached_bytes == 3 * 8 * 64
    big = random_function(8, 0)  # 2 KiB, more than the whole bound
    assert spectrum.wht(big) is not spectrum.wht(big)
    assert list(spectrum._cache) == [fs[3], fs[1], fs[0]]
    spectrum.wht.cache_clear()
    assert not spectrum._cache and spectrum._cached_bytes == 0


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
