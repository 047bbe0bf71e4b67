"""Exact Fourier analysis over the hypercube.

Coefficients are kept scaled by 2^n so everything stays in int64:
coeffs[m] = 2^n * fhat_S where subset S is encoded by mask m (bit i-1 for
coordinate i).  |coeffs[m]| <= 2^n and level-restricted evaluations are
bounded by C(n,k) * 2^n, comfortably inside int64 for n <= 24.
"""

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from threading import Lock

import numpy as np

from .errors import InvalidArgument
from .functions import BooleanFunction, linear_values, popcounts, properties


def _butterfly(arr):
    """Walsh-Hadamard transform of one table (2^n,) with the
    (-1)^{popcount(u & m)} kernel, in constant geometry (Pease 1968).

    Each of the n stages reads the pairs (x[2i], x[2i+1]) of one buffer and
    writes their sum to entry i of the low half of the other, their
    difference to entry i of the high half; the buffers then swap roles.  A
    stage applies H_2 to the lowest index bit and rotates it to the top, so
    after n stages every bit has had its H_2 and is back in place: the result
    is in natural order, in arr (n even) or in a second buffer (n odd).

    The argument is consumed: the caller must own it, and only the returned
    array is the transform.  A non-contiguous argument is copied first, so
    every stage reads and writes whole contiguous buffers."""
    src = np.ascontiguousarray(arr)
    dst = np.empty_like(src)
    half = len(src) // 2
    for _ in range(len(src).bit_length() - 1):
        pairs = src.reshape(half, 2)
        np.add(pairs[:, 0], pairs[:, 1], out=dst[:half])
        np.subtract(pairs[:, 0], pairs[:, 1], out=dst[half:])
        src, dst = dst, src
    return src


def _weighted_transform(spectra, weights):
    """sum_S weights[|S|] * spectra[S] * chi_S at every point, in the dtype of
    spectra * weights.  With scaled spectra 2^n fhat and weights[k] =
    p^k q^(n-k) this is 2^n q^n T_rho, the formula of the noise operator."""
    return _butterfly(spectra * weights[popcounts(len(weights) - 1)])


_INT64_SAFE = 1 << 62


def _limb_plan(spectra, weights):
    """Split the Python-int weights into int64 digit vectors: (width, count, limbs)
    with limbs a generator of count vectors, low to high, such that weights[k] =
    sum_j limb_j[k] << (width * j).  So the exact weighted transform is
    sum_j _weighted_transform(spectra, limb_j) << (width * j).

    Every entry of every butterfly stage is a signed sum of a subset of the
    weighted coefficients (the constant-geometry stages of _butterfly only
    hold it at a bit-rotated position), so a limb fits int64 when
    sum_k limb[k] * L1_k < 2^62, L1_k being the sum of |spectra| on level k.
    One limb holding the weights themselves (width 0) is used when that
    bound holds for them and every weight is below 2^62; otherwise the
    digits are base 2^width with
    (2^width - 1) * sum_k L1_k < 2^62, as few as cover the largest weight.
    The digits are cut as they are consumed, so only one limb is held at a
    time."""
    n = len(weights) - 1
    l1 = np.zeros(n + 1, dtype=np.int64)
    np.add.at(l1, popcounts(n), np.abs(spectra))
    l1 = l1.tolist()
    top = max(weights)
    if top < _INT64_SAFE and sum(w * a for w, a in zip(weights, l1)) < _INT64_SAFE:
        return 0, 1, iter([np.array(weights, dtype=np.int64)])
    width = (_INT64_SAFE // max(sum(l1), 1)).bit_length() - 1
    mask = (1 << width) - 1
    shifts = range(0, top.bit_length(), width)
    limbs = (
        np.array([(w >> shift) & mask for w in weights], dtype=np.int64)
        for shift in shifts
    )
    return width, len(shifts), limbs


def _weighted_signs(spectra, weights):
    """int64 array with the sign of the exact sum_S weights[|S|] spectra[S] chi_S
    at every entry (Python-int weights of any size), in O(spectra.size) memory
    whatever the number of limbs.  On one limb it is that transform itself.

    The limbs are streamed from low to high with a carry: cur = limb + carry is
    split into its low digit cur & mask and carry = cur >> width.  The exact
    value is then top * 2^(width * (count-1)) plus the lower digits, which lie
    in [0, 2^(width * (count-1))), so its sign is that of top, or +1 where top
    is 0 and some lower digit is not.  Carries stay below sum L1 + 2, so
    limb + carry < 2^width * sum L1 + 2 < 2^63."""
    width, count, limbs = _limb_plan(spectra, weights)
    if count == 1:
        return _weighted_transform(spectra, next(limbs))
    mask = (1 << width) - 1
    carry, nonzero = 0, False
    for _ in range(count - 1):
        cur = _weighted_transform(spectra, next(limbs)) + carry
        nonzero = nonzero | ((cur & mask) != 0)
        carry = cur >> width
    top = _weighted_transform(spectra, next(limbs)) + carry
    return np.where(top != 0, top, nonzero)


@dataclass(frozen=True)
class ScaledSpectrum:
    n: int
    coeffs: np.ndarray  # int64, coeffs[m] = 2^n * fhat_{S(m)}

    def fraction(self, mask):
        return Fraction(int(self.coeffs[mask]), 1 << self.n)


# Spectra kept for reuse, least recently used first, and their total bytes.
# The bound is on bytes, not entries: one spectrum of n = 24 is 128 MiB.
# A spectrum larger than the bound is returned without being kept.
_CACHE_BYTES = 256 << 20
_cache = OrderedDict()
_cached_bytes = 0
_cache_lock = Lock()


def wht(f):
    """Scaled Fourier coefficients of f (exact, integer)."""
    global _cached_bytes
    with _cache_lock:
        spec = _cache.get(f)
        if spec is not None:
            _cache.move_to_end(f)
            return spec
    coeffs = _butterfly(f.values.astype(np.int64))
    coeffs.flags.writeable = False
    spec = ScaledSpectrum(f.n, coeffs)
    if coeffs.nbytes <= _CACHE_BYTES:
        with _cache_lock:
            if f not in _cache:
                _cache[f] = spec
                _cached_bytes += coeffs.nbytes
            while _cached_bytes > _CACHE_BYTES:
                _cached_bytes -= _cache.popitem(last=False)[1].coeffs.nbytes
    return spec


def _cache_clear():
    """Forget every kept spectrum (wht.cache_clear, as lru_cache named it)."""
    global _cached_bytes
    with _cache_lock:
        _cache.clear()
        _cached_bytes = 0


wht.cache_clear = _cache_clear


def function_from_scaled(n, coeffs):
    """Inverse transform; errors unless the result is genuinely +-1 valued."""
    size = 1 << n
    if len(coeffs) != size:
        raise InvalidArgument("coefficient table length mismatch")
    vals = _butterfly(np.array(coeffs, dtype=np.int64))
    if not np.all(np.abs(vals) == size):
        raise InvalidArgument("spectrum is not that of a +-1 valued function")
    return BooleanFunction.from_values((vals // size).astype(np.int8))


def level_values(f, k):
    """2^n times the level-k part of f evaluated at every point (int64).

    Uncached: one butterfly over the level-k coefficients, returning a fresh
    array the caller owns.  Over k = 0..n they are the coefficients of the
    one-point noise polynomial 2^n * T_rho f(v) = sum_k values_k[v] * rho^k.
    """
    keep = np.where(popcounts(f.n) == k, wht(f).coeffs, 0)
    return _butterfly(keep)


def level_weights(f):
    """4^n * W^k for k = 0..n as an int64 vector (the k-th entry sums coeffs^2
    over level k; Parseval makes the total exactly 4^n)."""
    out = np.zeros(f.n + 1, dtype=np.int64)
    np.add.at(out, popcounts(f.n), wht(f).coeffs ** 2)
    return out


@dataclass(frozen=True)
class SpectralSummary:
    weights: tuple  # Fractions W^0..W^n, sum 1
    degree: int
    level: int  # lowest k >= 0 with W^k > 0
    spectral_norm: Fraction  # sum of |fhat_S|
    chow: tuple  # (fhat_empty, fhat_1, ..., fhat_n) as Fractions
    gap: Fraction  # min positive value of sum fhat_i x_i, 0 if level-1 part vanishes
    influences: tuple  # level-1 Fractions for monotone f, else None


def spectral_summary(f):
    return _spectral_summary(f, properties(f).monotone)


def _spectral_summary(f, monotone):
    """spectral_summary of f, given whether f is monotone."""
    spec = wht(f)
    coeffs = spec.coeffs
    denom_sq = 1 << (2 * f.n)
    weights = tuple(Fraction(w, denom_sq) for w in level_weights(f).tolist())
    nonzero_levels = [k for k in range(f.n + 1) if weights[k]]
    degree = max(nonzero_levels)
    level = min(nonzero_levels)
    spectral_norm = Fraction(int(np.abs(coeffs).sum()), 1 << f.n)
    chow = (spec.fraction(0),) + tuple(spec.fraction(1 << i) for i in range(f.n))
    influences = chow[1:] if monotone else None
    return SpectralSummary(
        weights, degree, level, spectral_norm, chow, _level1_gap(f), influences
    )


def _level1_values(f):
    """2^n times the level-1 part sum_i fhat_i x_i at every point (int64), the
    same array as level_values(f, 1) by n doublings instead of a butterfly."""
    return linear_values(0, wht(f).coeffs[1 << np.arange(f.n)].tolist())


def _level1_gap(f):
    """Gap[f]: least positive value of sum_i fhat_i x_i over the cube, 0 when
    that level-1 form is never positive."""
    lev1 = _level1_values(f)
    positive = lev1[lev1 > 0]
    return Fraction(int(positive.min()), 1 << f.n) if len(positive) else Fraction(0)


def influences(f):
    """Flip-count influence of each coordinate (exact, any f)."""
    vals = f.values
    out = []
    for j in range(f.n):
        arr = vals.reshape(-1, 2, 1 << j)
        pairs = int(np.count_nonzero(arr[:, 0, :] != arr[:, 1, :]))
        out.append(Fraction(pairs, 1 << (f.n - 1)))
    return tuple(out)


def chow_distance(f, g):
    """Squared distance between degree-<=1 Fourier coefficients (exact)."""
    if f.n != g.n:
        raise InvalidArgument("chow distance needs matching n")
    sf, sg = wht(f), wht(g)
    d2 = (sf.fraction(0) - sg.fraction(0)) ** 2
    for i in range(f.n):
        d2 += (sf.fraction(1 << i) - sg.fraction(1 << i)) ** 2
    return d2
