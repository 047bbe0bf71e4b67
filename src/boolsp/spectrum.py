"""Exact Fourier analysis over the hypercube.

Coefficients are kept scaled by 2^n so everything stays in int64:
coeffs[m] = 2^n * fhat_S where subset S is encoded by mask m (bit i-1 for
coordinate i).  |coeffs[m]| <= 2^n and level-restricted evaluations are
bounded by C(n,k) * 2^n, comfortably inside int64 for n <= 24.
Per-level sums, maxima and counts go through _by_level, which keeps no table.

Spectra are kept by functions.bytes_lru (wht), up to 256 MiB of them.  Kept
with each spectrum, built on first read, are its per-level summaries:

* weights: 4^n W^k, the level sums of coeffs^2;
* l1: the level sums of |coeffs| (their total is 2^n times the spectral norm);
* peaks: the level maxima of |coeffs|;
* support: the level counts of nonzero coeffs;
* degree: the highest level of nonzero weight;
* level1_l1 and level1_gap: 4^n E|sum_i fhat_i y_i| and 2^n Gap[f], from the
  level-1 coefficients alone.

Everything the paper asks of one spectrum per rho (Stab_rho, the sufficient
thresholds, the necessary checks, the prediction gain) reads these, not the
2^n coefficients.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidArgument
from .functions import BooleanFunction, bytes_lru, coordinate_pairs, linear_values
from .functions import popcounts, properties


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


# Slabs of 2^17: the popcount table of one slab, built per call, is 1 MiB.
_SLAB_BITS = 17


def _by_level(values, ufunc=np.add, entry=None):
    """int64 vector whose entry k is the ufunc reduction of the subset-indexed
    values (2^n of them), or of entry(values) (np.abs, np.square, ...), over
    level k.  They are cast to int64 first: ufunc.at from bool into int64
    takes a casting loop about 20 times slower.

    Above n = _SLAB_BITS the values are reduced one slab of 2^_SLAB_BITS at a
    time: slab j holds the subsets whose high bits spell j, so their levels
    are those of popcounts(_SLAB_BITS) moved up by popcount(j), and each slab
    lands in its own window of the output.  entry is applied slab by slab, so
    beside the input the work holds that one table and a slab or two, and
    nothing once it returns."""
    n = len(values).bit_length() - 1
    out = np.zeros(n + 1, dtype=np.int64)
    low = popcounts(min(n, _SLAB_BITS))
    for j, slab in enumerate(values.reshape(-1, len(low))):
        if entry is not None:
            slab = entry(slab)
        top = j.bit_count()
        ufunc.at(out[top:], low, slab.astype(np.int64, copy=False))
    return out


def _weighted_transform(spectra, weights):
    """sum_S weights[|S|] * spectra[S] * chi_S at every point, in the dtype of
    spectra * weights.  With scaled spectra 2^n fhat and weights[k] =
    p^k q^(n-k) this is 2^n q^n T_rho, the formula of the noise operator."""
    return _butterfly(spectra * weights[popcounts(len(weights) - 1)])


_INT64_SAFE = 1 << 62


def _limb_plan(spec, weights):
    """Split the Python-int weights into int64 digit vectors: (width, count, limbs)
    with limbs a generator of count vectors, low to high, such that weights[k] =
    sum_j limb_j[k] << (width * j).  So the exact weighted transform is
    sum_j _weighted_transform(spec.coeffs, limb_j) << (width * j).

    Every entry of every butterfly stage is a signed sum of a subset of the
    weighted coefficients (the constant-geometry stages of _butterfly only
    hold it at a bit-rotated position), so a limb fits int64 when
    sum_k limb[k] * L1_k < 2^62, L1_k = spec.l1[k] the sum of |coeffs| on level k.
    One limb holding the weights themselves (width 0) is used when that
    bound holds for them and every weight is below 2^62; otherwise the
    digits are base 2^width with
    (2^width - 1) * sum_k L1_k < 2^62, as few as cover the largest weight.
    The digits are cut as they are consumed, so only one limb is held at a
    time."""
    l1 = spec.l1
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


def _weighted_signs(spec, weights):
    """int64 array whose signs are those of the exact sum_S weights[|S|]
    coeffs[S] chi_S at every entry (Python-int weights of any size) for the
    spectrum spec, in O(2^n) memory whatever the number of limbs.  On one limb
    the carry loop runs zero times and the result is that transform itself.

    The limbs are streamed from low to high with a carry: cur = limb + carry is
    split into its low digit cur & mask and carry = cur >> width.  The exact
    value is then top * 2^(width * (count-1)) plus the lower digits, which lie
    in [0, 2^(width * (count-1))), so its sign is that of top, or +1 where top
    is 0 and some lower digit is not.  Carries stay below sum L1 + 2, so
    limb + carry < 2^width * sum L1 + 2 < 2^63."""
    width, count, limbs = _limb_plan(spec, weights)
    mask = (1 << width) - 1
    carry, nonzero = 0, False
    for _ in range(count - 1):
        cur = _weighted_transform(spec.coeffs, next(limbs)) + carry
        nonzero = nonzero | ((cur & mask) != 0)
        carry = cur >> width
    top = _weighted_transform(spec.coeffs, next(limbs))
    top += carry
    return np.bitwise_or(top, nonzero, out=top)  # 0 -> 1 where a lower digit is not


@dataclass(frozen=True)
class ScaledSpectrum:
    """The scaled coefficients of one function and its per-level summaries.

    Each summary is built on first read and kept with the spectrum, so every
    request that reads the kept spectrum (wht) reads them without another
    pass over its 2^n coefficients.  _spectrum_bytes bounds what they hold."""

    n: int
    coeffs: np.ndarray  # int64, coeffs[m] = 2^n * fhat_{S(m)}

    def fraction(self, mask):
        return Fraction(int(self.coeffs[mask]), 1 << self.n)

    @cached_property
    def weights(self):
        """4^n * W^k for k = 0..n as Python ints (the k-th sums coeffs^2 over
        level k; Parseval makes the total exactly 4^n)."""
        return tuple(_by_level(self.coeffs, entry=np.square).tolist())

    @cached_property
    def l1(self):
        """2^n times the L1 norm of each level, sum_{|S|=k} |coeffs[S]| for
        k = 0..n as Python ints; their total is 2^n times the spectral norm."""
        return tuple(_by_level(self.coeffs, entry=np.abs).tolist())

    @cached_property
    def peaks(self):
        """max_{|S|=k} |coeffs[S]| for k = 0..n as Python ints."""
        return tuple(_by_level(self.coeffs, np.maximum, np.abs).tolist())

    @cached_property
    def support(self):
        """The number of nonzero coeffs[S] with |S| = k, for k = 0..n."""
        return tuple(_by_level(self.coeffs, entry=np.bool_).tolist())

    @cached_property
    def degree(self):
        """The highest level of nonzero weight (Parseval: some level has)."""
        return max(k for k, w in enumerate(self.weights) if w)

    @cached_property
    def level1_gap(self):
        """2^n Gap[f]: the least positive value of the level-1 form
        2^n sum_i fhat_i x_i over the cube, 0 when it is never positive.  For
        each a of _level1_halves the least b > -a is found by bisection in
        the sorted b."""
        a, b = _level1_halves(self)
        k = np.searchsorted(b, -a, side="right")
        found = k < len(b)
        return int((a[found] + b[k[found]]).min()) if found.any() else 0

    @cached_property
    def level1_l1(self):
        """4^n E|sum_i fhat_i y_i|, the sum of |2^n sum_i fhat_i x_i| over the
        cube, as an exact int: sum_a sum_b |a + b| from the prefix sums of
        the sorted b of _level1_halves.  With k = #{b < -a} and s_k the sum
        of the k least b, the row of a adds (len(b) - 2k) a + sum(b) - 2 s_k.
        Each row fits int64; the rows are summed as Python ints."""
        a, b = _level1_halves(self)
        k = np.searchsorted(b, -a, side="left")
        prefix = np.concatenate(([0], np.cumsum(b)))
        rows = (len(b) - 2 * k) * a + prefix[-1] - 2 * prefix[k]
        return sum(rows.tolist())


def _level1_halves(spec):
    """The level-1 form 2^n sum_i fhat_i x_i split in two (meet in the middle,
    Horowitz and Sahni 1974): (a, b), int64 tables of linear_values over the
    first n // 2 level-1 coefficients and over the rest, b sorted.  Its value
    at the point whose low coordinates index a[j] and high ones index b[k] is
    a[j] + b[k], so every question about the form's 2^n values is one about
    the sums of two tables of 2^(n/2) entries each."""
    c = spec.coeffs[1 << np.arange(spec.n)].tolist()
    half = spec.n // 2
    return linear_values(0, c[:half]), np.sort(linear_values(0, c[half:]))


# What the summaries of one spectrum can hold, level by level: four tuples of
# n + 1 Python ints below 2^64 (at most 36 bytes each and an 8-byte slot),
# plus the two level-1 ints, the tuples' headers and the instance dict's
# growth as they land in it.
_SUMMARY_BYTES_PER_LEVEL = 4 * (36 + 8)
_SUMMARY_BYTES = 1 << 10


def _spectrum_bytes(spec):
    """What wht charges for a kept spectrum: its coefficients and a fixed
    bound on its summaries for that n, built or not, so the charge is known
    at insertion and cache_info() does not depend on what was read."""
    return spec.coeffs.nbytes + _SUMMARY_BYTES + _SUMMARY_BYTES_PER_LEVEL * (spec.n + 1)


# The bound is on bytes, not entries: one spectrum of n = 24 is 128 MiB.
@bytes_lru(256 << 20, _spectrum_bytes)
def wht(f):
    """Scaled Fourier coefficients of f (exact, integer), memoised per f."""
    coeffs = _butterfly(f.values.astype(np.int64))
    coeffs.flags.writeable = False
    return ScaledSpectrum(f.n, coeffs)


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
    return _weighted_transform(wht(f).coeffs, np.arange(f.n + 1) == k)


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
    weights = tuple(Fraction(w, 1 << (2 * f.n)) for w in spec.weights)
    level = min(k for k, w in enumerate(spec.weights) if w)
    spectral_norm = Fraction(sum(spec.l1), 1 << f.n)
    chow = (spec.fraction(0),) + tuple(spec.fraction(1 << i) for i in range(f.n))
    influences = chow[1:] if monotone else None
    gap = Fraction(spec.level1_gap, 1 << f.n)
    return SpectralSummary(
        weights, spec.degree, level, spectral_norm, chow, gap, influences
    )


def influences(f):
    """Flip-count influence of each coordinate (exact, any f): the share of
    the pairs of functions.coordinate_pairs whose two values differ."""
    return tuple(
        Fraction(sum(int(np.count_nonzero(up != lo)) for up, lo in views), 1 << (f.n - 1))
        for views in coordinate_pairs(f.values)
    )


def chow_distance(f, g):
    """Squared distance between degree-<=1 Fourier coefficients (exact)."""
    if f.n != g.n:
        raise InvalidArgument("chow distance needs matching n")
    sf, sg = wht(f), wht(g)
    d2 = (sf.fraction(0) - sg.fraction(0)) ** 2
    for i in range(f.n):
        d2 += (sf.fraction(1 << i) - sg.fraction(1 << i)) ** 2
    return d2
