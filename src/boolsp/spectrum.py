"""Exact Fourier analysis over the hypercube.

Coefficients are kept scaled by 2^n so everything stays in int64:
coeffs[m] = 2^n * fhat_S where subset S is encoded by mask m (bit i-1 for
coordinate i).  |coeffs[m]| <= 2^n and level-restricted evaluations are
bounded by C(n,k) * 2^n, comfortably inside int64 for n <= 24.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidArgument
from .functions import BooleanFunction, popcounts


def _butterfly(arr):
    """In-place Walsh-Hadamard transform along axis 0 with the (-1)^{popcount(u & m)}
    kernel: of one table (2^n,) or of each column of a contiguous (2^n, B) batch."""
    half = 1
    size = len(arr)
    while half < size:
        view = arr.reshape((-1, 2, half) + arr.shape[1:])
        low = view[:, 0].copy()
        high = view[:, 1]
        view[:, 0] = low + high
        view[:, 1] = low - high
        half *= 2
    return arr


def _weighted_transform(spectra, weights):
    """sum_S weights[|S|] * spectra[S] * chi_S at every point, along axis 0, in the
    dtype of spectra * weights.  With scaled spectra 2^n fhat and weights[k] =
    p^k q^(n-k) this is 2^n q^n T_rho, the one formula noise and the scans use."""
    w = weights[popcounts(len(weights) - 1)]
    return _butterfly(spectra * w.reshape(w.shape + (1,) * (spectra.ndim - 1)))


@dataclass(frozen=True)
class ScaledSpectrum:
    n: int
    coeffs: np.ndarray  # int64, coeffs[m] = 2^n * fhat_{S(m)}

    def fraction(self, mask):
        return Fraction(int(self.coeffs[mask]), 1 << self.n)


@lru_cache(maxsize=128)
def wht(f):
    """Scaled Fourier coefficients of f (exact, integer)."""
    coeffs = _butterfly(f.values.astype(np.int64))
    coeffs.flags.writeable = False
    return ScaledSpectrum(f.n, coeffs)


def function_from_scaled(n, coeffs):
    """Inverse transform; errors unless the result is genuinely +-1 valued."""
    vals = _butterfly(np.asarray(coeffs, dtype=np.int64).copy())
    size = 1 << n
    if len(vals) != size:
        raise InvalidArgument("coefficient table length mismatch")
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
    from .functions import properties  # local import to avoid cycle at module load

    spec = wht(f)
    coeffs = spec.coeffs
    denom_sq = 1 << (2 * f.n)
    weights = tuple(Fraction(w, denom_sq) for w in level_weights(f).tolist())
    nonzero_levels = [k for k in range(f.n + 1) if weights[k]]
    degree = max(nonzero_levels)
    level = min(nonzero_levels)
    spectral_norm = Fraction(int(np.abs(coeffs).sum()), 1 << f.n)
    chow = (spec.fraction(0),) + tuple(spec.fraction(1 << i) for i in range(f.n))
    influences = chow[1:] if properties(f).monotone else None
    return SpectralSummary(
        weights, degree, level, spectral_norm, chow, _level1_gap(f), influences
    )


def _level1_gap(f):
    """Gap[f]: least positive value of sum_i fhat_i x_i over the cube, 0 when
    that level-1 form is never positive."""
    lev1 = level_values(f, 1)
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
