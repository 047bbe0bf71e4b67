"""Noise operator, optimal prediction and stability, all in exact rationals.

For correlation rho = p/q the scaled operator values

    int_v = 2^n * q^n * T_rho f(v) = sum_k C[v, k] * p^k * q^(n-k)

are integers, so sign questions (prediction, SP checks) and the stability
functionals are decided exactly.  Everything goes through the Fourier
route; the tests check it against direct O(4^n) summation.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidArgument
from .functions import BooleanFunction, popcounts
from .spectrum import point_matrix, wht

_INT64_SAFE = 1 << 62


def check_rho(rho):
    rho = Fraction(rho)
    if not 0 <= rho <= 1:
        raise InvalidArgument(f"rho must lie in [0,1], got {rho}")
    return rho


def _rho_weights(n, rho):
    p, q = rho.numerator, rho.denominator
    return [p**k * q ** (n - k) for k in range(n + 1)]


def scaled_t_values(f, rho):
    """Integer vector 2^n q^n T_rho f over all points (int64 array or int list)."""
    rho = check_rho(rho)
    mat = point_matrix(f)
    weights = _rho_weights(f.n, rho)
    bound = sum(
        int(np.abs(mat[:, k]).max(initial=0)) * w for k, w in enumerate(weights)
    )
    if bound < _INT64_SAFE and max(weights) < _INT64_SAFE:
        return mat @ np.array(weights, dtype=np.int64)
    rows = mat.tolist()
    return [sum(c * w for c, w in zip(row, weights)) for row in rows]


def noise_operator(f, rho):
    """T_rho f as a tuple of exact Fractions over all 2^n points."""
    rho = check_rho(rho)
    scale = (1 << f.n) * rho.denominator**f.n
    return tuple(Fraction(int(v), scale) for v in scaled_t_values(f, rho))


@dataclass(frozen=True)
class TernaryFunction:
    """Function with values in {-1, 0, +1} (sgn of the noise operator)."""

    n: int
    values: np.ndarray  # int8

    def to_boolean(self):
        if np.any(self.values == 0):
            raise InvalidArgument("predictor has ties; not a +-1 function")
        return BooleanFunction.from_values(self.values)

    def __eq__(self, other):
        return (
            isinstance(other, TernaryFunction)
            and self.n == other.n
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.n, self.values.tobytes()))


def optimal_predictor(f, rho, tie_rule="zero"):
    """sgn T_rho f; ties resolved per tie_rule ("zero" keeps 0, "keep" copies f)."""
    if tie_rule not in ("zero", "keep"):
        raise InvalidArgument(f"unknown tie rule {tie_rule!r}")
    scaled = scaled_t_values(f, rho)
    if isinstance(scaled, np.ndarray):
        signs = np.sign(scaled).astype(np.int8)
    else:
        signs = np.array([(v > 0) - (v < 0) for v in scaled], dtype=np.int8)
    if tie_rule == "keep":
        signs = np.where(signs == 0, f.values, signs)
    signs.flags.writeable = False
    return TernaryFunction(f.n, signs)


@dataclass(frozen=True)
class StabilityReport:
    rho: Fraction
    stab: Fraction  # sum rho^|S| fhat_S^2
    stab_star: Fraction  # E |T_rho f|
    ns: Fraction  # (1 - stab) / 2
    ns_star: Fraction  # (1 - stab_star) / 2


def stability_report(f, rho):
    rho = check_rho(rho)
    n = f.n
    coeffs = wht(f).coeffs
    pc = popcounts(n)
    weights = _rho_weights(n, rho)
    level_sq = [
        sum(int(c) ** 2 for c in coeffs[pc == k].tolist()) for k in range(n + 1)
    ]
    denom = (1 << (2 * n)) * rho.denominator**n
    stab = Fraction(sum(a * w for a, w in zip(level_sq, weights)), denom)
    scaled = scaled_t_values(f, rho)
    stab_star = Fraction(sum(abs(int(v)) for v in scaled), denom)
    return StabilityReport(
        rho, stab, stab_star, (1 - stab) / 2, (1 - stab_star) / 2
    )


@dataclass(frozen=True)
class ClosenessReport:
    distance: Fraction  # disagreement fraction with the optimal predictor
    bound: Fraction  # sum (1 - rho^|S|) fhat_S^2 = 1 - stab


def closeness_to_sp(f, rho, ties_agree=True):
    """How far f is from being its own optimal predictor at rho.

    Ties (T_rho f = 0) count as agreement unless ties_agree is False.
    """
    rho = check_rho(rho)
    scaled = scaled_t_values(f, rho)
    vals = f.values
    bad = 0
    for v, s in zip(vals.tolist(), scaled):
        s = int(s)
        if s == 0:
            bad += 0 if ties_agree else 1
        elif (s > 0) != (v > 0):
            bad += 1
    stab = stability_report(f, rho).stab
    return ClosenessReport(Fraction(bad, 1 << f.n), 1 - stab)


@dataclass(frozen=True)
class PredictionGain:
    ratio: Fraction  # stab_star / stab
    l1_level1: Fraction  # E |sum fhat_i y_i|
    w1: Fraction  # level-1 Fourier weight
    khintchine_ok: bool  # W1/2 <= l1^2 <= W1 (exact)


def prediction_gain(f, rho):
    rho = check_rho(rho)
    report = stability_report(f, rho)
    if report.stab == 0:
        raise InvalidArgument("stability is zero (balanced f at rho=0); no ratio")
    lev1 = point_matrix(f)[:, 1]
    l1 = Fraction(int(np.abs(lev1).sum()), 1 << (2 * f.n))
    w1 = Fraction(
        int(sum(int(v) ** 2 for v in lev1.tolist())), 1 << (3 * f.n)
    )  # Parseval on the level-1 part: sum over points of value^2 = 2^n * W1 * 4^n
    ok = 2 * l1**2 >= w1 and l1**2 <= w1
    return PredictionGain(report.stab_star / report.stab, l1, w1, ok)
