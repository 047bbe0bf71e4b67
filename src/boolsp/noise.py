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
from .functions import BooleanFunction
from .spectrum import level_weights, point_matrix

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
    """Exact integers 2^n q^n T_rho f(v) at all points, as one ndarray.

    The dtype is int64 when the entry bound proves every value fits, else
    object (Python ints).  The bound is per entry: sum with dtype=object."""
    rho = check_rho(rho)
    mat = point_matrix(f)
    weights = _rho_weights(f.n, rho)
    bound = sum(
        int(np.abs(mat[:, k]).max(initial=0)) * w for k, w in enumerate(weights)
    )
    if bound < _INT64_SAFE and max(weights) < _INT64_SAFE:
        return mat @ np.array(weights, dtype=np.int64)
    return mat.astype(object) @ np.array(weights, dtype=object)


def disagreement(values, scaled):
    """Mask where scaled = 2^n q^n T_rho f is nonzero with a sign unlike f's."""
    return (scaled != 0) & ((scaled > 0) != (values > 0))


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
    signs = np.sign(scaled_t_values(f, rho)).astype(np.int8)
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


def stability(f, rho):
    """Stab_rho f = sum_k rho^k W^k, exact, from the level weights alone."""
    rho = check_rho(rho)
    weights = _rho_weights(f.n, rho)
    total = sum(w4 * w for w4, w in zip(level_weights(f).tolist(), weights))
    return Fraction(total, (1 << (2 * f.n)) * rho.denominator**f.n)


def stability_report(f, rho):
    """Stab_rho from the level weights; Stab*_rho = E|T_rho f| summed as Python ints."""
    rho = check_rho(rho)
    stab = stability(f, rho)
    total = np.abs(scaled_t_values(f, rho)).sum(dtype=object)
    stab_star = Fraction(total, (1 << (2 * f.n)) * rho.denominator**f.n)
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
    bad = disagreement(f.values, scaled)
    if not ties_agree:
        bad |= scaled == 0
    return ClosenessReport(
        Fraction(int(np.count_nonzero(bad)), 1 << f.n), 1 - stability(f, rho)
    )


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
    w1 = Fraction(int(level_weights(f)[1]), 1 << (2 * f.n))
    ok = 2 * l1**2 >= w1 and l1**2 <= w1
    return PredictionGain(report.stab_star / report.stab, l1, w1, ok)
