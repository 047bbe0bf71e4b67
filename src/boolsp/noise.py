"""Noise operator, optimal prediction and stability, all in exact rationals.

For correlation rho = p/q the scaled operator values

    int_v = 2^n * q^n * T_rho f(v) = sum_S p^|S| q^(n-|S|) * 2^n fhat_S * chi_S(v)

are integers: one Walsh-Hadamard butterfly of the rho-weighted scaled
spectrum.  The butterfly (spectrum._butterfly) has the constant geometry of
Pease: each of its n int64 stages reads the pairs of one buffer and writes
their sums and differences into the two halves of another.  When q^n
outgrows int64 the weights are split into base-2^s digits and the values
into as many int64 butterflies (limbs), streamed from low to high with a
carry (spectrum._weighted_signs).  Sign questions (prediction, SP checks,
closeness) read the signs off that stream, and Stab*_rho = <T_rho f, sgn>
comes from the spectrum of the signs.  All of it is exact and O(2^n) in
memory whatever rho; the tests check it against direct O(4^n) summation.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidArgument
from .functions import BooleanFunction, popcounts
from .spectrum import (
    _butterfly,
    _level1_values,
    _limb_plan,
    _weighted_signs,
    _weighted_transform,
    level_weights,
    wht,
)


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

    The dtype is int64 when one limb holds them, that is when
    sum_k w_k * L1_k < 2^62 (and every w_k < 2^62), with w_k = p^k q^(n-k) and
    L1_k the sum of |2^n fhat_S| over |S| = k; else object, Python ints
    assembled from the limbs.  The library's own consumers read signs through
    spectrum._weighted_signs instead."""
    rho = check_rho(rho)
    coeffs = wht(f).coeffs
    width, count, limbs = _limb_plan(coeffs, _rho_weights(f.n, rho))
    if count == 1:
        return _weighted_transform(coeffs, next(limbs))
    out = np.zeros(len(coeffs), dtype=object)
    for j, digits in enumerate(limbs):
        out += _weighted_transform(coeffs, digits).astype(object) << (width * j)
    return out


def _scaled_signs(f, rho):
    """int64 array with the signs of 2^n q^n T_rho f (see _weighted_signs)."""
    return _weighted_signs(wht(f).coeffs, _rho_weights(f.n, rho))


def disagreement(values, scaled):
    """Mask where scaled (2^n q^n T_rho f, or any array with its signs) is nonzero
    with a sign unlike f's."""
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
    rho = check_rho(rho)
    signs = np.sign(_scaled_signs(f, rho)).astype(np.int8)
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
    """Stab_rho from the level weights; Stab*_rho = E|T_rho f| exactly.

    Stab*_rho = <T_rho f, g> with g = sgn T_rho f, which by Plancherel is
    sum_S rho^|S| fhat_S ghat_S: the same level sums as Stab_rho with
    c_S * b_S in place of c_S^2, where c = 2^n fhat and b = 2^n ghat is one
    butterfly of the signs.  Those sums fit int64 (by Cauchy-Schwarz and
    Parseval, sum |c_S b_S| <= 4^n); only their weighted total is a Python
    int."""
    rho = check_rho(rho)
    return _stability_report(f, rho, _scaled_signs(f, rho))


def _stability_report(f, rho, signs):
    """stability_report of f at a checked rho, given _scaled_signs(f, rho)."""
    stab = stability(f, rho)
    cross = np.zeros(f.n + 1, dtype=np.int64)
    np.add.at(cross, popcounts(f.n), wht(f).coeffs * _butterfly(np.sign(signs)))
    total = sum(w * c for w, c in zip(_rho_weights(f.n, rho), cross.tolist()))
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
    return _closeness_to_sp(f, rho, _scaled_signs(f, rho), ties_agree)


def _closeness_to_sp(f, rho, signs, ties_agree):
    """closeness_to_sp of f at a checked rho, given _scaled_signs(f, rho)."""
    bad = disagreement(f.values, signs)
    if not ties_agree:
        bad |= signs == 0
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
    return _prediction_gain(f, stability_report(f, rho))


def _prediction_gain(f, report):
    """prediction_gain of f given its stability_report."""
    if report.stab == 0:
        raise InvalidArgument("stability is zero (balanced f at rho=0); no ratio")
    l1 = Fraction(int(np.abs(_level1_values(f)).sum()), 1 << (2 * f.n))
    w1 = Fraction(int(level_weights(f)[1]), 1 << (2 * f.n))
    ok = 2 * l1**2 >= w1 and l1**2 <= w1
    return PredictionGain(report.stab_star / report.stab, l1, w1, ok)
