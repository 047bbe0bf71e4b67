"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way (O(4^n) loops over the
cube, exact Fractions, sympy for polynomial sign questions) so the fast
package code has something honest to be checked against.  No imports from
boolsp beyond plain truth tables.
"""

from fractions import Fraction
from functools import lru_cache

import sympy


def hamming(u, v):
    return bin(u ^ v).count("1")


def fourier(values, n):
    """Exact Fourier coefficients fhat_m by direct correlation sums."""
    out = []
    for m in range(1 << n):
        acc = 0
        for u in range(1 << n):
            chi = -1 if bin(u & m).count("1") % 2 else 1
            acc += chi * values[u]
        out.append(Fraction(acc, 1 << n))
    return out


def t_rho(values, n, rho):
    """Exact T_rho values by summing over the noise kernel point by point."""
    rho = Fraction(rho)
    stay = (1 + rho) / 2
    flip = (1 - rho) / 2
    by_dist = [flip**d * stay ** (n - d) for d in range(n + 1)]
    out = []
    for v in range(1 << n):
        acc = Fraction(0)
        for y in range(1 << n):
            acc += by_dist[hamming(v, y)] * values[y]
        out.append(acc)
    return out


def is_sp(values, n, rho):
    """Sign agreement of f with T_rho f, ties counting as agreement."""
    for v, t in enumerate(t_rho(values, n, rho)):
        if t != 0 and (t > 0) != (values[v] > 0):
            return False
    return True


def stability(values, n, rho):
    """Stab_rho = E[f(x) f(y)] over rho-correlated pairs, exactly."""
    rho = Fraction(rho)
    stay = (1 + rho) / 2
    flip = (1 - rho) / 2
    acc = Fraction(0)
    for x in range(1 << n):
        for y in range(1 << n):
            d = hamming(x, y)
            acc += flip**d * stay ** (n - d) * values[x] * values[y]
    return acc / (1 << n)


def table(f):
    """Truth table of a BooleanFunction as a plain list of ints."""
    return [int(v) for v in f.values]


def _endpoint_bounds(ep):
    """(lo, hi) rational bracket for an interval endpoint, collapsing exact ones."""
    if ep.kind == "exact":
        return ep.value, ep.value
    return ep.lo, ep.hi


def region_membership(region, x):
    """Decide whether rho=x lies in the region: True/False, or None if x falls
    inside an endpoint enclosure (too close to a boundary to call)."""
    x = Fraction(x)
    for iv in region.intervals:
        lo_lo, lo_hi = _endpoint_bounds(iv.lo)
        hi_lo, hi_hi = _endpoint_bounds(iv.hi)
        if lo_lo <= x <= lo_hi and lo_lo != lo_hi:
            return None
        if hi_lo <= x <= hi_hi and hi_lo != hi_hi:
            return None
        if lo_lo == lo_hi and x == lo_lo:
            return bool(iv.lo_closed)
        if hi_lo == hi_hi and x == hi_hi:
            return bool(iv.hi_closed)
        if lo_hi < x < hi_lo:
            return True
    return False


def point_polynomials(values, n):
    """Coefficients (c_0..c_n) of f(v) * T_rho f(v) as a polynomial in rho,
    one list per point v, from the correlation-sum Fourier coefficients."""
    fhat = fourier(values, n)
    out = []
    for v in range(1 << n):
        coeffs = [Fraction(0)] * (n + 1)
        for m, c in enumerate(fhat):
            chi = -1 if bin(v & m).count("1") % 2 else 1
            coeffs[bin(m).count("1")] += chi * c
        out.append([values[v] * c for c in coeffs])
    return out


@lru_cache(maxsize=None)
def negative_on_01(coeffs):
    """Is sum c_k rho^k negative somewhere on [0,1]?  Decided by sympy.

    The polynomial must be positive at 1.  It is then negative somewhere on
    [0,1] exactly when it is negative at 0 or changes sign inside (0,1), at a
    real root of odd multiplicity.
    """
    x = sympy.Symbol("x")
    p = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x)
    if not p.eval(1) > 0:
        raise ValueError("polynomial must be positive at 1")
    if p.eval(0) < 0:
        return True
    return any(
        0 < r < 1
        for factor, mult in p.sqf_list()[1]
        if mult % 2
        for r in factor.real_roots()
    )
