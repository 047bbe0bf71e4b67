"""Exact tools for univariate integer polynomials.

Polynomials are tuples of Python ints, lowest power first, no high-order
zeros (the zero polynomial is the empty tuple).  Every sign decision is an
integer computation.

Roots in (0,1) are found on the dyadic cells [a/2^k, (a+1)/2^k] through
Bernstein coefficients.  A polynomial p of degree <= d is
sum_i b_i C(d,i) t^i (1-t)^(d-i) on a cell with t running over [0,1]; the
rows here hold L b_i on [0,1], L = lcm_i C(d,i) (integers, _bernstein), and
one de Casteljau split (_split) gives the coefficients of both halves,
scaled by a further 2^d, and the exact value at the midpoint.  Only signs
are ever read, so the positive scales never matter.  Exact rows are
Python ints (object dtype: _bernstein, _split, _descend).  int64 rows are
always bounds of them (_bernstein_bounds, _split_bounds): the exact rows
themselves (hi is lo) while a checked bound shows every entry they lead to
fits (below 2^_BITS), and past it a lower and an upper row, shifted right
by one shared amount, rounded down and up.  De Casteljau only adds, so the
halves of the bounds bound the halves of the exact rows, and a sign is
known where they prove it (_decided).  This is the interval form of
Descartes' method with an exact fallback (Johnson & Krandick, ISSAC 1997;
Eigenwillig et al., CASC 2005).  Descartes' rule of signs on the coefficients
(_variations) bounds the roots in the open cell, counted with multiplicity,
and has their parity: 0 means no root and 1 exactly one simple root.  The
two halves never count more than the cell, and a square-free polynomial
reaches counts <= 1 after finitely many splits (Collins & Akritas, SYMSAC
1976; Eigenwillig, PhD thesis, Saarland University, 2008).  A polynomial
with repeated roots gets its square-free part from one gcd(p, p')
(_square_free), through integer pseudo-remainders, so everything stays in Z.
"""

from functools import cache
from math import comb, gcd as int_gcd, lcm

import numpy as np

_BITS = 62  # an int64 walk matrix keeps every entry and partial sum below 2^_BITS


def trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p):
    return len(p) - 1


def eval_scaled(p, num, den):
    """den^deg(p) * p(num/den): an integer sharing p(num/den)'s sign (den > 0)."""
    if not p:
        return 0
    acc = p[-1]
    dpow = 1
    for c in reversed(p[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return acc


def derivative(p):
    return trim(tuple(k * c for k, c in enumerate(p) if k))


def negate(p):
    return tuple(-c for c in p)


def content(p):
    g = 0
    for c in p:
        g = int_gcd(g, abs(c))
    return g or 1


def primitive(p):
    p = trim(p)
    if not p:
        return p
    g = content(p)
    return tuple(c // g for c in p)


def _pseudo_rem(a, b):
    """Integer pseudo-remainder of a by b: rem(a, b) over Q times lc(b)^k for
    some k >= 0."""
    db = degree(b)
    lb = b[-1]
    r = list(trim(a))
    while len(r) - 1 >= db:
        s = r[-1]
        shift = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= s * bc
        r = list(trim(r))
    return tuple(r)


def poly_gcd(a, b):
    """Primitive gcd with positive leading coefficient."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, primitive(_pseudo_rem(a, b))
    if a and a[-1] < 0:
        a = negate(a)
    return a


def _square_free(p):
    """p / gcd(p, p'): the same distinct roots, each simple.  The division is
    exact in Z (the gcd is primitive, so by Gauss's lemma the quotient is
    integral); p itself comes back when the gcd is a constant."""
    g = poly_gcd(p, derivative(p))
    if len(g) < 2:
        return p
    rem, quot = list(p), []
    for i in range(len(p) - len(g), -1, -1):
        c = rem[i + len(g) - 1] // g[-1]
        quot.append(c)
        for j, gc in enumerate(g):
            rem[i + j] -= c * gc
    return tuple(reversed(quot))


def _peak(a):
    """max |a| over an int64 or object array as a Python int (0 if empty),
    from two reductions, exact at -2^63."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _scaled_bernstein(rows):
    """sb[:, i] = sum_j C(d-j, i-j) rows[:, j] for an (m, d+1) integer matrix:
    the coefficients of (1+y)^d q(y/(1+y)), which maps (0, inf) onto (0, 1),
    and C(d,i) times q's Bernstein coefficients of degree d on [0,1].

    One int64 matmul when the bound from the column maxima fits in 63 bits
    (every partial sum then does too), else the same product on Python ints.
    """
    d = rows.shape[1] - 1
    shift = [[comb(d - j, i - j) if i >= j else 0 for i in range(d + 1)] for j in range(d + 1)]
    peak = [max(int(hi), -int(lo))
            for hi, lo in zip(rows.max(axis=0, initial=0), rows.min(axis=0, initial=0))]
    bound = max(sum(shift[j][i] * peak[j] for j in range(d + 1)) for i in range(d + 1))
    dtype = np.int64 if bound < 1 << 63 else object
    return rows.astype(dtype, copy=False) @ np.array(shift, dtype=dtype)


@cache
def _weights(d):
    """L/C(d,i) for i = 0..d, L = lcm_i C(d,i); the first, L itself, is the
    largest."""
    big = lcm(*(comb(d, i) for i in range(d + 1)))
    return tuple(big // comb(d, i) for i in range(d + 1))


def _bernstein(sb):
    """L = lcm_i C(d,i) times the Bernstein coefficients, in Python ints,
    from rows of _scaled_bernstein: L b_i = sb_i L/C(d,i)."""
    return sb.astype(object) * np.array(_weights(sb.shape[-1] - 1), dtype=object)


def _bernstein_bounds(sb):
    """_bernstein's rows as a pair (lo, hi) of int64 matrices.  While they fit
    they are exact, one matrix for both (hi is lo).  Past that each sb_i is
    first shifted right by one amount s, rounded down for lo and up for hi,
    so that lo <= L b / 2^s <= hi entrywise with every entry below
    2^(_BITS-d), as _split_bounds needs them."""
    d = sb.shape[-1] - 1
    weights = _weights(d)
    peak = _peak(sb)
    w = np.array(weights, dtype=np.int64)
    if peak * weights[0] < 1 << _BITS:
        b = sb.astype(np.int64, copy=False) * w
        return b, b
    s = max(0, peak.bit_length() + weights[0].bit_length() - max(_BITS - d, 1))
    return (sb >> s).astype(np.int64) * w, (-(-sb >> s)).astype(np.int64) * w


def _unit_bernstein(p, d):
    """_bernstein of one polynomial p of degree <= d on [0,1]."""
    row = np.array([tuple(p) + (0,) * (d + 1 - len(p))], dtype=object)
    return _bernstein(_scaled_bernstein(row))[0]


def _fits(b):
    """Does an int64 split of b stay exact: max |b| < 2^(_BITS-d)?  No entry
    of either half, and no partial sum, exceeds 2^d max |b|."""
    return _peak(b) << (b.shape[-1] - 1) < 1 << _BITS


def _casteljau(t):
    """De Casteljau at the midpoint on t, the transpose of a row or of a
    matrix of rows, C-contiguous and owned by the call: the left and the
    right half, transposed back (so that a half fed back in is copied to a
    new t contiguously).  The levels of partial sums are built in place in t,
    each step adding contiguous runs, one per coefficient (numpy buffers an
    overlapping add where that would change it).  Level r leaves its last
    entry at index d-r, where no later level writes, so t ends as the right
    half once entry j is scaled by 2^j; the left half takes the first entry
    of each level."""
    d = len(t) - 1
    left = np.empty_like(t)
    left[0] = t[0] << d
    for r in range(1, d + 1):
        level = t[: d + 2 - r]
        np.add(level[:-1], level[1:], out=level[:-1])
        left[r] = t[0] << (d - r)
    t <<= np.arange(d + 1, dtype=t.dtype).reshape((-1,) + (1,) * (t.ndim - 1))
    return left.T, t.T


def _split(b):
    """De Casteljau at the midpoint, along the last axis of an integer array
    (one row of coefficients, or one per class), in Python ints: the
    coefficients of the left and the right half, scaled by 2^d.
    left[..., -1] == right[..., 0] is the value at the midpoint."""
    return _casteljau(np.array(b.T, dtype=object, order="C"))


def _split_bounds(lo, hi):
    """_split of int64 rows known only through bounds lo <= c b <= hi, for
    one c > 0 (hi is lo for exact rows): ((lo, hi) of the left half, (lo, hi)
    of the right).  Exact rows that fit split once and stay exact.  Else both
    are first shifted right by one amount, lo rounded down and hi up, so
    that max |b| < 2^(_BITS-d) and the split stays int64.  De Casteljau only
    adds, so the split bounds bound the halves of c b / 2^shift."""
    if hi is lo and _fits(lo):
        left, right = _casteljau(np.array(lo.T, order="C"))
        return (left, left), (right, right)
    room = max(_BITS - (lo.shape[-1] - 1), 1)
    top = max(_peak(lo), _peak(hi)).bit_length()
    s = top - room + 1 if top > room else 0
    down = np.array(lo.T, order="C")
    down >>= s
    lo_left, lo_right = _casteljau(down)
    up = np.negative(hi.T, order="C")
    up >>= s
    hi_left, hi_right = _casteljau(np.negative(up, out=up))
    return (lo_left, hi_left), (lo_right, hi_right)


def _decided(lo, hi):
    """Which coefficients' signs the bounds prove: those whose interval
    [lo, hi] excludes 0, and those it pins to one value."""
    return (lo > 0) | (hi < 0) | (lo == hi)


def _descend(b, a, k):
    """The coefficients on the cell [a/2^k, (a+1)/2^k] from those on [0,1]."""
    for bit in reversed(range(k)):
        b = _split(b)[(a >> bit) & 1]
    return b


def _variations(b):
    """Sign variations of the coefficients along the last axis, zeros skipped
    (Descartes' count): a number for one row, an array for a matrix.  Each
    sign is carried right over the zeros after it, so a variation is a step
    between opposite carried signs."""
    s = np.sign(b).astype(np.int8)
    last = np.where(s != 0, np.arange(s.shape[-1]), 0)
    np.maximum.accumulate(last, axis=-1, out=last)
    s = np.take_along_axis(s, last, axis=-1)
    return (s[..., 1:] * s[..., :-1] < 0).sum(axis=-1)


def _first(b):
    """The first nonzero coefficient: its sign is the sign just right of the
    cell's left end (every Bernstein basis polynomial is positive inside)."""
    return next(c for c in b.tolist() if c)


def _last(b):
    """The last nonzero coefficient: the sign just left of the right end."""
    return next(c for c in reversed(b.tolist()) if c)
