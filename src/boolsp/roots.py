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
are ever read, so the positive scales never matter.  A matrix of rows is
int64 while a checked bound shows every entry it leads to fits, and Python
ints (object dtype) past it.  Descartes' rule of signs on the coefficients
(_variations) bounds the roots in the open cell, counted with multiplicity,
and has their parity: 0 means no root and 1 exactly one simple root.  The
two halves never count more than the cell, and a square-free polynomial
reaches counts <= 1 after finitely many splits (Collins & Akritas, SYMSAC
1976; Eigenwillig, PhD thesis, Saarland University, 2008).  A polynomial
with repeated roots gets its square-free part from one gcd(p, p')
(_square_free), through integer pseudo-remainders, so everything stays in Z.
"""

from math import comb, gcd as int_gcd, lcm

import numpy as np


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


def _eval_rows(rows, num, den):
    """eval_scaled of every row of an (m, d+1) integer matrix, lowest power
    first, at degree d: den^d p(num/den) for each row, as Python ints, from
    one dot product with the powers num^j den^(d-j)."""
    d = rows.shape[1] - 1
    powers = np.array([num**j * den ** (d - j) for j in range(d + 1)], dtype=object)
    return rows.astype(object) @ powers


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


def _magnitudes(a):
    """|a| for an int64 or object array, exact at -2^63 (which np.abs leaves
    negative in int64: its magnitude is read as uint64)."""
    m = np.abs(a)
    return m.view(np.uint64) if m.dtype == np.int64 else m


def _scaled_bernstein(rows):
    """sb[:, i] = sum_j C(d-j, i-j) rows[:, j] for an (m, d+1) integer matrix:
    the coefficients of (1+y)^d q(y/(1+y)), which maps (0, inf) onto (0, 1),
    and C(d,i) times q's Bernstein coefficients of degree d on [0,1].

    One int64 matmul when the bound from the column maxima fits in 63 bits
    (every partial sum then does too), else the same product on Python ints.
    """
    d = rows.shape[1] - 1
    shift = [[comb(d - j, i - j) if i >= j else 0 for i in range(d + 1)] for j in range(d + 1)]
    peak = [int(x) for x in _magnitudes(rows).max(axis=0)] if len(rows) else [0] * (d + 1)
    bound = max(sum(shift[j][i] * peak[j] for j in range(d + 1)) for i in range(d + 1))
    dtype = np.int64 if bound < 1 << 63 else object
    return rows.astype(dtype) @ np.array(shift, dtype=dtype)


def _bernstein(sb):
    """L = lcm_i C(d,i) times the Bernstein coefficients, from rows of
    _scaled_bernstein: L b_i = sb_i L/C(d,i).  int64 when max |sb| times the
    largest weight, L/C(d,0) = L, is below 2^62, else Python ints."""
    d = sb.shape[-1] - 1
    big = lcm(*(comb(d, i) for i in range(d + 1)))
    weights = [big // comb(d, i) for i in range(d + 1)]
    dtype = np.int64 if int(_magnitudes(sb).max(initial=0)) * weights[0] < 1 << 62 else object
    return sb.astype(dtype) * np.array(weights, dtype=dtype)


def _unit_bernstein(p, d):
    """_bernstein of one polynomial p of degree <= d on [0,1]."""
    row = np.array([tuple(p) + (0,) * (d + 1 - len(p))], dtype=object)
    return _bernstein(_scaled_bernstein(row))[0]


def _split(b):
    """De Casteljau at the midpoint, along the last axis of an integer array
    (one row of coefficients, or one per class): the coefficients of the left
    and the right half, scaled by 2^d.  left[..., -1] == right[..., 0] is the
    value at the midpoint.  No entry of either half, and no partial sum,
    exceeds 2^d max |b|, so an int64 b stays int64 while max |b| < 2^(62-d)
    and is cast to Python ints past that."""
    d = b.shape[-1] - 1
    if b.dtype != object and int(_magnitudes(b).max(initial=0)) << d >= 1 << 62:
        b = b.astype(object)
    left, right = np.empty_like(b), np.empty_like(b)
    left[..., 0], right[..., d] = b[..., 0] << d, b[..., d] << d
    row = b
    for r in range(1, d + 1):
        row = row[..., :-1] + row[..., 1:]
        left[..., r] = row[..., 0] << (d - r)
        right[..., d - r] = row[..., -1] << (d - r)
    return left, right


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
