"""Exact tools for univariate integer polynomials.

Polynomials are tuples of Python ints, lowest power first, no high-order
zeros (the zero polynomial is the empty tuple).  Every sign decision is an
integer computation: p(a/b) is judged through b^deg(p) * p(a/b).

Roots in (0,1) are isolated by _unit_roots.  Descartes' rule of signs on
(1+x)^d p(1/(1+x)) settles most polynomials with a Taylor shift: no sign
variation means no root, one means exactly one simple root.  Only the rest
get a Sturm chain (via sign-tracked pseudo-remainders, so everything stays
in Z), which starts with the square-free part and gives root counting and
isolation on an interval, all from one chain per polynomial.  A root is a
pair (lo, hi) of Fractions: exact when lo == hi, else an open interval
holding one root of the polynomial, which is simple, so it changes sign
over the interval and bisection refines it.
"""

from fractions import Fraction
from math import gcd as int_gcd


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


def sign_at(p, x):
    v = eval_scaled(p, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


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


def pseudo_rem_tracked(a, b):
    """Integer pseudo-remainder r of a by b with a sign flag.

    r equals rem(a, b) over Q times lc(b)^k for some k >= 0; the returned
    flag is True when that scalar is negative.
    """
    db = degree(b)
    lb = b[-1]
    r = list(trim(a))
    neg = False
    while len(r) - 1 >= db:
        s = r[-1]
        shift = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= s * bc
        r = list(trim(r))
        if lb < 0:
            neg = not neg
        if not r:
            break
    return tuple(r), neg


def poly_gcd(a, b):
    """Primitive gcd with positive leading coefficient."""
    a, b = primitive(a), primitive(b)
    while b:
        r, _ = pseudo_rem_tracked(a, b)
        a, b = b, primitive(r)
    if a and a[-1] < 0:
        a = negate(a)
    return a


def exact_div(a, b):
    """Quotient a/b for exact divisions (b primitive); raises otherwise."""
    a = list(trim(a))
    b = trim(b)
    db = degree(b)
    lb = b[-1]
    if not a:
        return ()
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i] == 0:
            continue
        c, rem = divmod(a[i], lb)
        if rem:
            raise ValueError("non-exact polynomial division")
        q[i - db] = c
        for j, bc in enumerate(b):
            a[i - db + j] -= c * bc
    if any(a[:db]):
        raise ValueError("non-exact polynomial division")
    return trim(q)


def sturm_chain(p):
    """Sturm chain of any nonzero p.  The remainder sequence of p, p' ends in
    g = gcd(p, p'); dividing every element by g leaves chain[0] = +/- the
    primitive square-free part of p, and the chain still counts p's distinct
    real roots (Basu-Pollack-Roy, Algorithms in Real Algebraic Geometry, ch. 2).
    """
    p0 = primitive(p)
    if not p0:
        raise ValueError("zero polynomial has no Sturm chain")
    chain = [p0]
    p1 = primitive(derivative(p0))
    if not p1:
        return chain
    chain.append(p1)
    while degree(chain[-1]) > 0:
        r, neg = pseudo_rem_tracked(chain[-2], chain[-1])
        if not r:
            break
        chain.append(primitive(r if neg else negate(r)))
    if degree(chain[-1]) > 0:
        chain = [exact_div(q, chain[-1]) for q in chain]
    return chain


def variations_at(chain, x):
    signs = [s for s in (sign_at(q, x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain, a, b):
    """Distinct real roots of chain[0] in the open interval (a, b).

    Requires chain[0] nonzero at both endpoints.
    """
    p = chain[0]
    if sign_at(p, a) == 0 or sign_at(p, b) == 0:
        raise ValueError("count_roots endpoints must not be roots")
    return variations_at(chain, a) - variations_at(chain, b)


def isolate_roots(chain, a=Fraction(0), b=Fraction(1)):
    """Isolate the distinct real roots of chain[0] in (a, b).

    chain is a sturm_chain, so chain[0] is square-free.  Returns the roots
    as sorted, pairwise disjoint (lo, hi) pairs.  Endpoints a, b must not be
    roots.
    """
    sf = chain[0]
    if degree(sf) < 1:
        return []
    if sign_at(sf, a) == 0 or sign_at(sf, b) == 0:
        raise ValueError("isolation endpoints must not be roots")
    out = []

    def rec(lo, hi, k):
        if k == 0:
            return
        if k == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if sign_at(sf, mid) != 0:
            kl = count_roots(chain, lo, mid)
            rec(lo, mid, kl)
            rec(mid, hi, k - kl)
            return
        # rational root hit: fence it off and recurse on both sides
        h = (hi - lo) / 4
        while True:
            left, right = mid - h, mid + h
            if (
                left > lo
                and right < hi
                and sign_at(sf, left) != 0
                and sign_at(sf, right) != 0
                and count_roots(chain, left, right) == 1
            ):
                break
            h /= 2
        rec(lo, left, count_roots(chain, lo, left))
        out.append((mid, mid))
        rec(right, hi, count_roots(chain, right, hi))

    rec(a, b, count_roots(chain, a, b))
    return out


def coeff_sign_variations(p):
    """Sign variations of the coefficients of (1+x)^d p(1/(1+x)), d = deg p.

    x -> 1/(1+x) maps (0, inf) onto (0, 1), so by Descartes' rule this
    bounds the roots of p in (0,1), counted with multiplicity, and has their
    parity.  Reversing the coefficients gives x^d p(1/x); one Taylor shift
    by 1 (d^2 / 2 integer additions) then gives the polynomial.
    """
    a = list(reversed(p))
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += a[j + 1]
    signs = [c > 0 for c in a if c]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _unit_roots(p):
    """The distinct roots of p in (0,1) as (sf, roots), p(0) != 0 != p(1).

    roots are sorted, pairwise disjoint (lo, hi) pairs, and sf has exactly
    one root in each open bracket, which is simple.  With fewer than two
    sign variations (coeff_sign_variations) that is p itself, with no root
    or with the one bracket (0, 1), as Sturm isolation would return it;
    otherwise sf is the square-free chain[0] of p's Sturm chain.
    """
    if not p[0] or not sum(p):
        raise ValueError("0 and 1 must not be roots")
    variations = coeff_sign_variations(p)
    if variations == 0:
        return p, []
    if variations == 1:
        return p, [(Fraction(0), Fraction(1))]
    chain = sturm_chain(p)
    return chain[0], isolate_roots(chain)


def refine_root(sf, lo, hi, eps):
    """Shrink the root (lo, hi) of sf to width <= eps; sf has one root in
    (lo, hi), and it is simple.

    An exact root (lo == hi) comes back as it is; bisection may hit the root
    and return it exactly.
    """
    if lo == hi:
        return lo, hi
    s_lo = sign_at(sf, lo)
    if s_lo == 0 or s_lo == sign_at(sf, hi):
        raise ValueError("refine_root needs a sign change over the interval")
    while hi - lo > eps:
        mid = (lo + hi) / 2
        sm = sign_at(sf, mid)
        if sm == 0:
            return mid, mid
        if sm == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi
