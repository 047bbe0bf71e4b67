"""Exact tools for univariate integer polynomials.

Polynomials are tuples of Python ints, lowest power first, no high-order
zeros (the zero polynomial is the empty tuple).  Every sign decision is an
integer computation: p(a/b) is judged through b^deg(p) * p(a/b).

Provides Sturm chains (via sign-tracked pseudo-remainders, so everything
stays in Z), square-free parts, root counting, and root
isolation/refinement on an interval.  Isolation reports each root either
exactly (a rational hit) or as an open interval with a sign change of the
square-free part.
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


def evaluate(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


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


def square_free_part(p):
    p = primitive(p)
    if degree(p) < 1:
        return p
    g = poly_gcd(p, derivative(p))
    if degree(g) == 0:
        return p
    return exact_div(p, g)


def sturm_chain(p):
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


def isolate_roots(sf, a=Fraction(0), b=Fraction(1)):
    """Isolate the real roots of the square-free polynomial sf in (a, b).

    sf must be square-free (pass square_free_part(p) to isolate the distinct
    roots of any p).  Returns a sorted list of ("exact", value) and
    ("interval", lo, hi) entries; intervals carry a sign change of sf and are
    pairwise disjoint.  Endpoints a, b must not be roots.
    """
    if degree(sf) < 1:
        return []
    chain = sturm_chain(sf)
    if sign_at(sf, a) == 0 or sign_at(sf, b) == 0:
        raise ValueError("isolation endpoints must not be roots")
    out = []

    def rec(lo, hi, k):
        if k == 0:
            return
        if k == 1:
            out.append(("interval", lo, hi))
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
        out.append(("exact", mid))
        rec(right, hi, count_roots(chain, right, hi))

    rec(a, b, count_roots(chain, a, b))
    return out


def refine_root(p, root, eps):
    """Shrink an isolated root to width <= eps (may upgrade it to exact).

    p must be square-free on the interval (a sign change is required).
    """
    if root[0] == "exact":
        return root
    _, lo, hi = root
    s_lo = sign_at(p, lo)
    if s_lo == 0 or s_lo == sign_at(p, hi):
        raise ValueError("refine_root needs a sign change over the interval")
    while hi - lo > eps:
        mid = (lo + hi) / 2
        sm = sign_at(p, mid)
        if sm == 0:
            return ("exact", mid)
        if sm == s_lo:
            lo = mid
        else:
            hi = mid
    return ("interval", lo, hi)
