"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way (O(4^n) loops over the
cube, exact Fractions, sympy for polynomial sign questions) so the fast
package code has something honest to be checked against.  No imports from
boolsp beyond plain truth tables.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, sqrt

import numpy as np
import sympy


def evaluate(p, x):
    """p(x) for a coefficient tuple p (lowest power first), by Fraction Horner."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


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


def coordinate_blocks(values, n):
    """Blocks of interchangeable coordinates and their negation mask, as
    sp._coordinate_blocks returns them, from every signed transposition of
    the table: coordinates i and j are interchangeable when swapping x_i and
    x_j, plainly or with both negated, leaves every entry of the table as it
    is.  Each block gathers the coordinates whose least interchangeable
    coordinate (their root) is the same; bit j of the mask is set when x_j
    does not swap plainly with its root."""

    def invariant(i, j, flip):
        for u in range(1 << n):
            xi, xj = (u >> i) & 1, (u >> j) & 1
            w = u & ~(1 << i | 1 << j) | (xj ^ flip) << i | (xi ^ flip) << j
            if values[w] != values[u]:
                return False
        return True

    roots = [
        next(i for i in range(j + 1)
             if i == j or invariant(i, j, 0) or invariant(i, j, 1))
        for j in range(n)
    ]
    blocks = [[j for j in range(n) if roots[j] == r] for r in sorted(set(roots))]
    mask = sum(1 << j for j in range(n) if not invariant(roots[j], j, 0))
    return blocks, mask


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


def nonnegative_components(polys):
    """{x in [0,1]: p(x) >= 0 for every p in polys} as its components (lo, hi),
    ascending, with sympy numbers (Rational or CRootOf) as ends; and the
    sorted distinct roots in (0,1) of all the polys.  Decided by sympy.

    Every p is an integer coefficient tuple, lowest power first, positive
    at 1.  The points are 0, 1 and the real roots of every irreducible factor
    (distinct factors share no root); between two neighbours every p has one
    sign, read at a rational point between them.  At a root of the factor g,
    p is 0 when g divides p, else it has the sign of the gap to its right.
    """
    x = sympy.Symbol("x")
    ps = [sympy.Poly(list(reversed(p)), x) for p in polys]
    if not all(p.eval(1) > 0 for p in ps):
        raise ValueError("every polynomial must be positive at 1")
    factors = {}
    for p in ps:
        for g, _ in p.factor_list()[1]:
            if g.degree() > 0:
                g = -g if g.LC() < 0 else g
                factors[tuple(g.all_coeffs())] = g
    roots = sorted(
        ((r, g) for g in factors.values() for r in g.real_roots() if 0 < r < 1),
        key=lambda pair: pair[0],
    )
    points = [sympy.Integer(0)] + [r for r, _ in roots] + [sympy.Integer(1)]
    gaps = []
    for a, b in zip(points, points[1:]):
        mid = sympy.Rational(str(((a + b) / 2).evalf(60)))
        if not a < mid < b:
            raise AssertionError("no rational found between two roots")
        gaps.append([sympy.sign(p.eval(mid)) for p in ps])
    # one membership flag per item: point 0, gap, root, gap, ..., gap, point 1
    inside = [all(p.eval(0) >= 0 for p in ps)]
    for i, (r, g) in enumerate(roots):
        inside.append(min(gaps[i]) > 0)
        inside.append(all(p.rem(g).is_zero or s > 0 for p, s in zip(ps, gaps[i + 1])))
    inside += [min(gaps[-1]) > 0, True]
    components, lo = [], None
    for item, flag in enumerate(inside):
        if flag and lo is None:
            if item % 2:
                raise AssertionError("the set must be closed")
            lo = points[item // 2]
        if not flag and lo is not None:
            if item % 2 == 0:
                raise AssertionError("the set must be closed")
            components.append((lo, points[(item - 1) // 2]))
            lo = None
    components.append((lo, points[-1]))
    return components, [r for r, _ in roots]


def check_region(intervals, components, roots, depth):
    """Assert that region intervals (endpoints exact, or enclosure cells)
    describe the components of nonnegative_components.

    An exact endpoint equals the component's end, and every dyadic end of
    depth <= depth is exact.  An enclosure is a standard dyadic cell
    (a/2^k, (a+1)/2^k) holding the end inside, of depth k == depth, or
    deeper only when its depth-`depth` cell holds another root too.
    """
    assert len(intervals) == len(components), (intervals, components)
    for iv, ends in zip(intervals, components):
        for ep, r in zip((iv.lo, iv.hi), ends):
            if ep.kind == "exact":
                assert sympy.Rational(ep.value.numerator, ep.value.denominator) == r, (ep, r)
                continue
            assert not (r.is_Rational and r.q & (r.q - 1) == 0 and r.q <= 1 << depth), (ep, r)
            lo, hi = ep.lo, ep.hi
            width = hi - lo
            k = width.denominator.bit_length() - 1
            assert width == Fraction(1, 1 << k) and (lo * (1 << k)).denominator == 1, ep
            assert k >= depth, (ep, depth)
            assert sympy.Rational(lo.numerator, lo.denominator) < r, (ep, r)
            assert r < sympy.Rational(hi.numerator, hi.denominator), (ep, r)
            if k > depth:
                top = sympy.Rational(int(lo * (1 << depth)), 1 << depth)
                near = [s for s in roots if top < s < top + sympy.Rational(1, 1 << depth)]
                assert len(near) >= 2, (ep, r, depth)


def functional_graph(succ):
    """(fixpoints, components, max depth, non-trivial cycles) of v -> succ[v] by
    a depth-first walk from every unvisited node, 0 up.  This walk defines
    the cycle order: components in the order of their least node, each cycle
    starting at the first of its nodes reached from that least node."""
    total = len(succ)
    state = [0] * total  # 0 new, 1 on current path, 2 finished
    depth = [0] * total  # distance to the component's cycle
    cycles = []
    num_components = 0
    max_depth = 0
    for s in range(total):
        if state[s]:
            continue
        path = []
        v = s
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = succ[v]
        if state[v] == 1:  # fresh cycle inside the current path
            ci = path.index(v)
            cycle = path[ci:]
            num_components += 1
            if len(cycle) > 1:
                cycles.append(tuple(cycle))
            for u in cycle:
                depth[u] = 0
                state[u] = 2
            tail = path[:ci]
        else:
            tail = path
        base = depth[succ[tail[-1]]] if tail else 0
        for i, u in enumerate(reversed(tail), start=1):
            depth[u] = base + i
            state[u] = 2
        if tail:
            max_depth = max(max_depth, depth[tail[0]])
    num_fixpoints = sum(1 for v in range(total) if succ[v] == v)
    return num_fixpoints, num_components, max_depth, tuple(cycles)


def half_sum_keys(n, rho):
    """(cols, rows) of experiments._sign_keys as int arrays, from sums built by
    doubling a list one point at a time.

    A[x] and B[x] are the sums of (q+p)^(n-|j|) (q-p)^|j| f(j) over the points
    j of the low and the high half, for every half table x (bit k set: f = +1
    at the half's point k).  For u < h = 2^(n-1), d(u, j) = |u ^ j| on the low
    half and 1 + |u ^ k| at the point h + k, so A_u and B_u are A and B read
    with bit k taken from bit k ^ u; for u = h + u' the halves swap roles.
    cols[u, x] is the rank of A_u[x] and rows[u, x] the rank of -B_u[x] in the
    sorted union of the values of A and B (at n = 0 the one point is the low
    half, and the high half's one sum is 0)."""
    if n == 0:
        return np.array([[0, 2]]), np.array([[1]])  # ranks of -1, +1 and of 0
    p, q = rho.numerator, rho.denominator
    w = [(q + p) ** (n - d) * (q - p) ** d for d in range(n + 1)]
    h = 1 << (n - 1)

    def half_sums(far):
        sums = [0]
        for j in range(h):
            wj = w[j.bit_count() + far]
            sums = [s - wj for s in sums] + [s + wj for s in sums]
        return sums

    a, b = half_sums(0), half_sums(1)
    rank = {v: r for r, v in enumerate(sorted(set(a).union(b)))}
    ra, rb = np.array([rank[v] for v in a]), np.array([rank[v] for v in b])
    rna, rnb = np.array([rank[-v] for v in a]), np.array([rank[-v] for v in b])
    x = np.arange(1 << h)
    reads = [sum(((x >> (k ^ u)) & 1) << k for k in range(h)) for u in range(h)]
    cols = [ra[r] for r in reads] + [rb[r] for r in reads]
    rows = [rnb[r] for r in reads] + [rna[r] for r in reads]
    return np.array(cols), np.array(rows)


def keep_successors(n, rho):
    """The keep-rule successor of every table of n variables, indexed by table
    id, from the keys of half_sum_keys: with s = cols[u, lo] - rows[u, hi] for
    the table lo + (hi << h), bit u of its successor is s > 0, or the table's
    own bit u where s == 0."""
    cols, rows = half_sum_keys(n, rho)
    ids = np.arange(1 << (1 << n))
    succ = np.zeros_like(ids)
    for u, (c, r) in enumerate(zip(cols, rows)):
        s = (c[None, :] - r[:, None]).ravel()  # entry lo + hi * len(c)
        succ |= np.where(s == 0, ids >> u & 1, s > 0) << u
    return succ


def _linear_form(a0, a):
    """a0 + sum_j a_j x_j at every point (x_j = -1 where bit j is set)."""
    vals = [a0]
    for c in a:
        vals = [x + c for x in vals] + [x - c for x in vals]
    return vals


def linear_gap(a):
    """Least positive value of sum_j a_j x_j over the cube, 0 when the form is
    never positive: read off the full table of its 2^n values."""
    return min((x for x in _linear_form(0, a) if x > 0), default=0)


def linear_abs_sum(a):
    """Sum of |sum_j a_j x_j| over the full table of its 2^n values."""
    return sum(abs(x) for x in _linear_form(0, a))


def level_summaries(coeffs, n):
    """(weights, l1, peaks, support, degree) of the scaled spectrum coeffs,
    one subset at a time: per level k the sum of c_S^2, the sum of |c_S|, the
    largest |c_S| and the count of nonzero c_S over |S| = k, and the highest
    level with a nonzero c_S."""
    weights, l1, peaks, support = ([0] * (n + 1) for _ in range(4))
    for m, c in enumerate(coeffs):
        k = bin(m).count("1")
        weights[k] += c * c
        l1[k] += abs(c)
        peaks[k] = max(peaks[k], abs(c))
        support[k] += c != 0
    degree = max(k for k in range(n + 1) if support[k])
    return weights, l1, peaks, support, degree


def level_cross_sums(coeffs, signs, n):
    """sum_{|S|=k} c_S b_S for k = 0..n, one subset at a time, where b_S is
    the correlation sum_u signs[u] chi_S(u) of the table signs with chi_S."""
    u = np.arange(1 << n)
    signs = np.asarray(signs, dtype=np.int64)
    out = [0] * (n + 1)
    for m, c in enumerate(coeffs):
        if c:
            odd = (np.bitwise_count(u & m) & 1).astype(np.int64)
            out[bin(m).count("1")] += c * int((1 - 2 * odd) @ signs)
    return out


def ltf_approximation(values, n):
    """((a0, a), distance, sperner_cap, bound, zero_set_size, offset) of the LTF
    fitted to the level-1 coefficients, point by point over the zero set Z of
    the level-1 form; None when every level-1 coefficient vanishes.  d0 and d
    are the Chow parameters of f restricted to Z, and the offset is the first
    of 0, 1, -1, 2, -2, ... that no point of Z cancels in d0 + d.x."""
    size = 1 << n
    w = [sum(-v if (u >> j) & 1 else v for u, v in enumerate(values)) for j in range(n)]
    m = sum(1 for c in w if c)
    if m == 0:
        return None
    zero_set = [u for u, x in enumerate(_linear_form(0, w)) if x == 0]
    d0 = 0
    d = [0] * n
    for u in zero_set:
        d0 += values[u]
        for j in range(n):
            d[j] += -values[u] if (u >> j) & 1 else values[u]
    perturbation = _linear_form(0, d)
    offset, step = 0, 0
    while any(d0 + offset + perturbation[u] == 0 for u in zero_set):
        step += offset <= 0
        offset = step if offset <= 0 else -offset
    d0 += offset
    scale = sum(abs(c) for c in d) + abs(d0) + 1
    a = tuple(scale * wj + dj for wj, dj in zip(w, d))
    signs = [1 if x > 0 else -1 for x in _linear_form(d0, a)]
    distance = Fraction(sum(s != v for s, v in zip(signs, values)), size)
    cap = Fraction(comb(m, m // 2), 1 << m)
    x = 2 / (Fraction(3141592653589794, 10**15) * m)
    bound = Fraction(int(sqrt(float(x)) * 10**12), 10**12)
    while bound * bound > x:
        bound -= Fraction(1, 10**12)
    return (d0, a), distance, cap, bound, len(zero_set), offset
