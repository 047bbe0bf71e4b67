"""Self-predictability analysis.

For each point v the scaled noise operator is a polynomial in rho:

    2^n * q^n * T_rho f(v) = sum_k C[v,k] p^k q^(n-k),   rho = p/q,

so with q_v(rho) := f(v) * sum_k C[v,k] rho^k the function is rho-SP at v
exactly when q_v(rho) >= 0 (ties count as agreement) and rho-SP overall when
all q_v are nonnegative.  The SP region is therefore [0,1] minus the union of
the open sets {q_v < 0}.

Only the distinct q_v matter, and they are found over orbits, not points.
Coordinates that f lets swap (plainly, or both negated) form blocks; points
with the same per-block weights (after the blocks' negations) share q_v,
and its coefficients are products of binary Krawtchouk polynomials, one
transform per block axis over prod (|B_i| + 1) orbits instead of one
butterfly over 2^n points.  A block of one coordinate is one butterfly
stage, so a function without symmetry runs the plain level-by-level
transform.  Majority n=21 has 22 orbits; edic n=18 has 2 * 18 = 36.

Each distinct q_v's negative set comes from its distinct roots in (0,1)
and one sign per gap between them; since q_v(1) = 2^n > 0 it is a finite
union of intervals ending at such roots.  Descartes' rule settles most q_v
(no root, or one simple root bracketed by (0,1)); the others get one Sturm
chain.  One sweep over all those intervals, sorted by an exact root
comparator, yields the region as closed intervals.  The comparator halves
brackets until they part, and tests for a common root (a gcd) only once
they overlap at epsilon width.  Everything is decided with integer
arithmetic; floats never touch a sign.

The same classes, with their sizes, give classify's other flags with no
pass over 2^n points: column k of q_v is f(v) 2^n times the level-k part of
f at v (lowest nonzero level, WST, SST), and LCSP reads each row's first
nonzero entry.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import comb, factorial, log, sqrt

import numpy as np

from . import roots as rt
from .errors import CapacityError, InvalidArgument, PreconditionError
from .functions import (
    LtfSpec,
    construct_ltf,
    linear_values,
    popcounts,
    properties,
)
from .noise import _rho_weights, _scaled_signs, check_rho, disagreement, stability
from .spectrum import (
    _level1_gap,
    chow_distance,
    influences,
    wht,
)

DEFAULT_EPSILON = Fraction(1, 10**9)


def sp_polynomial(f, v):
    """Coefficients (c_0..c_n) of 2^n T_rho f(v) as a polynomial in rho:
    c_k sums the scaled coefficients 2^n fhat_S * chi_S(v) over |S| = k."""
    size = 1 << f.n
    if not 0 <= v < size:
        raise InvalidArgument(f"point index must be in 0..{size - 1}, got {v}")
    # bitwise_count gives uint8, where 1 - 2 * parity would wrap: go signed first
    parity = (np.bitwise_count(np.arange(size) & v) & 1).astype(np.int64)
    row = np.zeros(f.n + 1, dtype=np.int64)
    np.add.at(row, popcounts(f.n), wht(f).coeffs * (1 - 2 * parity))
    return tuple(row.tolist())


@dataclass(frozen=True)
class PointDecision:
    sp: bool
    tie: bool


def is_sp_at(f, rho, v):
    rho = check_rho(rho)
    row = sp_polynomial(f, v)
    val = sum(c * w for c, w in zip(row, _rho_weights(f.n, rho)))
    if val == 0:
        return PointDecision(True, True)
    return PointDecision((val > 0) == (f.value_at(v) > 0), False)


@dataclass(frozen=True)
class SpDecision:
    sp: bool
    witness: int  # least failing input index, or None


def is_sp(f, rho):
    """Is f rho-SP (ties count as agreement)?  witness = least failing index."""
    rho = check_rho(rho)
    idx = np.flatnonzero(disagreement(f.values, _scaled_signs(f, rho)))
    if len(idx):
        return SpDecision(False, int(idx[0]))
    return SpDecision(True, None)


def _coordinate_blocks(f):
    """Blocks of interchangeable coordinates of f, and their negation mask.

    Coordinates i < j are interchangeable when f is invariant under swapping
    x_i and x_j, plainly or with both negated.  Either map is a signed
    transposition, and the conjugate of one by another is again one, so
    interchangeability is an equivalence and j need only be tried against
    the least coordinate (root) of each block found so far.  A plain swap
    keeps 2^n fhat_{i} = 2^n fhat_{j} and a negated one flips its sign, so
    only a pair whose level-1 coefficients agree (up to that sign) is
    compared: one equality of two table views, no index arrays.

    Returns (blocks, mask): coordinate lists by root, each ascending, and
    bit j of mask set when x_j swaps with its root negated.  Then
    g(u) = f(u ^ mask) is invariant under every permutation within a block,
    so f's point polynomial at v depends only on the per-block weights of
    v ^ mask.
    """
    values = f.values
    level1 = wht(f).coeffs[1 << np.arange(f.n)].tolist()
    blocks, mask = [], 0
    for j in range(f.n):
        for block in blocks:
            i = block[0]
            view = values.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)
            if level1[i] == level1[j] and np.array_equal(
                view[:, 0, :, 1], view[:, 1, :, 0]
            ):
                block.append(j)
                break
            if level1[i] == -level1[j] and np.array_equal(
                view[:, 0, :, 0], view[:, 1, :, 1]
            ):
                block.append(j)
                mask |= 1 << j
                break
        else:
            blocks.append([j])
    return blocks, mask


def _krawtchouk_transform(arr, sizes):
    """The flat orbit tensor arr transformed along every block axis (block 0
    is the last, fastest axis) by its binary Krawtchouk matrix: entry k of the
    axis of a block of size b goes to entry w with weight

        K[k, w] = sum_j (-1)^j C(w, j) C(b-w, k-j)
                = [z^k] (1-z)^w (1+z)^(b-w),

    the sum of chi_S(u) over the size-k subsets S of the block, at any u
    with w of its coordinates at -1.  So entry w is the functional
    L(z^k) = entry k applied to (1-z)^w (1+z)^(b-w), built one factor at a
    time: multiplying by (1+z) or (1-z) maps L to the functional
    z^k -> L(z^k) +- L(z^(k+1)) on one degree less.  After t steps the state
    holds, for each i <= t, the functional with i factors (1-z); one step
    adds a (1+z) to each and a (1-z) to the last.  For a block of size 1,
    K = [[1, 1], [1, -1]] and this is one stage of the Walsh-Hadamard
    butterfly: entries a0 + a1 and a0 - a1."""
    inner = 1
    for b in sizes:
        state = arr.reshape(-1, 1, b + 1, inner)
        for t in range(b):
            step = np.empty((len(state), t + 2, b - t, inner), dtype=np.int64)
            np.add(state[:, :, :-1], state[:, :, 1:], out=step[:, :-1])
            np.subtract(state[:, -1:, :-1], state[:, -1:, 1:], out=step[:, -1:])
            state = step
        arr = state.ravel()
        inner *= b + 1
    return arr


def _orbit_grid(per_block, ufunc=np.add):
    """Flat orbit tensor holding the ufunc (sum, or np.multiply for product)
    over i of per_block[i][index on block i's axis]."""
    out = np.array([ufunc.identity], dtype=np.int64)
    for vec in per_block:
        out = ufunc.outer(np.array(vec, dtype=np.int64), out).ravel()
    return out


def _least_points(block, mask):
    """For w = 0..len(block): the least v restricted to the block's bits among
    points where v ^ mask has w of them set (greedily, from the top bit)."""
    out = []
    for w in range(len(block) + 1):
        v, left = 0, w
        for below, c in reversed(list(enumerate(block))):
            m = (mask >> c) & 1
            if not 0 <= left - m <= below:  # bit c cannot stay clear
                v |= 1 << c
                m = 1 - m
            left -= m
        out.append(v)
    return out


def _distinct_point_polys(f):
    """Deduplicated signed point polynomials f(v) * C[v,:] as classes
    (row, rep, size): the trimmed row, its least point v as representative
    and the number of points that have it, in np.unique(rows, axis=0) order.

    The work runs over orbits of f's coordinate-block symmetry, not over the
    2^n points (_coordinate_blocks).  With g(u) = f(u ^ mask), invariant under
    permutations within each block, the signed point polynomial of an orbit
    with per-block weights (w_1..w_m) has level-k coefficient

        g(orbit) * sum over (k_1..k_m), sum k_i = k, of
                   ghat(k_1..k_m) * prod_i K_i[k_i, w_i],

    K_i the binary Krawtchouk matrix of block i (_krawtchouk_transform) and
    ghat(k_1..k_m) = 2^n fhat_S * chi_S(mask) at one S with k_i coordinates
    in block i (its least ones).  So each level is one transform of the
    level-k slice of that dual tensor along each block axis, over
    prod (|B_i| + 1) orbits.  A function with no symmetry has n singleton
    blocks, 2^n orbits indexed by the points themselves, and per level the
    n butterfly stages of the plain level-k transform.

    An exact partition refinement runs over the levels k = 0..n: every orbit
    carries the int64 label of its class so far, and level k splits the
    classes by the signed column col through the key
    label * span + (col - min col), with span = max col - min col + 1.  The
    key is injective on (label, col) pairs, so after the last level two orbits
    share a class exactly when their whole signed rows agree; no hashing, no
    collisions.  np.unique of the keys gives the new labels (inverse) and one
    orbit of each class (index), whose row is kept, extended by one column
    per level.  Key order is (label, col) order, so by induction the labels
    follow the lexicographic order of the rows read so far, and the final
    classes come out in np.unique(axis=0) order.  Once every class is a
    single orbit (after four or five levels for random functions of 9 to 16
    variables) no level can split one, so the later levels only extend the
    rows, with no key and no np.unique.  A class's representative is
    the least of its orbits' least points; blocks own disjoint bits, so an
    orbit's least point is the sum of per-block least parts (_least_points).
    Its size is the sum of its orbits' sizes prod_i C(|B_i|, w_i).  The rows
    and sizes carry classify's per-point flags too (_level_flags).

    The key is exact while count * span < 2^63, count being the number of
    classes so far; this is checked in Python ints and raises CapacityError
    otherwise.  By Cauchy-Schwarz and Parseval |col| <= 2^n sqrt(C(n,k)), so
    count * span < 2^24 * 2^37 for n <= 24 (the default cap).  Every
    intermediate entry of a transform is a signed sum of distinct level-k
    coefficients, so it obeys the same bound.
    """
    blocks, mask = _coordinate_blocks(f)
    sizes = [len(block) for block in blocks]
    subsets = _orbit_grid(  # per block, its least k coordinates for k = 0..|block|
        [[sum(1 << c for c in block[:k]) for k in range(len(block) + 1)]
         for block in blocks]
    )
    least = _orbit_grid([_least_points(block, mask) for block in blocks])
    binomials = [[comb(len(b), w) for w in range(len(b) + 1)] for b in blocks]
    counts = _orbit_grid(binomials, np.multiply)  # points per orbit
    levels = np.bitwise_count(subsets)
    parity = (np.bitwise_count(subsets & mask) & 1).astype(np.int64)
    dual = wht(f).coeffs[subsets] * (1 - 2 * parity)
    signs = f.values[least]
    labels = np.zeros(len(signs), dtype=np.int64)
    rows = np.zeros((1, 0), dtype=np.int64)
    for k in range(f.n + 1):
        col = _krawtchouk_transform(np.where(levels == k, dual, 0), sizes) * signs
        if len(rows) < len(col):  # some class still holds several orbits
            low = int(col.min())
            span = int(col.max()) - low + 1
            if len(rows) * span >= 1 << 63:
                raise CapacityError(
                    f"level {k} of n={f.n}: point polynomial keys would overflow int64"
                )
            _, first, inverse = np.unique(
                labels * span + (col - low), return_index=True, return_inverse=True
            )
            rows = rows[labels[first]]
            labels = inverse
        rows = np.column_stack([rows, col[first]])
    reps = np.full(len(rows), 1 << f.n, dtype=np.int64)
    np.minimum.at(reps, labels, least)
    members = np.zeros(len(rows), dtype=np.int64)
    np.add.at(members, labels, counts)
    rows = [rt.trim(tuple(row)) for row in rows.tolist()]
    return list(zip(rows, reps.tolist(), members.tolist()))


# ---------------------------------------------------------------------------
# SP region


@dataclass(frozen=True)
class Endpoint:
    """Region endpoint: an exact rational or a width-<=epsilon enclosure."""

    kind: str  # "exact" | "enclosure"
    value: Fraction = None
    lo: Fraction = None
    hi: Fraction = None

    def approx(self):
        if self.kind == "exact":
            return float(self.value)
        return float((self.lo + self.hi) / 2)


@dataclass(frozen=True)
class SpInterval:
    lo: Endpoint
    hi: Endpoint
    lo_closed: bool
    hi_closed: bool


@dataclass(frozen=True)
class SpRegion:
    n: int
    epsilon: Fraction
    intervals: tuple


def _endpoint(lo, hi):
    """Endpoint of a root pair: exact when lo == hi."""
    if lo == hi:
        return Endpoint("exact", value=lo)
    return Endpoint("enclosure", lo=lo, hi=hi)


class _Root:
    """A root in [0,1) in the roots-layer format: exact when lo == hi, else
    the only root of sf in the open interval (lo, hi), and a simple one."""

    __slots__ = ("sf", "lo", "hi")

    def __init__(self, sf, lo, hi):
        self.sf, self.lo, self.hi = sf, lo, hi

    def halve(self):
        lo, hi = self.lo, self.hi
        self.lo, self.hi = rt.refine_root(self.sf, lo, hi, (hi - lo) / 2)

    def endpoint(self, epsilon):
        return _endpoint(*rt.refine_root(self.sf, self.lo, self.hi, epsilon))


def _same_root(a, b):
    """Do the overlapping brackets of a and b hold one common root?  If so,
    both take their intersection, so either gives the endpoint.

    For two open brackets the test is a sign change of g = gcd(a.sf, b.sf)
    over their intersection (lo, hi), which is exact: g divides both
    polynomials, and on (lo, hi), inside one bracket of each, a.sf has at
    most one root, a simple one, so g has at most one root there and that
    root is simple; and lo, hi are bracket endpoints, where a.sf or b.sf and
    hence g are nonzero.
    """
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo == hi:  # one is exact, inside the other's bracket
        same = rt.sign_at((a if a.lo < a.hi else b).sf, lo) == 0
    else:
        g = rt.poly_gcd(a.sf, b.sf)
        same = rt.sign_at(g, lo) != rt.sign_at(g, hi)
    if same:
        a.lo, a.hi, b.lo, b.hi = lo, hi, lo, hi
    return same


def _compare(a, b, epsilon):
    """Exact order of two roots (-1, 0 or 1), halving only the wider bracket.

    Distinct roots part by halving alone, so the common-root test
    (_same_root) runs once, and late: as soon as one root is exact inside
    the other's bracket (one sign), else only if the brackets still overlap
    once the wider is at most epsilon wide (a gcd).  A bracket is halved only
    while it is wider than epsilon or while the test has said no, so a
    common root is never enclosed more narrowly than endpoint(epsilon) would.
    """
    if a is b:
        return 0
    tested = False
    while a.hi > b.lo and b.hi > a.lo:
        wide, narrow = (a, b) if a.hi - a.lo >= b.hi - b.lo else (b, a)
        if not tested and (narrow.lo == narrow.hi or wide.hi - wide.lo <= epsilon):
            if _same_root(a, b):
                return 0
            tested = True
        wide.halve()
    if a.hi <= b.lo:
        return 0 if a.lo == b.hi else -1  # 0: both exact, at one point
    return 1


def _negative_set(q):
    """The open set {rho in [0,1]: q(rho) < 0} as (left, right) root pairs.

    q(1) > 0, so every interval ends at a root in (0,1); the first may start
    at 0, and then also covers 0 itself exactly when q(0) < 0.  A root where q
    touches 0 from below separates two intervals, as it is a tie.
    """
    j = next(i for i, c in enumerate(q) if c)
    core = q[j:]  # same sign as q on (0,1], and core(0) != 0
    sf, roots = rt._unit_roots(core)
    out = []
    left = _Root(None, Fraction(0), Fraction(0))
    for lo, hi in roots:
        right = _Root(sf, lo, hi)
        gap = (left.hi + right.lo) / 2 if left.hi < right.lo else left.hi
        if rt.sign_at(core, gap) < 0:
            out.append((left, right))
        left = right
    return out


def _region(n, polys, epsilon):
    """SP region of an n-variable function, and the negative set of each of
    its distinct point polynomials.

    The region is [0,1] minus the union of the negative sets.  One pass over
    the negative intervals, sorted by left end, emits the closed gaps between
    them; a left end equal to the reach so far leaves the single point [r, r].
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidArgument("epsilon must be positive")
    if any(sum(q) != 1 << n for q, *_ in polys):
        raise AssertionError("point polynomial must equal 2^n at rho=1")
    negative = [_negative_set(q) for q, *_ in polys]
    union = sorted(
        (iv for ivs in negative for iv in ivs),
        key=cmp_to_key(lambda s, t: _compare(s[0], t[0], epsilon)),
    )
    reach = _Root(None, Fraction(0), Fraction(0))
    reach_in = all(q[0] >= 0 for q, *_ in polys)
    intervals = []
    for left, right in union:
        order = _compare(left, reach, epsilon)
        if order > 0 or (order == 0 and reach_in):
            lo = reach.endpoint(epsilon)
            hi = lo if order == 0 else left.endpoint(epsilon)
            intervals.append(SpInterval(lo, hi, True, True))
        if order >= 0 or _compare(right, reach, epsilon) > 0:
            reach, reach_in = right, True
    one = Endpoint("exact", value=Fraction(1))
    intervals.append(SpInterval(reach.endpoint(epsilon), one, True, True))
    return SpRegion(n, epsilon, tuple(intervals)), negative


def sp_region(f, epsilon=DEFAULT_EPSILON):
    """Exact SP region {rho in [0,1]: f is rho-SP} as closed intervals.

    Interval endpoints are exact rationals where a root lands on one, else
    enclosures of width <= epsilon.  Degenerate single-point components
    (e.g. {0} for every balanced function) are reported as [x, x].
    """
    return _region(f.n, _distinct_point_polys(f), epsilon)[0]


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class SpClassification:
    usp: bool
    lcsp: bool
    wst: bool
    sst: bool
    monotonically_sp: bool
    rho0: Endpoint  # threshold when monotonically_sp, else None
    lev: int  # lowest nonzero Fourier level (k >= 0)
    lev_zero_count: int  # inputs where the level-lev part vanishes
    region: SpRegion
    witnesses: dict = field(default_factory=dict)


def _level_flags(classes):
    """(lev, lev_zero_count, witnesses) read off the classes (row, rep, size)
    of _distinct_point_polys.  lev is the least first-nonzero index over the
    rows; column lev (0 past a row's end) is f(v) 2^n times the level-lev part
    of f at v.  The witness of "lcsp" (a row's first nonzero entry < 0), "wst"
    (column lev < 0) and "lev_zero" (column lev == 0) is the least
    representative of the classes that fail it."""
    lead = [next(k for k, c in enumerate(q) if c) for q, _, _ in classes]
    lev = min(lead)
    col = [q[lev] if lev < len(q) else 0 for q, _, _ in classes]
    failing = {
        "lcsp": [rep for (q, rep, _), k in zip(classes, lead) if q[k] < 0],
        "wst": [rep for (_, rep, _), c in zip(classes, col) if c < 0],
        "lev_zero": [rep for (_, rep, _), c in zip(classes, col) if c == 0],
    }
    zero_count = sum(size for (_, _, size), c in zip(classes, col) if c == 0)
    return lev, zero_count, {key: min(reps) for key, reps in failing.items() if reps}


def classify(f, epsilon=DEFAULT_EPSILON):
    """Full SP taxonomy of f.

    The distinct point polynomials are built once.  One sweep over their
    negative sets gives the region and usp (no polynomial is ever negative;
    the witness is the representative of the first one that is), and every
    other per-point flag is read off their rows (_level_flags).
    monotonically_sp means the region, ignoring the degenerate {0} component
    every balanced function has, is a single interval reaching 1; rho0 is
    then its left endpoint.
    """
    polys = _distinct_point_polys(f)
    region, negative = _region(f.n, polys, epsilon)
    witnesses = {}
    failing = next((rep for (_, rep, _), ivs in zip(polys, negative) if ivs), None)
    if failing is not None:
        witnesses["usp"] = failing
    lev, zero_count, flags = _level_flags(polys)
    witnesses.update(flags)
    wst = "wst" not in flags
    solid = [
        iv
        for iv in region.intervals
        if not (iv.hi.kind == "exact" and iv.hi.value == 0)
    ]
    monotone_sp = len(solid) == 1 and (
        solid[0].hi.kind == "exact" and solid[0].hi.value == 1
    )
    rho0 = solid[0].lo if monotone_sp else None
    return SpClassification(
        failing is None, "lcsp" not in flags, wst, wst and zero_count == 0,
        monotone_sp, rho0, lev, zero_count, region, witnesses,
    )


# ---------------------------------------------------------------------------
# sufficient thresholds


@dataclass(frozen=True)
class SufficientThresholds:
    no_flip: Endpoint  # universal: SP for rho above 2^((n-1)/n) - 1
    degree_bound: Fraction  # SP for rho above 1 - 1/(Deg*min(Deg, spectral norm))
    sparsity_bound: Endpoint  # SP for rho above the root of sum rho^|S| = s-1


def _isolated_single_root(poly, epsilon):
    sf, roots = rt._unit_roots(poly)
    if not roots:
        return Endpoint("exact", value=Fraction(0))
    if len(roots) != 1:
        raise AssertionError("threshold polynomial must have a single root")
    return _endpoint(*rt.refine_root(sf, *roots[0], epsilon))


def sufficient_thresholds(f, epsilon=DEFAULT_EPSILON):
    n = f.n
    noflip_poly = rt.trim(
        tuple((comb(n, k) if k else 1 - (1 << (n - 1))) for k in range(n + 1))
    )
    no_flip = (
        Endpoint("exact", value=Fraction(0))
        if n == 1
        else _isolated_single_root(noflip_poly, epsilon)
    )

    coeffs = wht(f).coeffs
    support_counts = np.bincount(popcounts(n)[coeffs != 0], minlength=n + 1).tolist()
    d = max(k for k, c in enumerate(support_counts) if c)
    if d == 0:
        degree_bound = Fraction(0)
    else:
        spectral_norm = Fraction(int(np.abs(coeffs).sum()), 1 << n)
        degree_bound = 1 - 1 / (d * min(Fraction(d), spectral_norm))

    sparsity_poly = list(support_counts)
    sparsity_poly[0] -= sum(support_counts) - 1
    sparsity_poly = rt.trim(tuple(sparsity_poly))
    if not sparsity_poly or sparsity_poly[0] >= 0:
        sparsity_bound = Endpoint("exact", value=Fraction(0))
    else:
        sparsity_bound = _isolated_single_root(sparsity_poly, epsilon)
    return SufficientThresholds(no_flip, degree_bound, sparsity_bound)


# ---------------------------------------------------------------------------
# necessary conditions


def _exp_minus2_enclosure():
    """Rational lo < e^-2 < hi with width far below 1e-30."""
    terms = 41
    partial = sum(Fraction(1 << j, factorial(j)) for j in range(terms))
    # tail of e^2 is below first_term / (1 - 2/(terms+1))
    tail = Fraction(1 << terms, factorial(terms)) * Fraction(terms + 1, terms - 1)
    return 1 / (partial + tail), 1 / partial


@dataclass(frozen=True)
class NecessaryChecks:
    rho: Fraction
    basic_ok: bool  # Stab_rho >= max_S rho^|S| |fhat_S|
    hyper_ok: bool  # Stab_rho^2 >= e^(-2 Deg) Stab_(rho^2); None = indeterminate
    stab: Fraction
    max_term: Fraction
    hyper_rhs_lo: Fraction
    hyper_rhs_hi: Fraction


def necessary_checks(f, rho):
    rho = check_rho(rho)
    stab = stability(f, rho)
    peaks = np.zeros(f.n + 1, dtype=np.int64)
    np.maximum.at(peaks, popcounts(f.n), np.abs(wht(f).coeffs))
    max_term = max(rho**k * Fraction(m, 1 << f.n) for k, m in enumerate(peaks.tolist()))
    basic_ok = stab >= max_term

    d = int(np.flatnonzero(peaks).max())
    stab2 = stability(f, rho * rho)
    if d == 0:
        lo = hi = Fraction(1)
    else:
        e_lo, e_hi = _exp_minus2_enclosure()
        lo, hi = e_lo**d, e_hi**d
    lhs = stab * stab
    if lhs >= hi * stab2:
        hyper_ok = True
    elif lhs < lo * stab2:
        hyper_ok = False
    else:
        hyper_ok = None
    return NecessaryChecks(rho, basic_ok, hyper_ok, stab, max_term, lo * stab2, hi * stab2)


# ---------------------------------------------------------------------------
# LTF approximation and ratio/chow-gap bounds


@dataclass(frozen=True)
class LtfApproximation:
    g: LtfSpec
    distance: Fraction  # Dist(f, sgn of perturbed level-1 form)
    sperner_cap: Fraction  # C(m, m//2) / 2^m over the m active coordinates
    bound: Fraction  # certified rational lower bound of sqrt(2/(pi*m))
    zero_set_size: int


_PI_LO = Fraction(3141592653589793, 10**15)
_PI_HI = Fraction(3141592653589794, 10**15)


def _sqrt_lower(x):
    """Rational r >= 0 with r^2 <= x, within ~1e-12 of sqrt(x)."""
    r = Fraction(int(sqrt(float(x)) * 10**12), 10**12)
    while r * r > x:
        r -= Fraction(1, 10**12)
    return max(r, Fraction(0))


def ltf_approximation(f):
    """Best-effort LTF from the level-1 coefficients, with exact distance.

    The base weights are the scaled level-1 Fourier coefficients; on the
    zero set of the level-1 form the sign is decided by a small integer
    perturbation fitted to f there (falling back to a plain offset when the
    fit cannot match).  Distance bounds target functions whose sign agrees
    with the level-1 form off its zero set.
    """
    coeffs = wht(f).coeffs
    w = [int(coeffs[1 << i]) for i in range(f.n)]
    m = sum(1 for c in w if c)
    if m == 0:
        raise InvalidArgument("level-1 spectrum vanishes; no LTF direction")
    zero_set = np.flatnonzero(linear_values(0, w) == 0)
    # perturbation: restricted Chow fit on the zero set, plus an offset shift
    d = [0] * f.n
    d0 = 0
    for v in zero_set.tolist():
        fv = f.value_at(v)
        d0 += fv
        for j in range(f.n):
            d[j] += -fv if (v >> j) & 1 else fv
    for shift in _offset_candidates():
        if all(
            _dot_point(d, v) + d0 + shift != 0 for v in zero_set.tolist()
        ):
            d0 += shift
            break
    k_scale = sum(abs(c) for c in d) + abs(d0) + 1
    spec = LtfSpec(d0, tuple(k_scale * wi + di for wi, di in zip(w, d)))
    g = construct_ltf(spec)
    distance = Fraction(int(np.count_nonzero(g.values != f.values)), 1 << f.n)
    cap = Fraction(comb(m, m // 2), 1 << m)
    bound = _sqrt_lower(2 / (_PI_HI * m))
    return LtfApproximation(spec, distance, cap, bound, len(zero_set))


def _offset_candidates():
    yield 0
    step = 1
    while True:
        yield step
        yield -step
        step += 1


def _dot_point(d, v):
    return sum(-dj if (v >> j) & 1 else dj for j, dj in enumerate(d))


@dataclass(frozen=True)
class LtfRatioCheck:
    ratio: float  # largest |a_i| over second largest (rendering only)
    bound: float  # sqrt(2 n ln(2n)) + 1 (rendering only)
    violates: bool  # ratio >= bound, decided exactly (then the LTF cannot be LCSP)


def _ln_enclosure(m, terms):
    """Rational lo < ln(m) < hi for an integer m >= 2.

    ln x = 2 atanh((x-1)/(x+1)) = 2 sum_k y^(2k+1)/(2k+1), summed to terms
    terms for x = 2 and for x = m/2^e in [1, 2), so y <= 1/3.  The tail after
    the last term is below 2 y^(2 terms+1) / ((2 terms+1)(1 - y^2)).
    """

    def two_atanh(x):
        y = (x - 1) / (x + 1)
        head = 2 * sum(y ** (2 * k + 1) / (2 * k + 1) for k in range(terms))
        return head, head + 2 * y ** (2 * terms + 1) / ((2 * terms + 1) * (1 - y * y))

    e = m.bit_length() - 1
    lo2, hi2 = two_atanh(Fraction(2))
    lo, hi = two_atanh(Fraction(m, 1 << e))
    return e * lo2 + lo, e * hi2 + hi


def _at_least_ln(x, m):
    """Is the rational x >= ln(m), for an integer m >= 2?  ln(m) is
    irrational, so x != ln(m) and refining the enclosure always decides."""
    terms = 8
    while True:
        lo, hi = _ln_enclosure(m, terms)
        if x >= hi or x <= lo:
            return x >= hi
        terms *= 2


def ltf_ratio_check(spec, cap=None):
    n = len(spec.a)
    if n < 2:
        raise PreconditionError("ratio needs at least two coefficients")
    if any(c == 0 for c in spec.a):
        raise PreconditionError("LTF must depend on all variables: zero coefficient")
    g = construct_ltf(spec, cap=cap)
    infl = influences(g)
    dead = [i + 1 for i, x in enumerate(infl) if x == 0]
    if dead:
        raise PreconditionError(f"LTF does not depend on coordinates {dead}")
    mags = sorted((abs(c) for c in spec.a), reverse=True)
    ratio = Fraction(mags[0], mags[1])
    # ratio >= sqrt(2n ln 2n) + 1  <=>  ratio >= 1 and (ratio-1)^2 >= 2n ln 2n
    violates = ratio >= 1 and _at_least_ln((ratio - 1) ** 2 / (2 * n), 2 * n)
    bound = sqrt(2 * n * log(2 * n)) + 1
    return LtfRatioCheck(float(ratio), bound, violates)


@dataclass(frozen=True)
class ChowGapBound:
    distance: Fraction  # Dist(f, g)
    chow_sq: Fraction  # squared level-<=1 coefficient distance
    gap: Fraction  # Gap of f
    bound: Fraction  # chow_sq / (2 gap)
    ok: bool  # distance <= bound (exact)


def chow_gap_bound(f, g):
    """Distance bound Dist(f,g) <= d_chow^2 / (2 Gap[f]).

    Preconditions (all reported together on failure): f and g balanced, f
    SST, g LCSP, both fully dependent, Gap[f] > 0.
    """
    failures = []
    if not properties(f).balanced:
        failures.append("f is not balanced")
    if not properties(g).balanced:
        failures.append("g is not balanced")
    if {"wst", "lev_zero"} & _level_flags(_distinct_point_polys(f))[2].keys():
        failures.append("f is not SST")
    if "lcsp" in _level_flags(_distinct_point_polys(g))[2]:
        failures.append("g is not LCSP")
    if any(x == 0 for x in influences(f)):
        failures.append("f does not depend on all variables")
    if any(x == 0 for x in influences(g)):
        failures.append("g does not depend on all variables")
    gap = _level1_gap(f)
    if gap == 0:
        failures.append("Gap[f] is zero")
    if failures:
        raise PreconditionError("; ".join(failures))
    d2 = chow_distance(f, g)
    distance = Fraction(int(np.count_nonzero(f.values != g.values)), 1 << f.n)
    bound = d2 / (2 * gap)
    return ChowGapBound(distance, d2, gap, bound, distance <= bound)
