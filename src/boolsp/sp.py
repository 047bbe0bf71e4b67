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
and its coefficients are products of binary Krawtchouk polynomials: one
graded transform along each block axis over prod (|B_i| + 1) orbits instead
of butterflies over 2^n points, with the level as a trailing axis it never
mixes, so one pass gives every level.  A block of one coordinate is one
butterfly stage, so a function without symmetry runs the n stages of the
plain butterfly once for all n + 1 levels.  Majority n=21 has 22 orbits;
edic n=18 has 2 * 18 = 36.

The region comes from one left-to-right walk over the dyadic cells of
[0,1] (_Walk), carrying each distinct q_v's Bernstein coefficients on the
cell.  A class with no sign variation there has one sign: a negative one
puts the cell outside the region, a positive one drops the class, and a
cell with no class left is inside.  Other cells are split (de Casteljau,
whose midpoint value finds exact dyadic roots) down to the depth D with
2^-D <= epsilon, where a cell holding one simple root per class is a leaf
and encloses them.  Below D a cell is split only to order a rising and a
falling root; one gcd settles a common one.  One int64 matmul gives every
class's Bernstein row on [0,1], and a row with no negative entry is
positive on (0,1]: such a class never enters.  The walk carries every other
class.  A cell carries one part of rows for all its classes.  It starts
as int64 rows, exact while a bound checked at each split shows that they
fit, and past it lower and upper bounds of the exact rows
(roots._split_bounds), which decide a sign only where they prove it.
Where the bounds leave a decision open, the whole cell takes its exact
rows in Python ints, and its subtree keeps them; every cell does at depth
D, so zero coefficients, touching roots and common roots are all decided
exactly.  Everything is decided with integer arithmetic; no float is
involved.

The same classes, with their sizes, give classify's other flags with no
pass over 2^n points: column k of q_v is f(v) 2^n times the level-k part of
f at v (lowest nonzero level, WST, SST), and LCSP reads each row's first
nonzero entry.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import count
from math import comb, factorial, isqrt, log, sqrt
from typing import NamedTuple

import numpy as np

from . import roots as rt
from .errors import CapacityError, InvalidArgument, PreconditionError
from .functions import (
    LtfSpec,
    construct_ltf,
    linear_values,
    properties,
)
from .noise import _rho_weights, _sign_stream, check_rho, disagreement, stability
from .spectrum import (
    _by_level,
    chow_distance,
    influences,
    wht,
)

DEFAULT_EPSILON = Fraction(1, 10**9)


def sp_polynomial(f, v):
    """Coefficients (c_0..c_n) of 2^n T_rho f(v) as a polynomial in rho:
    c_k sums the scaled coefficients 2^n fhat_S * chi_S(v) over |S| = k."""
    f.value_at(v)  # InvalidArgument unless v indexes a point
    chi = np.where(np.bitwise_count(np.arange(1 << f.n) & v) & 1, -1, 1)  # chi_S(v)
    return tuple(_by_level(wht(f).coeffs * chi).tolist())


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
    idx = np.flatnonzero(disagreement(f.values, _sign_stream((f, rho)).signs))
    if len(idx):
        return SpDecision(False, int(idx[0]))
    return SpDecision(True, None)


def _coordinate_blocks(f):
    """Blocks of interchangeable coordinates of f, and their negation mask.

    Coordinates i < j are interchangeable when f is invariant under swapping
    x_i and x_j, plainly or with both negated.  Either map is a signed
    transposition, and the conjugate of one by another is again one, so
    interchangeability is an equivalence and j need only be tried against
    one member of each block found so far.  That member is the block's
    newest, i = block[-1]: the compared views have inner runs of 2^i
    entries, so trying j against j - 1 reads runs of 2^(j-1), where the
    least coordinate would give runs of one or two entries for most j.  A
    plain swap keeps 2^n fhat_{i} = 2^n fhat_{j} and a negated one flips
    its sign, so only a pair whose level-1 coefficients agree (up to that
    sign) is compared: one equality of two table views, no index arrays.

    Returns (blocks, mask): coordinate lists by least member (root), each
    ascending, and bit j of mask set when x_j swaps with its root negated.
    Composing the swaps of j with i and of i with the root, that is bit i
    of mask XOR whether j swaps with i negated.  (A plain swap is tried
    first, so bit j is clear exactly when x_j swaps plainly with its root.)
    Then g(u) = f(u ^ mask) is invariant under every permutation within a
    block, so f's point polynomial at v depends only on the per-block
    weights of v ^ mask.
    """
    values = f.values
    level1 = wht(f).coeffs[1 << np.arange(f.n)].tolist()
    blocks, mask = [], 0
    for j in range(f.n):
        for block in blocks:
            i = block[-1]
            view = values.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)
            if level1[i] == level1[j] and np.array_equal(
                view[:, 0, :, 1], view[:, 1, :, 0]
            ):
                negated = 0
            elif level1[i] == -level1[j] and np.array_equal(
                view[:, 0, :, 0], view[:, 1, :, 1]
            ):
                negated = 1
            else:
                continue
            block.append(j)
            mask |= ((mask >> i & 1) ^ negated) << j
            break
        else:
            blocks.append([j])
    return blocks, mask


def _krawtchouk_transform(mat, sizes):
    """The (orbits, width) matrix mat transformed along every block axis of
    its orbit index (block 0 is the last, fastest axis) by the block's binary
    Krawtchouk matrix, each of its width columns on its own: entry k of the
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
    butterfly: entries a0 + a1 and a0 - a1.  The columns ride along as the
    innermost axis, so one pass of sum |B_i| steps transforms all of them.

    As in spectrum._butterfly, each step writes into a spare buffer and the
    two then swap roles, so the work holds two buffers whatever the number of
    steps.  A buffer grows only when a step's state outgrows it: within a
    block of size b the state peaks at about (b/2 + 1)^2 / (b + 1) times the
    matrix, which for singleton blocks is the matrix itself.  The argument
    is consumed: the caller must own it, and only the returned matrix is
    the transform."""
    orbits, width = mat.shape
    total = orbits * width
    src = mat.ravel()
    spare = np.empty_like(src)
    inner = width
    for b in sizes:
        state = src[:total].reshape(-1, 1, b + 1, inner)
        for t in range(b):
            need = len(state) * (t + 2) * (b - t) * inner
            if spare.size < need:
                spare = np.empty(need, dtype=np.int64)
            step = spare[:need].reshape(len(state), t + 2, b - t, inner)
            np.add(state[:, :, :-1], state[:, :, 1:], out=step[:, :-1])
            np.subtract(state[:, -1:, :-1], state[:, -1:, 1:], out=step[:, -1:])
            src, spare, state = spare, src, step
        inner *= b + 1
    return src[:total].reshape(orbits, width)


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
    (rows, reps, sizes): the int64 matrix of the rows (one column per level
    0..n, high zeros kept), each class's least point v as representative and
    the number of points that have it, in np.unique(rows, axis=0) order.

    The work runs over orbits of f's coordinate-block symmetry, not over the
    2^n points (_coordinate_blocks).  With g(u) = f(u ^ mask), invariant under
    permutations within each block, the signed point polynomial of an orbit
    with per-block weights (w_1..w_m) has level-k coefficient

        g(orbit) * sum over (k_1..k_m), sum k_i = k, of
                   ghat(k_1..k_m) * prod_i K_i[k_i, w_i],

    K_i the binary Krawtchouk matrix of block i (_krawtchouk_transform) and
    ghat(k_1..k_m) = 2^n fhat_S * chi_S(mask) at one S with k_i coordinates
    in block i (its least ones).  So the whole coefficient matrix is one
    transform along each block axis, over prod (|B_i| + 1) orbits, of the
    (orbits, n + 1) matrix whose row o holds that dual entry in the column
    of its level |S| and zeros elsewhere: the level axis rides along, and
    each column ends up the level-k coefficients.  A function with no
    symmetry has n singleton blocks, 2^n orbits indexed by the points
    themselves, and the n butterfly stages of the plain transform, run once
    for all levels.

    An exact partition refinement then reads the finished matrix one column
    at a time, k = 0..n.  A class of one orbit can never split, so only the
    orbits of classes that still hold several (open_) are read: each carries
    the int64 label of its class so far, and column k splits the classes by
    the signed column col through the key label * span + (col - min col),
    with span = max col - min col + 1 over those orbits.  The key is
    injective on (label, col) pairs, so after the last column two orbits
    share a class exactly when their whole signed rows agree; no hashing, no
    collisions.  Sorting the keys groups the new classes in (label, col)
    order, and a new class's label is its rank there plus the number of
    one-orbit classes with a smaller label, which keep their places.  So by
    induction the labels follow the lexicographic order of the rows read so
    far, and the final classes come out in np.unique(axis=0) order.  For
    random functions of 9 to 17 variables nearly every class is one orbit
    after three columns, so the fourth and fifth sort a few thousand keys,
    and the refinement stops once no class holds two orbits; the rows are
    one gather of an orbit of each class.  A class's representative is
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
    parity = (np.bitwise_count(subsets & mask) & 1).astype(np.int64)
    mat = np.zeros((len(subsets), f.n + 1), dtype=np.int64)
    mat[np.arange(len(subsets)), np.bitwise_count(subsets)] = (
        wht(f).coeffs[subsets] * (1 - 2 * parity)
    )
    del subsets, parity  # not held through the transform
    mat = _krawtchouk_transform(mat, sizes)
    mat *= f.values[least][:, None]
    first = np.zeros(1, dtype=np.int64)  # before column 0: one class of every orbit
    open_ = np.arange(len(mat))  # the orbits of classes that still hold several
    parent = np.zeros(len(mat), dtype=np.int64)  # the class of each orbit of open_
    for k in range(f.n + 1):
        if not len(open_):  # every class is one orbit: none can split
            break
        col = mat[open_, k]
        low = int(col.min())
        span = int(col.max()) - low + 1
        if len(first) * span >= 1 << 63:
            raise CapacityError(
                f"level {k} of n={f.n}: point polynomial keys would overflow int64"
            )
        col -= low  # the key in place: each partial sum is below count * span
        col += parent * span
        order = col.argsort()
        open_, col, parent = open_[order], col[order], parent[order]
        head = np.empty(len(col) + 1, dtype=bool)  # where a new class starts
        head[0] = head[-1] = True
        np.not_equal(col[1:], col[:-1], out=head[1:-1])
        start = head[:-1]
        grow = np.bincount(parent[start], minlength=len(first))  # new classes per class
        single = grow == 0
        grow += single  # a class of one orbit keeps one label
        first = first.repeat(grow)
        new = start.cumsum() - 1 + (single.cumsum() - single)[parent]
        first[new] = open_
        keep = ~(start & head[1:])  # the orbits of classes of two or more
        open_, parent = open_[keep], new[keep]
        del grow, single  # one entry per class: not held through the gather below
    labels = np.empty(len(mat), dtype=np.int64)
    labels[first] = np.arange(len(first))
    labels[open_] = parent
    rows = mat[first]
    del mat  # before the per-class lists, which hold Python ints
    reps = np.full(len(rows), 1 << f.n, dtype=np.int64)
    np.minimum.at(reps, labels, least)
    members = np.zeros(len(rows), dtype=np.int64)
    np.add.at(members, labels, counts)
    return rows, reps.tolist(), members.tolist()


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


def _exact(a, k):
    return Endpoint("exact", value=Fraction(a, 1 << k))


def _cell(a, k):
    return Endpoint("enclosure", lo=Fraction(a, 1 << k), hi=Fraction(a + 1, 1 << k))


def _depth(epsilon):
    """The least D >= 0 with 2^-D <= epsilon: cells of depth D enclose roots."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InvalidArgument("epsilon must be positive")
    return (-(-epsilon.denominator // epsilon.numerator) - 1).bit_length()


def _live_rows(rows):
    """The classes that can be negative somewhere on [0,1].

    rows is the (m, d+1) integer matrix of point polynomials, each positive
    at 1.  A class whose scaled Bernstein row (roots._scaled_bernstein) has no
    negative entry has no sign variation: it is positive on (0,1] and
    nonnegative at 0, so it leaves at once.
    """
    if not (rows.sum(axis=1) > 0).all():
        raise AssertionError("point polynomial must be positive at rho=1")
    sb = rt._scaled_bernstein(rows)
    index = np.flatnonzero((sb < 0).any(axis=1))
    return _Live(rows, index.tolist(), sb[index])


class _Live(NamedTuple):
    rows: np.ndarray  # every point polynomial, one per row
    index: list  # the rows that can be negative somewhere, ascending
    sb: np.ndarray  # their scaled Bernstein rows on [0,1]


class _Walk:
    """The SP region as one left-to-right walk over the dyadic cells of [0,1].

    A cell (a, k), the open interval (a/2^k, (a+1)/2^k), carries the classes
    that may still change sign in it as one part: their ids and two matrices
    of rows of Bernstein coefficients on the cell.  The part starts as int64
    bounds (ids, lo, hi) of the exact rows: the exact rows themselves (hi is
    lo) while a bound checked at each split shows that they fit, and past it
    a lower and an upper row (roots._split_bounds).  Where the bounds leave
    open a decision the walk needs (the sign at a midpoint, the one-class
    shortcut, or reaching depth D), every class of the cell takes its exact
    row in Python ints (exact), and the cell's whole subtree keeps them.
    From depth D on the part is (ids, Q, S): Q of the point polynomials, and
    S of those whose roots are counted, Q itself unless some class took its
    square-free part (red).  A class negative on the whole cell (its upper
    row <= 0) puts the cell outside the region (one vectorised test over all
    rows, so their order costs nothing); a positive one (lower row >= 0)
    leaves.  A midpoint is in the region when every class is >= 0 there.

    From depth D on, a cell is a leaf once every class has one simple root
    in it.  A class is rising when negative just right of the left end,
    falling when negative just left of the right end (both, where q touches
    0 from below).  The region meets the cell in [max rising root, min
    falling root], so a cell with both kinds is split until they part, or
    until one gcd shows they all share one root: a single-point component.
    A class whose count stays >= 2 at depth D takes its square-free part.

    Class i is row i of live (_live_rows), and start is the left end of the
    component the walk is in, or None.
    """

    def __init__(self, live, depth):
        self.live, self.depth = live, depth
        self.square_free = {}  # class -> its square-free part, once taken
        self.start = None
        self.intervals = []

    def poly(self, i):
        """Class i as a trimmed coefficient tuple."""
        return rt.trim(tuple(self.live.rows[self.live.index[i]].tolist()))

    def exact(self, part, a, k):
        """The bounds part on the cell (a, k) as exact rows in Python ints:
        its own rows where they are exact (hi is lo), else every class's row
        on [0,1] taken down to the cell."""
        ids, lo, hi = part
        rows = lo.astype(object) if hi is lo else rt._descend(rt._bernstein(self.live.sb[ids]), a, k)
        return ids, rows, rows

    def leave(self, end):
        if self.start is not None:
            self.intervals.append(SpInterval(self.start, end, True, True))
            self.start = None

    def run(self, part, zero):
        """The region's intervals over the classes of live in part (a slice)
        and whether 0 is in the region."""
        if zero:
            self.start = _exact(0, 0)
        ids = np.arange(*part.indices(len(self.live.index)))
        stack = [(0, 0, (ids, *rt._bernstein_bounds(self.live.sb[part])), frozenset(), frozenset())]
        while stack:
            a, k, part, red, tested = stack.pop()
            if part is None:  # a midpoint inside the region
                if self.start is None:
                    self.start = _exact(a, k)
                continue
            negative, part = _settle(part)
            if k >= self.depth and part is not None and part[1].dtype != object:
                negative, part = _settle(self.exact(part, a, k))  # leaves decide on exact rows
            if negative:
                self.leave(_exact(a, k))
                continue
            if part is None:
                continue
            # One class with one simple root: a sign per level (_bisect) gives
            # the same end as splitting its row down to depth D, for less.
            if k < self.depth and len(part[0]) == 1:
                if not rt._decided(part[1], part[2]).all():
                    part = self.exact(part, a, k)
                ids, rows, _ = part
                if rt._variations(rows[0]) == 1:
                    rising = rt._first(rows[0]) < 0
                    end = _bisect(self.poly(ids[0]), a, k, self.depth, rising)
                    if rising:
                        self.leave(_exact(a, k))
                        self.start = end
                    else:
                        self.leave(end)
                    continue
            if k >= self.depth:
                ids, Q, S = part
                split = self.leaf(a, k, ids, Q, S, red, tested)
                if split is None:
                    continue
                S, red, tested = split
                part = ids, Q, S
            stack += self.split(a, k, part, red, tested)
        self.leave(_exact(1, 0))
        return tuple(self.intervals)

    def split(self, a, k, part, red, tested):
        """The halves of the cell (a, k) to walk, right first, with the
        midpoint between them where it is in the region.  Bounds that prove
        no class negative at the midpoint and not every class >= 0 there
        give way to the cell's exact rows."""
        ids, lo, hi = part
        if lo.dtype != object:
            (loL, hiL), (loR, hiR) = rt._split_bounds(lo, hi)
            inside = bool((loL[:, -1] >= 0).all())
            if not inside and (hiL[:, -1] >= 0).all():
                ids, lo, hi = self.exact(part, a, k)
        if lo.dtype == object:
            loL, loR = rt._split(lo)
            hiL, hiR = (loL, loR) if hi is lo else rt._split(hi)
            inside = bool((loL[:, -1] >= 0).all())
        mid = [(2 * a + 1, k + 1, None, None, None)] if inside else []
        return [(2 * a + 1, k + 1, (ids, loR, hiR), red, tested), *mid,
                (2 * a, k + 1, (ids, loL, hiL), red, tested)]

    def leaf(self, a, k, ids, Q, S, red, tested):
        """Settle a cell of depth >= D, or return (S, red, tested) for its
        split: tested holds the classes whose common root was ruled out."""
        ids = ids.tolist()
        for r in np.flatnonzero(rt._variations(S) > 1).tolist():
            i = ids[r]
            if i in red:
                continue
            if i not in self.square_free:
                self.square_free[i] = rt._square_free(self.poly(i))
            sf = self.square_free[i]
            if len(sf) < len(self.poly(i)):
                S = S.copy() if S is Q else S
                S[r] = rt._descend(rt._unit_bernstein(sf, S.shape[1] - 1), a, k)
                red = red | {i}
        if (rt._variations(S) > 1).any():
            return S, red, tested
        rising = {i for i, q in zip(ids, Q) if rt._first(q) < 0}
        falling = {i for i, q in zip(ids, Q) if rt._last(q) < 0}
        if rising and falling:
            group = rising | falling
            if len(group) > 1 and (group == tested or not self.common_root(group, a, k)):
                return S, red, group
            self.leave(_exact(a, k))
            self.intervals.append(SpInterval(_cell(a, k), _cell(a, k), True, True))
        elif rising:
            self.leave(_exact(a, k))
            self.start = _cell(a, k)
        elif falling:
            self.leave(_cell(a, k))
        return None

    def common_root(self, group, a, k):
        """Do all classes of group share one root in the cell?  Each counted
        polynomial has exactly one simple root there, so their gcd g has at
        most one, simple, and has it exactly when g changes sign over the
        cell (the signs just inside its ends)."""
        g, *rest = [self.square_free.get(i) or self.poly(i) for i in sorted(group)]
        for p in rest:
            g = rt.poly_gcd(g, p)
            if len(g) < 2:
                return False
        b = rt._descend(rt._unit_bernstein(g, self.live.sb.shape[1] - 1), a, k)
        return (rt._first(b) > 0) != (rt._last(b) > 0)


def _select(part, keep):
    """The classes of a part (ids, rows, rows') that keep marks, None if none;
    the two row matrices stay one object where they were."""
    if not keep.any():
        return None
    if keep.all():
        return part
    ids, first, second = part
    rows = first[keep]
    return ids[keep], rows, rows if second is first else second[keep]


def _settle(part):
    """(negative, rest) for a cell's part: negative when a class is proven
    negative on the cell, else rest holds the classes that may still change
    sign there.  Bounds (ids, lo, hi) prove a class negative when its upper
    row is <= 0 and positive when its lower row is >= 0; exact rows are the
    case lo = hi.  Once a class counts its roots on a square-free row
    ((ids, Q, S), S not Q), a class whose row in S has one sign has no root
    in the cell, and it is negative there when the first nonzero entry of
    its row in Q is."""
    _, lo, hi = part
    if hi is lo or lo.dtype != object:
        negative, rest = hi.max(axis=1) <= 0, lo.min(axis=1) < 0
    else:
        settled = (hi.min(axis=1) >= 0) | (hi.max(axis=1) <= 0)
        negative, rest = settled & (_first_col(lo) < 0), ~settled
    if negative.any():
        return True, None
    return False, _select(part, rest)


def _bisect(poly, a, k, depth, rising):
    """The one root of poly in the cell (a, k), a simple one where poly turns
    positive if rising (else negative): halve the cell by the sign at its
    midpoint down to the given depth, unless a midpoint is the root."""
    while k < depth:
        mid = rt.eval_scaled(poly, 2 * a + 1, 1 << (k + 1))
        if mid == 0:
            return _exact(2 * a + 1, k + 1)
        a, k = 2 * a + ((mid < 0) == rising), k + 1
    return _cell(a, k)


def _first_col(Q):
    """Each row's first nonzero entry."""
    return Q[np.arange(len(Q)), (Q != 0).argmax(axis=1)]


def _region(n, live, epsilon):
    """SP region of an n-variable function from the _live_rows of its
    distinct point polynomials: [0,1] minus the union of their negative sets,
    as closed intervals; 0 is in it exactly when no class is negative there."""
    zero = bool((live.sb[:, 0] >= 0).all())
    return SpRegion(n, Fraction(epsilon), _Walk(live, _depth(epsilon)).run(slice(None), zero))


def sp_region(f, epsilon=DEFAULT_EPSILON):
    """Exact SP region {rho in [0,1]: f is rho-SP} as closed intervals.

    Interval endpoints are exact rationals where a root lands on one, else
    enclosures of width <= epsilon.  Degenerate single-point components
    (e.g. {0} for every balanced function) are reported as [x, x].
    """
    return _region(f.n, _live_rows(_distinct_point_polys(f)[0]), epsilon)


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


def _level_flags(rows, reps, sizes):
    """(lev, lev_zero_count, witnesses) read off the classes of
    _distinct_point_polys.  lev is the least first-nonzero index over the
    rows; column lev is f(v) 2^n times the level-lev part of f at v.  The
    witness of "lcsp" (a row's first nonzero entry < 0), "wst" (column lev
    < 0) and "lev_zero" (column lev == 0) is the least representative of the
    classes that fail it."""
    lead = (rows != 0).argmax(axis=1)
    lev = int(lead.min())
    col = rows[:, lev]
    reps = np.array(reps)
    failing = {
        "lcsp": rows[np.arange(len(rows)), lead] < 0,
        "wst": col < 0,
        "lev_zero": col == 0,
    }
    zero_count = int(np.array(sizes)[col == 0].sum())
    return lev, zero_count, {key: int(reps[bad].min()) for key, bad in failing.items() if bad.any()}


def _dips(live, r, epsilon):
    """Is class r of live negative somewhere on [0,1]?  Exactly when the walk
    over it alone does not give [0,1]."""
    alone = _Walk(live, _depth(epsilon))
    unit = SpInterval(_exact(0, 0), _exact(1, 0), True, True)
    return alone.run(slice(r, r + 1), live.sb[r, 0] >= 0) != (unit,)


def classify(f, epsilon=DEFAULT_EPSILON):
    """Full SP taxonomy of f.

    The distinct point polynomials are built once.  The region walk gives
    the region, and usp asks each class, in order, whether it is ever
    negative: the first that is names the witness.  A class with no sign
    variation on [0,1] never is, one negative just right of 0 always is, and
    any other takes a walk of its own (_dips).  Every other per-point flag
    is read off the rows (_level_flags).
    monotonically_sp means the region, ignoring the degenerate {0} component
    every balanced function has, is a single interval reaching 1; rho0 is
    then its left endpoint.
    """
    rows, reps, sizes = _distinct_point_polys(f)
    live = _live_rows(rows)
    region = _region(f.n, live, epsilon)
    witnesses = {}
    first = _first_col(live.sb).tolist()
    failing = next(
        (reps[i] for r, i in enumerate(live.index) if first[r] < 0 or _dips(live, r, epsilon)),
        None,
    )
    if failing is not None:
        witnesses["usp"] = failing
    lev, zero_count, flags = _level_flags(rows, reps, sizes)
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


# Kept per (n, depth): the polynomial depends on n alone.  A request names one
# epsilon, and entries are a few hundred bytes at the default depth.
@lru_cache(maxsize=256)
def _no_flip(n, depth):
    """The no-flip threshold of n variables: the root in (0, 1) of
    sum_{k>=1} C(n,k) rho^k - (2^(n-1) - 1), to depth, or 0 at n = 1."""
    if n == 1:
        return Endpoint("exact", value=Fraction(0))
    poly = (1 - (1 << (n - 1)),) + tuple(comb(n, k) for k in range(1, n + 1))
    return _bisect(poly, 0, 0, depth, True)


def sufficient_thresholds(f, epsilon=DEFAULT_EPSILON):
    """The no-flip and sparsity polynomials have one negative coefficient,
    the constant, so each rises through one simple root in (0,1) (_bisect).
    The rest reads the kept summaries of f's spectrum."""
    depth = _depth(epsilon)
    spec = wht(f)
    d = spec.degree
    if d == 0:
        degree_bound = Fraction(0)
    else:
        spectral_norm = Fraction(sum(spec.l1), 1 << f.n)
        degree_bound = 1 - 1 / (d * min(Fraction(d), spectral_norm))

    sparsity_poly = list(spec.support)
    sparsity_poly[0] -= sum(spec.support) - 1
    sparsity_poly = rt.trim(tuple(sparsity_poly))
    if not sparsity_poly or sparsity_poly[0] >= 0:
        sparsity_bound = Endpoint("exact", value=Fraction(0))
    else:
        sparsity_bound = _bisect(sparsity_poly, 0, 0, depth, True)
    return SufficientThresholds(_no_flip(f.n, depth), degree_bound, sparsity_bound)


# ---------------------------------------------------------------------------
# necessary conditions


@cache
def _exp_minus2_enclosure(d):
    """Rational lo < e^(-2d) < hi, from one enclosure of e^-2 of width far
    below 1e-30 raised to d; kept per degree d (at most the cap, 31)."""
    if d > 1:
        lo, hi = _exp_minus2_enclosure(1)
        return lo**d, hi**d
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
    """The single-coefficient and hypercontractive conditions at rho, from
    the kept level peaks and degree of f's spectrum.  max_S rho^|S| |fhat_S|
    is max_k p^k q^(n-k) peaks[k] over the common denominator 2^n q^n."""
    rho = check_rho(rho)
    spec = wht(f)
    stab = stability(f, rho)
    top = max(w * m for w, m in zip(_rho_weights(f.n, rho), spec.peaks))
    max_term = Fraction(top, (1 << f.n) * rho.denominator**f.n)
    basic_ok = stab >= max_term

    d = spec.degree
    stab2 = stability(f, rho * rho)
    if d == 0:
        lo = hi = Fraction(1)
    else:
        lo, hi = _exp_minus2_enclosure(d)
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


_PI_HI = Fraction(3141592653589794, 10**15)


def _sqrt_lower(x):
    """Rational r >= 0 with r^2 <= x < (r + 10^-12)^2, for a rational x >= 0."""
    return Fraction(isqrt(x.numerator * 10**24 // x.denominator), 10**12)


def ltf_approximation(f):
    """Best-effort LTF from the level-1 coefficients, with exact distance.

    The base weights are the scaled level-1 Fourier coefficients.  On the zero
    set Z of the level-1 form the sign comes from a perturbation d0 + d.x
    fitted to f there (restricted Chow parameters: d0 sums f over Z, d_j sums
    f(v) x_j(v)), shifted by the first offset of 0, 1, -1, 2, -2, ... that no
    point of Z cancels.  Distance bounds target functions whose sign agrees
    with the level-1 form off its zero set.
    """
    w = wht(f).coeffs[1 << np.arange(f.n)].tolist()
    m = sum(1 for c in w if c)
    if m == 0:
        raise InvalidArgument("level-1 spectrum vanishes; no LTF direction")
    zero_set = np.flatnonzero(linear_values(0, w) == 0)
    fz = f.values[zero_set].astype(np.int64)
    d0 = int(fz.sum())
    d = [int(fz @ (1 - 2 * ((zero_set >> j) & 1))) for j in range(f.n)]
    cancelling = set((-linear_values(d0, d)[zero_set]).tolist())  # offsets Z cancels
    d0 += next(s for k in count() for s in (k, -k) if s not in cancelling)
    k_scale = sum(abs(c) for c in d) + abs(d0) + 1
    spec = LtfSpec(d0, tuple(k_scale * wi + di for wi, di in zip(w, d)))
    g = construct_ltf(spec)
    distance = Fraction(int(np.count_nonzero(g.values != f.values)), 1 << f.n)
    cap = Fraction(comb(m, m // 2), 1 << m)
    bound = _sqrt_lower(2 / (_PI_HI * m))
    return LtfApproximation(spec, distance, cap, bound, len(zero_set))


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


def ltf_ratio_check(spec):
    n = len(spec.a)
    if n < 2:
        raise PreconditionError("ratio needs at least two coefficients")
    if any(c == 0 for c in spec.a):
        raise PreconditionError("LTF must depend on all variables: zero coefficient")
    g = construct_ltf(spec)
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
    if {"wst", "lev_zero"} & _level_flags(*_distinct_point_polys(f))[2].keys():
        failures.append("f is not SST")
    if "lcsp" in _level_flags(*_distinct_point_polys(g))[2]:
        failures.append("g is not LCSP")
    if any(x == 0 for x in influences(f)):
        failures.append("f does not depend on all variables")
    if any(x == 0 for x in influences(g)):
        failures.append("g does not depend on all variables")
    gap = Fraction(wht(f).level1_gap, 1 << f.n)
    if gap == 0:
        failures.append("Gap[f] is zero")
    if failures:
        raise PreconditionError("; ".join(failures))
    d2 = chow_distance(f, g)
    distance = Fraction(int(np.count_nonzero(f.values != g.values)), 1 << f.n)
    bound = d2 / (2 * gap)
    return ChowGapBound(distance, d2, gap, bound, distance <= bound)
