"""Self-predictability analysis.

For each point v the scaled noise operator is a polynomial in rho:

    2^n * q^n * T_rho f(v) = sum_k C[v,k] p^k q^(n-k),   rho = p/q,

so with q_v(rho) := f(v) * sum_k C[v,k] rho^k the function is rho-SP at v
exactly when q_v(rho) >= 0 (ties count as agreement) and rho-SP overall when
all q_v are nonnegative.  The SP region is therefore [0,1] minus the union of
the open sets {q_v < 0}.  Each distinct q_v's negative set comes from the
isolated roots of its square-free part and one sign per gap between them;
since q_v(1) = 2^n > 0 it is a finite union of intervals ending at roots in
(0,1).  One sweep over all those intervals, sorted by an exact root
comparator, yields the region as closed intervals.  Everything is decided
with integer Sturm-chain arithmetic; floats never touch a sign.
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
    dominating_boundary_points,
    popcounts,
    properties,
)
from .noise import _rho_weights, check_rho, disagreement, scaled_t_values, stability
from .spectrum import (
    _level1_gap,
    chow_distance,
    influences,
    level_values,
    level_weights,
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


def is_sp(f, rho, fast_path=False):
    """Is f rho-SP (ties count as agreement)?  witness = least failing index.

    fast_path restricts the check to the dominating boundary points, which
    is equivalent for monotone f (and rejects non-monotone input).
    """
    rho = check_rho(rho)
    if fast_path:
        points = np.array(dominating_boundary_points(f), dtype=np.int64)
    bad = disagreement(f.values, scaled_t_values(f, rho))
    idx = points[bad[points]] if fast_path else np.flatnonzero(bad)
    if len(idx):
        return SpDecision(False, int(idx[0]))
    return SpDecision(True, None)


def _distinct_point_polys(f):
    """Deduplicated signed point polynomials f(v) * C[v,:], each with its least
    point v as representative, in np.unique(rows, axis=0) order.

    The (2^n, n+1) point matrix is never built.  An exact partition
    refinement runs over the levels k = 0..n: every point carries the int64
    label of its class so far, and level k splits the classes by the signed
    column col = f * (level-k values) through the key
    label * span + (col - min col), with span = max col - min col + 1.  The
    key is injective on (label, col) pairs, so after the last level two points
    share a class exactly when their whole signed rows agree; no hashing, no
    collisions.  np.unique of the keys gives the new labels (inverse) and the
    least point of each class (index).  Key order is (label, col) order, so by
    induction the labels follow the lexicographic order of the rows read so
    far, and the final classes come out in np.unique(axis=0) order.  Only the
    representatives' rows are kept, extended by one column per level.

    The key is exact while count * span < 2^63, count being the number of
    classes so far; this is checked in Python ints and raises CapacityError
    otherwise.  By Cauchy-Schwarz and Parseval |col| <= 2^n sqrt(C(n,k)), so
    count * span < 2^24 * 2^37 for n <= 24 (the default cap).
    """
    signs = f.values.astype(np.int64)
    labels = np.zeros(len(signs), dtype=np.int64)
    rows = np.zeros((1, 0), dtype=np.int64)
    for k in range(f.n + 1):
        col = level_values(f, k) * signs
        low = int(col.min())
        span = int(col.max()) - low + 1
        if len(rows) * span >= 1 << 63:
            raise CapacityError(
                f"level {k} of n={f.n}: point polynomial keys would overflow int64"
            )
        _, reps, inverse = np.unique(
            labels * span + (col - low), return_index=True, return_inverse=True
        )
        rows = np.column_stack([rows[labels[reps]], col[reps]])
        labels = inverse
    return [(rt.trim(tuple(row)), rep) for row, rep in zip(rows.tolist(), reps.tolist())]


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


def _endpoint(entry):
    """Endpoint of a refine_root entry."""
    if entry[0] == "exact":
        return Endpoint("exact", value=entry[1])
    return Endpoint("enclosure", lo=entry[1], hi=entry[2])


class _Root:
    """A root in [0,1): exact when lo == hi, else the only root of the
    square-free polynomial sf in the open interval (lo, hi)."""

    __slots__ = ("sf", "lo", "hi")

    def __init__(self, sf, entry):
        self.sf = sf
        self.lo, self.hi = entry[1], entry[-1]

    def entry(self):
        if self.lo == self.hi:
            return ("exact", self.lo)
        return ("interval", self.lo, self.hi)

    def halve(self):
        refined = rt.refine_root(self.sf, self.entry(), (self.hi - self.lo) / 2)
        self.lo, self.hi = refined[1], refined[-1]

    def endpoint(self, epsilon):
        return _endpoint(rt.refine_root(self.sf, self.entry(), epsilon))


def _same_root(a, b):
    """Do the overlapping brackets of a and b hold one common root?  If so,
    both take their intersection, so either gives the endpoint."""
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo == hi:  # one is exact, inside the other's bracket
        same = rt.sign_at((a if a.lo < a.hi else b).sf, lo) == 0
    else:
        g = rt.poly_gcd(a.sf, b.sf)
        same = rt.degree(g) >= 1 and rt.count_roots(rt.sturm_chain(g), lo, hi) >= 1
    if same:
        a.lo, a.hi, b.lo, b.hi = lo, hi, lo, hi
    return same


def _compare(a, b):
    """Exact order of two roots (-1, 0 or 1), halving only the wider bracket."""
    if a is b or a.lo == a.hi == b.lo == b.hi:
        return 0
    if a.hi > b.lo and b.hi > a.lo and _same_root(a, b):
        return 0
    while a.hi > b.lo and b.hi > a.lo:
        (a if a.hi - a.lo >= b.hi - b.lo else b).halve()
    return -1 if a.hi <= b.lo else 1


def _negative_set(q):
    """The open set {rho in [0,1]: q(rho) < 0} as (left, right) root pairs.

    q(1) > 0, so every interval ends at a root in (0,1); the first may start
    at 0, and then also covers 0 itself exactly when q(0) < 0.  A root where q
    touches 0 from below separates two intervals, as it is a tie.
    """
    j = next(i for i, c in enumerate(q) if c)
    core = q[j:]  # same sign as q on (0,1], and core(0) != 0
    sf = rt.square_free_part(core)
    out = []
    left = _Root(None, ("exact", Fraction(0)))
    for entry in rt.isolate_roots(sf, Fraction(0), Fraction(1)):
        right = _Root(sf, entry)
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
    if any(sum(q) != 1 << n for q, _ in polys):
        raise AssertionError("point polynomial must equal 2^n at rho=1")
    negative = [_negative_set(q) for q, _ in polys]
    union = sorted(
        (iv for ivs in negative for iv in ivs),
        key=cmp_to_key(lambda s, t: _compare(s[0], t[0])),
    )
    reach = _Root(None, ("exact", Fraction(0)))
    reach_in = all(q[0] >= 0 for q, _ in polys)
    intervals = []
    for left, right in union:
        order = _compare(left, reach)
        if order > 0 or (order == 0 and reach_in):
            lo = reach.endpoint(epsilon)
            hi = lo if order == 0 else left.endpoint(epsilon)
            intervals.append(SpInterval(lo, hi, True, True))
        if order >= 0 or _compare(right, reach) > 0:
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


def _lcsp_check(polys):
    """Lowest-order criterion: the first nonzero q_v coefficient is positive.

    Returns (ok, least failing point or None).
    """
    bad = [rep for q, rep in polys if next(c for c in q if c) < 0]
    return not bad, min(bad, default=None)


def _wst_sst_check(f, lev):
    signed = level_values(f, lev) * f.values.astype(np.int64)
    neg = np.flatnonzero(signed < 0)
    zero = np.flatnonzero(signed == 0)
    wst = len(neg) == 0
    return (
        wst,
        wst and len(zero) == 0,
        int(neg[0]) if len(neg) else None,
        int(zero[0]) if len(zero) else None,
        len(zero),
    )


def classify(f, epsilon=DEFAULT_EPSILON):
    """Full SP taxonomy of f.

    The distinct point polynomials are built once.  One sweep over their
    negative sets gives the region and usp (no polynomial is ever negative;
    the witness is the representative of the first one that is), and lcsp
    reads their lowest coefficients.  monotonically_sp means the region,
    ignoring the degenerate {0} component every balanced function has, is a
    single interval reaching 1; rho0 is then its left endpoint.
    """
    polys = _distinct_point_polys(f)
    region, negative = _region(f.n, polys, epsilon)
    witnesses = {}
    failing = next((rep for (_, rep), ivs in zip(polys, negative) if ivs), None)
    if failing is not None:
        witnesses["usp"] = failing
    lcsp, lcsp_witness = _lcsp_check(polys)
    if lcsp_witness is not None:
        witnesses["lcsp"] = lcsp_witness
    lev = int(np.flatnonzero(level_weights(f))[0])
    wst, sst, wst_witness, zero_witness, zero_count = _wst_sst_check(f, lev)
    if wst_witness is not None:
        witnesses["wst"] = wst_witness
    if zero_witness is not None:
        witnesses["lev_zero"] = zero_witness
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
        failing is None, lcsp, wst, sst, monotone_sp, rho0, lev, zero_count, region,
        witnesses,
    )


# ---------------------------------------------------------------------------
# sufficient thresholds


@dataclass(frozen=True)
class SufficientThresholds:
    no_flip: Endpoint  # universal: SP for rho above 2^((n-1)/n) - 1
    degree_bound: Fraction  # SP for rho above 1 - 1/(Deg*min(Deg, spectral norm))
    sparsity_bound: Endpoint  # SP for rho above the root of sum rho^|S| = s-1


def _isolated_single_root(poly, epsilon):
    sf = rt.square_free_part(poly)
    roots = rt.isolate_roots(sf, Fraction(0), Fraction(1))
    if not roots:
        return Endpoint("exact", value=Fraction(0))
    if len(roots) != 1:
        raise AssertionError("threshold polynomial must have a single root")
    return _endpoint(rt.refine_root(sf, roots[0], epsilon))


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
    d = int(np.flatnonzero(level_weights(f)).max())
    if d == 0:
        degree_bound = Fraction(0)
    else:
        spectral_norm = Fraction(int(np.abs(coeffs).sum()), 1 << n)
        degree_bound = 1 - 1 / (d * min(Fraction(d), spectral_norm))

    pc = popcounts(n)
    support_counts = [int(np.count_nonzero(coeffs[pc == k])) for k in range(n + 1)]
    s = sum(support_counts)
    sparsity_poly = list(support_counts)
    sparsity_poly[0] -= s - 1
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
    lev1 = level_values(f, 1)
    zero_set = np.flatnonzero(lev1 == 0)
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
    ratio: float  # largest |a_i| over second largest
    bound: float  # sqrt(2 n ln(2n)) + 1
    violates: bool  # ratio >= bound (then the LTF cannot be LCSP)


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
    ratio = mags[0] / mags[1]
    bound = sqrt(2 * n * log(2 * n)) + 1
    return LtfRatioCheck(float(ratio), bound, float(ratio) >= bound)


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
    wst, sst, *_ = _wst_sst_check(f, int(np.flatnonzero(level_weights(f))[0]))
    if not (wst and sst):
        failures.append("f is not SST")
    if not _lcsp_check(_distinct_point_polys(g))[0]:
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
