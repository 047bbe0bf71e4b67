"""Shell biases, bad points, sharp-threshold constants, and whole-space scans.

The n <= 4 scans read the signs of the tables they need off one exact
kernel (_sign_keys).  For rho = p/q the scaled noise operator is

    2^n q^n T_rho f(u) = sum_v (q+p)^(n-d(u,v)) (q-p)^d(u,v) f(v),

so with a table id split into its low and high halves of 2^(n-1) points the
value at u is A_u[lo] + B_u[hi], two sums over the points of a half.  Its
sign is that of rank(A_u[lo]) - rank(-B_u[hi]) in the sorted union of their
values: one int32 comparison per point and table, exact for every rho.  A
half table enters those sums only through its count form, the number of its
+1 points of each weight, so only the exact values of the forms are ranked
(2 x 64 at n = 4, 2 x 700 at n = 5) and the keys are gathered from the
ranks through index tables built once per n (_key_index).
The keep-rule predictor (ties keep f(u)) commutes with permuting and
flipping the inputs and with negating f, so it maps classes of tables under
that group to classes (_class_table, one per number of variables).  Both
scans read one step, _class_successors: the successors of the class
representatives only (222 at n = 4).  A table is fixed exactly when its
class's representative is, so the census (the SP tables are the keep rule's
fixpoints) is the sum of the sizes of the classes whose representative is
fixed.  The keep-rule map has no periodic point but its fixpoints, at every
n and rho (the kernel is positive semidefinite, see graph_scan), so every
orbit ends at an SP function; the graph scan maps each successor to its
class and walks that quotient map until nothing moves, a table's steps to
its fixpoint being its class's.  The class tables, the key index tables
and the keep rule's own bits depend on n alone and are built once per n,
on first use.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, log2, prod, sqrt

import numpy as np

from .errors import InvalidArgument
from .functions import BooleanFunction, popcounts
from .noise import check_rho, optimal_predictor


def shell_bias(f, v, d):
    """Fraction of the distance-d shell around v where f disagrees with f(v)."""
    if not 1 <= d <= f.n:
        raise InvalidArgument(f"shell distance must be in 1..{f.n}")
    center = f.value_at(v)  # InvalidArgument unless v indexes a point
    shell = np.flatnonzero(popcounts(f.n) == d) ^ v
    disagree = int(np.count_nonzero(f.values[shell] != center))
    return Fraction(disagree, comb(f.n, d))


@dataclass(frozen=True)
class BadPointReport:
    v: int
    eta: Fraction
    ell: int
    beta: tuple  # shell biases for d = 1..ell
    bad: bool  # beta_1 >= 1 - eta and beta_d >= 1/2 for 2 <= d <= ell


def bad_point_detect(f, v, eta, ell=None):
    eta = Fraction(eta)
    if not 0 <= eta < Fraction(1, 2):
        raise InvalidArgument("eta must lie in [0, 1/2)")
    if ell is None:
        ell = max(1, (f.n - 1).bit_length())  # ceil(log2(n)) for n >= 2
    if not 1 <= ell <= f.n:
        raise InvalidArgument(f"ell must be in 1..{f.n}")
    beta = tuple(shell_bias(f, v, d) for d in range(1, ell + 1))
    bad = beta[0] >= 1 - eta and all(b >= Fraction(1, 2) for b in beta[1:])
    return BadPointReport(v, eta, ell, beta, bad)


@dataclass(frozen=True)
class FiniteNBound:
    value: Fraction  # exact evaluation of the finite-n sufficient expression
    holds: bool  # value > 1/2


def finite_n_bound(n, alpha, eta, ell):
    """Exact finite-n expression whose exceeding 1/2 certifies a bad point.

    (1 - alpha/n)^n (1 - ell/n)^ell [(1-eta) alpha + 1/2 sum_{d=2}^ell alpha^d/d!].
    """
    alpha, eta = Fraction(alpha), Fraction(eta)
    if not 0 < alpha < n:
        raise InvalidArgument("alpha must lie in (0, n)")
    if not 1 <= ell < n:
        raise InvalidArgument("ell must lie in 1..n-1")
    bracket = (1 - eta) * alpha + Fraction(1, 2) * sum(
        alpha**d / factorial(d) for d in range(2, ell + 1)
    )
    value = (1 - alpha / n) ** n * (1 - Fraction(ell, n)) ** ell * bracket
    return FiniteNBound(value, value > Fraction(1, 2))


# ---------------------------------------------------------------------------
# sharp-threshold constants


def _binary_divergence(eta, delta):
    out = 0.0
    if eta > 0:
        out += eta * log2(eta / delta)
    if eta < 1:
        out += (1 - eta) * log2((1 - eta) / (1 - delta))
    return out


def _crossover_level(delta):
    return 0.5 * log2(1 / (delta * delta + (1 - delta) * (1 - delta)))


def _eta_delta(delta, tol=1e-12):
    """Minimal eta in (delta, 1/4] with D_b(eta||delta) >= crossover, or None."""
    c = _crossover_level(delta)
    hi = 0.25
    if _binary_divergence(hi, delta) < c:
        return None
    lo = delta
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if _binary_divergence(mid, delta) >= c:
            hi = mid
        else:
            lo = mid
    return hi


def _eta_delta_defined(delta):
    """Does eta = 1/4 meet the divergence level, decided exactly?  Both sides
    are logs of rationals: 4 D_b(1/4||delta) = log2(27 / (256 delta (1-delta)^3))
    and 4 crossover(delta) = log2(1 / (delta^2 + (1-delta)^2)^2)."""
    return 27 * (delta * delta + (1 - delta) ** 2) ** 2 >= 256 * delta * (1 - delta) ** 3


@cache
def _delta_max(tol=1e-9):
    """Where _eta_delta_defined flips, by float bisection whose every step is
    decided exactly at the float's rational value (about 0.0974)."""
    lo, hi = 0.01, 0.25
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if _eta_delta_defined(Fraction(mid)):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class ThresholdConstants:
    alpha: Fraction  # None when not requested
    eta_alpha: Fraction  # (alpha - 1) / (2 alpha)
    delta: Fraction
    eta_delta: float  # minimal usable eta (<= 1/4, rendering only), None when undefined
    eta_delta_defined: bool  # decided exactly (_eta_delta_defined)
    eta_delta_reason: str
    delta_max: float  # supremum delta with eta_delta < 1/4 (about 0.0974)


def threshold_constants(alpha=None, delta=None):
    eta_alpha = None
    if alpha is not None:
        alpha = Fraction(alpha)
        if alpha <= 1:
            raise InvalidArgument("alpha must exceed 1")
        eta_alpha = (alpha - 1) / (2 * alpha)
    eta_delta = None
    defined = False
    reason = None
    if delta is not None:
        delta = Fraction(delta)
        if not 0 < delta < Fraction(1, 2):
            raise InvalidArgument("delta must lie in (0, 1/2)")
        defined = _eta_delta_defined(delta)
        if defined:  # the float search renders it; at the boundary it may miss 1/4
            eta_delta = _eta_delta(float(delta)) or 0.25
        else:
            reason = "no eta below 1/4 meets the divergence level (delta above delta_max)"
    return ThresholdConstants(
        alpha, eta_alpha, delta, eta_delta, defined, reason, _delta_max()
    )


# ---------------------------------------------------------------------------
# whole-space scans (n <= 4)


def _read_through(reads):
    """perms[k, x]: the half table x read through the point map reads[k], that
    is with bit j taken from bit reads[k, j] (bit j of x is the value at point
    j), for every row k of reads."""
    x = np.arange(1 << reads.shape[1])
    return sum(((x >> r[:, None]) & 1) << j for j, r in enumerate(reads.T))


def _xor_perms(points):
    """perms[u, x]: the half table x read at the points j ^ u, that is with bit
    j taken from bit j ^ u, for every u < points."""
    j = np.arange(points)
    return _read_through(j[None, :] ^ j[:, None])


def _delta_swap(x, d, lower):
    """The tables x with bit p and bit p + d swapped for every bit p of lower."""
    t = (x ^ (x >> d)) & lower
    return x ^ t ^ (t << d)


@cache
def _class_table(m):
    """(label, reps, sizes) for the tables of m variables (2^m points, ids below
    2^2^m) under the permutations and flips of the inputs and negation: label
    holds each table's class as its least id (the narrowest unsigned dtype,
    uint16 at m = 4), reps the ascending least ids and sizes the class sizes.
    Both whole-space scans at n variables read the table of m = n, through
    _class_successors.

    The label is the minimum over the group, taken along a chain of subgroups.
    Negation and the flips commute, so their minimum takes one step per
    generator g: label = min(label, label[g]).  The permutations of the
    coordinates 0..k are those of 0..k-1 after the identity or one
    transposition (j k), j < k, and the flips are normal, so coordinate k
    adds the minimum over those k transpositions.  Every generator is a delta
    swap of table bits: the flip of coordinate i swaps the points p and
    p + 2^i, the transposition (j k) the points p (bit j set, bit k clear) and
    p + 2^k - 2^j; each is built on its own and dropped."""
    dtype = np.min_scalar_type((1 << (1 << m)) - 1)
    ids = np.arange(1 << (1 << m), dtype=dtype)
    full = (1 << (1 << m)) - 1
    # coord[i]: the table whose bit p is set iff bit i of the point p is
    coord = [sum(1 << p for p in range(1 << m) if p >> i & 1) for i in range(m)]
    label = np.minimum(ids, ids ^ dtype.type(full))
    for i in range(m):
        flip = _delta_swap(ids, 1 << i, dtype.type(full ^ coord[i]))
        label = np.minimum(label, label[flip])
    for k in range(1, m):
        step = label
        for j in range(k):
            swap = _delta_swap(ids, (1 << k) - (1 << j), dtype.type(coord[j] & ~coord[k]))
            step = np.minimum(step, label[swap])
        label = step
    reps = np.flatnonzero(label == ids)
    sizes = np.bincount(label)[reps]
    label.flags.writeable = reps.flags.writeable = sizes.flags.writeable = False
    return label, reps, sizes


@cache
def _key_index(n):
    """(cols, rows): the (2^n, 2^h) form ids, h = 2^(n-1), that _sign_keys reads
    its ranks at (n >= 1), in the narrowest unsigned dtype (uint8 at n = 4),
    built once per n.

    A half table x enters A and B only through its count form: k_d(x), the
    number of its +1 points j of weight |j| = d, for every d < n.  The forms
    are numbered in mixed radix, form(x) = sum_d k_d(x) prod_(e<d) (C(n-1,e) +
    1), and B's forms follow A's, offset by their number.  Row u < h reads
    the half tables through _xor_perms(h)[u]; rows h + u swap A and B; and
    rows reads rank(-B[x]) as the rank at the complement of x, the form list
    reversed (see _sign_keys)."""
    h = 1 << (n - 1)
    radix = [comb(n - 1, d) + 1 for d in range(n)]
    stride = [prod(radix[:d]) for d in range(n + 1)]
    forms = stride[n]
    dtype = np.min_scalar_type(2 * forms - 1)
    x = np.arange(1 << h)
    form = sum(((x >> j) & 1) * stride[j.bit_count()] for j in range(h)).astype(dtype)
    perms = _xor_perms(h)
    ahead, mirror = form[perms], form[::-1][perms]
    cols = np.concatenate([ahead, ahead + forms])
    rows = np.concatenate([mirror + forms, mirror])
    cols.flags.writeable = rows.flags.writeable = False
    return cols, rows


def _sign_keys(n, rho):
    """int32 (2^n, 2^h) arrays cols and rows, h = 2^(n-1), such that the sign of
    2^n q^n T_rho f(u) is the sign of cols[u, lo] - rows[u, hi] for the table
    id = lo + (hi << h): exact for every rho, with every value below
    2 prod_d (C(n-1,d) + 1), the number of count forms (128 at n = 4).
    (At n = 0 the one point is the low half: shapes (1, 2) and (1, 1).)

    With w_d = (q+p)^(n-d) (q-p)^d the value is sum_v w_d(u,v) f(v) = A_u[lo] +
    B_u[hi], the sums over the low and the high half of the points.  Its sign
    is that of rank(A_u[lo]) - rank(-B_u[hi]) in the sorted union of the lists.
    Only A = A_0 and B = B_0 are needed: for u < h, A_u and B_u are A and B
    read through the index permutation _xor_perms(h)[u]; for u = h + u' the
    halves swap roles, A_u = B_u' and B_u = A_u'.  Negating f negates a sum
    and complements its index, so the union is closed under negation and
    rank(-B[x]) is the rank of B at the complement of x.  And A and B take
    few values: A[x] = sum_d w_d (2 k_d(x) - C(n-1,d)) and B[x] the same with
    w_(d+1), for the count form k(x) of x (_key_index).  So only the exact
    values of the forms are ranked, 2 x 64 at n = 4, and the keys are those
    ranks gathered through the index tables."""
    if n == 0:  # one point, whose value is f(0): ranks of -1 and +1 against 0
        return np.array([[0, 2]], dtype=np.int32), np.array([[1]], dtype=np.int32)
    p, q = rho.numerator, rho.denominator
    weights = [(q + p) ** (n - d) * (q - p) ** d for d in range(n + 1)]
    a, b = [0], [0]  # the values of the forms, k_d the digit of stride len(a)
    for d in range(n):
        c, wa, wb = comb(n - 1, d), weights[d], weights[d + 1]
        a = [s + wa * (2 * k - c) for k in range(c + 1) for s in a]
        b = [s + wb * (2 * k - c) for k in range(c + 1) for s in b]
    values = a + b
    rank = {v: r for r, v in enumerate(sorted(set(values)))}
    ranks = np.array([rank[v] for v in values], dtype=np.int32)
    cols, rows = _key_index(n)
    return ranks.take(cols), ranks.take(rows)


@cache
def _own_bits(h):
    """own[u, x]: bit u of the half table x, for every u < h."""
    own = (np.arange(1 << h)[None, :] >> np.arange(h)[:, None]) & 1
    own.flags.writeable = False
    return own


def _keep_keys(n, rho):
    """_sign_keys with the keep rule folded in: the keep-rule predictor of the
    table lo + (hi << h) has bit u set iff cols[u, lo] > rows[u, hi].  A zero
    value (equal ranks) then keeps f(u), the bit u of lo or u - h of hi (at
    n = 0, h = 0 and the one value is never zero)."""
    cols, rows = _sign_keys(n, rho)
    h = len(cols) >> 1
    own = _own_bits(h)
    cols[:h] += own
    rows[h : 2 * h] -= own
    return cols, rows


def _class_successors(n, rho):
    """(label, reps, sizes, succ): _class_table(n) and the keep-rule successors
    of its representatives, bit u of the successor of lo + (hi << h) being
    cols[u, lo] > rows[u, hi] for the keys of _keep_keys."""
    label, reps, sizes = _class_table(n)
    cols, rows = _keep_keys(n, rho)
    hi, lo = np.divmod(reps, cols.shape[1])
    succ = (1 << np.arange(len(cols))) @ (cols[:, lo] > rows[:, hi])
    return label, reps, sizes, succ


@dataclass(frozen=True)
class SpFraction:
    n: int
    rho: Fraction
    mode: str
    total: int  # functions considered (2^2^n or sample count)
    sp_count: int
    fraction: Fraction  # exact for exhaustive, None for sample
    estimate: float  # point estimate (both modes)
    stderr: float  # binomial standard error (sample mode, else 0.0)
    seed: int


def check_census_args(n, mode, samples, seed):
    """Refuse the census arguments sp_fraction refuses, whatever the rho."""
    if n < 0:
        raise InvalidArgument(f"n must be >= 0, got {n}")
    if mode == "exhaustive":
        if n > 4:
            raise InvalidArgument("exhaustive census is limited to n <= 4")
    elif mode == "sample":
        if n < 1:
            raise InvalidArgument(f"sample mode needs n >= 1, got {n}")
        if not samples or samples < 1:
            raise InvalidArgument("sample mode needs a positive sample count")
        if seed is None:
            raise InvalidArgument("sample mode needs a seed for reproducibility")
        if seed < 0:
            raise InvalidArgument(f"seed must be >= 0, got {seed}")
    else:
        raise InvalidArgument(f"unknown census mode {mode!r}")


def sp_fraction(n, rho, mode="exhaustive", samples=None, seed=None):
    """The fraction of the n-variable functions that are rho-SP (ties counting
    as agreement).

    "exhaustive" (n <= 4) counts exactly: the SP tables are the keep rule's
    fixpoints, and a table is fixed exactly when the representative of its
    class is (_class_successors), so the count is the sum of the sizes of the
    classes whose representative is its own successor.  "sample" tests
    `samples` random tables drawn from `seed` with is_sp and gives a binomial
    standard error."""
    rho = check_rho(rho)
    check_census_args(n, mode, samples, seed)
    if mode == "exhaustive":
        _, reps, sizes, succ = _class_successors(n, rho)
        sp_count = int(sizes[succ == reps].sum())
        total = 1 << (1 << n)
        frac = Fraction(sp_count, total)
        return SpFraction(n, rho, mode, total, sp_count, frac, float(frac), 0.0, None)
    from .sp import is_sp

    rng = np.random.Generator(np.random.PCG64(seed))
    hits = 0
    for _ in range(samples):
        bits = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
        f = BooleanFunction.from_values(2 * bits.astype(np.int8) - 1)
        if is_sp(f, rho).sp:
            hits += 1
    est = hits / samples
    err = sqrt(est * (1 - est) / samples)
    return SpFraction(n, rho, mode, samples, hits, None, est, err, seed)


# ---------------------------------------------------------------------------
# predictor iteration


@dataclass(frozen=True)
class OrbitReport:
    rho: Fraction
    status: str  # "fixpoint" | "budget_exhausted"
    trajectory_length: int  # functions visited: steps taken + 1
    terminal: BooleanFunction  # the fixpoint when status == "fixpoint", else None


def predictor_orbit(f, rho, max_steps=256):
    """Iterate g -> sgn T_rho g (keep tie rule) until a fixpoint or the budget
    of max_steps runs out.  The map has no periodic point but its fixpoints
    (see graph_scan), so every orbit ends at an SP function and visits each
    function at most once."""
    rho = check_rho(rho)
    if max_steps < 0:
        raise InvalidArgument(f"max_steps must be >= 0, got {max_steps}")
    g = f
    for steps in range(max_steps):
        nxt = optimal_predictor(g, rho, tie_rule="keep").to_boolean()
        if nxt == g:
            return OrbitReport(rho, "fixpoint", steps + 1, g)
        g = nxt
    return OrbitReport(rho, "budget_exhausted", max_steps + 1, None)


@dataclass(frozen=True)
class GraphScan:
    n: int
    rho: Fraction
    num_functions: int
    num_fixpoints: int  # also the components: one fixpoint and its tree each
    max_depth: int  # most steps any function takes to reach its fixpoint


def graph_scan(n, rho):
    """Functional graph of the keep-rule predictor over all functions (n <= 4).

    The map commutes with permuting and flipping the inputs and with negation,
    so it maps classes to classes (_class_table(n)): only the representatives'
    successors are built (_class_successors), and the quotient map on the
    classes is walked until no class moves.  A table is fixed exactly
    when its class's representative is, so its steps to its fixpoint are
    those of its class; a class that maps to itself has a fixed
    representative (succ(x) = g x gives succ^(ord g)(x) = x, a periodic point).

    Every periodic table is a fixpoint, at every n and rho, so each component
    is one fixpoint with its tree and every orbit ends at an SP function.
    With W the integer kernel w_d(u,v) = (q+p)^(n-d) (q-p)^d, the map is
    x -> sgn(W' x) for W' = W + I/2:
    W x is integral, so the half only decides its zero entries, as the keep
    rule does.  W is the n-fold tensor power of [[q+p, q-p], [q-p, q+p]], with
    eigenvalues (2q)^(n-|S|) (2p)^|S| >= 0 on the characters, so W' is
    positive definite.  W' x has no zero entry, so y = sgn(W' x) is the one
    sign vector maximising z^T W' x.  Along x(t) the energy -x(t+1)^T W' x(t)
    then falls strictly unless x(t+1) = x(t-1) (Goles and Olivos), so a cycle
    has period 1 or 2; and x -> y -> x with y != x would give
    y^T W' x > x^T W' x and x^T W' y > y^T W' y, so (x - y)^T W' (x - y) < 0."""
    rho = check_rho(rho)
    if not 0 <= n <= 4:
        raise InvalidArgument("graph scan is limited to 0 <= n <= 4")
    label, reps, sizes, succ = _class_successors(n, rho)
    fixed = succ == reps
    quotient = np.searchsorted(reps, label[succ])
    walk, max_depth = np.arange(len(reps)), 0  # walk[c]: the class c reaches
    for _ in range(len(reps)):  # a path through k classes takes k - 1 steps
        step = quotient[walk]
        if np.array_equal(step, walk):
            break
        walk, max_depth = step, max_depth + 1
    # the theorem, checked: every class ends at a class whose representative is fixed
    assert fixed[walk].all(), "a non-trivial cycle"
    return GraphScan(n, rho, 1 << (1 << n), int(sizes[fixed].sum()), max_depth)
