"""Shell biases, bad points, sharp-threshold constants, and whole-space scans.

The n <= 4 scans read every sign of every table off one exact kernel
(_sign_keys).  For rho = p/q the scaled noise operator is

    2^n q^n T_rho f(u) = sum_v (q+p)^(n-d(u,v)) (q-p)^d(u,v) f(v),

so with a table id split into its low and high halves of 2^(n-1) points the
value at u is A_u[lo] + B_u[hi], two lists of 2^2^(n-1) exact Python ints.
Its sign is that of rank(A_u[lo]) - rank(-B_u[hi]) in the sorted union of
the lists: one int32 comparison per point and table, exact for every rho.
Both scans read the keep-rule predictor's successor ids off one comparison
loop (_keep_successors), which takes the low halves whose rows it builds.
The graph scan reads every successor and hands them to one numpy pass over
the functional graph (_functional_graph).  The census counts fixpoints (the
SP tables) over the orbits of the low half only (_low_half_orbits): sgn T_rho
commutes with permuting and flipping x_1..x_(n-1) and with negation, so
acting on both halves maps SP tables to SP tables, and the count is
sum |orbit| * #{hi : rep + (hi << h) is fixed} over the representatives
(14 of the 256 low halves at n = 4).  The orbits, the index permutations and
the keep rule's own bits depend on n alone and are built once per n, on
first use.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, log2, sqrt

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


def _half_sums(weights, points, far):
    """sum_j weights[|j| + far] * f(j) over the points j < points of a half
    table, for every half table (bit j set: f(j) = +1), built by doubling."""
    sums = [0]
    for j in range(points):
        w = weights[j.bit_count() + far]
        sums = [s - w for s in sums] + [s + w for s in sums]
    return sums


def _read_through(reads):
    """perms[k, x]: the half table x read through the point map reads[k], that
    is with bit j taken from bit reads[k, j] (bit j of x is the value at point
    j), for every row k of reads."""
    x = np.arange(1 << reads.shape[1])
    return sum(((x >> r[:, None]) & 1) << j for j, r in enumerate(reads.T))


@cache
def _xor_perms(points):
    """perms[u, x]: the half table x read at the points j ^ u, that is with bit
    j taken from bit j ^ u, for every u < points (built once per size)."""
    j = np.arange(points)
    perms = _read_through(j[None, :] ^ j[:, None])
    perms.flags.writeable = False
    return perms


@cache
def _low_half_orbits(n):
    """Least ids and sizes of the orbits of the low half tables (2^(n-1)
    points; the one point at n = 0) under the permutations and flips of
    x_1..x_(n-1) and negation.

    The generators are the flips of each coordinate, the transpositions of
    neighbouring coordinates and negation, as permutations of the table ids.
    Every label starts as its own id and takes the least label one generator
    step away, then the label of its label, until nothing moves: a label is
    then constant along every generator, so on the orbit, and it is the
    orbit's least id, which never moves."""
    m = max(n - 1, 0)
    j = np.arange(1 << m)
    flips = [j ^ (1 << i) for i in range(m)]
    swaps = [j ^ (((j >> i) ^ (j >> (i + 1))) & 1) * (3 << i) for i in range(m - 1)]
    ids = np.arange(1 << (1 << m))
    reads = np.array(flips + swaps, dtype=np.intp).reshape(-1, 1 << m)
    gens = np.vstack([_read_through(reads), ids ^ ids[-1]])
    label = ids
    while True:
        step = np.minimum(label, label[gens].min(axis=0))
        step = step[step]
        if np.array_equal(step, label):
            break
        label = step
    reps = np.flatnonzero(label == ids)
    sizes = np.bincount(label)[reps]
    reps.flags.writeable = sizes.flags.writeable = False
    return reps, sizes


def _sign_keys(n, rho):
    """int32 (2^n, 2^h) arrays cols and rows, h = 2^(n-1), such that the sign of
    2^n q^n T_rho f(u) is the sign of cols[u, lo] - rows[u, hi] for the table
    id = lo + (hi << h): exact for every rho, with no value larger than 2^(h+1).
    (At n = 0 the one point is the low half: shapes (1, 2) and (1, 1).)

    With w_d = (q+p)^(n-d) (q-p)^d the value is sum_v w_d(u,v) f(v) = A_u[lo] +
    B_u[hi], the sums over the low and the high half of the points.  Its sign
    is that of rank(A_u[lo]) - rank(-B_u[hi]) in the sorted union of the lists.
    Only A = A_0 and B = B_0 are built: for u < h, A_u and B_u are A and B
    read through the index permutation _xor_perms(h)[u]; for u = h + u' the
    halves swap roles, A_u = B_u' and B_u = A_u'.  Negating f negates a sum
    and complements its index, so the union is closed under negation and
    rank(-B[x]) is the rank of B at the complement of x: the list reversed."""
    if n == 0:  # one point, whose value is f(0): ranks of -1 and +1 against 0
        return np.array([[0, 2]], dtype=np.int32), np.array([[1]], dtype=np.int32)
    p, q = rho.numerator, rho.denominator
    weights = [(q + p) ** (n - d) * (q - p) ** d for d in range(n + 1)]
    h = 1 << (n - 1)
    a, b = _half_sums(weights, h, 0), _half_sums(weights, h, 1)
    rank = {v: r for r, v in enumerate(sorted(set(a).union(b)))}
    ra = np.array([rank[v] for v in a], dtype=np.int32)
    rb = np.array([rank[v] for v in b], dtype=np.int32)
    perms = _xor_perms(h)
    cols = np.concatenate([ra[perms], rb[perms]])
    rows = np.concatenate([rb[::-1][perms], ra[::-1][perms]])
    return cols, rows


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


def _keep_successors(n, rho, lows=None):
    """The keep-rule successor ids of the tables lo + (hi << h) for the low
    halves lo in lows (all of them when None) and every high half hi
    (0 <= n <= 4), hi-major: entry hi * len(lows) + i is the successor of
    lows[i] + (hi << h), so with all low halves it is the table id.  Bit u of
    a successor is cols[u, lo] > rows[u, hi] for the keys of _keep_keys."""
    cols, rows = _keep_keys(n, rho)
    if lows is not None:
        cols = cols[:, lows]
    dtype = np.min_scalar_type((1 << len(cols)) - 1)
    out = np.zeros((rows.shape[1], cols.shape[1]), dtype=dtype)
    bit = np.empty_like(out)  # the comparison written as 0/1, then shifted
    for u in range(len(cols)):
        np.greater(cols[u][None, :], rows[u][:, None], out=bit)
        bit <<= u
        out |= bit
    return out.ravel()


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


def sp_fraction(n, rho, mode="exhaustive", samples=None, seed=None):
    rho = check_rho(rho)
    if n < 0:
        raise InvalidArgument(f"n must be >= 0, got {n}")
    if mode == "exhaustive":
        if n > 4:
            raise InvalidArgument("exhaustive census is limited to n <= 4")
        # the SP tables are those the keep rule fixes; every low half of an
        # orbit has as many SP completions as its representative
        reps, sizes = _low_half_orbits(n)
        succ = _keep_successors(n, rho, reps).reshape(-1, len(reps))
        tables = reps + (np.arange(len(succ))[:, None] << ((1 << n) >> 1))
        sp_count = int(sizes @ np.count_nonzero(succ == tables, axis=0))
        total = 1 << (1 << n)
        frac = Fraction(sp_count, total)
        return SpFraction(n, rho, mode, total, sp_count, frac, float(frac), 0.0, None)
    if mode == "sample":
        if n < 1:
            raise InvalidArgument(f"sample mode needs n >= 1, got {n}")
        if not samples or samples < 1:
            raise InvalidArgument("sample mode needs a positive sample count")
        if seed is None:
            raise InvalidArgument("sample mode needs a seed for reproducibility")
        if seed < 0:
            raise InvalidArgument(f"seed must be >= 0, got {seed}")
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
    raise InvalidArgument(f"unknown census mode {mode!r}")


# ---------------------------------------------------------------------------
# predictor iteration


@dataclass(frozen=True)
class OrbitReport:
    rho: Fraction
    status: str  # "fixpoint" | "cycle" | "budget_exhausted"
    trajectory_length: int  # distinct functions visited
    terminal: BooleanFunction  # fixpoint when status == "fixpoint"
    cycle_start: int
    cycle_length: int


def predictor_orbit(f, rho, max_steps=256):
    """Iterate g -> sgn T_rho g (keep tie rule) until fixpoint/cycle/budget."""
    rho = check_rho(rho)
    if max_steps < 0:
        raise InvalidArgument(f"max_steps must be >= 0, got {max_steps}")
    seen = {f: 0}
    seq = [f]
    g = f
    for _ in range(max_steps):
        nxt = optimal_predictor(g, rho, tie_rule="keep").to_boolean()
        if nxt == g:
            return OrbitReport(rho, "fixpoint", len(seq), g, None, None)
        if nxt in seen:
            start = seen[nxt]
            return OrbitReport(rho, "cycle", len(seq), None, start, len(seq) - start)
        seen[nxt] = len(seq)
        seq.append(nxt)
        g = nxt
    return OrbitReport(rho, "budget_exhausted", len(seq), None, None, None)


@dataclass(frozen=True)
class GraphScan:
    n: int
    rho: Fraction
    num_functions: int
    num_fixpoints: int
    num_components: int
    max_depth: int  # longest distance from any function to its cycle
    cycles: tuple  # non-trivial cycles as tuples of table-bit integers


def _functional_graph(succ):
    """(fixpoints, components, max depth, non-trivial cycles) of the map
    v -> succ[v] on 0..len(succ)-1.

    The images V, f(V), f(f(V)), ... shrink until they reach the cycle nodes,
    and they get there in exactly max-depth steps (the longest distance from a
    node to its cycle).  Every component holds one cycle.  A cycle tuple is
    listed in the order of its component's least node and starts at the first
    cycle node reached from it, the order of a depth-first walk from 0 up.
    Only the nodes of non-trivial cycles and the paths to them from those
    least nodes are walked in Python."""
    succ = np.asarray(succ, dtype=np.intp)
    total = len(succ)
    ids = np.arange(total)
    nodes, depth = ids, 0  # the image f^depth(V), ascending
    mark = np.zeros(total, dtype=bool)
    while True:
        mark[succ[nodes]] = True
        image = np.flatnonzero(mark)
        if len(image) == len(nodes):
            break
        mark[image] = False
        nodes, depth = image, depth + 1
    on_cycle = mark
    fixed = succ == ids
    num_fixpoints = int(np.count_nonzero(fixed))
    loop_nodes = np.flatnonzero(on_cycle & ~fixed).tolist()
    if not loop_nodes:
        return num_fixpoints, num_fixpoints, depth, ()
    step = succ.tolist()
    label = ids.copy()  # every cycle node labelled by the least node of its cycle
    loops = []
    for c in loop_nodes:  # ascending: each cycle is first met at its least node
        if label[c] != c:
            continue
        cycle = [c]
        while step[cycle[-1]] != c:
            cycle.append(step[cycle[-1]])
        label[cycle] = c
        loops.append(cycle)
    reach = ids
    for _ in range(depth):
        reach = succ[reach]
    least = np.full(total, total)
    np.minimum.at(least, label[reach], ids)
    found = []
    for cycle in loops:
        v = start = int(least[cycle[0]])
        while not on_cycle[v]:
            v = step[v]
        i = cycle.index(v)
        found.append((start, tuple(cycle[i:] + cycle[:i])))
    found.sort()
    return num_fixpoints, num_fixpoints + len(found), depth, tuple(c for _, c in found)


def graph_scan(n, rho):
    """Functional graph of the keep-rule predictor over all functions (n <= 4)."""
    rho = check_rho(rho)
    if not 0 <= n <= 4:
        raise InvalidArgument("graph scan is limited to 0 <= n <= 4")
    succ = _keep_successors(n, rho)  # every low half
    num_fixpoints, num_components, max_depth, cycles = _functional_graph(succ)
    if num_fixpoints > num_components:
        raise AssertionError("fixpoints exceed components")
    if (num_fixpoints == num_components) != (len(cycles) == 0):
        raise AssertionError("fixpoint/component balance violated")
    return GraphScan(
        n, rho, len(succ), num_fixpoints, num_components, max_depth, cycles
    )
