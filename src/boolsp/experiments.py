"""Shell biases, bad points, sharp-threshold constants, and whole-space scans.

The n <= 4 scans enumerate every Boolean function at once: truth tables as
the columns of a (2^n, 2^2^n) int8 matrix, one butterfly along the points
for all spectra, and the rho-weighted butterfly of scaled_t_values back
for all scaled noise-operator values.  Everything stays in int64
(bounds: |values| <= 2^n * q^n * 2^n).
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, factorial, log2, sqrt

import numpy as np

from .config import thread_count
from .errors import InvalidArgument
from .functions import BooleanFunction, popcounts
from .noise import _rho_weights, check_rho, disagreement, optimal_predictor
from .spectrum import _butterfly, _weighted_transform


def shell_bias(f, v, d):
    """Fraction of the distance-d shell around v where f disagrees with f(v)."""
    if not 1 <= d <= f.n:
        raise InvalidArgument(f"shell distance must be in 1..{f.n}")
    shell = np.flatnonzero(popcounts(f.n) == d) ^ v
    disagree = int(np.count_nonzero(f.values[shell] != f.value_at(v)))
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
        ell = max(1, ceil(log2(f.n))) if f.n > 1 else 1
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


def _delta_max(tol=1e-9):
    lo, hi = 0.01, 0.25
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if _eta_delta(mid, tol=1e-13) is None:
            hi = mid
        else:
            lo = mid
    return lo


@dataclass(frozen=True)
class ThresholdConstants:
    alpha: Fraction  # None when not requested
    eta_alpha: Fraction  # (alpha - 1) / (2 alpha)
    delta: Fraction
    eta_delta: float  # minimal usable eta (< 1/4), None when undefined
    eta_delta_defined: bool
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
        eta_delta = _eta_delta(float(delta))
        defined = eta_delta is not None
        if not defined:
            reason = "no eta below 1/4 meets the divergence level (delta above delta_max)"
    return ThresholdConstants(
        alpha, eta_alpha, delta, eta_delta, defined, reason, _delta_max()
    )


# ---------------------------------------------------------------------------
# whole-space scans (n <= 4)


def _all_tables(n, start, stop):
    """Truth tables of functions start..stop-1 as the columns of a (2^n, B) matrix."""
    ids = np.arange(start, stop, dtype=np.int64)
    bits = (ids[None, :] >> np.arange(1 << n, dtype=np.int64)[:, None]) & 1
    return (2 * bits - 1).astype(np.int8)


def _scaled_predictor_values(tables, n, rho):
    """Scaled T_rho values (2^n q^n T) for a batch of truth tables (columns)."""
    by_level = _rho_weights(n, rho)
    bound = (1 << n) * max(by_level) * (1 << n) * (1 << n)
    if bound >= 1 << 62:
        raise InvalidArgument("rho denominator too large for the int64 scan")
    spectra = _butterfly(tables.astype(np.int64))
    return _weighted_transform(spectra, np.array(by_level, dtype=np.int64))


def _sp_mask(tables, scaled):
    return ~np.any(disagreement(tables, scaled), axis=0)


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


def sp_fraction(n, rho, mode="exhaustive", samples=None, seed=None, threads=None):
    rho = check_rho(rho)
    if n < 0:
        raise InvalidArgument(f"n must be >= 0, got {n}")
    workers = thread_count(threads)  # validated in both modes
    if mode == "exhaustive":
        if n > 4:
            raise InvalidArgument("exhaustive census is limited to n <= 4")
        total = 1 << (1 << n)
        chunk = max(1024, total // (workers * 8) or total)
        spans = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]

        def count_span(span):
            tables = _all_tables(n, *span)
            return int(np.count_nonzero(_sp_mask(tables, _scaled_predictor_values(tables, n, rho))))

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                sp_count = sum(pool.map(count_span, spans))
        else:
            sp_count = sum(count_span(s) for s in spans)
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


def graph_scan(n, rho):
    """Functional graph of the keep-rule predictor over all functions (n <= 4)."""
    rho = check_rho(rho)
    if not 0 <= n <= 4:
        raise InvalidArgument("graph scan is limited to 0 <= n <= 4")
    total = 1 << (1 << n)
    tables = _all_tables(n, 0, total)
    scaled = _scaled_predictor_values(tables, n, rho)
    pred = np.where(scaled != 0, np.sign(scaled), tables).astype(np.int8)
    weights = (1 << np.arange(1 << n, dtype=np.int64))[:, None]
    succ = ((pred > 0).astype(np.int64) * weights).sum(axis=0)
    succ = succ.tolist()

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
    if num_fixpoints > num_components:
        raise AssertionError("fixpoints exceed components")
    if (num_fixpoints == num_components) != (len(cycles) == 0):
        raise AssertionError("fixpoint/component balance violated")
    return GraphScan(
        n, rho, total, num_fixpoints, num_components, max_depth, tuple(cycles)
    )
