"""Correctness gate: reduce a CLI report to a comparable form and compare it.

The comparison accepts any correct implementation, not only this one:

* exact values (integers, Fractions written as {"num", "den"}, flags,
  counts) must be equal;
* a region endpoint given as an enclosure must have width <= epsilon and
  overlap the reference endpoint (an exact reference value must lie inside
  it), so a different but valid bracketing of the same root passes;
* float "approx" renderings are dropped, since they follow the enclosure;
* the USP witness is only required to be present or absent like the
  reference's: it is the representative of whichever failing point
  polynomial the implementation met first, and any failing point is valid.
  The other witnesses are least indices and are compared exactly.

Long scalar lists, long strings and integers of more than 64 digits
(spectra, predictor tables, the hypercontractive bounds) are kept as a
SHA-256 digest of their JSON, which is still an exact comparison.
"""

import hashlib
import json
from fractions import Fraction

LONG = 64
DEFAULT_EPSILON = Fraction(1, 10**9)  # the CLI default; no request overrides it


def _digest(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return {"len": len(value), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _reduce(value):
    if isinstance(value, dict):
        return {k: _reduce(v) for k, v in value.items() if k != "approx"}
    if isinstance(value, list):
        if len(value) > LONG and not any(isinstance(v, (dict, list)) for v in value):
            return _digest(value)
        return [_reduce(v) for v in value]
    if isinstance(value, str) and len(value) > LONG:
        return _digest(value)
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) >= 10**LONG:
        return _digest(str(value))
    return value


def normalize(envelope):
    """Comparable form of a CLI JSON envelope.

    The config echoes file paths, which differ between runs, so it is
    dropped; the input files are still pinned by their SHA-256 digests.
    """
    return {
        "command": envelope["command"],
        "inputs": sorted(envelope["inputs"].values()),
        "result": _reduce(envelope["result"]),
    }


def _fraction(obj):
    return Fraction(obj["num"], obj["den"])


def _is_endpoint(obj):
    return isinstance(obj, dict) and obj.get("kind") in ("exact", "enclosure")


def _bounds(ep):
    if ep["kind"] == "exact":
        v = _fraction(ep["value"])
        return v, v
    return _fraction(ep["lo"]), _fraction(ep["hi"])


def _endpoint_mismatch(ref, got, eps):
    if not _is_endpoint(got):
        return "expected an endpoint"
    ref_lo, ref_hi = _bounds(ref)
    lo, hi = _bounds(got)
    if hi - lo > eps:
        return f"enclosure wider than epsilon: [{lo}, {hi}]"
    if ref["kind"] == "exact" and got["kind"] == "exact":
        return None if lo == ref_lo else f"exact {lo} != {ref_lo}"
    if max(lo, ref_lo) > min(hi, ref_hi):
        return f"[{lo}, {hi}] misses reference [{ref_lo}, {ref_hi}]"
    return None


def mismatch(ref, got, eps=DEFAULT_EPSILON, path="$"):
    """First difference between a normalized reference and a report, or None."""
    if _is_endpoint(ref):
        why = _endpoint_mismatch(ref, got, eps)
        return None if why is None else f"{path}: {why}"
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return f"{path}: keys differ"
        if "epsilon" in ref:
            eps = _fraction(ref["epsilon"])
        for key in sorted(ref):
            if path.endswith(".witnesses") and key == "usp":
                continue
            why = mismatch(ref[key], got[key], eps, f"{path}.{key}")
            if why:
                return why
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{path}: lengths differ"
        for i, (r, g) in enumerate(zip(ref, got)):
            why = mismatch(r, g, eps, f"{path}[{i}]")
            if why:
                return why
        return None
    if type(ref) is not type(got) or ref != got:
        return f"{path}: {got!r} != {ref!r}"
    return None
