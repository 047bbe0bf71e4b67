"""On-disk formats and deterministic JSON helpers.

Formats (all JSON, dispatched on the "format" field):

* boolsp-fn-v1:   {"format", "n", "table_hex"} — truth table bits, hex digit k
                  holding inputs 4k..4k+3 (little-endian nibbles), bit set
                  means value +1.
* boolsp-ltf-v1:  {"format", "a0", "a"} — integer threshold form.
* boolsp-ptf-v1:  {"format", "n", "terms": [{"coords": [..], "coeff": c}]}.
* boolsp-plan-v1: {"format", "outer": <any of the above>, "blocks": [[..]]}.

Rationals are written as {"num", "den"}; region endpoints carry their kind
("exact" or "enclosure") plus a float "approx" for quick reading.
"""

import hashlib
import json
import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")
_HEX_RE = re.compile(r"[0-9a-fA-F]*\Z")

from .errors import InvalidArgument
from .functions import BooleanFunction, LtfSpec, PtfSpec, construct_ltf, construct_ptf
from .constructs import CompositionPlan

FN_FORMAT = "boolsp-fn-v1"
LTF_FORMAT = "boolsp-ltf-v1"
PTF_FORMAT = "boolsp-ptf-v1"
PLAN_FORMAT = "boolsp-plan-v1"
SPECTRUM_FORMAT = "boolsp-spectrum-v1"


def canonical_json(obj):
    """Stable, diff-friendly rendering: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def rational(x):
    """Exact rational plus a float rendering, side by side."""
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator, "approx": float(x)}


def parse_rational(obj, what="rational"):
    """Accept {"num","den"}, exact "p/q" strings (never floats), or integers."""
    try:
        if isinstance(obj, dict):
            return Fraction(int(obj["num"]), int(obj["den"]))
        if isinstance(obj, str):
            if not _RATIONAL_RE.match(obj.strip()):
                raise ValueError("expected an integer or p/q")
            return Fraction(obj)
        if isinstance(obj, int):
            return Fraction(obj)
    except (KeyError, ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidArgument(f"bad {what}: {obj!r} ({exc})") from None
    raise InvalidArgument(f"bad {what}: {obj!r}")


def _expect(value, kind, what):
    """value when it is a genuine JSON int or list (kind); int() would truncate
    2.7 and take True, and a string would pass for a list of digits."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise InvalidArgument(f"{what}: expected {kind.__name__}, got {value!r}")


def function_to_json(f):
    digits = max(1, (1 << f.n) // 4)
    hexstr = f"{f.bits:0{digits}x}"[::-1]  # digit k holds bits 4k..4k+3
    return {"format": FN_FORMAT, "n": f.n, "table_hex": hexstr}


def _function_from_json(obj, cap=None):
    n = _expect(obj.get("n"), int, "bad function file: n")
    hexstr = obj.get("table_hex")
    if n < 1:
        raise InvalidArgument(f"bad function file: n = {n!r}")
    digits = max(1, (1 << n) // 4)
    if not isinstance(hexstr, str) or len(hexstr) != digits:
        raise InvalidArgument(
            f"bad function file: table_hex must be {digits} hex digits for n = {n}"
        )
    # int() alone would also take "0x", "_", signs and whitespace
    if not _HEX_RE.match(hexstr):
        raise InvalidArgument("bad function file: table_hex is not hex")
    bits = int(hexstr[::-1], 16)  # digit k holds bits 4k..4k+3
    if bits >= 1 << (1 << n):
        raise InvalidArgument("bad function file: stray bits beyond the table")
    return BooleanFunction(n, bits, cap=cap)


def ltf_to_json(spec):
    return {"format": LTF_FORMAT, "a0": spec.a0, "a": list(spec.a)}


def _ltf_from_json(obj):
    try:
        a0 = _expect(obj["a0"], int, "bad LTF file: a0")
        a = _expect(obj["a"], list, "bad LTF file: a")
        return LtfSpec(a0, tuple(_expect(c, int, "bad LTF file: a") for c in a))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgument(f"bad LTF file: {exc}") from None


def ptf_to_json(spec):
    terms = []
    for mask, coeff in spec.terms:
        coords = [j + 1 for j in range(spec.n) if (mask >> j) & 1]
        terms.append({"coords": coords, "coeff": coeff})
    return {"format": PTF_FORMAT, "n": spec.n, "terms": terms}


def _ptf_from_json(obj):
    try:
        n = _expect(obj["n"], int, "bad PTF file: n")
        terms = []
        for t in _expect(obj["terms"], list, "bad PTF file: terms"):
            mask = 0
            for i in _expect(t["coords"], list, "bad PTF file: coords"):
                mask |= 1 << (_expect(i, int, "bad PTF file: coords") - 1)
            terms.append((mask, _expect(t["coeff"], int, "bad PTF file: coeff")))
        return PtfSpec(n, tuple(terms))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgument(f"bad PTF file: {exc}") from None


def function_from_obj(obj, cap=None):
    """Materialize a BooleanFunction from any function-bearing JSON object."""
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt == FN_FORMAT:
        return _function_from_json(obj, cap=cap)
    if fmt == LTF_FORMAT:
        return construct_ltf(_ltf_from_json(obj), cap=cap)
    if fmt == PTF_FORMAT:
        return construct_ptf(_ptf_from_json(obj), cap=cap)
    raise InvalidArgument(f"unrecognized function format {fmt!r}")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidArgument(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidArgument(f"{path} is not valid JSON: {exc}") from None


def load_function(path, cap=None):
    return function_from_obj(load_json(path), cap=cap)


def load_plan(path):
    """Composition plan: outer function object plus 1-based coordinate blocks."""
    obj = load_json(path)
    if not isinstance(obj, dict) or obj.get("format") != PLAN_FORMAT:
        raise InvalidArgument(f"{path} is not a {PLAN_FORMAT} file")
    try:
        what = "bad plan file: blocks"
        blocks = tuple(
            tuple(_expect(i, int, what) for i in _expect(b, list, what))
            for b in _expect(obj["blocks"], list, what)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgument(f"bad plan file: {exc}") from None
    outer = function_from_obj(obj.get("outer", {}))
    return outer, CompositionPlan(blocks)


def spectrum_to_json(spec):
    return {
        "format": SPECTRUM_FORMAT,
        "n": spec.n,
        "scaled_coeffs": spec.coeffs.tolist(),
    }


def endpoint_to_json(ep):
    if ep.kind == "exact":
        return {"kind": "exact", "value": rational(ep.value), "approx": ep.approx()}
    return {
        "kind": "enclosure",
        "lo": rational(ep.lo),
        "hi": rational(ep.hi),
        "approx": ep.approx(),
    }


def region_to_json(region):
    return {
        "epsilon": rational(region.epsilon),
        "intervals": [
            {
                "lo": endpoint_to_json(iv.lo),
                "hi": endpoint_to_json(iv.hi),
                "lo_closed": iv.lo_closed,
                "hi_closed": iv.hi_closed,
            }
            for iv in region.intervals
        ],
    }
