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

import dataclasses
import hashlib
import json
import re
import sys
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")
_HEX_RE = re.compile(r"[0-9a-fA-F]*\Z")

from .config import check_cap
from .errors import CapacityError, InvalidArgument
from .functions import BooleanFunction, LtfSpec, PtfSpec, construct_ltf, construct_ptf
from .constructs import CompositionPlan
from .sp import Endpoint, SpRegion

FN_FORMAT = "boolsp-fn-v1"
LTF_FORMAT = "boolsp-ltf-v1"
PTF_FORMAT = "boolsp-ptf-v1"
PLAN_FORMAT = "boolsp-plan-v1"
SPECTRUM_FORMAT = "boolsp-spectrum-v1"


def canonical_json(obj):
    """Stable, diff-friendly rendering: sorted keys, two-space indent.

    The bytes are those of json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False, default=np.ndarray.tolist).  That call runs the
    pure-Python encoder, which costs about a microsecond per item, 0.5 s for
    the 2^19 coefficients of a spectrum.  So dicts with string keys and lists
    are laid out here, in one pass that appends to a single list of parts,
    and scalars are rendered as that encoder renders them.  A 1-D int64
    array is written by a numpy decimal kernel (_int64_items), and each
    non-empty list of plain ints goes through the C encoder in one call: its
    compact text is the indented one with ", " for the separators.  Anything
    else (empty or non-string-keyed containers) is rendered by json.dumps and
    indented to its depth, which is exact because newlines in JSON text only
    ever separate items (strings escape theirs).  write_json streams the
    same text."""
    out = []
    _emit(obj, "", out)
    out.append("\n")
    return "".join(out)


def write_json(obj, write):
    """Pass canonical_json(obj) to write(str) in pieces, never joined whole: a
    report of a 2^n spectrum holds one block of _int64_items at a time."""
    sink = _Sink(write)
    _emit(obj, "", sink)
    sink.append("\n")
    sink.flush()


# Parts this long go out on their own: every full block of _int64_items.
_BATCH = 1 << 16


class _Sink(list):
    """The list _emit appends to, writing as it goes.  append is the list's
    own, so the many small parts cost what they cost in canonical_json; they
    are gathered and written in one piece.  The parts _emit passes to extend
    (int64 blocks as _int64_items yields them, and a list of ints) are
    checked one by one: a part of _BATCH characters or more is written on
    its own, after the parts gathered before it.  A report without such a
    part is one write, at flush."""

    def __init__(self, write):
        super().__init__()
        self._write = write

    def extend(self, parts):
        for part in parts:
            if len(part) >= _BATCH:
                self.flush()
                self._write(part)
            else:
                self.append(part)

    def flush(self):
        if self:
            self._write("".join(self))
            self.clear()


_compact = json.JSONEncoder(allow_nan=False).encode


def _emit(obj, pad, out):
    """Append the text of obj, indented to pad, to the list out (or _Sink)."""
    inner = pad + "  "
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_compact(obj))
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))  # as json does, for int subclasses too
    elif isinstance(obj, np.ndarray) and obj.dtype == np.int64 and obj.ndim == 1:
        if obj.size:
            out.append("[")
            out.extend(_int64_items(obj, inner))
            out.append(f"\n{pad}]")
        else:
            out.append("[]")
    elif isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) == {int}:  # not bools: they print as true/false
            body = _compact(obj)[1:-1].replace(", ", ",\n" + inner)
            out.extend(("[\n", inner, body, "\n", pad, "]"))
        else:
            sep = "[\n" + inner
            for x in obj:
                out.append(sep)
                _emit(x, inner, out)
                sep = ",\n" + inner
            out.append(f"\n{pad}]")
    elif isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        sep = "{\n" + inner
        for k, v in sorted(obj.items()):
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _emit(v, inner, out)
            sep = ",\n" + inner
        out.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple, dict)):  # empty, or keys that are not all str
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
        out.append(text.replace("\n", "\n" + pad))
    else:
        out.append(_compact(obj))


# Items per chunk of _int64_items: its scratch memory grows with the block,
# not with the array.
_BLOCK = 1 << 16
_TENS = [10**t for t in range(1, 19)]  # |x| < 10^19 for every int64 x


def _int64_items(a, inner):
    """Yield the items of the non-empty int64 array a as json lays them out
    at indent inner, "\n" + inner + digits with "," between items, one text
    per block of _BLOCK items.

    Each block is one uint8 buffer of spaces.  Item i takes ",\n", the
    indent, a sign and its digits, at offsets from a cumsum of the int32
    widths.  The magnitudes |x| are taken as uint64, so -2^63 is exact, and
    narrowed to the least unsigned type that holds the block's largest: a
    block of small coefficients works on uint8 or uint16.  An item has one
    digit plus one for each power 10^t <= |x|, and only the powers below the
    block's largest |x| can count: one comparison pass per power, each over
    a contiguous array.  The digits are filled one place at a time from the
    right, keeping only the items that have more.  The first block drops its
    leading comma."""
    head = 2 + len(inner)  # ",\n" + inner
    for start in range(0, a.size, _BLOCK):
        block = a[start:start + _BLOCK]
        neg = block < 0
        mag = np.abs(block).view(np.uint64)
        top = int(mag.max())
        mag = mag.astype(np.min_scalar_type(top))
        width = neg.astype(np.int32)
        width += head + 1
        for ten in _TENS[:len(str(top)) - 1]:
            width += mag >= ten
        ends = np.cumsum(width, dtype=np.intp)  # the scatters below index by it
        starts = ends - width
        buf = np.full(int(ends[-1]), ord(" "), dtype=np.uint8)
        buf[starts] = ord(",")
        buf[starts + 1] = ord("\n")
        buf[starts[neg] + head] = ord("-")
        pos = ends - 1
        while pos.size:
            mag, digit = np.divmod(mag, 10)
            buf[pos] = digit.astype(np.uint8) + ord("0")
            more = mag > 0
            mag = mag[more]
            pos = pos[more] - 1
        yield str(memoryview(buf)[start == 0:], "ascii")


def check_renderable(x):
    """Raise CapacityError when the rational x has a numerator or denominator
    with more decimal digits than Python renders (sys.get_int_max_str_digits();
    none before 3.10.7).  A Decimal outside 10^-limit <= |x| < 10^limit has
    such a part, and is refused before Fraction(x) builds 10^|exponent|."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if isinstance(x, Decimal) and x and not -limit <= x.adjusted() < limit:
        x = 10**limit  # a stand-in with as many digits as the limit allows
    x = Fraction(x)
    for part in (x.numerator, x.denominator):
        # 10^limit has more than 3 * limit bits, so shorter parts always render
        if limit and part.bit_length() > 3 * limit and abs(part) >= 10**limit:
            raise CapacityError(
                f"exact result has more than {limit} decimal digits; "
                "too large to write"
            )


def rational(x):
    """Exact rational plus a float rendering, side by side (check_renderable)."""
    x = Fraction(x)
    check_renderable(x)
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


def _function_from_json(obj):
    n = _expect(obj.get("n"), int, "bad function file: n")
    hexstr = obj.get("table_hex")
    if n < 1:
        raise InvalidArgument(f"bad function file: n = {n!r}")
    check_cap(n)  # before 1 << n, which a huge n could not even format
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
    return BooleanFunction(n, bits)


def _ltf_from_json(obj):
    try:
        a0 = _expect(obj["a0"], int, "bad LTF file: a0")
        a = _expect(obj["a"], list, "bad LTF file: a")
        return LtfSpec(a0, tuple(_expect(c, int, "bad LTF file: a") for c in a))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgument(f"bad LTF file: {exc}") from None


def _ptf_from_json(obj):
    try:
        n = _expect(obj["n"], int, "bad PTF file: n")
        terms = []
        for t in _expect(obj["terms"], list, "bad PTF file: terms"):
            mask = 0
            for i in _expect(t["coords"], list, "bad PTF file: coords"):
                if not 1 <= _expect(i, int, "bad PTF file: coords") <= n:
                    raise InvalidArgument(
                        f"bad PTF file: coordinate {i} out of range 1..{n}"
                    )
                mask |= 1 << (i - 1)  # checked first: a huge i would build 2^i
            terms.append((mask, _expect(t["coeff"], int, "bad PTF file: coeff")))
        return PtfSpec(n, tuple(terms))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgument(f"bad PTF file: {exc}") from None


def function_from_obj(obj):
    """Materialize a BooleanFunction from any function-bearing JSON object."""
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt == FN_FORMAT:
        return _function_from_json(obj)
    if fmt == LTF_FORMAT:
        return construct_ltf(_ltf_from_json(obj))
    if fmt == PTF_FORMAT:
        return construct_ptf(_ptf_from_json(obj))
    raise InvalidArgument(f"unrecognized function format {fmt!r}")


def load_json(path, digests=None):
    """Parse the UTF-8 JSON file at path, read once.  With a dict digests, the
    sha256 of the bytes parsed is recorded there under path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        obj = json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise InvalidArgument(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidArgument(f"{path} is not valid JSON: {exc}") from None
    except ValueError as exc:  # not UTF-8, or an int longer than Python converts
        raise InvalidArgument(f"cannot read {path}: {exc}") from None
    if digests is not None:
        digests[path] = hashlib.sha256(data).hexdigest()
    return obj


def load_function(path):
    return function_from_obj(load_json(path))


def load_plan(path, digests=None):
    """Composition plan: outer function object plus 1-based coordinate blocks
    (digests as for load_json)."""
    obj = load_json(path, digests)
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
        "scaled_coeffs": spec.coeffs,
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
    """An SpRegion without its n, which every report already carries."""
    return {"epsilon": rational(region.epsilon), "intervals": to_json(region.intervals)}


# Field names of the library results that the reports spell out.
_REPORT_KEYS = {"lev": "level", "lev_zero_count": "level_zero_count"}


def to_json(x):
    """The report form of a library result.  Scalars and None pass through;
    a Fraction, Endpoint, BooleanFunction or SpRegion takes the form written
    above; tuples become lists and dicts are converted value by value; any
    other dataclass becomes an object of its fields (lev and lev_zero_count
    as level and level_zero_count), each through to_json."""
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, Fraction):
        return rational(x)
    if isinstance(x, Endpoint):
        return endpoint_to_json(x)
    if isinstance(x, BooleanFunction):
        return function_to_json(x)
    if isinstance(x, SpRegion):
        return region_to_json(x)
    if isinstance(x, (tuple, list)):
        return [to_json(v) for v in x]
    if isinstance(x, dict):
        return {k: to_json(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x):
        return {
            _REPORT_KEYS.get(f.name, f.name): to_json(getattr(x, f.name))
            for f in dataclasses.fields(x)
        }
    raise TypeError(f"no report form for {type(x).__name__}")
