"""File formats, canonical JSON, rational parsing."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolsp import (
    BooleanFunction,
    CapacityError,
    InvalidArgument,
    LtfSpec,
    PtfSpec,
    classify,
    construct_ltf,
    construct_named,
    construct_ptf,
    random_function,
    sp_region,
    wht,
)
from boolsp import serialize
from boolsp.cli import _text_lines
from boolsp.serialize import (
    FN_FORMAT,
    LTF_FORMAT,
    PTF_FORMAT,
    canonical_json,
    endpoint_to_json,
    function_from_obj,
    function_to_json,
    load_function,
    load_json,
    load_plan,
    parse_rational,
    rational,
    region_to_json,
    spectrum_to_json,
    to_json,
)

import oracles
from spec_files import ltf_to_json, ptf_to_json


# ---------------------------------------------------------------------------
# rationals


def test_rational_round_trip():
    x = Fraction(-7, 12)
    obj = rational(x)
    assert obj == {"num": -7, "den": 12, "approx": -7 / 12}
    assert parse_rational(obj) == x


@pytest.mark.parametrize(
    "text,value",
    [("1/2", Fraction(1, 2)), ("3", Fraction(3)), ("-2/7", Fraction(-2, 7)),
     ("+4/8", Fraction(1, 2)), (" 9/10 ", Fraction(9, 10))],
)
def test_parse_rational_accepts_exact_strings(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "bad",
    ["0.5", "1e-3", ".25", "1/0", "one half", "1/2/3", "", "0x3", 0.5, None,
     [1, 2], {"num": 1}, {"num": 1, "den": 0}],
)
def test_parse_rational_rejects_floats_and_junk(bad):
    with pytest.raises(InvalidArgument):
        parse_rational(bad)


# ---------------------------------------------------------------------------
# canonical JSON and digests


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [1, 2], "b": 1}


def test_canonical_json_refuses_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def stdlib_canonical(obj):
    return json.dumps(
        obj, sort_keys=True, indent=2, allow_nan=False, default=np.ndarray.tolist
    ) + "\n"


class LoudInt(int):
    """json prints int subclasses through int.__repr__, not their own."""

    def __repr__(self):
        return "loud"

    __str__ = __repr__


@pytest.mark.parametrize(
    "obj",
    [
        1, "a", None, True, 1.5, [], {}, [[]], {"a": [], "b": {}},
        [1, 2, 3], [True, 1], [1, False], [1, 2.0], [1, None],
        (1, 2), [(1, 2), (True,)],
        [2**200, -(2**70), 0], {"z": [[1, 2], [3, [4, 5]]], "a": {"é": "x\ny"}},
        {1: [1, 2], 2: "x"}, {"k": [1, {"c": [3, 4]}, "s"]},
        [LoudInt(3), 4], {"k": LoudInt(5)},
        {"spectrum": spectrum_to_json(wht(construct_named("or", 3)))},
    ],
)
def test_canonical_json_bytes_match_stdlib(obj):
    assert canonical_json(obj) == stdlib_canonical(obj)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(), max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_canonical_json_bytes_match_stdlib_on_random_values(obj):
    assert canonical_json(obj) == stdlib_canonical(obj)


# int64 values at every digit count, both signs, the two ends of the range,
# and both sides of each unsigned type's top, where a block's magnitudes
# change dtype
INT64_EDGES = [0, 2**63 - 1, -(2**63)] + [
    sign * (base**k + d)
    for base, ks in ((10, range(1, 19)), (2, (8, 16, 32)))
    for k in ks
    for d in (-1, 0)
    for sign in (1, -1)
]
BLOCK_SIZES = [serialize._BLOCK - 1, serialize._BLOCK, serialize._BLOCK + 1]


@st.composite
def int64_arrays(draw):
    """Seeded int64 arrays at every digit count, with edge values planted."""
    size = draw(st.sampled_from([0, 1, 2, *BLOCK_SIZES]) | st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(-(2**63), 2**63, size=size, dtype=np.int64)
    a >>= rng.integers(0, 64, size=size)  # as many short values as long ones
    if size:
        edges = draw(st.lists(st.sampled_from(INT64_EDGES), max_size=8))
        a[rng.integers(0, size, size=len(edges))] = edges
    return a


def nested(depth):
    """Values with str-keyed dicts and lists nested at most depth deep."""
    leaf = int64_arrays() | st.integers() | st.none() | st.booleans() | st.text(max_size=3)
    if depth == 0:
        return leaf
    inner = nested(depth - 1)
    return (
        leaf
        | st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    )


def assert_same_text(got, want):
    """got == want, reported by the first differing offset: pytest's diff of
    two texts of 2^17 lines takes minutes."""
    if got != want:
        i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"texts differ at offset {i}: {got[i - 30:i + 30]!r} "
                    f"!= {want[i - 30:i + 30]!r}")


def streamed(obj):
    """The pieces write_json passes to its writer for obj."""
    pieces = []
    serialize.write_json(obj, pieces.append)
    return pieces


def as_lists(obj):
    """obj with every array replaced by its list."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, list):
        return [as_lists(x) for x in obj]
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    return obj


@settings(max_examples=100, deadline=None)
@given(nested(4))
def test_canonical_json_int64_arrays_match_stdlib(obj):
    text = canonical_json(obj)
    assert_same_text(text, stdlib_canonical(obj))
    assert_same_text("".join(streamed(obj)), text)
    assert _text_lines(obj) == _text_lines(as_lists(obj))


@pytest.mark.parametrize("size", [0, 1, *BLOCK_SIZES, 2 * serialize._BLOCK + 1])
@pytest.mark.parametrize("depth", range(5))
def test_canonical_json_int64_block_edges(size, depth):
    a = np.resize(np.array(INT64_EDGES, dtype=np.int64), size)
    obj = a
    for level in range(depth):
        obj = {"k": [1, obj]} if level % 2 else [obj]
    assert_same_text(canonical_json(obj), stdlib_canonical(obj))


@pytest.mark.parametrize("top", INT64_EDGES)
def test_canonical_json_int64_block_maximum(top):
    # each edge as the largest magnitude of its block, so every narrowed
    # magnitude dtype is met at its top and just past it
    a = np.array([top // 10, top, -(top // 3), 0, top // 2], dtype=np.int64)
    assert_same_text(canonical_json(a), stdlib_canonical(a))


@pytest.mark.parametrize("depth", range(3))
def test_streamed_report_equals_canonical_json(depth):
    # arrays of three blocks and a bit, among small parts before and after
    rng = np.random.default_rng(depth)
    a = rng.integers(-(2**63), 2**63, size=3 * serialize._BLOCK + 7, dtype=np.int64)
    a >>= rng.integers(0, 64, size=a.size)
    obj = {"a": a, "tail": [1, "x", None, {"b": a[:5]}], "head": "h"}
    for level in range(depth):
        obj = {"k": [True, obj, a[::-1].copy()]} if level % 2 else [obj, -1]
    pieces = streamed(obj)
    text = canonical_json(obj)
    assert_same_text("".join(pieces), text)
    # written as it was laid out: no piece is the text or most of it
    assert len(pieces) > 3 and max(map(len, pieces)) < len(text) // 2


def test_small_report_is_one_write():
    obj = {"n": 3, "spectrum": np.arange(8, dtype=np.int64), "names": ["a", "b"]}
    assert streamed(obj) == [canonical_json(obj)]


def test_file_digest(tmp_path):
    # load_json records the sha256 of the bytes it parsed, when asked
    p = tmp_path / "x.json"
    p.write_text('{"a": 1}')
    import hashlib

    digests = {}
    assert load_json(p) == load_json(p, digests) == {"a": 1}
    assert digests == {p: hashlib.sha256(b'{"a": 1}').hexdigest()}


# ---------------------------------------------------------------------------
# function files


def test_function_round_trip_various_sizes():
    rng = random.Random(41)
    for n in (1, 2, 3, 5):
        f = BooleanFunction.from_values(
            [rng.choice((-1, 1)) for _ in range(1 << n)]
        )
        obj = function_to_json(f)
        assert obj["format"] == FN_FORMAT
        assert len(obj["table_hex"]) == max(1, (1 << n) // 4)
        g = function_from_obj(obj)
        assert g == f


def test_function_hex_is_little_endian_nibbles():
    maj = construct_named("majority", 3)
    obj = function_to_json(maj)
    # table bits 0..7 with +1 at 0,1,2,4: 0b00010111 -> nibbles "7", "1"
    assert obj == {"format": FN_FORMAT, "n": 3, "table_hex": "71"}


def test_function_n1_single_digit():
    f = BooleanFunction.from_values([1, -1])
    obj = function_to_json(f)
    assert obj["table_hex"] == "1"
    assert function_from_obj(obj) == f


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.update(n=0),
        lambda o: o.update(table_hex="7"),  # wrong digit count for n=3
        lambda o: o.update(table_hex="zz"),
        lambda o: o.update(format="boolsp-fn-v0"),
        lambda o: o.pop("table_hex"),
    ],
)
def test_function_file_validation(mutate):
    obj = function_to_json(construct_named("majority", 3))
    mutate(obj)
    with pytest.raises(InvalidArgument):
        function_from_obj(obj)


@pytest.mark.parametrize("table_hex", ["f1x0", "11_1", "111+", "111-", "111 ", "１111"])
def test_function_file_rejects_what_int_would_take(table_hex):
    # right length for n=4, and int(table_hex[::-1], 16) would accept each
    int(table_hex[::-1], 16)
    with pytest.raises(InvalidArgument):
        function_from_obj({"format": FN_FORMAT, "n": 4, "table_hex": table_hex})


def test_function_hex_round_trip_large_tables():
    rng = random.Random(43)
    for n in (4, 9, 12):
        bits = rng.getrandbits(1 << n)
        f = BooleanFunction(n, bits)
        obj = function_to_json(f)
        assert function_from_obj(obj) == f
        nibbles = [int(c, 16) for c in obj["table_hex"]]
        assert sum(v << (4 * k) for k, v in enumerate(nibbles)) == bits
        upper = dict(obj, table_hex=obj["table_hex"].upper())
        assert function_from_obj(upper) == f


def test_function_hex_matches_per_nibble_reference():
    def per_nibble(f):
        digits = max(1, (1 << f.n) // 4)
        return "".join(f"{(f.bits >> (4 * k)) & 0xF:x}" for k in range(digits))

    small = [BooleanFunction(n, b) for n in (1, 2, 3) for b in range(1 << (1 << n))]
    rand = [random_function(n, s) for n in range(1, 15) for s in range(3)]
    for f in small + rand:
        assert function_to_json(f)["table_hex"] == per_nibble(f), (f.n, f.bits)


def test_function_file_rejects_bool_n():
    # True == 1 in Python; it used to run as n=1 and be echoed as "n": true
    with pytest.raises(InvalidArgument, match="expected int"):
        function_from_obj({"format": FN_FORMAT, "n": True, "table_hex": "1"})


def test_function_file_stray_bits_rejected():
    with pytest.raises(InvalidArgument):
        function_from_obj({"format": FN_FORMAT, "n": 1, "table_hex": "f"})


# ---------------------------------------------------------------------------
# LTF / PTF files


def test_ltf_round_trip():
    spec = LtfSpec(2, (3, -1, 5))
    obj = ltf_to_json(spec)
    assert obj == {"format": LTF_FORMAT, "a0": 2, "a": [3, -1, 5]}
    f = function_from_obj(obj)
    assert f == construct_ltf(spec)


def test_ptf_round_trip_with_one_based_coords():
    spec = PtfSpec(3, ((0b011, 2), (0b100, -1)))
    obj = ptf_to_json(spec)
    assert obj["terms"] == [
        {"coords": [1, 2], "coeff": 2},
        {"coords": [3], "coeff": -1},
    ]
    f = function_from_obj(obj)
    assert f == construct_ptf(spec)


def test_ltf_file_validation():
    with pytest.raises(InvalidArgument):
        function_from_obj({"format": LTF_FORMAT, "a0": 0})
    with pytest.raises(InvalidArgument):
        function_from_obj({"format": PTF_FORMAT, "n": 2, "terms": [{"coeff": 1}]})


@pytest.mark.parametrize(
    "obj",
    [
        {"a0": 0.9, "a": [2.7, 1, 1, 1]},  # int() would truncate to (0, (2,1,1,1))
        {"a0": 0, "a": "2111"},  # would be read digit by digit
        {"a0": True, "a": [2, 1, 1, 1]},
        {"a0": 0, "a": [2, 1, 1, "1"]},
    ],
)
def test_ltf_file_rejects_non_integers(obj):
    with pytest.raises(InvalidArgument, match="expected"):
        function_from_obj(dict(obj, format=LTF_FORMAT))


def test_ptf_file_with_huge_n_refused_before_any_table():
    # the mask check and the cap need no 2^n: n = 10^9 is refused at once
    obj = {"format": PTF_FORMAT, "n": 10**9, "terms": [{"coords": [5], "coeff": 1}]}
    with pytest.raises(CapacityError):
        function_from_obj(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 2, "terms": [{"coords": "12", "coeff": 1}]},
        {"n": 2, "terms": [{"coords": [1, 2], "coeff": 1.5}]},
        {"n": 2, "terms": [{"coords": [1, 2.0], "coeff": 1}]},
        {"n": "2", "terms": [{"coords": [1, 2], "coeff": 1}]},
        {"n": 2, "terms": [{"coords": [1, 2], "coeff": True}]},
    ],
)
def test_ptf_file_rejects_non_integers(obj):
    with pytest.raises(InvalidArgument, match="expected"):
        function_from_obj(dict(obj, format=PTF_FORMAT))


# ---------------------------------------------------------------------------
# path loading


def test_load_function_and_plan(tmp_path):
    fn_path = tmp_path / "f.json"
    fn_path.write_text(canonical_json(function_to_json(construct_named("or", 2))))
    f = load_function(fn_path)
    assert f == construct_named("or", 2)

    plan_path = tmp_path / "plan.json"
    plan_path.write_text(
        canonical_json(
            {
                "format": "boolsp-plan-v1",
                "outer": function_to_json(construct_named("or", 2)),
                "blocks": [[1, 3], [2]],
            }
        )
    )
    outer, plan = load_plan(plan_path)
    assert outer == construct_named("or", 2)
    assert plan.blocks == ((1, 3), (2,))


@pytest.mark.parametrize("blocks", ["12", [[1, 3.0], [2]], ["13", [2]], [[1, True], [2]]])
def test_plan_file_rejects_non_integers(tmp_path, blocks):
    plan_path = tmp_path / "plan.json"
    obj = {
        "format": "boolsp-plan-v1",
        "outer": function_to_json(construct_named("or", 2)),
        "blocks": blocks,
    }
    plan_path.write_text(json.dumps(obj))
    with pytest.raises(InvalidArgument, match="expected"):
        load_plan(plan_path)


def test_load_json_errors(tmp_path):
    with pytest.raises(InvalidArgument):
        load_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidArgument):
        load_json(bad)


# ---------------------------------------------------------------------------
# spectra / regions


def test_spectrum_to_json():
    obj = spectrum_to_json(wht(construct_named("majority", 3)))
    assert obj["format"] == "boolsp-spectrum-v1"
    assert obj["n"] == 3
    assert obj["scaled_coeffs"].dtype == np.int64
    assert obj["scaled_coeffs"].tolist() == [0, 4, 4, 0, 4, 0, 0, -4]


def test_endpoint_and_region_json():
    region = sp_region(construct_named("or", 3))
    obj = region_to_json(region)
    assert [list(iv) for iv in [(i["lo"]["kind"], i["hi"]["kind"]) for i in obj["intervals"]]] == [
        ["enclosure", "exact"]
    ]
    iv = obj["intervals"][0]
    assert iv["lo_closed"] and iv["hi_closed"]
    lo = iv["lo"]
    assert Fraction(lo["lo"]["num"], lo["lo"]["den"]) <= Fraction(lo["hi"]["num"], lo["hi"]["den"])
    assert iv["hi"]["value"] == {"num": 1, "den": 1, "approx": 1.0}
    # canonical rendering of the whole region is reproducible
    assert canonical_json(obj) == canonical_json(region_to_json(sp_region(construct_named("or", 3))))


# ---------------------------------------------------------------------------
# report form of library results


def test_to_json_writes_results_as_their_fields():
    c = classify(construct_ltf(LtfSpec(0, (2, 1, 1, 1))))
    obj = to_json(c)
    assert set(obj) == {
        "usp", "lcsp", "wst", "sst", "monotonically_sp", "rho0",
        "level", "level_zero_count", "region", "witnesses",
    }
    assert (obj["level"], obj["level_zero_count"]) == (c.lev, c.lev_zero_count)
    assert obj["region"] == region_to_json(c.region) and "n" not in obj["region"]
    assert obj["rho0"] == (None if c.rho0 is None else endpoint_to_json(c.rho0))
    assert obj["witnesses"] == c.witnesses


def test_to_json_scalars_containers_and_functions():
    f = construct_named("majority", 3)
    assert to_json(None) is None
    assert to_json((True, 3, 0.5, "x")) == [True, 3, 0.5, "x"]
    assert to_json({"a": (Fraction(1, 3),)}) == {"a": [rational(Fraction(1, 3))]}
    assert to_json(f) == function_to_json(f)
    with pytest.raises(TypeError):
        to_json(object())
