"""File formats, canonical JSON, rational parsing."""

import json
import random
from fractions import Fraction

import pytest

from boolsp import (
    BooleanFunction,
    InvalidArgument,
    LtfSpec,
    PtfSpec,
    construct_ltf,
    construct_named,
    construct_ptf,
    random_function,
    sp_region,
    wht,
)
from boolsp.serialize import (
    FN_FORMAT,
    LTF_FORMAT,
    PTF_FORMAT,
    canonical_json,
    endpoint_to_json,
    file_digest,
    function_from_obj,
    function_to_json,
    load_function,
    load_json,
    load_plan,
    ltf_to_json,
    parse_rational,
    ptf_to_json,
    rational,
    region_to_json,
    spectrum_to_json,
)

import oracles


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


def test_file_digest(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"a": 1}')
    import hashlib

    assert file_digest(p) == hashlib.sha256(b'{"a": 1}').hexdigest()


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
    assert obj["scaled_coeffs"] == [0, 4, 4, 0, 4, 0, 0, -4]


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
