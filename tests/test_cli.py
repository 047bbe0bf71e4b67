"""End-to-end CLI behavior: envelopes, exit codes, files, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolsp import construct_ltf, construct_named, LtfSpec, PtfSpec
from boolsp import cli, functions, sp, spectrum
from boolsp.cli import main
from boolsp.serialize import (
    canonical_json,
    function_to_json,
    ltf_to_json,
    ptf_to_json,
)

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fn(tmp_path, name, f):
    p = tmp_path / name
    p.write_text(canonical_json(function_to_json(f)))
    return str(p)


@pytest.fixture
def maj3(tmp_path):
    return write_fn(tmp_path, "maj3.json", construct_named("majority", 3))


@pytest.fixture
def or3(tmp_path):
    return write_fn(tmp_path, "or3.json", construct_named("or", 3))


# ---------------------------------------------------------------------------
# envelope and determinism


def test_region_envelope_shape(capsys, maj3):
    code, out, err = run(capsys, "region", "--fn", maj3)
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert list(obj) == sorted(obj)  # canonical ordering
    assert obj["tool"] == "boolsp"
    assert obj["command"] == "region"
    assert obj["inputs"] == {
        maj3: hashlib.sha256(Path(maj3).read_bytes()).hexdigest()
    }
    iv = obj["result"]["region"]["intervals"]
    assert len(iv) == 1
    assert iv[0]["lo"] == {
        "kind": "exact",
        "value": {"num": 0, "den": 1, "approx": 0.0},
        "approx": 0.0,
    }
    assert iv[0]["hi"]["value"]["num"] == 1


def test_output_byte_identical_across_runs(capsys, maj3):
    _, out1, _ = run(capsys, "classify", "--fn", maj3)
    _, out2, _ = run(capsys, "classify", "--fn", maj3)
    assert out1 == out2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "boolsp" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes


def test_float_rho_rejected(capsys, maj3):
    code, _, err = run(capsys, "stability", "--fn", maj3, "--rho", "0.5")
    assert code == 1
    assert err.startswith("error:")


def test_rho_out_of_range(capsys, maj3):
    code, _, err = run(capsys, "stability", "--fn", maj3, "--rho", "3/2")
    assert code == 1 and "rho" in err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_census_has_no_threads_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "2", "--rho", "1/2", "--threads", "2"])
    assert exc.value.code == 2


def test_parser_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if kwargs.get("prog") == "boolsp":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    clear = getattr(cli._build_parser, "cache_clear", lambda: None)
    clear()
    try:
        assert run(capsys, "graph", "--n", "1", "--rho", "1/2")[0] == 0
        assert run(capsys, "census", "--n", "1", "--rho", "1/2")[0] == 0
    finally:
        clear()
    assert len(built) == 1


def test_missing_required_rho(capsys, maj3):
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--fn", maj3])
    assert exc.value.code == 2


def test_exactly_one_function_source(capsys, tmp_path, maj3):
    ltf = tmp_path / "l.json"
    ltf.write_text(canonical_json(ltf_to_json(LtfSpec(0, (1, 1, 1)))))
    code, _, err = run(capsys, "region", "--fn", maj3, "--ltf", str(ltf))
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "region")
    assert code == 1


def test_declared_format_must_match(capsys, tmp_path):
    ltf = tmp_path / "l.json"
    ltf.write_text(canonical_json(ltf_to_json(LtfSpec(0, (1, 1, 1)))))
    code, _, err = run(capsys, "region", "--fn", str(ltf))
    assert code == 1 and "boolsp-fn-v1" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "region", "--fn", str(tmp_path / "nope.json"))
    assert code == 1


def test_bad_epsilon(capsys, maj3):
    code, _, err = run(capsys, "region", "--fn", maj3, "--epsilon", "2")
    assert code == 1 and "epsilon" in err


# ---------------------------------------------------------------------------
# analyze / classify / stability


def test_analyze_majority(capsys, maj3):
    code, out, _ = run(capsys, "analyze", "--fn", maj3)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["properties"]["monotone"] and res["properties"]["odd"]
    assert res["spectrum"]["scaled_coeffs"] == [0, 4, 4, 0, 4, 0, 0, -4]
    assert res["dominating_boundary"] == [1, 2, 3, 4, 5, 6]
    assert res["summary"]["degree"] == 3


def test_analyze_evaluates_properties_once(capsys, monkeypatch, tmp_path):
    calls = []

    def counted(f):
        calls.append(f)
        return functions.properties(f)

    for mod in (cli, spectrum, sp):
        monkeypatch.setattr(mod, "properties", counted)
    fn = write_fn(tmp_path, "or5.json", construct_named("or", 5))
    code, out, _ = run(capsys, "analyze", "--fn", fn)
    assert code == 0 and len(calls) == 1
    res = json.loads(out)["result"]
    assert res["properties"]["monotone"]
    assert res["summary"]["influences"] is not None
    assert res["dominating_boundary"] == [0, 1, 2, 4, 8, 16]


def test_classify_ltf_input(capsys, tmp_path):
    ltf = tmp_path / "w.json"
    ltf.write_text(canonical_json(ltf_to_json(LtfSpec(0, (2, 1, 1, 1)))))
    code, out, _ = run(capsys, "classify", "--ltf", str(ltf))
    assert code == 0
    c = json.loads(out)["result"]["classification"]
    assert c["usp"] and c["lcsp"] and c["wst"] and not c["sst"]
    assert c["level"] == 1 and c["level_zero_count"] == 2
    assert c["monotonically_sp"]


def test_classify_ptf_input(capsys, tmp_path):
    ptf = tmp_path / "p.json"
    spec = PtfSpec(2, ((0b01, 1), (0b10, 2)))
    ptf.write_text(canonical_json(ptf_to_json(spec)))
    code, out, _ = run(capsys, "classify", "--ptf", str(ptf))
    assert code == 0
    assert json.loads(out)["result"]["n"] == 2


def test_stability_majority_values(capsys, maj3):
    code, out, _ = run(capsys, "stability", "--fn", maj3, "--rho", "1/2")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["stability"]["stab"] == {"num": 13, "den": 32, "approx": 13 / 32}
    assert res["stability"]["stab_star"] == res["stability"]["stab"]
    assert res["closeness"]["distance"]["num"] == 0
    assert res["gain"]["ratio"]["num"] == 1
    assert res["necessary"]["basic_ok"] is True


def test_stability_computes_the_sign_stream_once(capsys, maj3, monkeypatch):
    from boolsp import noise

    calls = []

    def counted(spectra, weights):
        calls.append(len(weights))
        return real(spectra, weights)

    real = noise._weighted_signs
    monkeypatch.setattr(noise, "_weighted_signs", counted)
    code, _, _ = run(capsys, "stability", "--fn", maj3, "--rho", "1/2")
    assert code == 0 and calls == [4]


def test_stability_zero_rho_gain_absent(capsys, tmp_path):
    chi = write_fn(tmp_path, "chi.json", construct_named("character", 2, coords=[1, 2]))
    code, out, _ = run(capsys, "stability", "--fn", chi, "--rho", "0")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["stability"]["stab"]["num"] == 0
    assert res["gain"] is None


# ---------------------------------------------------------------------------
# predict


def test_predict_or3_collapse(capsys, or3, tmp_path):
    out_path = str(tmp_path / "pred.json")
    code, out, _ = run(
        capsys, "predict", "--fn", or3, "--rho", "1/4", "--out", out_path
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["ties"] == 0
    assert res["value_sum"] == -8
    assert not res["balanced"]
    assert res["function"]["table_hex"] == "00"
    # the written file round-trips through another command
    code, out, _ = run(capsys, "region", "--fn", out_path)
    assert code == 0
    assert json.loads(out)["result"]["n"] == 3


def test_predict_tie_rules(capsys, tmp_path):
    chi = write_fn(tmp_path, "chi.json", construct_named("character", 2, coords=[1, 2]))
    code, out, _ = run(capsys, "predict", "--fn", chi, "--rho", "0")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["ties"] == 4 and res["function"] is None
    assert res["ternary"] == [0, 0, 0, 0]

    code, out, _ = run(
        capsys, "predict", "--fn", chi, "--rho", "0", "--tie-rule", "keep"
    )
    res = json.loads(out)["result"]
    assert res["ties"] == 0
    assert res["function"]["table_hex"] == "9"  # keep returns f itself

    code, _, err = run(
        capsys, "predict", "--fn", chi, "--rho", "0", "--out", str(tmp_path / "x.json")
    )
    assert code == 1 and "ties" in err


# ---------------------------------------------------------------------------
# compose


def test_compose_product(capsys, tmp_path):
    left = write_fn(tmp_path, "or2.json", construct_named("or", 2))
    right = write_fn(tmp_path, "chi1.json", construct_named("character", 1, coords=[1]))
    out_path = str(tmp_path / "prod.json")
    code, out, _ = run(
        capsys, "compose", "--left", left, "--right", right, "--out", out_path
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["kind"] == "product" and res["n"] == 3
    assert res["properties"]["balanced"]
    assert len(json.loads(out)["inputs"]) == 2


def test_compose_plan(capsys, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(
        canonical_json(
            {
                "format": "boolsp-plan-v1",
                "outer": function_to_json(construct_named("or", 2)),
                "blocks": [[1, 3], [2]],
            }
        )
    )
    code, out, _ = run(capsys, "compose", "--plan", str(plan))
    assert code == 0
    res = json.loads(out)["result"]
    assert res["kind"] == "character" and res["n"] == 3


def test_compose_plan_cap_flag_covers_outer(capsys, tmp_path, monkeypatch):
    # --cap-n takes precedence over BOOLSP_CAP_N for the plan's outer function too
    plan = tmp_path / "plan.json"
    plan.write_text(
        canonical_json(
            {
                "format": "boolsp-plan-v1",
                "outer": function_to_json(construct_named("or", 6)),
                "blocks": [[k] for k in range(1, 7)],
            }
        )
    )
    monkeypatch.setenv("BOOLSP_CAP_N", "4")
    code, _, err = run(capsys, "compose", "--plan", str(plan))
    assert code == 1 and "cap 4" in err
    code, out, err = run(capsys, "compose", "--plan", str(plan), "--cap-n", "8")
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["n"] == 6


def test_compose_plan_excludes_pair(capsys, tmp_path, maj3):
    plan = tmp_path / "plan.json"
    plan.write_text(
        canonical_json(
            {
                "format": "boolsp-plan-v1",
                "outer": function_to_json(construct_named("or", 2)),
                "blocks": [[1], [2]],
            }
        )
    )
    code, _, err = run(capsys, "compose", "--plan", str(plan), "--left", maj3)
    assert code == 1 and "excludes" in err


# ---------------------------------------------------------------------------
# census


def test_census_grid_and_rho_dedupe(capsys):
    code, out, _ = run(
        capsys, "census", "--n", "2", "--grid", "4", "--rho", "1/2", "--rho", "3/4"
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert [r["rho"] for r in res["rows"]] == [
        {"num": 0, "den": 1, "approx": 0.0},
        {"num": 1, "den": 4, "approx": 0.25},
        {"num": 1, "den": 2, "approx": 0.5},
        {"num": 3, "den": 4, "approx": 0.75},
        {"num": 1, "den": 1, "approx": 1.0},
    ]
    # above sqrt(2)-1 everything is SP
    assert res["rows"][-1]["fraction"] == {"num": 1, "den": 1, "approx": 1.0}
    assert res["rows"][-2]["fraction"]["num"] == 1


def test_census_csv_schema(capsys):
    code, out, _ = run(
        capsys, "census", "--n", "1", "--grid", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# boolsp")
    assert lines[1] == "# n=1 mode=exhaustive"
    assert lines[2] == "# rho_num,rho_den,fraction_num,fraction_den"
    assert lines[3:] == ["0,1,1,1", "1,2,1,1", "1,1,1,1"]


def test_census_sample_csv(capsys):
    code, out, _ = run(
        capsys,
        "census", "--n", "3", "--rho", "1/2", "--mode", "sample",
        "--samples", "50", "--seed", "9", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "# n=3 mode=sample samples=50 seed=9"
    assert lines[2] == "# rho_num,rho_den,estimate,stderr,samples"
    cells = lines[3].split(",")
    assert cells[0] == "1" and cells[1] == "2" and cells[4] == "50"
    assert 0.0 <= float(cells[2]) <= 1.0


def test_census_checkpoint_resume(capsys, tmp_path):
    ck = str(tmp_path / "ck.json")
    code, out1, _ = run(capsys, "census", "--n", "2", "--grid", "2", "--checkpoint", ck)
    assert code == 0
    saved = json.loads(Path(ck).read_text())
    assert saved["format"] == "boolsp-census-checkpoint-v1"
    assert set(saved["rows"]) == {"0/1", "1/2", "1/1"}
    # resume: byte-identical output without recomputation
    code, out2, _ = run(capsys, "census", "--n", "2", "--grid", "2", "--checkpoint", ck)
    assert code == 0 and out1 == out2
    # a different configuration refuses the stale checkpoint
    code, _, err = run(capsys, "census", "--n", "3", "--grid", "2", "--checkpoint", ck)
    assert code == 1 and "different census configuration" in err


CENSUS_META = {"mode": "exhaustive", "n": 2, "samples": None, "seed": None}


@pytest.mark.parametrize(
    "checkpoint",
    [
        [],
        {"format": "boolsp-census-checkpoint-v1", "meta": CENSUS_META, "rows": []},
        {"format": "boolsp-census-checkpoint-v1", "meta": CENSUS_META,
         "rows": {"1/2": 5}},
        {"format": "boolsp-census-checkpoint-v1", "meta": CENSUS_META,
         "rows": {"1/2": {"total": 16, "sp_count": 16, "estimate": 1.0, "fraction": 1}}},
    ],
)
def test_malformed_checkpoint_refused(capsys, tmp_path, checkpoint):
    ck = tmp_path / "ck.json"
    ck.write_text(json.dumps(checkpoint))
    code, out, err = run(capsys, "census", "--n", "2", "--rho", "1/2",
                         "--checkpoint", str(ck))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["predict", "compose", "census"])
def test_unwritable_output_path_exits_cleanly(capsys, monkeypatch, tmp_path, maj3, command):
    def refuse(*_, **__):
        raise AssertionError("computed before refusing the output path")

    for name in ("sp_fraction", "optimal_predictor", "product_compose"):
        monkeypatch.setattr(cli, name, refuse)
    # a missing directory for all three; a directory as --out for predict and compose
    targets = [tmp_path / "nodir" / "x.json"] + ([] if command == "census" else [tmp_path])
    for target in map(str, targets):
        argv = {
            "predict": ("predict", "--fn", maj3, "--rho", "1/2", "--out", target),
            "compose": ("compose", "--left", maj3, "--right", maj3, "--out", target),
            "census": ("census", "--n", "2", "--rho", "1/2", "--checkpoint", target),
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1


def test_census_needs_rhos(capsys):
    code, _, err = run(capsys, "census", "--n", "2")
    assert code == 1 and "grid" in err


def test_census_cap(capsys):
    code, _, err = run(capsys, "census", "--n", "9")
    assert code == 1


def oracle_graph(succ):
    """(fixpoints, components, max depth, cycles rotated to their least member)
    of a functional graph given as a successor list, by brute-force iteration."""
    size = len(succ)

    def walk(v, steps):
        for _ in range(steps):
            v = succ[v]
        return v

    on_cycle = {v for v in range(size) if any(walk(v, k) == v for k in range(1, size + 1))}
    cycles = set()
    for v in on_cycle:
        cyc = [v]
        while succ[cyc[-1]] != v:
            cyc.append(succ[cyc[-1]])
        i = cyc.index(min(cyc))
        cycles.add(tuple(cyc[i:] + cyc[:i]))
    depth = max(next(t for t in range(size) if walk(v, t) in on_cycle) for v in range(size))
    fixpoints = sum(1 for v in range(size) if succ[v] == v)
    return fixpoints, len(cycles), depth, sorted(c for c in cycles if len(c) > 1)


@pytest.mark.parametrize("command", ["census", "graph"])
def test_whole_space_huge_rho_denominator(capsys, command):
    # q^n = 3^80 > 2^62: the values are far outside int64, their signs exact
    code, out, err = run(capsys, command, "--n", "4", "--rho", "1/3486784401")
    assert code == 0 and err == ""
    assert json.loads(out)["command"] == command  # one JSON document
    # at n=3 (3^60 > 2^62 as well) count and successors match a per-table oracle
    rho = Fraction(1, 3486784401)
    succ, sp_count = [], 0
    for bits in range(256):
        tab = [1 if bits >> u & 1 else -1 for u in range(8)]
        ts = oracles.t_rho(tab, 3, rho)
        pred = [(t > 0) - (t < 0) or v for t, v in zip(ts, tab)]
        succ.append(sum(1 << u for u, v in enumerate(pred) if v > 0))
        sp_count += all(t == 0 or (t > 0) == (v > 0) for t, v in zip(ts, tab))
    code, out, _ = run(capsys, "census", "--n", "3", "--rho", "1/3486784401")
    assert code == 0
    assert json.loads(out)["result"]["rows"][0]["sp_count"] == sp_count
    code, out, _ = run(capsys, "graph", "--n", "3", "--rho", "1/3486784401")
    assert code == 0
    res = json.loads(out)["result"]
    fixpoints, components, depth, cycles = oracle_graph(succ)
    assert res["num_fixpoints"] == fixpoints == sp_count
    assert res["num_components"] == components
    assert res["max_depth"] == depth
    got = []
    for cyc in res["cycles"]:
        i = cyc.index(min(cyc))
        got.append(tuple(cyc[i:] + cyc[:i]))
    assert sorted(got) == cycles


@pytest.mark.parametrize(
    "argv",
    [
        ("region", "--fn", "FN", "--epsilon", "inf"),
        ("census", "--n", "-1", "--rho", "1/2"),
        ("graph", "--n", "-2", "--rho", "1/2"),
        ("census", "--n", "2", "--rho", "1/2", "--mode", "sample",
         "--samples", "4", "--seed", "-1"),
        ("census", "--n", "5", "--rho", "1/2"),
        ("graph", "--n", "5", "--rho", "1/2"),
        ("census", "--n", "0", "--mode", "sample", "--samples", "3",
         "--seed", "1", "--rho", "1/2"),
        ("census", "--n", "2", "--rho", "1/2", "--mode", "sample",
         "--samples", "0", "--seed", "1"),
        ("orbit", "--fn", "FN", "--rho", "1/2", "--max-steps", "-3"),
        ("census", "--n", "2", "--grid", "0"),
        ("region", "--fn", "FN", "--epsilon", "1e-5000"),
        ("classify", "--fn", "FN", "--epsilon", "1e-99999999"),
        ("thresholds", "--fn", "FN", "--epsilon", "1e-99999999"),
    ],
)
def test_bad_arguments_exit_cleanly(capsys, maj3, argv):
    code, out, err = run(capsys, *(maj3 if a == "FN" else a for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["region", "classify", "thresholds"])
def test_unwritable_epsilon_refused_before_work(capsys, monkeypatch, maj3, command):
    # 1e-4300 has a denominator of 4301 digits, one more than Python renders
    def refuse(*_):
        raise AssertionError("ran with an unwritable epsilon")

    for name in ("sp_region", "classify", "sufficient_thresholds"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(capsys, command, "--fn", maj3, "--epsilon", "1e-4300")
    assert code == 1 and out == ""
    assert "decimal digits" in err and err.count("\n") == 1


def test_census_grid_zero_is_named(capsys):
    code, _, err = run(capsys, "census", "--n", "2", "--grid", "0")
    assert code == 1 and "--grid must be >= 1" in err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_unprintable_rational_exits_cleanly(capsys, tmp_path, fmt):
    # Stab at rho = 1/10^1100 and n = 4 has a denominator of over 4400 digits,
    # more than Python renders by default
    fn = write_fn(tmp_path, "or4.json", construct_named("or", 4))
    rho = "1/1" + "0" * 1100
    code, out, err = run(capsys, "stability", "--fn", fn, "--rho", rho, "--format", fmt)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, err = run(capsys, "predict", "--fn", fn, "--rho", rho, "--format", fmt)
    assert code == 0 and err == ""


@pytest.mark.parametrize("command", ["census", "graph"])
def test_whole_space_n0_runs(capsys, command):
    code, out, err = run(capsys, command, "--n", "0", "--rho", "1/2")
    assert code == 0 and err == ""
    assert json.loads(out)["result"]


RHO_TEXT = st.one_of(
    st.fractions(0, 1, max_denominator=10**30).map(lambda r: f"{r.numerator}/{r.denominator}"),
    st.integers(-(10**40), 10**40).map(str),
    st.builds("{}/{}".format, st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30)),
    st.sampled_from(
        ["1/3486784401", f"{2**70 - 1}/{2**70}", "1/1" + "0" * 1100, "1/" + "7" * 5000,
         "0.5", "1e-3", "1/0", "", "-", "--", " 1/2", "1/2/3", "½", "nan"]
    ),
    st.text(max_size=8),
)


@st.composite
def scan_argv(draw):
    command = draw(st.sampled_from(["census", "graph"]))
    argv = [command, "--n", str(draw(st.integers(-3, 7)))]
    if command == "census":
        if draw(st.booleans()):
            argv += ["--grid", str(draw(st.integers(-2, 70)))]
        for rho in draw(st.lists(RHO_TEXT, max_size=2)):
            argv += ["--rho", rho]
    else:
        argv += ["--rho", draw(RHO_TEXT)]
    return argv


@settings(max_examples=200, deadline=None)
@given(scan_argv())
def test_whole_space_argv_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["command"] == argv[0]
    else:
        assert out.getvalue() == ""


EPSILON_TEXT = st.one_of(
    st.integers(0, 30).map("1e-{}".format),
    st.fractions(-1, 2, max_denominator=10**12).map(lambda r: f"{r.numerator}/{r.denominator}"),
    st.sampled_from(["1e-4300", "1e-99999999", "0", "1", "inf", "nan", "-1e-3", "1/0",
                     "", "--", "0.5.5", "1e9999999999"]),
    st.text(max_size=8),
)
CAP_TEXT = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(["", "x", "2.5", "1e3"]))
FUZZED_FLAGS = {
    "--rho": RHO_TEXT,
    "--epsilon": EPSILON_TEXT,
    "--cap-n": CAP_TEXT,
    "--out": st.sampled_from(["OUT", "NODIR", "DIR", ""]),
}
FILE_COMMANDS = {
    "analyze": (),
    "region": ("--epsilon",),
    "classify": ("--epsilon",),
    "stability": ("--rho",),
    "predict": ("--rho", "--out"),
    "thresholds": ("--rho", "--epsilon"),
    "orbit": ("--rho",),
    "compose": ("--out",),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "fn.json").write_text(canonical_json(function_to_json(construct_named("majority", 3))))
    return work


@st.composite
def file_argv(draw):
    """argv of a subcommand that reads a function file, with fuzzed values for
    its own flags; now and then a required flag is left out or a flag foreign
    to the command is added."""
    command = draw(st.sampled_from(sorted(FILE_COMMANDS)))
    argv = [command] + (["--left", "FN", "--right", "FN"] if command == "compose"
                        else ["--fn", "FN"])
    flags = [f for f in FILE_COMMANDS[command] + ("--cap-n",) if draw(st.booleans())]
    if command in ("stability", "predict", "orbit") and draw(st.integers(0, 9)):
        flags.append("--rho")  # required there
    if not draw(st.integers(0, 9)):
        flags.append(draw(st.sampled_from(sorted(FUZZED_FLAGS))))
    for flag in flags:
        value = draw(FUZZED_FLAGS[flag])
        # "--rho=-1/2" reaches the command; "--rho -1/2" is a usage error
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=200, deadline=None)
@given(file_argv())
def test_function_file_argv_fuzz(fuzz_dir, argv):
    names = {"FN": fuzz_dir / "fn.json", "OUT": fuzz_dir / "out.json",
             "NODIR": fuzz_dir / "nodir" / "x.json", "DIR": fuzz_dir}

    def place(arg):
        flag, eq, value = arg.rpartition("=")
        return flag + eq + str(names[value]) if value in names else arg

    argv = [place(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["command"] == argv[0]
    else:
        assert out.getvalue() == ""


# ---------------------------------------------------------------------------
# orbit / graph


def test_orbit_or3(capsys, or3):
    code, out, _ = run(capsys, "orbit", "--fn", or3, "--rho", "1/4")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["status"] == "fixpoint"
    assert res["trajectory_length"] == 2
    assert res["terminal"]["table_hex"] == "00"
    assert "note" not in res


def test_graph_small(capsys):
    code, out, _ = run(capsys, "graph", "--n", "2", "--rho", "1/2")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["num_functions"] == 16
    assert res["num_fixpoints"] == 16
    assert res["cycles"] == []


# ---------------------------------------------------------------------------
# thresholds


def test_thresholds_function_and_necessary(capsys, maj3):
    code, out, _ = run(capsys, "thresholds", "--fn", maj3, "--rho", "1/2")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["sufficient"]["degree_bound"] == {"num": 5, "den": 6, "approx": 5 / 6}
    assert res["necessary"]["basic_ok"] is True


def test_thresholds_constants_defined(capsys):
    code, out, _ = run(capsys, "thresholds", "--alpha", "2", "--delta", "9/100")
    assert code == 0
    c = json.loads(out)["result"]["constants"]
    assert c["eta_alpha"] == {"num": 1, "den": 4, "approx": 0.25}
    assert c["eta_delta_defined"] is True
    assert 0.2 < c["eta_delta"] < 0.25
    assert abs(c["delta_max"] - 0.097424653) < 1e-6


def test_thresholds_constants_undefined(capsys):
    code, out, _ = run(capsys, "thresholds", "--delta", "1/10")
    assert code == 0
    c = json.loads(out)["result"]["constants"]
    assert c["eta_delta_defined"] is False
    assert c["eta_delta"] is None
    assert "delta_max" in c["eta_delta_reason"]


def test_thresholds_needs_something(capsys):
    code, _, err = run(capsys, "thresholds")
    assert code == 1 and "needs" in err


# ---------------------------------------------------------------------------
# text rendering / env config


def test_text_format(capsys, maj3):
    code, out, _ = run(capsys, "region", "--fn", maj3, "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("boolsp") and "region" in lines[0]
    assert lines[1].startswith(f"input {maj3} sha256=")
    assert any("intervals" in line for line in lines)


def test_cap_env_and_flag_precedence(capsys, tmp_path, monkeypatch):
    maj5 = write_fn(tmp_path, "maj5.json", construct_named("majority", 5))
    monkeypatch.setenv("BOOLSP_CAP_N", "4")
    code, _, err = run(capsys, "analyze", "--fn", maj5)
    assert code == 1 and "cap" in err.lower()
    code, _, _ = run(capsys, "analyze", "--fn", maj5, "--cap-n", "24")
    assert code == 0


def test_cap_above_ceiling_refused_before_any_table(capsys, maj3, monkeypatch):
    # 2^40 entries would be attempted; main validates the cap first
    code, out, err = run(capsys, "region", "--fn", maj3, "--cap-n", "40")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "31" in err
    monkeypatch.setenv("BOOLSP_CAP_N", "32")
    code, out, err = run(capsys, "region", "--fn", maj3)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "BOOLSP_CAP_N must be <= 31" in err
    code, _, _ = run(capsys, "region", "--fn", maj3, "--cap-n", "31")
    assert code == 0
