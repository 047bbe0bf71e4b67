"""End-to-end CLI behavior: envelopes, exit codes, files, determinism."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from boolsp import construct_ltf, construct_named, LtfSpec, PtfSpec
from boolsp.cli import main
from boolsp.serialize import (
    canonical_json,
    function_to_json,
    ltf_to_json,
    ptf_to_json,
)


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


def test_census_needs_rhos(capsys):
    code, _, err = run(capsys, "census", "--n", "2")
    assert code == 1 and "grid" in err


def test_census_cap(capsys):
    code, _, err = run(capsys, "census", "--n", "9")
    assert code == 1


@pytest.mark.parametrize("command", ["census", "graph"])
def test_whole_space_huge_rho_denominator(capsys, command):
    # 3^20: the level weights overflow int64 before the scan's own bound
    code, out, err = run(capsys, command, "--n", "4", "--rho", "1/3486784401")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("region", "--fn", "FN", "--epsilon", "inf"),
        ("census", "--n", "-1", "--rho", "1/2"),
        ("graph", "--n", "-2", "--rho", "1/2"),
        ("census", "--n", "2", "--rho", "1/2", "--mode", "sample",
         "--samples", "4", "--seed", "-1"),
        ("census", "--n", "2", "--rho", "1/2", "--threads", "0"),
        ("census", "--n", "2", "--rho", "1/2", "--threads", "-3"),
        ("census", "--n", "0", "--mode", "sample", "--samples", "3",
         "--seed", "1", "--rho", "1/2"),
        ("census", "--n", "2", "--rho", "1/2", "--mode", "sample",
         "--samples", "4", "--seed", "1", "--threads", "0"),
        ("orbit", "--fn", "FN", "--rho", "1/2", "--max-steps", "-3"),
    ],
)
def test_bad_arguments_exit_cleanly(capsys, maj3, argv):
    code, out, err = run(capsys, *(maj3 if a == "FN" else a for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["census", "graph"])
def test_whole_space_n0_runs(capsys, command):
    code, out, err = run(capsys, command, "--n", "0", "--rho", "1/2")
    assert code == 0 and err == ""
    assert json.loads(out)["result"]


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


def test_threads_env_equivalent(capsys, monkeypatch):
    code, out1, _ = run(capsys, "census", "--n", "3", "--rho", "1/3", "--threads", "1")
    monkeypatch.setenv("BOOLSP_THREADS", "4")
    code2, out2, _ = run(capsys, "census", "--n", "3", "--rho", "1/3")
    assert code == 0 and code2 == 0
    r1 = json.loads(out1)["result"]["rows"]
    r2 = json.loads(out2)["result"]["rows"]
    assert r1 == r2
