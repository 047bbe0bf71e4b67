"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

They run the benchmark at the tiny size (every n shrunk), so they take
seconds.  The file name keeps them out of the repository's default pytest
collection; name the file explicitly to run them.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def bench(*args, cwd=ROOT, check=True):
    cmd = [sys.executable, "perfbench/run.py", "--size", "tiny", *args]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    if check:
        assert out.returncode == 0, out.stderr
    return out


def result(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        out = bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                    "--trace", str(trace))
        res = result(out)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
        for name, unit in declared.items():
            assert f"{name} " in out.stdout and unit in out.stdout
        if trace:
            wall = res["metrics"]["trace.wall_s"]["value"]
            for name, m in res["metrics"].items():
                if name.endswith(("self_s", "total_s")):
                    assert 0 <= m["value"] <= wall, name
        else:
            assert "error_rate" in out.stdout


def test_traced_counts_repeat_exactly():
    args = ("--workload", "region-random", "--seed", "8", "--seconds", "0.5", "--trace", "1")
    first, second = (result(bench(*args))["metrics"] for _ in range(2))
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["roots.roots_isolated"]["value"] > 0
    assert first["sp.distinct_polys"]["value"] > 0


def test_wrong_reference_answer_raises_error_rate():
    refs = SCRATCH / "refs"
    shutil.rmtree(refs, ignore_errors=True)
    shutil.copytree(HERE / "reference", refs)
    path = refs / "whole-space-tiny.json"
    reference = json.loads(path.read_text())
    seed = 11
    first = next(workloads.rounds("whole-space", reference, seed, {}))[0]
    answer = reference["answers"][first.key]["result"]
    if "rows" in answer:
        answer["rows"][0]["sp_count"] += 1
    else:
        answer["num_fixpoints"] += 1
    path.write_text(json.dumps(reference))

    out = bench("--workload", "whole-space", "--seed", str(seed), "--seconds", "0.2",
                "--references", str(refs))
    res = result(out)
    assert not res["correct"]
    assert res["failed"] >= 1 and res["attempted"] > res["failed"]
    assert f"FAILED {first.key}" in out.stdout
    line = next(x for x in out.stdout.splitlines() if x.split()[:1] == ["error_rate"])
    assert float(line.split()[1]) > 0


def _ep(lo, hi=None):
    if hi is None:
        return {"kind": "exact", "value": {"num": lo.numerator, "den": lo.denominator}}
    return {"kind": "enclosure",
            "lo": {"num": lo.numerator, "den": lo.denominator},
            "hi": {"num": hi.numerator, "den": hi.denominator}}


def test_gate_accepts_any_valid_enclosure_and_nothing_else():
    eps = Fraction(1, 1000)
    ref = _ep(Fraction(500, 1000), Fraction(501, 1000))
    assert gate.mismatch(ref, _ep(Fraction(5005, 10000), Fraction(5012, 10000)), eps) is None
    assert gate.mismatch(ref, _ep(Fraction(5005, 10000)), eps) is None
    assert gate.mismatch(ref, _ep(Fraction(502, 1000), Fraction(503, 1000)), eps)
    assert gate.mismatch(ref, _ep(Fraction(500, 1000), Fraction(503, 1000)), eps)
    assert gate.mismatch(_ep(Fraction(1, 2)), _ep(Fraction(1, 3)), eps)
    assert gate.mismatch({"witnesses": {"usp": 3}}, {"witnesses": {"usp": 9}}) is None
    assert gate.mismatch({"witnesses": {"lcsp": 3}}, {"witnesses": {"lcsp": 9}})


def test_fails_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "whole-space", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=bare, check=False)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
