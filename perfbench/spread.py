"""Run one workload over several seeds and print each metric's median and spread.

    python3 perfbench/spread.py region-random --seeds 1-10 [--seconds 20] [--trace 0]

Each run is a separate `run.py` process.  The spread is the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of the
median, the figure each end-to-end bound in BENCHMARK.json is judged by.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload")
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    args = p.parse_args(argv)

    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900,
        )
        if out.returncode != 0:
            print(out.stdout, out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(out.stdout, file=sys.stderr)
            return 1
        row = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"seed {seed}: requests {result['attempted']}  "
              + "  ".join(f"{k} {v:.6g}" for k, v in row.items()), flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, (m["unit"], []))[1].append(m["value"])

    summary = {}
    for k, (unit, vals) in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[k] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{args.workload} {k}: median {med:.6g} {unit}  q1 {q1:.6g}  "
              f"q3 {q3:.6g}  spread {spread:.4f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
