"""boolsp benchmark: closed-loop CLI requests, checked answers, metrics.

Run from the repository root:

    python3 perfbench/run.py --workload region-random --seed 1 --seconds 20 --trace 0

Each request is one `boolsp.cli.main(argv)` call in this process, with its
stdout captured, against input files written from the seed during set-up.
The client sends the next request only when the previous one has returned.
Every answer is checked against the stored reference answers (gate.py); a
mismatch or any exception counts as a failed request and the run goes on.

--trace 0 prints the end-to-end metrics; --trace 1 runs one round with every
public boolsp function wrapped (tracing.py), prints the per-layer metrics and
writes the spans to .perfbench_out/.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  `--workload all`
runs every workload, each in a fresh process, one after another.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# boolsp's matmuls are all int64 and never reach BLAS, but numpy starts
# OpenBLAS's thread pool at import.  On the shared 2-core machine the
# benchmark was defined on, that start-up alone took 60-130 ms and made up
# most of the spread of the import time; one BLAS thread removes it.  Set
# before numpy is first imported, here and in every child process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import gate  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
P90_MIN_REQUESTS = 100  # a 90th percentile needs at least ten samples above it

# Times are reported in "reference seconds": wall time scaled by how long a
# fixed calibration loop took around the same round, relative to
# CALIBRATION_REFERENCE_S.  On the shared 2-core machine the benchmark was
# defined on, CPU speed drifted by up to half for seconds to minutes at a
# time; over ten 20 s runs the spread of raw requests_per_s reached 0.30 to
# 0.34, and of the calibrated figure 0.04 to 0.09.  Raw figures are printed
# in the summary too.
CALIBRATION_REFERENCE_S = 0.013  # about the loop's time there in a fast spell
CALIBRATION_REPEATS = 3

# The import of boolsp is timed in a fresh interpreter, followed in the same
# interpreter by the import of a fixed set of standard-library modules that
# boolsp does not use; the ratio of the two, times IMPORT_REFERENCE_S, is the
# import's share of setup_s.  Import time follows the machine's disk, loader
# and memory speed, which the CPU calibration loop does not track: over
# fourteen batches of five probes on the machine the benchmark was defined on,
# the median raw import time ranged from 0.12 to 0.19 s, the ratio from 2.9
# to 3.3.
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import boolsp.cli; b = time.perf_counter() - t; t = time.perf_counter(); "
    "import asyncio, email.mime.multipart, http.client, sqlite3, unittest, "
    "xml.dom.minidom; print(b, time.perf_counter() - t)"
)
IMPORT_REFERENCE_S = 0.036  # about the reference imports' time there in a fast spell


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny shrinks every n; used by the benchmark's own tests")
    p.add_argument("--references", default=str(HERE / "reference"),
                   help="directory of reference answers")
    return p.parse_args(argv)


def _load_reference(directory, workload, size):
    name = workload if size == "full" else f"{workload}-{size}"
    with open(Path(directory) / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _calibration_loop():
    """Fraction and big-int arithmetic plus an int64 sort and matmul, the
    kinds of work the workloads do."""
    acc = Fraction(0)
    for i in range(1, 2500):
        acc += Fraction(i * i % 97 - 48, i)
    a = (np.arange(1 << 17, dtype=np.int64) * 2654435761) % 1000003
    np.sort(a)
    m = a[: 1 << 12].reshape(64, 64)
    return acc, m @ m


def calibrate():
    """Best of a few timings of the calibration loop, in seconds."""
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        t = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - t)
    return best


def _median_import_s():
    """Median over fresh interpreters of boolsp's import time, in reference
    seconds (see _IMPORT_PROBE)."""
    ratios = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        boolsp_s, reference_s = map(float, out.stdout.split())
        ratios.append(boolsp_s / reference_s)
    return statistics.median(ratios) * IMPORT_REFERENCE_S


class Client:
    """One closed-loop client: runs requests and checks every answer."""

    def __init__(self, cli, reference):
        self.cli = cli
        self.answers = reference["answers"]
        self.latencies = []
        self.failures = []  # (request key, reason)
        self.rounds = []  # (latencies of the round, calibration scale)
        self.first_round_rss_mb = None
        self._calibration = None

    def send(self, request):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(request.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # any crash is a failed request, not a stop
            code = f"{type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - t0)
        why = self._check(request, code, out.getvalue(), err.getvalue())
        if why:
            self.failures.append((request.key, why))

    def _check(self, request, code, stdout, stderr):
        if code != 0:
            return f"exit {code}: {stderr.strip()[:200]}"
        ref = self.answers.get(request.key)
        if ref is None:
            return "no reference answer"
        try:
            got = gate.normalize(json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc}"
        return gate.mismatch(ref, got)

    def run_round(self, batch, tracer=None):
        before = self._calibration or calibrate()
        start = len(self.latencies)
        for request in batch:
            if tracer is not None:
                tracer.request = len(self.latencies)
            self.send(request)
        if self.first_round_rss_mb is None:
            self.first_round_rss_mb = _peak_rss_mb()
        self._calibration = calibrate()
        scale = CALIBRATION_REFERENCE_S / ((before + self._calibration) / 2)
        self.rounds.append((self.latencies[start:], scale))


def _end_to_end(client, setup_s):
    """Calibrated throughput is the median over rounds, so that a slow spell
    during one round does not move it; peak RSS is taken after the first
    round, a fixed amount of work whatever the run length."""
    scaled = [t * scale for lats, scale in client.rounds for t in lats]
    metrics = {
        "requests_per_s": _metric(statistics.median(
            len(lats) / (sum(lats) * scale) for lats, scale in client.rounds), "1/s"),
        "latency_p50_s": _metric(statistics.median(scaled), "s"),
        "peak_rss_mb": _metric(client.first_round_rss_mb, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }
    n = len(scaled)
    extra = {
        "error_rate": _metric(len(client.failures) / n, "ratio"),
        "raw.requests_per_s": _metric(statistics.median(
            len(lats) / sum(lats) for lats, _ in client.rounds), "1/s"),
        "raw.latency_p50_s": _metric(statistics.median(client.latencies), "s"),
        "rounds": _metric(len(client.rounds), "count"),
        "round_speed_scale": " ".join(f"{scale:.3g}" for _, scale in client.rounds),
    }
    if n >= P90_MIN_REQUESTS:
        extra["latency_p90_s"] = _metric(statistics.quantiles(scaled, n=10)[8], "s")
    return metrics, extra


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced_round_rps(args):
    """requests_per_s of the same first round, untraced, in a fresh process
    (with --seconds 0 a run stops after its first round)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--size", args.size,
        "--references", args.references,
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result["metrics"]["requests_per_s"]["value"]


def run_workload(args):
    cli = importlib.import_module("boolsp.cli")
    if Path(cli.__file__).resolve().parent != SRC / "boolsp":
        raise RuntimeError(f"imported boolsp from {cli.__file__}, not from {SRC}")

    reference = _load_reference(args.references, args.workload, args.size)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cal_before = calibrate()
        write_s = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            paths = workloads.write_inputs(reference, workdir)
            write_s.append(time.perf_counter() - t)
        write_scale = CALIBRATION_REFERENCE_S / ((cal_before + calibrate()) / 2)
        setup_s = _median_import_s() + statistics.median(write_s) * write_scale

        client = Client(cli, reference)
        batches = workloads.rounds(args.workload, reference, args.seed, paths)
        if args.trace:
            return _traced(args, client, batches, setup_s)
        started = time.perf_counter()
        for batch in batches:
            client.run_round(batch)
            if time.perf_counter() - started >= args.seconds:
                break
        return (client, *_end_to_end(client, setup_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(args, client, batches, setup_s):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    started = time.perf_counter()
    client.run_round(next(batches), tracer)
    wall_s = time.perf_counter() - started
    lats, scale = client.rounds[0]
    traced_rps = len(lats) / (sum(lats) * scale)
    untraced_rps = _untraced_round_rps(args)

    layer = tracer.metrics(wall_s)
    over = [k for k, (v, unit) in layer.items() if unit == "s" and v > wall_s]
    if over:
        raise RuntimeError(f"self or total time above the run's wall time: {over}")
    metrics = {k: _metric(v, unit) for k, (v, unit) in layer.items()}
    metrics["trace.requests_per_s"] = _metric(traced_rps, "1/s")
    metrics["trace.untraced_requests_per_s"] = _metric(untraced_rps, "1/s")
    metrics["trace.overhead_requests_per_s"] = _metric(untraced_rps - traced_rps, "1/s")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
    tracer.dump(path, {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "requests": len(client.latencies), "setup_s": setup_s,
        "metrics": metrics,
    })
    return client, metrics, {"trace_file": str(path.relative_to(ROOT))}


def _print_summary(args, client, metrics, extra):
    n = len(client.latencies)
    print(f"workload {args.workload}  size {args.size}  seed {args.seed}  "
          f"trace {args.trace}  requests {n}  failed {len(client.failures)}")
    for key, why in client.failures[:10]:
        print(f"  FAILED {key}: {why}")
    for name, m in sorted({**metrics, **extra}.items()):
        if isinstance(m, dict):
            print(f"  {name:44s} {m['value']!r} {m['unit']}")
        else:
            print(f"  {name:44s} {m}")
    if not args.trace and "latency_p90_s" not in extra:
        print(f"  {'latency_p90_s':44s} not reported: {n} requests < {P90_MIN_REQUESTS}")


def _run_all(args):
    """Every workload in a fresh process, one at a time; merged result line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--references", args.references]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "boolsp" / "cli.py").is_file():
        print(f"error: boolsp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for var in ("BOOLSP_THREADS", "BOOLSP_CAP_N"):  # census threads stay at 1
        os.environ.pop(var, None)
    if args.workload == "all":
        return _run_all(args)
    client, metrics, extra = run_workload(args)
    _print_summary(args, client, metrics, extra)
    print(json.dumps({
        "correct": not client.failures,
        "attempted": len(client.latencies),
        "failed": len(client.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
