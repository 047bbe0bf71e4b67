"""Build the pools and reference answers in perfbench/reference/.

    python3 perfbench/make_reference.py [workload ...] [--size full|tiny|both]

Runs every request every pool item can contribute through boolsp.cli.main,
requires exit 0, and stores the normalized report (gate.normalize) under the
request key.  The benchmark never runs this; it is how the stored answers
were made, and how to remake them after a deliberate format change.

Pools chosen by cost: random functions differ a lot in how long their region
takes (the per-function spread is about 30% at n=9), so a run of a few
functions would mostly measure which functions the seed drew.  For the
region-random and point-queries pools this script times every candidate's
requests (best of three passes) and keeps the candidates nearest the
median cost.  The pools stay
random functions; they just leave out the cheapest and dearest tails.
"""

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import workloads as wl  # noqa: E402
from boolsp import cli, construct_named, negate_inputs, random_function  # noqa: E402
from boolsp import serialize as ser  # noqa: E402
from boolsp import spectrum  # noqa: E402

# (candidates, kept) per pool slot; tiny pools keep every candidate
CANDIDATES = {
    ("region-random", "full"): ((30, 8),),
    ("region-random", "tiny"): ((6, 6),),
    # one function per slot: peak RSS follows how many functions the orbits
    # visit, which differed by about 30% between candidates
    ("point-queries", "full"): ((10, 1), (10, 1), (10, 1)),
    ("point-queries", "tiny"): ((3, 3), (3, 3), (3, 3)),
}
TIMING_PASSES = 3  # cost of a candidate: best of this many timings
SYMMETRIC_MASKS = 16  # more than the rounds a run holds, so no request repeats


def _slots(workload, size):
    if workload == "region-random":
        n, cands = wl.RANDOM_N[size], CANDIDATES[(workload, size)][0][0]
        items = [{"id": f"r{n}-s{s}", "kind": "random", "n": n, "seed": s}
                 for s in range(1, cands + 1)]
        return [{"name": f"random-n{n}", "per_round": 1, "items": items}]
    if workload == "region-symmetric":
        slots = []
        for i, (ni, kind, cmd) in enumerate(wl.SYMMETRIC_SLOTS):
            n = wl.SYMMETRIC_N[size][ni]
            rng = np.random.Generator(np.random.PCG64(1000 + i))
            masks = [int(m) for m in rng.integers(0, 1 << n, size=SYMMETRIC_MASKS)]
            items = [{"id": f"{kind}{n}-m{m:x}", "kind": kind, "n": n, "mask": m}
                     for m in masks]
            slots.append({"name": f"{kind}-n{n}-{cmd}", "command": cmd,
                          "per_round": 1, "items": items})
        return slots
    if workload == "point-queries":
        n_small, n_big = wl.QUERY_N[size]
        counts = CANDIDATES[(workload, size)]
        specs = (("random", n_small, "q"), ("random", n_big, "q"), ("ltf", n_big, "ltf"))
        slots = []
        for (kind, n, tag), (cands, _) in zip(specs, counts):
            items = [{"id": f"{tag}{n}-s{s}", "kind": kind, "n": n, "seed": s}
                     for s in range(1, cands + 1)]
            slots.append({"name": f"{kind}-n{n}", "per_round": 1, "items": items})
        return slots
    items = [{"id": f"rho-{r}", "rho": r} for r in wl.rho_pool()]
    return [{"name": cmd, "command": cmd, "n": wl.SPACE_N[size],
             "per_round": per_round, "items": items}
            for cmd, per_round in wl.SPACE_ROUND]


def _check_tables(item, path):
    """The benchmark's own table writer must agree with boolsp's constructions."""
    if item.get("kind") not in ("random", "majority", "or", "edic"):
        return
    got = ser.load_function(path)
    if item["kind"] == "random":
        want = random_function(item["n"], item["seed"])
    else:
        base = construct_named(item["kind"], item["n"])
        signs = [-1 if (item["mask"] >> j) & 1 else 1 for j in range(item["n"])]
        want = negate_inputs(base, signs)
    if got != want:
        raise AssertionError(f"table of {item['id']} differs from boolsp's")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise AssertionError(f"{argv} exited {code}: {err.getvalue()}")
    return gate.normalize(json.loads(out.getvalue())), elapsed


def _forget_spectra():
    """Drop boolsp's spectrum caches so each item is timed cold, as in a run,
    and so n=19 matrices do not pile up in this process."""
    for fn in (spectrum.wht, spectrum.level_values, spectrum.point_matrix):
        getattr(fn, "cache_clear", lambda: None)()


def _item_cost(workload, slot, item, paths, answers):
    cost = 0.0
    for req in wl.item_requests(workload, slot, item, paths):
        answers[req.key], elapsed = _run(req.argv)
        cost += elapsed
    _forget_spectra()
    return cost


def build(workload, size, workdir):
    slots = _slots(workload, size)
    reference = {"workload": workload, "size": size, "slots": slots}
    paths = wl.write_inputs(reference, workdir)
    for slot in slots:
        for item in slot["items"]:
            if item["id"] in paths:
                _check_tables(item, paths[item["id"]][1])
    answers = {}
    counts = CANDIDATES.get((workload, size))
    for si, slot in enumerate(slots):
        keep = counts[si][1] if counts else len(slot["items"])
        passes = TIMING_PASSES if keep < len(slot["items"]) else 1
        costs = [float("inf")] * len(slot["items"])
        for _ in range(passes):  # whole passes, so a slow spell hits every candidate alike
            for i, item in enumerate(slot["items"]):
                costs[i] = min(costs[i], _item_cost(workload, slot, item, paths, answers))
                print(f"  {workload}/{size} {item['id']}: {costs[i]:.3f} s", flush=True)
        if keep < len(slot["items"]):
            mid = statistics.median(costs)
            order = sorted(range(len(costs)), key=lambda i: abs(costs[i] - mid))
            chosen = sorted(order[:keep])
            slot["items"] = [slot["items"][i] for i in chosen]
            slot["selection"] = (
                f"{keep} of {len(costs)} candidates nearest the median request time "
                f"{mid:.3f} s (best of {passes} timings each)")
    used = set()
    for slot in slots:
        for item in slot["items"]:
            used.update(r.key for r in wl.item_requests(workload, slot, item, paths))
    reference["answers"] = {k: answers[k] for k in sorted(used)}
    return reference


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workloads", nargs="*", default=list(wl.WORKLOADS))
    p.add_argument("--size", choices=("full", "tiny", "both"), default="both")
    args = p.parse_args(argv)
    sizes = ("tiny", "full") if args.size == "both" else (args.size,)
    workdir = HERE.parent / ".perfbench_out" / "reference-inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    (HERE / "reference").mkdir(exist_ok=True)
    for size in sizes:
        for workload in args.workloads:
            ref = build(workload, size, workdir)
            name = workload if size == "full" else f"{workload}-{size}"
            with open(HERE / "reference" / f"{name}.json", "w", encoding="utf-8") as fh:
                json.dump(ref, fh, sort_keys=True, indent=1)
                fh.write("\n")
            print(f"wrote reference/{name}.json: {len(ref['answers'])} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
