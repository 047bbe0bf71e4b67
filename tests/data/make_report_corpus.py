"""Write report_corpus.json: digests of the report-rendering commands' stdout.

For every request the corpus stores the exit code, the length and the
sha256 of stdout in json and in text.  The requests are:

* `region` and `classify` at epsilon 1e-9, 1/1000 and 1/7 on majority, or
  and edic at n = 3..9, random_function(n, s) for n = 4..7 and s < 4, and
  the disjoint products of make_region_corpus.py (random n = 3..5 times
  random n = 3..4 for 9 seeds; majority, edic and or at n = 5 times majority
  and edic at n = 3), plus the n = 11 LTF of README, whose region has two
  intervals;
* `thresholds --alpha 3/2 --delta 9/100`, and `thresholds --delta 1/3`,
  where eta_delta is undefined and the report carries the reason;
* `compose --left/--right` and `compose --plan` on a few small functions.

Input files are written under relative names into the working directory, so
the envelopes (which name each input path) do not depend on where the
corpus is made.  tests/test_report_corpus.py reruns every request and
compares the digests.

Regenerate only when an output change is intended:

    PYTHONPATH=src python tests/data/make_report_corpus.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from boolsp import LtfSpec, cli, construct_named, product_compose, random_function
from boolsp.serialize import PLAN_FORMAT, canonical_json, function_to_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # tests/, for spec_files
from spec_files import ltf_to_json

CORPUS = Path(__file__).with_name("report_corpus.json")

FORMATS = ("json", "text")
EPSILONS = ("1e-9", "1/1000", "1/7")
README_LTF = LtfSpec(0, (13, 43, 67, 67, 67, 117, 153, 165, 165, 179, 179))


def _functions():
    """(label, function) pairs in a fixed order."""
    for n in range(3, 10):
        for name in ("majority", "or", "edic"):
            if name != "majority" or n % 2:
                yield f"{name}{n}", construct_named(name, n)
    for n in range(4, 8):
        for seed in range(4):
            yield f"random{n}-{seed}", random_function(n, seed)
    for ng in range(3, 6):
        for nh in range(3, 5):
            for seed in range(9):
                g, h = random_function(ng, seed), random_function(nh, seed + 9)
                yield f"product-random{ng}-{nh}-{seed}", product_compose(g, h)
    for outer in ("majority", "edic", "or"):
        for inner in ("majority", "edic"):
            g, h = construct_named(outer, 5), construct_named(inner, 3)
            yield f"product-{outer}5-{inner}3", product_compose(g, h)


def _plan(outer, blocks):
    return {"format": PLAN_FORMAT, "outer": outer, "blocks": blocks}


def inputs():
    """(name, file object) pairs in a fixed order."""
    for label, f in _functions():
        yield f"{label}.json", function_to_json(f)
    yield "readme-ltf11.json", ltf_to_json(README_LTF)
    yield "ltf4.json", ltf_to_json(LtfSpec(0, (2, 1, 1, 1)))
    maj3 = function_to_json(construct_named("majority", 3))
    yield "plan-majority3.json", _plan(maj3, [[1, 2], [3], [4, 5, 6]])
    yield "plan-ltf4.json", _plan(ltf_to_json(LtfSpec(0, (2, 1, 1, 1))), [[2], [1, 3], [4], [5]])
    edic3 = function_to_json(construct_named("edic", 3))
    yield "plan-edic3.json", _plan(edic3, [[3, 1], [2, 5], [4]])


def requests():
    """(label, argv) pairs in a fixed order; every argv takes --format last."""
    for name, _ in inputs():
        if name.startswith(("plan-", "ltf4")):
            continue
        flag = "--ltf" if name.startswith("readme-ltf") else "--fn"
        for command in ("region", "classify"):
            for eps in EPSILONS:
                yield f"{command} {name} {eps}", (command, flag, name, "--epsilon", eps)
    yield "thresholds alpha 3/2 delta 9/100", ("thresholds", "--alpha", "3/2", "--delta", "9/100")
    yield "thresholds delta 1/3", ("thresholds", "--delta", "1/3")
    pairs = (
        ("majority3.json", "edic3.json"),
        ("random4-1.json", "or3.json"),
        ("ltf4.json", "majority5.json"),
    )
    for left, right in pairs:
        yield f"compose {left} {right}", ("compose", "--left", left, "--right", right)
    for name in ("plan-majority3.json", "plan-ltf4.json", "plan-edic3.json"):
        yield f"compose {name}", ("compose", "--plan", name)


def write_inputs(workdir):
    """Write every input file into workdir."""
    for name, obj in inputs():
        (Path(workdir) / name).write_text(canonical_json(obj))


def run(argv):
    """Exit code, stdout length and stdout sha256 of one CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    data = buf.getvalue().encode("utf-8")
    return {"exit": code, "length": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def record(argv):
    """{format: digest} for one request in the working directory."""
    return {fmt: run((*argv, "--format", fmt)) for fmt in FORMATS}


def main():
    with tempfile.TemporaryDirectory() as workdir:
        home = os.getcwd()
        os.chdir(workdir)
        try:
            write_inputs(".")
            corpus = {label: record(argv) for label, argv in requests()}
        finally:
            os.chdir(home)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} requests x {len(FORMATS)} formats to {CORPUS}")


if __name__ == "__main__":
    main()
