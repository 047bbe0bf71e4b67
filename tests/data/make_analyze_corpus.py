"""Write analyze_corpus.json: digests of `analyze` stdout.

For every input the corpus stores the exit code, the length and the sha256
of the stdout of `analyze --format json` and `analyze --format text`.  The
inputs are random, majority, or, edic, LTF and character functions at
n = 1..12 (majority at odd n, edic from n = 3), each as given and with its
inputs negated by a mask drawn from a seed; an LTF is negated in its
weights, so it stays an --ltf file.  One larger spectrum, or at n = 17 with
negated inputs, has 2^17 coefficients.  At n = 0 a truth table and an LTF
without weights are both refused (exit 1, no stdout).  Input files are
written under relative names into the working directory, so the envelopes
(which name each input path) do not depend on where the corpus is made.
tests/test_analyze_corpus.py reruns every request and compares the digests.

Regenerate only when an output change is intended:

    PYTHONPATH=src python tests/data/make_analyze_corpus.py
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from boolsp import BooleanFunction, LtfSpec, cli, construct_named, random_function
from boolsp.serialize import FN_FORMAT, LTF_FORMAT, canonical_json, function_to_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # tests/, for spec_files
from spec_files import ltf_to_json

CORPUS = Path(__file__).with_name("analyze_corpus.json")

N_MAX = 12
BIG_N = 17
FORMATS = ("json", "text")


def _negated(f, mask):
    """f with the inputs in mask negated: table index u reads f at u ^ mask."""
    return BooleanFunction.from_values(f.values[np.arange(1 << f.n) ^ mask])


def _ltf(n, rng):
    """Integer weights whose sum with a0 is odd everywhere, hence never zero."""
    a = [rng.randint(1, 9) for _ in range(n)]
    return LtfSpec((sum(a) + 1) % 2, tuple(a))


def _functions(n, rng):
    """(family, function) pairs at n, for the families defined there."""
    yield "random", random_function(n, n)
    if n % 2:
        yield "majority", construct_named("majority", n)
    yield "or", construct_named("or", n)
    if n >= 3:
        yield "edic", construct_named("edic", n)
    coords = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    yield "character", construct_named("character", n, coords=coords)


def inputs():
    """(label, CLI flag, file object) triples in a fixed order."""
    yield "fn0", "--fn", {"format": FN_FORMAT, "n": 0, "table_hex": "1"}
    yield "ltf0", "--ltf", {"format": LTF_FORMAT, "a0": 1, "a": []}
    for n in range(1, N_MAX + 1):
        rng = random.Random(n)
        masks = (0, rng.randrange(1, 1 << n))
        for family, f in _functions(n, rng):
            for mask in masks:
                obj = function_to_json(_negated(f, mask))
                yield f"{family}{n}-m{mask}", "--fn", obj
        spec = _ltf(n, rng)
        for mask in masks:
            a = tuple(-w if mask >> i & 1 else w for i, w in enumerate(spec.a))
            yield f"ltf{n}-m{mask}", "--ltf", ltf_to_json(LtfSpec(spec.a0, a))
    mask = random.Random(BIG_N).randrange(1, 1 << BIG_N)
    f = _negated(construct_named("or", BIG_N), mask)
    yield f"or{BIG_N}-m{mask}", "--fn", function_to_json(f)


def write_inputs(workdir):
    """Write every input file into workdir; return (label, flag, name) triples."""
    out = []
    for label, flag, obj in inputs():
        name = f"{label}.json"
        (Path(workdir) / name).write_text(canonical_json(obj))
        out.append((label, flag, name))
    return out


def run(argv):
    """Exit code, stdout length and stdout sha256 of one CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    data = buf.getvalue().encode("utf-8")
    return {"exit": code, "length": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def record(flag, name):
    """{format: digest} for one input file in the working directory."""
    return {fmt: run(("analyze", flag, name, "--format", fmt)) for fmt in FORMATS}


def main():
    with tempfile.TemporaryDirectory() as workdir:
        home = os.getcwd()
        os.chdir(workdir)
        try:
            corpus = {label: record(flag, name) for label, flag, name in write_inputs(".")}
        finally:
            os.chdir(home)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} inputs x {len(FORMATS)} formats to {CORPUS}")


if __name__ == "__main__":
    main()
