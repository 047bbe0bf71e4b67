"""Write query_corpus.json: CLI stdout of the point-query commands.

For every input and every rho the corpus stores the stdout of `stability`,
`predict` under both tie rules, `thresholds --rho` and `orbit`.  The inputs
are random, LTF, majority and character functions at n = 3..10; the rho
values include 0 and 1, small denominators, and denominators so large that
2^n q^n T_rho needs one, two or many int64 limbs.  Input files are written
under relative names into the working directory, so the envelopes (which
name each input path) do not depend on where the corpus is made.
tests/test_query_corpus.py reruns every request and compares the bytes.

Regenerate only when an output change is intended:

    PYTHONPATH=src python tests/data/make_query_corpus.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from boolsp import LtfSpec, cli, construct_named, random_function
from boolsp.serialize import canonical_json, function_to_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # tests/, for spec_files
from spec_files import ltf_to_json

CORPUS = Path(__file__).with_name("query_corpus.json")

RHOS = [
    Fraction(0),
    Fraction(1, 16),
    Fraction(3, 8),
    Fraction(11, 16),
    Fraction(1),
    Fraction(1, 16385),
    Fraction(999999999999, 10**13),
    Fraction(1, 3**40),
]

COMMANDS = {
    "stability": ("stability",),
    "predict-zero": ("predict", "--tie-rule", "zero"),
    "predict-keep": ("predict", "--tie-rule", "keep"),
    "thresholds": ("thresholds",),
    "orbit": ("orbit",),
}


def inputs():
    """(label, CLI flag, file object) triples in a fixed order."""
    yield "random3-0", "--fn", function_to_json(random_function(3, 0))
    yield "random6-1", "--fn", function_to_json(random_function(6, 1))
    yield "random9-2", "--fn", function_to_json(random_function(9, 2))
    yield "ltf7", "--ltf", ltf_to_json(LtfSpec(1, (5, 3, 3, 2, 1, 1, 1)))
    yield "ltf10", "--ltf", ltf_to_json(LtfSpec(0, (9, 7, 6, 4, 4, 3, 2, 2, 1, 1)))
    yield "majority5", "--fn", function_to_json(construct_named("majority", 5))
    yield "majority9", "--fn", function_to_json(construct_named("majority", 9))
    yield "character8", "--fn", function_to_json(
        construct_named("character", 8, coords=[1, 4, 6])
    )


def write_inputs(workdir):
    """Write every input file into workdir; return (label, flag, name) triples."""
    out = []
    for label, flag, obj in inputs():
        name = f"{label}.json"
        (Path(workdir) / name).write_text(canonical_json(obj))
        out.append((label, flag, name))
    return out


def run(argv):
    """stdout of one CLI call; the call must succeed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise AssertionError(f"{argv} exited {code}")
    return buf.getvalue()


def record(flag, name):
    """{rho: {command: stdout}} for one input file in the working directory."""
    return {
        f"{rho.numerator}/{rho.denominator}": {
            key: run(cmd + (flag, name, "--rho", f"{rho.numerator}/{rho.denominator}"))
            for key, cmd in COMMANDS.items()
        }
        for rho in RHOS
    }


def main():
    with tempfile.TemporaryDirectory() as workdir:
        home = os.getcwd()
        os.chdir(workdir)
        try:
            corpus = {label: record(flag, name) for label, flag, name in write_inputs(".")}
        finally:
            os.chdir(home)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} inputs x {len(RHOS)} rho to {CORPUS}")


if __name__ == "__main__":
    main()
