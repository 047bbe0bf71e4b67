"""Write space_corpus.json: CLI stdout of the whole-space scans.

The corpus stores the stdout of `census --n k --grid G` in json and csv for
k = 0..4 and G in GRIDS, and of `graph --n k --rho r` for k <= 3 at every
k/G of those grids and for n = 4 at k/16 and k/24.  Every n also runs both
scans at EXTRA_RHOS: 1/3^20, and (2^70-1)/2^70, whose 2^n q^n T_rho values
are far outside int64.  tests/test_space_corpus.py reruns every request and
compares the bytes.

Regenerate only when an output change is intended:

    PYTHONPATH=src python tests/data/make_space_corpus.py
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

from boolsp import cli

CORPUS = Path(__file__).with_name("space_corpus.json")

GRIDS = (16, 24, 40, 60)
GRAPH_GRIDS_N4 = (16, 24)
EXTRA_RHOS = ("1/3486784401", f"{2**70 - 1}/{2**70}")


def _grid_rhos(grids):
    values = sorted({Fraction(k, g) for g in grids for k in range(g + 1)})
    return [f"{v.numerator}/{v.denominator}" for v in values]


def requests():
    """Every corpus request as an argv tuple, in a fixed order."""
    for n in range(5):
        for grid in GRIDS:
            for fmt in ("json", "csv"):
                yield ("census", "--n", str(n), "--grid", str(grid), "--format", fmt)
        extras = tuple(arg for rho in EXTRA_RHOS for arg in ("--rho", rho))
        for fmt in ("json", "csv"):
            yield ("census", "--n", str(n)) + extras + ("--format", fmt)
        grids = GRIDS if n <= 3 else GRAPH_GRIDS_N4
        for rho in _grid_rhos(grids) + list(EXTRA_RHOS):
            yield ("graph", "--n", str(n), "--rho", rho)


def run(argv):
    """stdout of one CLI call; the call must succeed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise AssertionError(f"{argv} exited {code}")
    return buf.getvalue()


def main():
    corpus = {" ".join(argv): run(argv) for argv in requests()}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} requests to {CORPUS}")


if __name__ == "__main__":
    main()
