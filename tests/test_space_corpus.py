"""Whole-space scan CLI output stays byte-identical to the committed corpus.

tests/data/space_corpus.json holds the stdout of census (json and csv) for
n = 0..4 over four rho grids, and of graph for n <= 4 over the same grids
(two of them at n = 4), plus rho far outside int64; see
tests/data/make_space_corpus.py for the cases and how to regenerate it.
"""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).with_name("data")


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_space_corpus", DATA / "make_space_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_space_outputs_match_committed_corpus():
    gen = _generator()
    corpus = json.loads(gen.CORPUS.read_text())
    keys = []
    for argv in gen.requests():
        key = " ".join(argv)
        keys.append(key)
        assert gen.run(argv) == corpus[key], key
    assert sorted(keys) == sorted(corpus)
