"""Point-query CLI output stays byte-identical to the committed corpus.

tests/data/query_corpus.json holds the stdout of stability, predict (both
tie rules), thresholds --rho and orbit for 8 inputs at 8 rho, from rho = 0
up to denominators that need many int64 limbs; see
tests/data/make_query_corpus.py for the cases and how to regenerate it.
"""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).with_name("data")


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_query_corpus", DATA / "make_query_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_query_outputs_match_committed_corpus(tmp_path, monkeypatch):
    gen = _generator()
    corpus = json.loads(gen.CORPUS.read_text())
    monkeypatch.chdir(tmp_path)
    labels = []
    for label, flag, name in gen.write_inputs(tmp_path):
        labels.append(label)
        assert gen.record(flag, name) == corpus[label], label
    assert sorted(labels) == sorted(corpus)
