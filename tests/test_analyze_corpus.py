"""analyze CLI output stays byte-identical to the committed corpus.

tests/data/analyze_corpus.json holds the exit code, length and sha256 of
the stdout of analyze (json and text) for random, majority, or, edic, LTF
and character functions at n = 0..12, plain and with negated inputs, and
for or at n = 17; see tests/data/make_analyze_corpus.py for the cases and
how to regenerate it.
"""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).with_name("data")


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_analyze_corpus", DATA / "make_analyze_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_analyze_outputs_match_committed_corpus(tmp_path, monkeypatch):
    gen = _generator()
    corpus = json.loads(gen.CORPUS.read_text())
    monkeypatch.chdir(tmp_path)
    labels = []
    for label, flag, name in gen.write_inputs(tmp_path):
        labels.append(label)
        assert gen.record(flag, name) == corpus[label], label
    assert sorted(labels) == sorted(corpus)
