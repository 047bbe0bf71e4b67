"""Report stdout stays byte-identical to the committed corpus.

tests/data/report_corpus.json holds the exit code, length and sha256 of the
stdout (json and text) of region and classify at three epsilons, thresholds
with --alpha/--delta, and compose with --left/--right and with --plan; see
tests/data/make_report_corpus.py for the cases and how to regenerate it.
"""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).with_name("data")


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_report_corpus", DATA / "make_report_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_outputs_match_committed_corpus(tmp_path, monkeypatch):
    gen = _generator()
    corpus = json.loads(gen.CORPUS.read_text())
    monkeypatch.chdir(tmp_path)
    gen.write_inputs(tmp_path)
    labels = []
    for label, argv in gen.requests():
        labels.append(label)
        assert gen.record(argv) == corpus[label], label
    assert sorted(labels) == sorted(corpus)
