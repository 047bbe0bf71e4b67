"""Region-layer results stay byte-identical to the committed corpus.

tests/data/region_corpus.json holds repr() of sp_region (three epsilons),
classify, sufficient_thresholds, properties and spectral_summary for 350
functions (products with shared irrational roots among them), plus
dominating_boundary_points for the monotone ones and ltf_approximation
where the level-1 spectrum is nonzero; see tests/data/make_region_corpus.py
for the cases and how to regenerate it.
"""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).with_name("data")


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_region_corpus", DATA / "make_region_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_region_results_match_committed_corpus():
    gen = _generator()
    corpus = json.loads(gen.CORPUS.read_text())
    labels = []
    for label, f in gen.cases():
        labels.append(label)
        assert gen.record(f) == corpus[label], label
    assert sorted(labels) == sorted(corpus)
