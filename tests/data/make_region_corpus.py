"""Write region_corpus.json: exact reprs of the region-layer results.

For every case the corpus stores repr() of sp_region(f) at the default
epsilon, 1/1000 and 2^-20, classify(f), sufficient_thresholds(f),
properties(f) and spectral_summary(f); for monotone f also
dominating_boundary_points(f), and where the level-1 spectrum is nonzero
ltf_approximation(f).  The cases are all 256 tables at n=3,
random_function(n, s) for n = 4..7 and s < 4, majority, or and edic for
n = 3..9, and products g * h on disjoint variables (product_compose): random
n = 3..5 times random n = 3..4 for 9 seeds, and majority, edic and or at
n=5 times majority and edic at n=3.  Each point polynomial of a product is
one of g times one of h, so distinct ones share irrational roots and the
product cases pin how the region walk decides and encloses common roots.  tests/test_region_corpus.py recomputes every case and compares the
strings exactly, so any change to the root or region code that alters a
single endpoint fails the suite.

Regenerate only when an output change is intended:

    PYTHONPATH=src python tests/data/make_region_corpus.py
"""

import json
from fractions import Fraction
from pathlib import Path

from boolsp import (
    BooleanFunction,
    classify,
    construct_named,
    dominating_boundary_points,
    ltf_approximation,
    product_compose,
    properties,
    random_function,
    sp_region,
    spectral_summary,
    sufficient_thresholds,
)

CORPUS = Path(__file__).with_name("region_corpus.json")


def cases():
    """(label, function) pairs in a fixed order."""
    for bits in range(256):
        yield f"table3-{bits}", BooleanFunction(3, bits)
    for n in range(4, 8):
        for seed in range(4):
            yield f"random{n}-{seed}", random_function(n, seed)
    for n in range(3, 10):
        for name in ("majority", "or", "edic"):
            if name == "majority" and n % 2 == 0:
                continue
            yield f"{name}{n}", construct_named(name, n)
    for ng in range(3, 6):
        for nh in range(3, 5):
            for seed in range(9):
                g, h = random_function(ng, seed), random_function(nh, seed + 9)
                yield f"product-random{ng}-{nh}-{seed}", product_compose(g, h)
    for outer in ("majority", "edic", "or"):
        for inner in ("majority", "edic"):
            g, h = construct_named(outer, 5), construct_named(inner, 3)
            yield f"product-{outer}5-{inner}3", product_compose(g, h)


def record(f):
    props = properties(f)
    summary = spectral_summary(f)
    out = {
        "sp_region": repr(sp_region(f)),
        "sp_region_1e-3": repr(sp_region(f, Fraction(1, 1000))),
        "sp_region_2^-20": repr(sp_region(f, Fraction(1, 1 << 20))),
        "classify": repr(classify(f)),
        "sufficient_thresholds": repr(sufficient_thresholds(f)),
        "properties": repr(props),
        "spectral_summary": repr(summary),
    }
    if props.monotone:
        out["dominating_boundary_points"] = repr(dominating_boundary_points(f))
    if any(summary.chow[1:]):
        out["ltf_approximation"] = repr(ltf_approximation(f))
    return out


def main():
    corpus = {label: record(f) for label, f in cases()}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} cases to {CORPUS}")


if __name__ == "__main__":
    main()
