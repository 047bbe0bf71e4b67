"""JSON objects of LTF and PTF files, for writing test inputs.

boolsp reads these files (serialize.function_from_obj) but never writes them;
the tests and the corpus scripts under tests/data write them with these.
"""

from boolsp.serialize import LTF_FORMAT, PTF_FORMAT


def ltf_to_json(spec):
    return {"format": LTF_FORMAT, "a0": spec.a0, "a": list(spec.a)}


def ptf_to_json(spec):
    terms = []
    for mask, coeff in spec.terms:
        coords = [j + 1 for j in range(spec.n) if (mask >> j) & 1]
        terms.append({"coords": coords, "coeff": coeff})
    return {"format": PTF_FORMAT, "n": spec.n, "terms": terms}
