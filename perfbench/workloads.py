"""Workload definitions: seeded pools, rounds of CLI requests, input files.

Every workload is a closed loop of `boolsp` CLI requests grouped into rounds.
A round has a fixed shape (which commands, at which sizes); the run seed only
decides which pool items fill the round's slots and, where the shape allows,
the order of its requests.  Runs always execute whole rounds, so every run of
a workload measures the same request mix whatever its length.

The pools themselves (random-function seeds, negation masks, rho values) are
stored in the reference files next to the reference answers, because some of
them are chosen by cost when the references are made (see make_reference.py).
"""

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("region-random", "region-symmetric", "point-queries", "whole-space")
SIZES = ("full", "tiny")

# Sizes n per workload.  "tiny" keeps every code path and shrinks n so the
# benchmark's own tests run in seconds.
RANDOM_N = {"full": 9, "tiny": 6}
SYMMETRIC_N = {"full": (17, 18, 19), "tiny": (9, 10, 11)}
QUERY_N = {"full": (13, 14), "tiny": (7, 8)}
SPACE_N = {"full": 4, "tiny": 3}

# Rounds are kept to a few seconds so that a run holds several of them and
# requests_per_s can be the median over rounds: on the shared 2-core machine
# the benchmark was defined on, pure-Python loops ran up to half again slower
# for seconds at a time, and one long round per run would carry such a spell
# straight into the result.

# region-random: one round is one random function, sent as `region` and then
# `classify`.

# region-symmetric: one round sends each command once, each at its own n and
# on its own symmetric family (majority needs odd n).
SYMMETRIC_SLOTS = ((1, "edic", "region"), (0, "majority", "classify"), (2, "or", "analyze"))

# point-queries: the run's functions are drawn once and every round queries
# each of them with each command at each rho, in a new order.  Odd multiples
# of 1/16 take the Python-int path of scaled_t_values at n=13-14; 3/8 and 1
# stay on the int64 path.
QUERY_COMMANDS = ("stability", "predict", "thresholds", "orbit")
QUERY_RHOS = ("1/16", "3/8", "11/16", "1")

# whole-space: rho values per round for each command.
SPACE_ROUND = (("census", 12), ("graph", 6))
SPACE_GRIDS = (16, 24, 40, 60)


@dataclass(frozen=True)
class Request:
    key: str  # stable name of the request; indexes the reference answers
    argv: tuple


# ---------------------------------------------------------------------------
# truth tables and input files


def _popcounts(n):
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.int64)


def random_bits(n, seed):
    """Table bits of boolsp's random_function(n, seed): PCG64 draws of 0/1."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 2, size=1 << n, dtype=np.uint8)


def symmetric_bits(kind, n, mask):
    """Table bits of a symmetric family member with inputs negated by mask.

    Bit u is set when the function is +1 at input index u (bit j of u set
    means x_{j+1} = -1), the convention of boolsp-fn-v1.
    """
    pc = _popcounts(n)
    if kind == "majority":
        bits = pc * 2 < n
    elif kind == "or":
        bits = pc == 0
    elif kind == "edic":
        # sign((n-2) x_1 + x_2 + ... + x_n); the sum is always odd
        x1 = 1 - 2 * (np.arange(1 << n) & 1)
        rest = (n - 1) - 2 * (pc - (np.arange(1 << n) & 1))
        bits = (n - 2) * x1 + rest > 0
    else:
        raise ValueError(f"unknown symmetric kind {kind!r}")
    idx = np.arange(1 << n) ^ mask
    return bits[idx].astype(np.uint8)


def ltf_weights(n, seed):
    """Integer LTF form whose value is odd everywhere, hence never zero."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = [int(x) for x in rng.integers(1, 41, size=n)]
    return (sum(a) + 1) % 2, a


_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def fn_file_text(n, bits):
    """boolsp-fn-v1 text, byte-identical to boolsp's canonical writer."""
    nibbles = bits.reshape(-1, 4) @ np.array([1, 2, 4, 8])  # n >= 2 throughout
    table_hex = _HEX[nibbles].tobytes().decode("ascii")
    return _canonical({"format": "boolsp-fn-v1", "n": n, "table_hex": table_hex})


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def item_file(item):
    """(CLI flag, file name, file text) for a pool item that is a function."""
    kind, n = item["kind"], item["n"]
    if kind == "random":
        return "--fn", item["id"] + ".json", fn_file_text(n, random_bits(n, item["seed"]))
    if kind == "ltf":
        a0, a = ltf_weights(n, item["seed"])
        text = _canonical({"format": "boolsp-ltf-v1", "a0": a0, "a": a})
        return "--ltf", item["id"] + ".json", text
    bits = symmetric_bits(kind, n, item["mask"])
    return "--fn", item["id"] + ".json", fn_file_text(n, bits)


def write_inputs(reference, workdir):
    """Write the file of every function item in the pools; return paths by id."""
    paths = {}
    for slot in reference["slots"]:
        for item in slot["items"]:
            if "kind" not in item:
                continue
            flag, name, text = item_file(item)
            path = workdir / name
            path.write_text(text, encoding="ascii")
            paths[item["id"]] = (flag, str(path))
    return paths


# ---------------------------------------------------------------------------
# pools (used by make_reference.py) and rounds


def rho_pool():
    """Distinct rationals k/G over the whole-space grids, as "p/q" strings."""
    values = sorted({Fraction(k, g) for g in SPACE_GRIDS for k in range(g + 1)})
    return [f"{v.numerator}/{v.denominator}" for v in values]


def item_requests(workload, slot, item, paths):
    """The CLI requests one pool item contributes to a round."""
    if workload == "whole-space":
        cmd, n = slot["command"], slot["n"]
        return [Request(f"{cmd} rho={item['rho']}",
                        (cmd, "--n", str(n), "--rho", item["rho"]))]
    flag, path = paths[item["id"]]
    if workload == "region-random":
        return [Request(f"{cmd} {item['id']}", (cmd, flag, path))
                for cmd in ("region", "classify")]
    if workload == "region-symmetric":
        cmd = slot["command"]
        return [Request(f"{cmd} {item['id']}", (cmd, flag, path))]
    return [
        Request(f"{cmd} {item['id']} rho={rho}", (cmd, flag, path, "--rho", rho))
        for cmd in QUERY_COMMANDS
        for rho in QUERY_RHOS
    ]


def rounds(workload, reference, seed, paths):
    """Endless generator of rounds (lists of Requests) for one run seed.

    Each slot walks its own seed-permuted cycle through its pool, so
    consecutive rounds use distinct items until a pool is exhausted; in
    point-queries every round reuses the run's first items instead.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    slots = reference["slots"]
    orders = [rng.permutation(len(s["items"])) for s in slots]
    cursor = [0] * len(slots)
    step = 0 if workload == "point-queries" else 1
    shuffle = workload in ("point-queries", "whole-space")
    while True:
        batch = []
        for i, slot in enumerate(slots):
            for _ in range(slot["per_round"]):
                item = slot["items"][orders[i][cursor[i] % len(orders[i])]]
                cursor[i] += step
                batch.extend(item_requests(workload, slot, item, paths))
        if shuffle:
            batch = [batch[j] for j in rng.permutation(len(batch))]
        yield batch
