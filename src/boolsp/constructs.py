"""SP-preserving constructions and random function generation.

Input negation and disjoint-variable products/compositions preserve the
self-predictability structure; they are the supply line for larger test
functions with known SP regions.
"""

from dataclasses import dataclass

import numpy as np

from .config import check_cap
from .errors import InvalidArgument
from .functions import BooleanFunction

PRNG_NAME = "pcg64"


def negate_inputs(f, signs):
    """f with coordinates flipped where signs[i] == -1 (signs has length n)."""
    if len(signs) != f.n:
        raise InvalidArgument("signs length must equal n")
    mask = 0
    for j, s in enumerate(signs):
        if s == -1:
            mask |= 1 << j
        elif s != 1:
            raise InvalidArgument(f"signs must be +-1, got {s}")
    idx = np.arange(1 << f.n) ^ mask
    return BooleanFunction.from_values(f.values[idx])


def product_compose(g, h):
    """Product g(x_1..x_k) * h(x_{k+1}..x_{k+l}) on disjoint variables."""
    n = g.n + h.n
    check_cap(n)
    values = (g.values[:, None] * h.values[None, :]).T.reshape(-1)
    # index u splits as (u low bits -> g, high bits -> h); transpose puts
    # h's coordinate block above g's in the little-endian order
    return BooleanFunction.from_values(values)


@dataclass(frozen=True)
class CompositionPlan:
    """Outer function applied to disjoint characters: t-th input is x^{S_t}.

    blocks are 1-based coordinate lists, pairwise disjoint; the result lives
    on n = max coordinate variables.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        seen = set()
        for b in blocks:
            if not b:
                raise InvalidArgument("empty block in composition plan")
            for i in b:
                if i < 1:
                    raise InvalidArgument("coordinates are 1-based")
                if i in seen:
                    raise InvalidArgument(f"coordinate {i} reused across blocks")
                seen.add(i)

    @property
    def n(self):
        return max(max(b) for b in self.blocks)


def character_compose(outer, plan):
    """outer(x^{S_1}, ..., x^{S_m}) for the plan's blocks."""
    if len(plan.blocks) != outer.n:
        raise InvalidArgument(
            f"plan has {len(plan.blocks)} blocks but outer takes {outer.n} inputs"
        )
    n = plan.n
    check_cap(n)
    u = np.arange(1 << n, dtype=np.uint32)
    outer_index = np.zeros(1 << n, dtype=np.int64)
    for t, block in enumerate(plan.blocks):
        mask = 0
        for i in block:
            mask |= 1 << (i - 1)
        parity = (np.bitwise_count(u & np.uint32(mask)) & 1).astype(np.int64)
        outer_index |= parity << t  # x^{S_t} = -1 <=> odd overlap <=> bit t set
    return BooleanFunction.from_values(outer.values[outer_index])


def random_function(n, seed):
    """Uniformly random table from a fixed named PRNG stream.

    Stream semantics: PCG64 seeded with ``seed``; table bit u is the u-th
    draw of ``integers(0, 2)``.  Identical (n, seed) gives identical
    functions on any platform.
    """
    check_cap(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
    return BooleanFunction.from_values(bits.astype(np.int8) * 2 - 1)
