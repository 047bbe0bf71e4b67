"""Boolean functions on the hypercube {-1,+1}^n as dense truth tables.

Conventions used everywhere in this package:

* Inputs are indexed by u in [0, 2^n): bit j of u set means coordinate
  x_{j+1} = -1, clear means +1.  Index 0 is the all-(+1) point.
* Function values are +1/-1.  Internally a table is a 2^n-bit integer
  (bit u set <=> f(u) = +1) plus a derived numpy int8 value array.
* "or" is the Boolean OR under the same 1 <-> -1 encoding on inputs and
  output, hence +1 only at the all-(+1) point (index 0).
* The partial order on points is coordinatewise with -1 < +1, so index v
  is below index u exactly when v's bit set contains u's.
* Spectra and T_rho sign streams that many calls read are kept by
  bytes_lru, bounded by bytes: spectrum.wht and noise._sign_stream.  Each
  kept entry is charged its result's bytes, the truth tables its key holds
  and a fixed _ENTRY_BYTES for the key, result object and dict slot, so
  many small entries cannot outgrow the bound and a kept result cannot
  keep a large table uncharged.
"""

from collections import OrderedDict
from dataclasses import dataclass
from functools import wraps
from itertools import combinations
from threading import Lock

import numpy as np

from .config import check_cap
from .errors import InvalidArgument, PreconditionError, TieError

_SIGN_FORM_BOUND = 1 << 62


def point_of_index(u, n):
    """Decode table index u into the point (x_1, ..., x_n)."""
    return tuple(-1 if (u >> j) & 1 else 1 for j in range(n))


def index_of_point(point):
    """Inverse of point_of_index."""
    u = 0
    for j, x in enumerate(point):
        if x == -1:
            u |= 1 << j
        elif x != 1:
            raise InvalidArgument(f"point coordinates must be +-1, got {x}")
    return u


# What a kept entry holds besides nbytes(result) and its key's tables: the
# key's objects, the result's Python object and the dict slot.  Per entry,
# for a 16-byte int8 result keyed by (BooleanFunction(4, .), Fraction) or an
# n = 4 spectrum keyed by its function: about 0.5 KiB traced by tracemalloc,
# 0.55-0.65 KiB of RSS.  Charged on top of the rest, it keeps a cache of many
# small entries within its bound.
_ENTRY_BYTES = 1 << 10


def _key_bytes(key):
    """The table bytes a cache key holds: those of the BooleanFunction that is
    the key or an item of the tuple key."""
    items = key if isinstance(key, tuple) else (key,)
    return sum(x.nbytes for x in items if isinstance(x, BooleanFunction))


def bytes_lru(limit, nbytes):
    """functools.lru_cache for one hashable argument, bounded by the bytes
    kept instead of a count: each entry is charged nbytes(result), the tables
    of its key (_key_bytes) and _ENTRY_BYTES, the least recently used leaves
    first, and a result whose charge exceeds limit is returned unkept.  A
    function that keys two caches is charged in each.  Thread-safe;
    cache_info() is (kept keys, least recent first; their total charge)."""

    def decorate(build):
        kept = OrderedDict()
        total = 0
        lock = Lock()

        def charge(key, value):
            return nbytes(value) + _key_bytes(key) + _ENTRY_BYTES

        @wraps(build)
        def cached(key):
            nonlocal total
            with lock:
                value = kept.get(key)
                if value is not None:
                    kept.move_to_end(key)
                    return value
            value = build(key)
            size = charge(key, value)
            if size <= limit:
                with lock:
                    if key not in kept:
                        kept[key] = value
                        total += size
                    while total > limit:
                        total -= charge(*kept.popitem(last=False))
            return value

        def cache_clear():
            nonlocal total
            with lock:
                kept.clear()
                total = 0

        def cache_info():
            with lock:
                return tuple(kept), total

        cached.cache_clear = cache_clear
        cached.cache_info = cache_info
        return cached

    return decorate


def popcounts(n):
    """Hamming weights of 0..2^n-1 as a fresh int64 numpy array.  int64
    because ufunc.at and the gather of level weights index faster with it
    than with a narrow table."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.int64)


class BooleanFunction:
    """Immutable +-1 valued function given by its dense truth table."""

    __slots__ = ("n", "bits", "_values", "_hash")

    def __init__(self, n, bits):
        check_cap(n)
        size = 1 << n
        if not 0 <= bits < (1 << size):
            raise InvalidArgument(f"table does not fit 2^{n} bits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", bits)
        nbytes = max(1, size // 8)
        raw = np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8)
        values = (np.unpackbits(raw, bitorder="little")[:size].astype(np.int8) * 2) - 1
        values.flags.writeable = False
        object.__setattr__(self, "_values", values)
        # kept: hashing bits reads all 2^n of them, and every cache lookup hashes
        object.__setattr__(self, "_hash", hash((n, bits)))

    @property
    def values(self):
        return self._values

    @classmethod
    def from_values(cls, values):
        values = np.asarray(values)
        size = len(values)
        n = size.bit_length() - 1
        if 1 << n != size or n < 1:
            raise InvalidArgument(f"table length {size} is not a power of two >= 2")
        if not np.all(np.abs(values) == 1):
            raise InvalidArgument("table values must be +-1")
        packed = np.packbits((values > 0).astype(np.uint8), bitorder="little")
        return cls(n, int.from_bytes(packed.tobytes(), "little"))

    def value_at(self, u):
        if not 0 <= u < len(self._values):
            raise InvalidArgument(f"point index must be in 0..{len(self._values) - 1}, got {u}")
        return int(self._values[u])

    def __call__(self, point):
        if len(point) != self.n:
            raise InvalidArgument(f"point must have {self.n} coordinates, got {len(point)}")
        return self.value_at(index_of_point(point))

    def __eq__(self, other):
        return (
            isinstance(other, BooleanFunction)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self):
        return self._hash

    @property
    def nbytes(self):
        """Bytes of its tables: one per point in values, one bit per point in bits."""
        return self._values.nbytes + len(self._values) // 8

    def __setattr__(self, *_):
        raise AttributeError("BooleanFunction is immutable")

    def __repr__(self):
        return f"BooleanFunction(n={self.n}, bits={self.bits:#x})"


@dataclass(frozen=True)
class LtfSpec:
    """Integer linear threshold form a0 + sum a_i x_i (must never vanish)."""

    a0: int
    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(c) for c in self.a))
        object.__setattr__(self, "a0", int(self.a0))
        if not self.a:
            raise InvalidArgument("LTF needs at least one coefficient")


@dataclass(frozen=True)
class PtfSpec:
    """Integer polynomial threshold form: terms are (subset mask, coefficient).

    Mask bit i-1 stands for coordinate x_i; mask 0 is the constant term.
    """

    n: int
    terms: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((int(m), int(c)) for m, c in self.terms)
        )
        seen = set()
        for mask, _ in self.terms:
            if mask < 0 or mask.bit_length() > self.n:  # mask < 2^n, without 2^n
                raise InvalidArgument(f"term mask {mask} out of range for n={self.n}")
            if mask in seen:
                raise InvalidArgument(f"duplicate term mask {mask}")
            seen.add(mask)


def linear_values(a0, a):
    """a0 + sum_i a_i x_i at every point as int64 (the caller keeps
    |a0| + sum |a_i| < 2^63), by one doubling per coefficient.

    The doublings run in place in one array of 2^len(a) entries: after the
    step for a_j its first m = 2^(j+1) entries are the values over the
    first j + 1 coordinates, the upper half (x_{j+1} = -1) written from the
    lower one before the lower one takes +a_j.  No step allocates."""
    vals = np.empty(1 << len(a), dtype=np.int64)
    vals[0] = a0
    m = 1
    for c in a:
        np.subtract(vals[:m], c, out=vals[m:2 * m])
        vals[:m] += c
        m *= 2
    return vals


def _sign_table_to_function(vals, n, what):
    """Turn an integer sign-form table into a BooleanFunction, rejecting zeros."""
    zeros = np.flatnonzero(vals == 0)
    if len(zeros):
        u = int(zeros[0])
        raise TieError(
            f"{what} vanishes at input index {u} = {point_of_index(u, n)}; "
            "ties are not representable",
            u,
            point_of_index(u, n),
        )
    return BooleanFunction.from_values(np.sign(vals).astype(np.int8))


def construct_ltf(spec):
    """Boolean function sgn(a0 + sum a_i x_i); raises TieError on any zero."""
    n = len(spec.a)
    check_cap(n)
    if abs(spec.a0) + sum(abs(c) for c in spec.a) >= _SIGN_FORM_BOUND:
        raise InvalidArgument("LTF coefficients too large for exact evaluation")
    return _sign_table_to_function(linear_values(spec.a0, spec.a), n, "LTF form")


def construct_ptf(spec):
    """Boolean function sgn(sum_T c_T x^T); raises TieError on any zero."""
    check_cap(spec.n)
    if sum(abs(c) for _, c in spec.terms) >= _SIGN_FORM_BOUND:
        raise InvalidArgument("PTF coefficients too large for exact evaluation")
    u = np.arange(1 << spec.n, dtype=np.uint32)
    vals = np.zeros(len(u), dtype=np.int64)
    for mask, coeff in spec.terms:
        odd = np.bitwise_count(u & np.uint32(mask)) & 1  # x^T = -1 <=> odd overlap
        vals += np.where(odd, -coeff, coeff)
    return _sign_table_to_function(vals, spec.n, "PTF form")


def construct_named(name, n, coords=None):
    """Build one of the stock functions: character, majority, or, edic.

    ``coords`` (1-based coordinate list) is required for "character" and
    selects the monomial; the empty list gives the constant +1.
    """
    check_cap(n)
    u = np.arange(1 << n, dtype=np.uint32)
    if name == "character":
        if coords is None:
            raise InvalidArgument("character needs coords")
        mask = 0
        for i in coords:
            if not 1 <= i <= n:
                raise InvalidArgument(f"coordinate {i} out of range 1..{n}")
            mask |= 1 << (i - 1)
        parity = np.bitwise_count(u & np.uint32(mask)) & 1
        return BooleanFunction.from_values(1 - 2 * parity.astype(np.int8))
    if name == "majority":
        if n % 2 == 0:
            raise InvalidArgument("majority needs odd n")
        values = np.where(np.bitwise_count(u) * 2 < n, 1, -1).astype(np.int8)
        return BooleanFunction.from_values(values)
    if name == "or":
        values = np.full(1 << n, -1, dtype=np.int8)
        values[0] = 1
        return BooleanFunction.from_values(values)
    if name == "edic":
        if n < 3:
            raise InvalidArgument("edic needs n >= 3")
        return construct_ltf(LtfSpec(0, (n - 2,) + (1,) * (n - 1)))
    raise InvalidArgument(f"unknown named function {name!r}")


@dataclass(frozen=True)
class PropertyRecord:
    balanced: bool
    monotone: bool
    odd: bool
    even: bool
    symmetric: bool


def coordinate_pairs(a):
    """For j = 0..n-1, the (upper, lower) view pairs of the 2^n-entry array a
    across x_{j+1}: upper at the points with bit j clear, lower at the same
    points with bit j set.  For j <= 3 the 3-D view has runs of 1 to 8 entries,
    which compare slowly, so its 2^j strided columns are paired one by one."""
    for j in range(len(a).bit_length() - 1):
        pair = a.reshape(-1, 2, 1 << j)
        columns = range(1 << j) if j <= 3 else [slice(None)]
        yield [(pair[:, 0, t], pair[:, 1, t]) for t in columns]


def properties(f):
    """Structural predicates of f, each decided over the full table; f is
    monotone when no lower view of coordinate_pairs exceeds its upper one."""
    vals = f.values
    balanced = int(vals.sum()) == 0
    monotone = not any(
        (lower > upper).any() for views in coordinate_pairs(vals) for upper, lower in views
    )
    # -x is index 2^n - 1 - u: each low-half point against its mirror in the
    # high half decides both, f(-x) = -f(x) everywhere or f(-x) = f(x)
    half = len(vals) // 2
    same = vals[:half] == vals[:half - 1:-1]
    odd = not same.any()
    even = bool(same.all())
    # the transposition of x_1 and x_2 (bits (1, 0) = (0, 1) against (1, 0))
    # and the cyclic shift of the coordinates generate every permutation; the
    # shift takes index 2w + b to b 2^(n-1) + w, the transposed pairs view
    symmetric = True
    if f.n >= 2:
        quads = vals.reshape(-1, 2, 2)
        symmetric = np.array_equal(quads[:, 0, 1], quads[:, 1, 0]) and np.array_equal(
            vals.reshape(-1, 2).T, vals.reshape(2, -1)
        )
    return PropertyRecord(balanced, monotone, odd, even, symmetric)


def dominating_boundary_points(f):
    """Indices of the monotone frontier: minimal +1 points and maximal -1 points.

    Minimal/maximal is in the coordinatewise order (-1 below +1); for a
    monotone function these are exactly the points where the sign is decided
    with no slack.  Precondition: f monotone, tested in the same pass.
    """
    return np.flatnonzero(_boundary_mask(f)).tolist()


def dominating_boundary_count(f):
    """len(dominating_boundary_points(f)), without listing the points."""
    return int(np.count_nonzero(_boundary_mask(f)))


def _boundary_mask(f):
    """Bool array of the dominating boundary points of the monotone f.

    For monotone f it suffices to look at immediate neighbours: an equal pair
    of coordinate_pairs leaves its upper point not minimal when both are +1,
    and its lower point not maximal when both are -1.  Once the pair has no
    lower > upper, both +1 is just lower > 0 and both -1 is upper < 0; the
    marks go through the same views of the slack array.
    """
    slack = np.zeros(1 << f.n, dtype=bool)
    for views, marks in zip(coordinate_pairs(f.values), coordinate_pairs(slack)):
        for (upper, lower), (upper_slack, lower_slack) in zip(views, marks):
            if (lower > upper).any():
                raise PreconditionError("dominating boundary is defined for monotone f only")
            upper_slack |= lower > 0
            lower_slack |= upper < 0
    return ~slack


def friendly_neighborhood(f, d):
    """Bool array: entry u is True iff some y != u within distance d agrees with f(u)."""
    if d < 1:
        raise InvalidArgument("neighborhood radius must be >= 1")
    size = 1 << f.n
    u = np.arange(size)
    agree = np.zeros(size, dtype=bool)
    vals = f.values
    for r in range(1, min(d, f.n) + 1):
        for flip in combinations(range(f.n), r):
            m = 0
            for j in flip:
                m |= 1 << j
            agree |= vals[u ^ m] == vals
            if agree.all():
                return agree
    return agree
