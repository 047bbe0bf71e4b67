"""Runtime knob: the dense-table capacity.

The largest n whose 2^n tables may be built is read from BOOLSP_CAP_N on each
check (default 24, at most 31).  This module is the only one that knows it:
every other module calls check_cap(n) before it builds a 2^n table.
"""

import os

from .errors import CapacityError, InvalidArgument

VERSION = "0.1.0"
DEFAULT_CAP_N = 24
# From n = 32 on, the int64 Parseval total 4^n of the level weights wraps and
# the uint32 point indices of popcounts overflow.
MAX_CAP_N = 31
ENV_CAP_N = "BOOLSP_CAP_N"


def dense_cap():
    """Largest n for which dense 2^n tables may be materialized (<= MAX_CAP_N)."""
    raw = os.environ.get(ENV_CAP_N)
    if raw is None:
        return DEFAULT_CAP_N
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidArgument(f"{ENV_CAP_N} must be an integer, got {raw!r}")
    if cap < 1:
        raise InvalidArgument(f"{ENV_CAP_N} must be >= 1, got {cap}")
    if cap > MAX_CAP_N:
        raise InvalidArgument(f"{ENV_CAP_N} must be <= {MAX_CAP_N}, got {cap}")
    return cap


def check_cap(n):
    cap = dense_cap()
    if n > MAX_CAP_N:  # no cap reaches n, so none is worth suggesting
        raise CapacityError(
            f"n={n} exceeds {MAX_CAP_N}, the largest dense-table cap allowed"
        )
    if n > cap:
        raise CapacityError(
            f"n={n} exceeds the dense-table cap {cap} (raise via {ENV_CAP_N})"
        )
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
