"""Runtime knob: the dense-table capacity.

Precedence: explicit function/CLI argument > environment variable > default.
"""

import os

from .errors import CapacityError, InvalidArgument

VERSION = "0.1.0"
DEFAULT_CAP_N = 24
# From n = 32 on, the int64 Parseval total 4^n of level_weights wraps and the
# uint32 point indices of popcounts overflow.
MAX_CAP_N = 31
ENV_CAP_N = "BOOLSP_CAP_N"


def _at_least_one(name, value):
    if value < 1:
        raise InvalidArgument(f"{name} must be >= 1, got {value}")
    return value


def _at_most_max_cap(name, value):
    if value > MAX_CAP_N:
        raise InvalidArgument(f"{name} must be <= {MAX_CAP_N}, got {value}")
    return value


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise InvalidArgument(f"{name} must be an integer, got {raw!r}")
    return _at_least_one(name, value)


def dense_cap(override=None):
    """Largest n for which dense 2^n tables may be materialized (<= MAX_CAP_N)."""
    if override is not None:
        return _at_most_max_cap("cap", int(override))
    return _at_most_max_cap(ENV_CAP_N, _env_int(ENV_CAP_N, DEFAULT_CAP_N))


def check_cap(n, override=None):
    cap = dense_cap(override)
    if n > MAX_CAP_N:  # no cap reaches n, so none is worth suggesting
        raise CapacityError(
            f"n={n} exceeds {MAX_CAP_N}, the largest dense-table cap allowed"
        )
    if n > cap:
        raise CapacityError(
            f"n={n} exceeds the dense-table cap {cap} "
            f"(raise via {ENV_CAP_N} or an explicit cap argument)"
        )
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
