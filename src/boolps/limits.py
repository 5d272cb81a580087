"""Enumeration caps for exhaustive operations.

All state-space operations in this package are exhaustive by design; the
caps below keep them desk-scale.  The variable cap bounds any operation
that enumerates 2**n subsets of an n-variable table.
"""

import os

from .errors import CapacityError, UsageError

DEFAULT_VAR_CAP = 20  # 2**20 subsets, about 1M states
DEFAULT_BREADTH_CAP = 10_000  # concurrent runs kept by `bn.enumerate_runs`

ENV_VAR_CAP = "BOOLPS_CAP_VARS"


def var_cap(override=None):
    """Effective variable cap: explicit override, else env, else default."""
    source = "the variable cap"
    if override is None:
        override, source = os.environ.get(ENV_VAR_CAP), ENV_VAR_CAP
        if override is None:
            return DEFAULT_VAR_CAP
    try:
        cap = int(override)
    except ValueError:
        raise UsageError(f"{source} must be an integer, not {override!r}") from None
    if cap < 0:
        raise UsageError(f"{source} must be non-negative, not {cap}")
    return cap


def check_enumerable(n_vars, cap=None, what="universe"):
    """Raise CapacityError if enumerating 2**n_vars subsets exceeds the cap."""
    limit = var_cap(cap)
    if n_vars > limit:
        raise CapacityError(
            f"{what} has {n_vars} variables; enumeration capped at {limit} "
            f"(set {ENV_VAR_CAP} or pass a cap to raise)"
        )
    return n_vars
