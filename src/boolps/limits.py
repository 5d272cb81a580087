"""Enumeration caps for exhaustive operations.

All state-space operations in this package are exhaustive by design; the
caps below keep them desk-scale.  The variable cap bounds any operation that
enumerates 2**n subsets of an n-variable table; `var_cap` is its one reader.
"""

import contextlib
import contextvars
import os

from .errors import CapacityError, UsageError

DEFAULT_VAR_CAP = 20  # 2**20 subsets, about 1M states
DEFAULT_BREADTH_CAP = 10_000  # concurrent runs kept by `bn.enumerate_runs`

ENV_VAR_CAP = "BOOLPS_CAP_VARS"

_scoped_cap = contextvars.ContextVar("boolps_var_cap", default=None)


def _checked(value, source):
    try:
        cap = int(value)
    except ValueError:
        raise UsageError(f"{source} must be an integer, not {value!r}") from None
    if cap < 0:
        raise UsageError(f"{source} must be non-negative, not {cap}")
    return cap


def var_cap():
    """Effective variable cap: innermost `capped` block, else env, else default."""
    cap = _scoped_cap.get()
    if cap is None:
        cap = _checked(os.environ.get(ENV_VAR_CAP, DEFAULT_VAR_CAP), ENV_VAR_CAP)
    return cap


@contextlib.contextmanager
def capped(n):
    """Within the block `var_cap()` is `n`, checked on entry; None changes nothing.
    UsageError: `n` is neither None nor a non-negative int (a bool is not one)."""
    if n is not None and type(n) is not int:
        raise UsageError(f"the variable cap must be an integer, not {n!r}")
    token = _scoped_cap.set(_scoped_cap.get() if n is None else _checked(n, "the variable cap"))
    try:
        yield
    finally:
        _scoped_cap.reset(token)


def check_within(n_vars, limit, what):
    """`check_enumerable` against a cap that `var_cap` has already read."""
    if n_vars > limit:
        raise CapacityError(
            f"{what} has {n_vars} variables; enumeration capped at {limit} "
            f"(raise it with --cap-vars or {ENV_VAR_CAP})"
        )
    return n_vars


def check_enumerable(n_vars, what="universe"):
    """Raise CapacityError if enumerating 2**n_vars subsets exceeds the cap."""
    return check_within(n_vars, var_cap(), what)
