"""The concrete semirings used by the paper and its applications.

* ``PLUS_TIMES`` — ordinary arithmetic ``(+, ·, 0, 1)``; a ring, so every
  update is an *algebraic* update (Section V).  Used in the paper's
  Figure 9 experiment and by triangle counting.
* ``MIN_PLUS`` — the tropical semiring ``(min, +, +inf, 0)`` used for
  shortest paths; *not* a ring (``min`` cannot undo), used in the paper's
  Figure 10 general-update experiment.
* ``MAX_PLUS`` — dual tropical semiring (critical paths / longest paths).
* ``BOOLEAN`` — ``(∨, ∧, False, True)`` over 0/1 floats; reachability and
  structural products.
* ``MAX_MIN`` — bottleneck / widest-path semiring.
* ``MAX_TIMES`` — most-reliable-path semiring over probabilities.
"""

from __future__ import annotations

import numpy as np

from repro.semirings.base import Semiring

__all__ = [
    "PLUS_TIMES",
    "MIN_PLUS",
    "MAX_PLUS",
    "BOOLEAN",
    "MAX_MIN",
    "MAX_TIMES",
    "REGISTRY",
    "get_semiring",
    "list_semirings",
]


PLUS_TIMES = Semiring(
    name="plus_times",
    add=np.add,
    mul=np.multiply,
    zero=0.0,
    one=1.0,
    dtype=np.dtype(np.float64),
    is_ring=True,
    is_idempotent=False,
)

MIN_PLUS = Semiring(
    name="min_plus",
    add=np.minimum,
    mul=np.add,
    zero=np.inf,
    one=0.0,
    dtype=np.dtype(np.float64),
    is_ring=False,
    is_idempotent=True,
)

MAX_PLUS = Semiring(
    name="max_plus",
    add=np.maximum,
    mul=np.add,
    zero=-np.inf,
    one=0.0,
    dtype=np.dtype(np.float64),
    is_ring=False,
    is_idempotent=True,
)

# Boolean semiring encoded over float64 {0.0, 1.0}: logical_or / logical_and
# via maximum / minimum keeps reduceat available and avoids dtype juggling.
BOOLEAN = Semiring(
    name="boolean",
    add=np.maximum,
    mul=np.minimum,
    zero=0.0,
    one=1.0,
    dtype=np.dtype(np.float64),
    is_ring=False,
    is_idempotent=True,
)

MAX_MIN = Semiring(
    name="max_min",
    add=np.maximum,
    mul=np.minimum,
    zero=-np.inf,
    one=np.inf,
    dtype=np.dtype(np.float64),
    is_ring=False,
    is_idempotent=True,
)

MAX_TIMES = Semiring(
    name="max_times",
    add=np.maximum,
    mul=np.multiply,
    zero=0.0,
    one=1.0,
    dtype=np.dtype(np.float64),
    is_ring=False,
    is_idempotent=True,
)


REGISTRY: dict[str, Semiring] = {
    sr.name: sr
    for sr in (PLUS_TIMES, MIN_PLUS, MAX_PLUS, BOOLEAN, MAX_MIN, MAX_TIMES)
}


def get_semiring(name: str) -> Semiring:
    """Look up a registered semiring by name.

    Raises
    ------
    KeyError
        If no semiring with that name is registered.
    """
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown semiring {name!r}; known semirings: {known}") from None


def list_semirings() -> list[str]:
    """Names of all registered semirings (sorted)."""
    return sorted(REGISTRY)
