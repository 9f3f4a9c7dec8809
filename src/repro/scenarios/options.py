"""Replay configuration as a first-class object.

:class:`ReplayOptions` is the whole configuration surface of
:func:`repro.scenarios.replay.replay`, one dataclass that can be stored,
shared and overridden:

* ``replay(scenario, options=opts)`` runs with the bundled configuration;
* ``replay(scenario, layout="dhb", partitioner="nnz_aware")`` sets fields
  by keyword (over ``options`` when both are given) — a keyword that is not
  a field raises ``TypeError``;
* the always-on service embeds the same object in its
  :class:`repro.service.ServiceConfig`, so ``tenant.replay_options()`` is
  *the* configuration of the cold-replay correctness oracle — one source
  of truth for both the serving path and its differential reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.runtime.config import MachineModel
from repro.runtime.partitioner import Partitioner

__all__ = ["ReplayOptions"]


@dataclass
class ReplayOptions:
    """Everything :func:`~repro.scenarios.replay.replay` can be told.

    Field semantics are documented on :func:`repro.scenarios.replay.replay`;
    its keywords are exactly these fields.
    """

    backend: str | None = None
    n_ranks: int = 16
    machine: MachineModel | None = None
    layout: str = "csr"
    partitioner: "str | Partitioner | None" = None
    executor_factory: Callable | None = None
    check_snapshots: bool = True
    collect_final: bool = True
    checkpoint_store: Any = None
    resume_from: Any = None
    faults: Any = None
    on_crash: str = "raise"

    def validate(self) -> "ReplayOptions":
        """Check cross-field invariants; returns ``self`` for chaining."""
        if self.on_crash not in ("raise", "restore"):
            raise ValueError(
                f"unknown on_crash policy {self.on_crash!r} (use 'raise' or 'restore')"
            )
        return self
