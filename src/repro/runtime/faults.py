"""Deterministic fault injection for SimMPI and loopback worlds.

A :class:`FaultPlan` describes *which process dies and when*: process kills
at chosen scenario step indices, built programmatically or parsed by
:meth:`FaultPlan.parse` from the grammar below; a plan reaches a replay
only as its ``faults=`` argument.  A :class:`FaultInjector` executes one
plan deterministically: the same spec always kills at the same steps, so a
fault drill is as replayable as the trace it interrupts.

Fault grammar (``;``-separated clauses, order-free)::

    kill@<step>              kill the world when step <step> is reached
    kill@<step>:proc=<p>     kill only loopback process <p> at step <step>

Example: ``replay(scenario, faults="kill@3", on_crash="restore")``.

A ``kill@`` clause is the one way to crash a replay.  It fires before
trace step ``<step>``, which counts every step of ``scenario.steps``,
checkpoints included; :func:`repro.scenarios.replay.replay` refuses a
kill that can never fire (:meth:`FaultPlan.check_reachable`).

Kills never corrupt results: they raise :class:`SimulatedCrash`, which
:func:`repro.scenarios.replay.replay` re-raises or recovers from
(restoring the latest stored checkpoint, else rerunning from scratch)
depending on its ``on_crash`` policy.  Restore traffic is charged to
:data:`repro.runtime.stats.StatCategory.RECOVERY`, so all other
categories stay byte-identical to a fault-free run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = [
    "SimulatedCrash",
    "FaultPlanError",
    "FaultPlan",
    "FaultInjector",
]


class SimulatedCrash(RuntimeError):
    """Raised at a kill point; carries the step index and victim process."""

    def __init__(self, step_index: int, process: int | None = None) -> None:
        where = f"step {step_index}"
        if process is not None:
            where += f" on process {process}"
        super().__init__(f"injected crash at {where}")
        self.step_index = int(step_index)
        self.process = None if process is None else int(process)


class FaultPlanError(ValueError):
    """A fault specification is malformed or out of range."""


@dataclass(frozen=True)
class FaultPlan:
    """Immutable description of the kills to inject into one run."""

    #: ``(step_index, process-or-None)`` kill points; ``None`` kills the
    #: whole world regardless of which process reaches the step first.
    kills: tuple[tuple[int, int | None], ...] = ()

    def __post_init__(self) -> None:
        if any(step < 0 or (proc or 0) < 0 for step, proc in self.kills):
            raise FaultPlanError("kill steps and processes must be non-negative")

    def check_reachable(self, n_steps: int, world_size: int) -> None:
        """Refuse kills that can never fire in a replay of ``n_steps`` trace
        steps on ``world_size`` processes (a drill that cannot crash passes
        vacuously)."""
        for step, proc in self.kills:
            if step >= n_steps or (proc or 0) >= world_size:
                where = "" if proc is None else f":proc={proc}"
                raise FaultPlanError(
                    f"kill@{step}{where} can never fire on a trace of "
                    f"{n_steps} steps and a world of {world_size} process(es)"
                )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the fault grammar (module docstring) into a plan."""
        kills: list[tuple[int, int | None]] = []
        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            if not clause.startswith("kill@"):
                raise FaultPlanError(f"unknown fault clause {clause!r}")
            body, sep, opt = clause[len("kill@") :].partition(":")
            if sep and not opt.startswith("proc="):
                raise FaultPlanError(f"unknown kill option {opt!r} (want proc=<p>)")
            try:
                kills.append((int(body), int(opt[len("proc=") :]) if sep else None))
            except ValueError as exc:
                raise FaultPlanError(
                    f"malformed fault clause {clause!r}: {exc}"
                ) from exc
        return cls(kills=tuple(kills))


class FaultInjector:
    """Executes one :class:`FaultPlan` deterministically.

    The replay loop consults :meth:`check_step` at every step boundary; it
    raises :class:`SimulatedCrash` the *first* time an armed kill point is
    reached (recovery replays the same step without the crash refiring,
    because fired kills are remembered).  The lock makes firing once hold
    when the threads of a loopback world share one injector.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._fired_kills: set[tuple[int, int | None]] = set()
        self._lock = threading.Lock()

    def check_step(self, step_index: int, process: int | None = None) -> None:
        """Raise :class:`SimulatedCrash` when an unfired kill point matches."""
        for kill in self.plan.kills:
            kill_step, kill_process = kill
            if kill_step != step_index:
                continue
            if kill_process is not None and process is not None:
                if kill_process != process:
                    continue
            with self._lock:
                if kill in self._fired_kills:
                    continue
                self._fired_kills.add(kill)
            raise SimulatedCrash(step_index, kill_process)
