"""Deterministic fault injection for SimMPI and loopback worlds.

A :class:`FaultPlan` describes *what goes wrong and when* — process kills at
chosen scenario step indices, probabilistic message drops, probabilistic
message delays — built programmatically or parsed by :meth:`FaultPlan.parse`
from the grammar below; a plan reaches a replay only as its ``faults=``
argument.  A :class:`FaultInjector` executes one plan
deterministically: the same spec and seed always kill the same step and
charge the same recovery traffic, so a fault drill is as replayable as the
trace it interrupts.

Fault grammar (``;``-separated clauses, order-free)::

    kill@<step>              kill the world when step <step> is reached
    kill@<step>:proc=<p>     kill only loopback process <p> at step <step>
    drop=1/<N>               drop (and retransmit) ~1 in N messages
    delay=1/<N>:<seconds>    delay ~1 in N messages by <seconds> (modeled)
    seed=<s>                 RNG seed for the drop/delay draws (default 0)

Example: ``replay(scenario, faults="kill@3;drop=1/50;seed=7")``.

A ``kill@`` clause is the one way to crash a replay.  It fires before
trace step ``<step>``, which counts every step of ``scenario.steps``,
checkpoints included; :func:`repro.scenarios.replay.replay` refuses a
kill that can never fire (:meth:`FaultPlan.check_reachable`).

Faults never corrupt results: a dropped message is charged once in its
nominal category (the payload is assumed retransmitted) and once more in
:data:`repro.runtime.stats.StatCategory.RECOVERY` for the retransmission,
so all non-recovery categories stay byte-identical to a fault-free run.
Delays add modelled seconds only.  Drops and delays apply to one
communicator: :func:`repro.scenarios.replay.replay` binds
:meth:`FaultInjector.on_message` to the ``faults`` field of the replaying
communicator's ``CommStats`` for each attempt, so traffic any other
communicator records meanwhile is never charged.  Kills raise :class:`SimulatedCrash`,
which :func:`repro.scenarios.replay.replay` re-raises or recovers from
(restoring the latest stored checkpoint, else rerunning from scratch)
depending on its ``on_crash`` policy.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

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
    """Immutable description of the faults to inject into one run."""

    #: ``(step_index, process-or-None)`` kill points; ``None`` kills the
    #: whole world regardless of which process reaches the step first.
    kills: tuple[tuple[int, int | None], ...] = ()
    #: drop one message in ``drop_one_in`` (0 disables dropping)
    drop_one_in: int = 0
    #: delay one message in ``delay_one_in`` (0 disables delays)
    delay_one_in: int = 0
    #: modelled seconds added to each delayed message
    delay_seconds: float = 0.0
    #: seed for the drop/delay pseudo-random draws
    seed: int = 0

    def __post_init__(self) -> None:
        # Checked here, not at the first message draw: a plan that parses
        # must run to the end.
        if any(step < 0 or (proc or 0) < 0 for step, proc in self.kills):
            raise FaultPlanError("kill steps and processes must be non-negative")
        if min(self.drop_one_in, self.delay_one_in, self.seed) < 0:
            raise FaultPlanError("1/<N> ratios and the seed must be non-negative")
        if not (math.isfinite(self.delay_seconds) and self.delay_seconds >= 0):
            raise FaultPlanError(
                f"delay seconds must be finite and non-negative, got {self.delay_seconds}"
            )

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
        drop_one_in = 0
        delay_one_in = 0
        delay_seconds = 0.0
        seed = 0
        for raw in spec.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            try:
                if clause.startswith("kill@"):
                    body = clause[len("kill@") :]
                    process: int | None = None
                    if ":" in body:
                        body, opt = body.split(":", 1)
                        if not opt.startswith("proc="):
                            raise FaultPlanError(
                                f"unknown kill option {opt!r} (want proc=<p>)"
                            )
                        process = int(opt[len("proc=") :])
                    kills.append((int(body), process))
                elif clause.startswith("drop="):
                    drop_one_in = _parse_one_in(clause[len("drop=") :])
                elif clause.startswith("delay="):
                    body = clause[len("delay=") :]
                    if ":" not in body:
                        raise FaultPlanError(
                            "delay clause must be delay=1/<N>:<seconds>"
                        )
                    ratio, seconds = body.split(":", 1)
                    delay_one_in = _parse_one_in(ratio)
                    delay_seconds = float(seconds)
                elif clause.startswith("seed="):
                    seed = int(clause[len("seed=") :])
                else:
                    raise FaultPlanError(f"unknown fault clause {clause!r}")
            except FaultPlanError:
                raise
            except ValueError as exc:
                raise FaultPlanError(
                    f"malformed fault clause {clause!r}: {exc}"
                ) from exc
        return cls(
            kills=tuple(kills),
            drop_one_in=drop_one_in,
            delay_one_in=delay_one_in,
            delay_seconds=delay_seconds,
            seed=seed,
        )

    def describe(self) -> str:
        """Round-trippable textual form of the plan."""
        clauses = []
        for step, process in self.kills:
            clauses.append(
                f"kill@{step}" if process is None else f"kill@{step}:proc={process}"
            )
        if self.drop_one_in:
            clauses.append(f"drop=1/{self.drop_one_in}")
        if self.delay_one_in:
            clauses.append(f"delay=1/{self.delay_one_in}:{self.delay_seconds}")
        clauses.append(f"seed={self.seed}")
        return ";".join(clauses)


def _parse_one_in(text: str) -> int:
    if not text.startswith("1/"):
        raise FaultPlanError(f"expected a 1/<N> ratio, got {text!r}")
    value = int(text[2:])
    if value <= 0:
        raise FaultPlanError(f"1/<N> ratio needs N >= 1, got {value}")
    return value


class FaultInjector:
    """Executes one :class:`FaultPlan` deterministically.

    The injector has two duties:

    * :meth:`check_step` — consulted by the replay loop at every step
      boundary; raises :class:`SimulatedCrash` the *first* time an armed
      kill point is reached (recovery replays the same step without the
      crash refiring, because fired kills are remembered).
    * :meth:`on_message` — bound, per process, to the ``faults`` field of
      the replaying communicator's
      :class:`~repro.runtime.stats.CommStats` for the duration of a replay
      attempt; draws drop/delay decisions from a dedicated, seeded
      counter-based stream (one draw per recorded message batch) and
      returns the retransmission/delay charge for the ``recovery``
      category.  Traffic of any other communicator is never charged.

    Drop/delay draws hash a per-injector counter with the plan seed, so
    determinism survives thread interleaving in loopback worlds: the k-th
    recorded observation of each process sees the same draw on every run.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._fired_kills: set[tuple[int, int | None]] = set()
        self._lock = threading.Lock()
        self._counters: dict[int, int] = {}

    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    def _draw(self, process: int) -> float:
        with self._lock:
            count = self._counters.get(process, 0)
            self._counters[process] = count + 1
        # A tiny counter-based PRNG: one independent uniform per
        # (seed, process, count) triple, stable under thread scheduling.
        seq = np.random.SeedSequence(
            entropy=self.plan.seed, spawn_key=(process, count)
        )
        return float(np.random.default_rng(seq).random())

    def on_message(
        self, process: int, category: str, messages: int, nbytes: int
    ) -> tuple[int, int, float] | None:
        """Drop/delay decision for one recorded observation."""
        plan = self.plan
        if not plan.drop_one_in and not plan.delay_one_in:
            return None
        draw = self._draw(process)
        if plan.drop_one_in and draw < 1.0 / plan.drop_one_in:
            # the whole batch is retransmitted once
            return (int(messages), int(nbytes), 0.0)
        if plan.delay_one_in and draw < 1.0 / plan.delay_one_in:
            return (0, 0, float(plan.delay_seconds))
        return None

