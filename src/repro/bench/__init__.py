"""The paper's workloads, sized for one core.

* :mod:`repro.bench.config` — :class:`BenchProfile`, the scaling knobs of
  the three sizes (``smoke``, ``default``, ``large``) every figure runs at.
* :mod:`repro.bench.workloads` — the (surrogate) instances and the
  ``*_scenario`` builders that express the experimental protocols of
  Section VII as replayable :class:`~repro.scenarios.model.Scenario` traces.

The figures themselves (Table I, Figs. 3–12, the SUMMA ablation) are
entries of the registry in ``benchmarks/figures.py``, measured by
``benchmarks/run_suite.py``; each cell replays one of these scenarios.
"""

from repro.bench.config import BenchProfile, get_profile
from repro.bench.workloads import (
    batched_operation_scenario,
    construction_scenario,
    spgemm_stream_scenario,
)

__all__ = [
    "BenchProfile",
    "get_profile",
    "batched_operation_scenario",
    "construction_scenario",
    "spgemm_stream_scenario",
]
