"""The always-on graph service.

The batch pipeline (``repro.scenarios.replay``) builds a world, runs one
trace and tears everything down.  This package keeps the world alive:
:class:`GraphService` owns a persistent
:class:`~repro.runtime.world.ServiceWorld` and serves many independent
*tenants* over it — each with its own minted communicator (isolated
statistics and rank namespace), its own live
:class:`~repro.scenarios.engine.ScenarioEngine`, a
:class:`MicroBatchQueue` coalescing ingestion requests into micro-batches
(flush-by-count / flush-by-deadline on a logical clock), and a growing
request log that *is* a :class:`~repro.scenarios.model.Scenario`.

That last point is the design's correctness story: at any flush boundary,
``replay(tenant.log, options=tenant.replay_options())`` on a cold world
reproduces the tenant's state byte-identically — final tuples, application
query payloads, per-category comm volume.  The differential suite that
guards the batch pipeline therefore also guards the service.

Module map
----------
==============  ==========================================================
``queue``       :class:`IngestRequest`, :class:`FlushPolicy`,
                :class:`MicroBatchQueue` and :func:`coalesce` — the
                micro-batching layer (pure data, no communication).
``service``     :class:`GraphService`, :class:`GraphTenant`,
                :class:`ServiceConfig` — worlds, tenancy, ingestion,
                consistent-snapshot queries, the oracle.
==============  ==========================================================
"""

from repro.service.queue import FlushPolicy, IngestRequest, MicroBatchQueue, coalesce
from repro.service.service import GraphService, GraphTenant, ServiceConfig

__all__ = [
    "FlushPolicy",
    "IngestRequest",
    "MicroBatchQueue",
    "coalesce",
    "GraphService",
    "GraphTenant",
    "ServiceConfig",
]
