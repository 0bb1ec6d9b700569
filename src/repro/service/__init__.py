"""The long-running streaming service layer over the batch pipeline.

Everything below :mod:`repro.core` analyzes one finite capture and is
discarded; this package promotes that machinery to a standing service
(the ROADMAP's "streaming service mode"): per-tenant analyzer
sessions (:mod:`repro.service.session`) with bounded ingest queues,
an explicit backpressure policy and an optional per-tenant pump
thread (the async ingest router), durable periodic checkpoints
(:mod:`repro.service.checkpoint`) built on the core state-lifecycle
protocol (:mod:`repro.core.state`), a service manager that keys
sessions by tenant and restores them on start
(:mod:`repro.service.manager`).  Two differential oracles in
:mod:`repro.oracle` prove checkpoint/kill/restore changes nothing
(``verify_checkpoint``) and the pump router is observably the sync
router (``verify_async``).  ``repro serve`` drives it all over
replayed captures; see ``docs/service.md``.
"""

from repro.service.checkpoint import CheckpointStore
from repro.service.manager import (
    ServiceStats,
    StreamingService,
    bucket_tenant,
)
from repro.service.session import TenantSession

__all__ = [
    "CheckpointStore",
    "ServiceStats",
    "StreamingService",
    "TenantSession",
    "bucket_tenant",
]
