"""``repro.farm``: parallel multi-board fuzzing campaigns.

The paper runs each 24-hour configuration on several physical boards at
once; this package reproduces that as N workers (one virtual board
each) pooling a deduplicated shared corpus, a merged coverage frontier
and a cross-worker crash triage table, with cycle-based sync epochs
keeping the whole campaign deterministic given ``(campaign_seed,
workers, sync_interval)``.

Every worker is built from one :class:`WorkerSpec` and runs its board
on one :class:`WorkerCore` (an engine plus its barrier bookkeeping);
the coordinator speaks one request/reply protocol to all of them
over journal-CRC frames.  ``CampaignOptions.backend`` picks the transport:
an in-memory frame pair answered on the coordinator thread, one board
after another (``inline``, the determinism reference), or one child
process per board with the frames over pipes (``process``).
"""

from repro.farm.handles import (  # noqa: F401 (re-exported surface)
    ProcessHandle,
    WorkerCore,
    WorkerLost,
    build_worker_handles,
)
from repro.farm.orchestrator import (  # noqa: F401
    BACKENDS,
    CampaignOptions,
    CampaignOrchestrator,
    CampaignResult,
    derive_worker_seed,
)
from repro.farm.state import (  # noqa: F401
    CampaignState,
    SeedProvenance,
    TriagedCrash,
)
from repro.farm.wire import (  # noqa: F401
    WorkerSpec,
    WorkerTransportError,
)

__all__ = [
    "BACKENDS",
    "CampaignOptions",
    "CampaignOrchestrator",
    "CampaignResult",
    "CampaignState",
    "ProcessHandle",
    "SeedProvenance",
    "TriagedCrash",
    "WorkerCore",
    "WorkerLost",
    "WorkerSpec",
    "WorkerTransportError",
    "build_worker_handles",
    "derive_worker_seed",
]
