"""`repro.faults` — deterministic, seeded fault injection.

The fault plane is the adversary the serving layer must survive: a
:class:`FaultPlan` declares *what* breaks (worker crash, worker stall,
batch-result drop, hasher corruption, queue-slot loss), *where* (which
shard), and *when* (after how many opportunities, how many times); a
:class:`FaultPlane` turns the plan plus a seed into deterministic
firing decisions at injection points threaded through
``repro.service``.  The healing machinery —
:class:`~repro.service.supervisor.Supervisor`, per-shard op journals,
per-shard circuit breakers, and client deadlines — must keep every
acknowledged write and terminate every ticket *without* looking at the
plane; the ``chaos`` fuzz target proves it does.
"""

from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec
from repro.faults.plane import (
    FaultPlane,
    InjectedCrash,
    InjectedFault,
    make_plane,
)

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultPlane",
    "FaultSpec",
    "InjectedCrash",
    "InjectedFault",
    "make_plane",
]
