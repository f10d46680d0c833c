"""Declarative fault plans: what breaks, where, when, and how often.

A :class:`FaultPlan` is a JSON-safe list of :class:`FaultSpec` entries.
Each spec names one *kind* of fault, the shard it targets, how many
opportunities to skip before arming (``after``), how many times it
fires (``count``), and an optional probability per opportunity
(``rate`` — evaluated with the :class:`~repro.faults.plane.FaultPlane`'s
seeded RNG, so a plan plus a seed is fully deterministic).

The seven kinds map onto the injection points threaded through the
service (the hashing engine has none):

=============  ========================  =======================================
kind           injection point           effect
=============  ========================  =======================================
``crash``      ``Worker.dispatch``       a mid-batch crash: inline workers raise
                                         :class:`InjectedCrash`; process-backend
                                         shard children ``os._exit`` for real
``sigkill``    ``Worker.dispatch``       a real ``SIGKILL`` to the shard child
                                         mid-batch (process execution); inline
                                         workers degrade it to ``crash``
``stall``      ``Worker.dispatch``       returns without draining the queue
``drop``       ``Worker.dispatch``       pops a batch, never answers its tickets
``corrupt``    ``Service.pump``          one opportunity per shard per pump, on
                                         both executions: trips the shard via
                                         ``Worker.force_trip`` (a table's real
                                         CollisionMonitor sees an entropy
                                         collapse; filter/LSM shards fall
                                         back); tripped or crashed shards are
                                         skipped
``queue_loss`` ``Service.submit_batch``  one draw per row, decided in
                                         ``Worker.admit``: a row that got a
                                         queue slot never reaches the queue
                                         (the slot is lost) and parks for
                                         reconciliation; a row past the
                                         credit is refused, lost or not
``drift``      key stream (workload)     the *workload* drifts: its generator
                                         rewrites keys so the bytes the deployed
                                         partial-key plan reads go constant
                                         (entropy moves elsewhere in the key);
                                         fired via ``should_fire`` by whoever
                                         owns the key stream, not by the service
=============  ========================  =======================================

Specs can also be parsed from compact CLI strings::

    crash:worker:2              # crash shard 2's worker once
    stall:worker:0:count=3      # stall shard 0 three pumps in a row
    corrupt:service:1:after=5   # collapse shard 1's entropy signal later

The scope is the kind's injection layer (``worker``, ``service`` or
``workload``); a spec naming any other scope does not parse.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence

FAULT_KINDS = (
    "crash", "sigkill", "stall", "drop", "corrupt", "queue_loss", "drift",
)

# The one scope a spec string may give each kind: where its injection
# point lives (see the table above).
_SCOPES = {
    "crash": "worker", "sigkill": "worker", "stall": "worker",
    "drop": "worker", "corrupt": "service", "queue_loss": "service",
    "drift": "workload",
}


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: kind + target shard + firing schedule."""

    kind: str
    shard: int
    after: int = 0        # opportunities to skip before arming
    count: int = 1        # maximum number of fires
    rate: float = 1.0     # probability per armed opportunity

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSpec":
        return cls(
            kind=str(data["kind"]),
            shard=int(data["shard"]),
            after=int(data.get("after", 0)),
            count=int(data.get("count", 1)),
            rate=float(data.get("rate", 1.0)),
        )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a compact CLI spec: ``kind:scope:shard[:key=value...]``.

        >>> FaultSpec.parse("crash:worker:2")
        FaultSpec(kind='crash', shard=2, after=0, count=1, rate=1.0)
        >>> FaultSpec.parse("stall:worker:0:count=3:after=4").count
        3
        """
        parts = text.split(":")
        if len(parts) < 3:
            raise ValueError(
                f"bad fault spec {text!r}; expected kind:scope:shard"
                "[:key=value...]"
            )
        kind, scope = parts[0], parts[1]
        if kind in _SCOPES and scope != _SCOPES[kind]:
            raise ValueError(
                f"bad fault scope {scope!r} in {text!r}; "
                f"{kind} faults take scope {_SCOPES[kind]!r}"
            )
        try:
            shard = int(parts[2])
        except ValueError:
            raise ValueError(
                f"bad shard {parts[2]!r} in fault spec {text!r}"
            ) from None
        extra: Dict[str, object] = {}
        for part in parts[3:]:
            if "=" not in part:
                raise ValueError(f"bad fault option {part!r} in {text!r}")
            key, _, value = part.partition("=")
            if key not in ("after", "count", "rate"):
                raise ValueError(f"unknown fault option {key!r} in {text!r}")
            extra[key] = float(value) if key == "rate" else int(value)
        return cls(kind=kind, shard=shard, **extra)


@dataclass
class FaultPlan:
    """An ordered collection of fault specs (JSON-safe)."""

    specs: List[FaultSpec]

    @classmethod
    def parse(cls, texts: Sequence[str]) -> "FaultPlan":
        return cls([FaultSpec.parse(text) for text in texts])

    @classmethod
    def from_dicts(cls, dicts: Sequence[Dict[str, object]]) -> "FaultPlan":
        return cls([FaultSpec.from_dict(d) for d in dicts])

    def to_dicts(self) -> List[Dict[str, object]]:
        return [spec.to_dict() for spec in self.specs]

    def kinds(self) -> List[str]:
        return sorted({spec.kind for spec in self.specs})

    def targets(self, kind: str) -> List[int]:
        """Shards targeted by any spec of ``kind``."""
        return sorted({s.shard for s in self.specs if s.kind == kind})

    def __len__(self) -> int:
        return len(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)


__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan"]
