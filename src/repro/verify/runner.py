"""Differential-fuzz driver: run, fuzz, shrink, replay.

The loop is deliberately boring: build a target from a JSON-safe
config, feed it a JSON-safe op list, and report the first op index
where the structure diverged from its oracle or its scalar twin
(:class:`~repro.verify.targets.Divergence`) — or where it crashed
outright, which counts as a failure too.

On failure, :func:`shrink` reduces the op list with greedy ddmin
(delta debugging): drop chunks of ops, halving the chunk size, keeping
any candidate list that still fails; a second pass shrinks the key
lists inside surviving batch ops.  The result is a minimal *repro* —
``{"target", "config", "ops", "error"}`` — small enough to read, and
replayable forever via :func:`replay` (that is what the committed
files under ``tests/repros/`` are).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.verify.ops import Op
from repro.verify.targets import TARGETS, Divergence, ExhaustedCase, Target


@dataclass
class Failure:
    """One failing (config, ops) pair, plus where and why it failed."""

    target: str
    config: Dict[str, object]
    ops: List[Op]
    op_index: int
    error: str
    seed: Optional[int] = None

    def to_repro(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "config": self.config,
            "ops": self.ops,
            "error": self.error,
            "seed": self.seed,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign over a single target."""

    target: str
    cases: int = 0
    ops_run: int = 0
    failure: Optional[Failure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def _build(target_name: str, config: Dict[str, object]) -> Target:
    try:
        cls = TARGETS[target_name]
    except KeyError:
        raise ValueError(
            f"unknown target {target_name!r}; known: {sorted(TARGETS)}"
        ) from None
    return cls(config)


def run_ops(
    target_name: str, config: Dict[str, object], ops: List[Op]
) -> Optional[Failure]:
    """Run one op sequence; return the Failure at first divergence/crash."""
    target = _build(target_name, config)
    try:
        for i, op in enumerate(ops):
            try:
                target.apply(op)
            except ExhaustedCase:
                return None  # documented structural limit, not a failure
            except Divergence as exc:
                return Failure(target_name, config, ops, i, str(exc))
            except Exception as exc:  # crash == failure, same shrink path
                return Failure(
                    target_name, config, ops, i, f"{type(exc).__name__}: {exc}"
                )
        try:
            target.final_check()
        except ExhaustedCase:
            return None
        except Divergence as exc:
            return Failure(target_name, config, ops, len(ops), str(exc))
        except Exception as exc:
            return Failure(
                target_name, config, ops, len(ops),
                f"{type(exc).__name__}: {exc}",
            )
        return None
    finally:
        # Targets with external resources (shard processes, shared
        # memory) release them here; shrinking re-runs hundreds of
        # cases, so a leak per case would exhaust the host.  getattr,
        # not a direct call: the registry accepts duck-typed targets
        # that predate the teardown hook.
        teardown = getattr(target, "teardown", None)
        if teardown is not None:
            teardown()


def fuzz(
    target_name: str,
    seed: int = 0,
    cases: int = 10,
    ops_per_case: int = 120,
    shrink_failures: bool = True,
    config_overrides: Optional[Dict[str, object]] = None,
) -> FuzzReport:
    """Run ``cases`` independent seeded cases against one target.

    Case ``i`` derives its RNG from ``(seed, i)`` only, so any failing
    case is reproducible from the report's recorded seed without
    rerunning the whole campaign.  ``config_overrides`` is merged over
    every random config (and recorded in any failure's repro) — the CLI
    uses it to pin the serving presets to a specific execution backend.
    """
    report = FuzzReport(target=target_name)
    cls = TARGETS[target_name]
    for case in range(cases):
        case_seed = seed * 100_003 + case
        rng = random.Random(case_seed)
        config = cls.random_config(rng)
        if config_overrides:
            config.update(config_overrides)
        ops = cls.generate_ops(rng, ops_per_case)
        report.cases += 1
        report.ops_run += len(ops)
        failure = run_ops(target_name, config, ops)
        if failure is not None:
            failure.seed = case_seed
            if shrink_failures:
                failure = shrink(failure)
            report.failure = failure
            return report
    return report


def fuzz_all(
    seed: int = 0,
    cases: int = 10,
    ops_per_case: int = 120,
    targets: Optional[List[str]] = None,
    config_overrides: Optional[Dict[str, object]] = None,
) -> List[FuzzReport]:
    names = targets if targets is not None else sorted(TARGETS)
    return [fuzz(name, seed=seed, cases=cases, ops_per_case=ops_per_case,
                 config_overrides=config_overrides)
            for name in names]


# ------------------------------------------------------------ shrinking


def _still_fails(failure: Failure, ops: List[Op]) -> Optional[Failure]:
    got = run_ops(failure.target, failure.config, ops)
    if got is None:
        return None
    got.seed = failure.seed
    return got


def _shrink_op_list(failure: Failure) -> Failure:
    ops = list(failure.ops)
    chunk = max(1, len(ops) // 2)
    while chunk >= 1:
        i = 0
        progressed = False
        while i < len(ops):
            candidate = ops[:i] + ops[i + chunk:]
            got = _still_fails(failure, candidate)
            if got is not None:
                ops = candidate
                failure = got
                progressed = True
                # stay at the same index: the next chunk shifted into it
            else:
                i += chunk
        if chunk > 1:
            chunk //= 2
        elif not progressed:
            break
    return failure


# "values" is deliberately absent: it shrinks in lockstep with "keys",
# never alone (a lone values shrink just breaks the op's length invariant).
_BATCH_LIST_FIELDS = ("keys", "hashes")


def _shrink_batch_fields(failure: Failure) -> Failure:
    """Second pass: shrink list payloads inside the surviving ops."""
    for index in range(len(failure.ops)):
        for fields in _BATCH_LIST_FIELDS:
            while True:
                op = failure.ops[index]
                payload = op.get(fields)
                if not isinstance(payload, list) or len(payload) <= 1:
                    break
                shrunk_any = False
                for i in range(len(payload)):
                    new_op = dict(op)
                    new_op[fields] = payload[:i] + payload[i + 1:]
                    # keys/values travel in lockstep for insert_batch
                    if fields == "keys" and isinstance(op.get("values"), list) \
                            and len(op["values"]) == len(payload):
                        new_op["values"] = (
                            op["values"][:i] + op["values"][i + 1:]
                        )
                    candidate = (
                        failure.ops[:index] + [new_op] + failure.ops[index + 1:]
                    )
                    got = _still_fails(failure, candidate)
                    if got is not None:
                        failure = got
                        shrunk_any = True
                        break
                if not shrunk_any:
                    break
    return failure


def shrink(failure: Failure) -> Failure:
    """Greedy ddmin to a (locally) minimal failing op list."""
    failure = _shrink_op_list(failure)
    failure = _shrink_batch_fields(failure)
    failure = _shrink_op_list(failure)  # field shrink may unlock more drops
    return failure


# -------------------------------------------------------------- replay


def replay(repro: Dict[str, object]) -> Optional[Failure]:
    """Re-run a saved repro dict; None means the bug stayed fixed."""
    return run_ops(
        str(repro["target"]),
        dict(repro["config"]),
        list(repro["ops"]),
    )


__all__ = [
    "Failure",
    "FuzzReport",
    "run_ops",
    "fuzz",
    "fuzz_all",
    "shrink",
    "replay",
]
