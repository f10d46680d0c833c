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
from typing import Callable, Dict, List, Optional

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


_SHRINK_RUNS = 64


def _ddmin(items: list, fails: Callable[[list], bool]) -> list:
    """Greedy ddmin: drop ever-smaller runs of ``items`` while
    ``fails(candidate)`` says the shorter list still fails.

    Runs stop halving at ``len(items) // _SHRINK_RUNS``: a short list
    ends 1-minimal, a batch of thousands of keys (one that straddles
    the engine's pack chunk) after a few hundred replays, not one per
    key."""
    chunk = max(1, len(items) // 2)
    while True:
        i = 0
        progressed = False
        while i < len(items):
            candidate = items[:i] + items[i + chunk:]
            if fails(candidate):
                items = candidate
                progressed = True
                # stay at the same index: the next chunk shifted into it
            else:
                i += chunk
        if chunk > max(1, len(items) // _SHRINK_RUNS):
            chunk //= 2
        elif not progressed:
            return items


def _shrink_op_list(failure: Failure) -> Failure:
    def fails(ops: List[Op]) -> bool:
        nonlocal failure
        got = _still_fails(failure, ops)
        if got is not None:
            failure = got
        return got is not None

    _ddmin(list(failure.ops), fails)
    return failure


_BATCH_LIST_FIELDS = ("keys", "hashes")
# Fields aligned with "keys" row by row (an insert_batch's values, a
# serving call's op-code string) shrink in lockstep with it, never alone:
# a lone shrink breaks the op's length invariant or moves rows' codes
# onto other keys.
_KEY_ALIGNED_FIELDS = ("values", "ops")


def _shrink_batch_fields(failure: Failure) -> Failure:
    """Second pass: shrink list payloads inside the surviving ops."""
    for index in range(len(failure.ops)):
        for name in _BATCH_LIST_FIELDS:
            op = failure.ops[index]
            payload = op.get(name)
            if not isinstance(payload, list) or len(payload) <= 1:
                continue
            lockstep = [
                field for field in _KEY_ALIGNED_FIELDS
                if name == "keys" and isinstance(op.get(field), (list, str))
                and len(op[field]) == len(payload)
            ]

            def fails(kept: List[int]) -> bool:
                nonlocal failure
                new_op = dict(op)
                new_op[name] = [payload[i] for i in kept]
                for field in lockstep:
                    column = op[field]
                    picked = [column[i] for i in kept]
                    new_op[field] = ("".join(picked)
                                     if isinstance(column, str) else picked)
                got = _still_fails(
                    failure,
                    failure.ops[:index] + [new_op] + failure.ops[index + 1:],
                )
                if got is not None:
                    failure = got
                return got is not None

            _ddmin(list(range(len(payload))), fails)
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
