"""One way a component's state becomes a scrape.

A reporting class lists the names it reports, once, in ``REPORTS``;
its ``stats()`` is :func:`scrape`, the one walker that reads those
names at scrape time.  Counters stay plain attributes that hot paths
increment: nothing here runs until someone asks for a scrape.

A name is one of:

* ``"key"`` — the attribute ``key``;
* ``"key=path"`` — the dotted attribute ``path``, reported as ``key``
  (``"size=__len__"``, ``"sketch_width=sketch.width"``);
* a name ending in ``?`` — an optional child, left out while it is None;
* ``"*path"`` — a child whose own names are reported at this level.

A read that lands on a method calls it with no arguments.  The value is
then made plain: a reporting child answers its own ``stats()``, a
:class:`Histogram` comes out in bucket order, dicts, lists and tuples
are copied (tuples as lists), and numpy scalars become Python numbers —
so a scrape is JSON-safe and shares no container with the live state.
:func:`dumps` writes a scrape as standard JSON, non-finite floats (an
infinite claimed entropy) as null.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 before anything was counted."""
    return part / whole if whole else 0.0


def str_keys(mapping) -> Dict[str, object]:
    """``mapping`` keyed by ``str(key)``, in key order (a shard map the
    way JSON keys it)."""
    return {str(key): value for key, value in sorted(mapping.items())}


def _bucket_label(n: int) -> str:
    if n <= 1:
        return "1"
    low = 1 << (n.bit_length() - 1)
    return f"{low}-{2 * low - 1}"


# Labels of the small counts the served path makes, built once.
_SMALL_BUCKETS = tuple(_bucket_label(n) for n in range(256))


def bucket(n: int) -> str:
    """Power-of-two :class:`Histogram` bucket label for a count ``n``.

    >>> bucket(1), bucket(5), bucket(4096)
    ('1', '4-7', '4096-8191')
    """
    if n < 256:
        return _SMALL_BUCKETS[n]
    return _bucket_label(n)


class Histogram(dict):
    """Power-of-two histogram: :func:`bucket` label -> count.  Callers
    count into it as into a dict; a scrape lists the buckets smallest
    first."""


def _low_bound(item: Tuple[str, int]) -> int:
    return int(item[0].split("-")[0])


class Reported:
    """Mixin: ``stats()`` scrapes the names the class lists in ``REPORTS``."""

    REPORTS: Tuple[str, ...] = ()

    def stats(self) -> Dict[str, object]:
        return scrape(self)


def scrape(component, names: Optional[Sequence[str]] = None
           ) -> Dict[str, object]:
    """The plain copy of ``names`` (by default ``component``'s
    ``REPORTS``) read from ``component``."""
    out: Dict[str, object] = {}
    for name in type(component).REPORTS if names is None else names:
        optional = name.endswith("?")
        key, _, path = name.rstrip("?").partition("=")
        value = _read(component, path or key.lstrip("*"))
        if key.startswith("*"):
            out.update(value.stats())
        elif value is not None or not optional:
            out[key] = _plain(value)
    return out


def _read(component, path: str):
    value = component
    for attr in path.split("."):
        value = getattr(value, attr)
    return value() if callable(value) else value


def _plain(value):
    if isinstance(value, Reported):
        return value.stats()
    if isinstance(value, Histogram):
        return dict(sorted(value.items(), key=_low_bound))
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def dumps(value, **options) -> str:
    """``json.dumps(value, **options)`` as standard JSON: a non-finite
    float is written as null, not as the bare ``Infinity`` or ``NaN``
    token that strict parsers reject.

    >>> dumps({"claimed_entropy": float("inf"), "bits": [1.5]})
    '{"claimed_entropy": null, "bits": [1.5]}'
    """
    try:
        return json.dumps(value, allow_nan=False, **options)
    except ValueError:
        return json.dumps(_finite(value), allow_nan=False, **options)


def _finite(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


__all__ = ["Histogram", "Reported", "bucket", "dumps", "ratio", "scrape",
           "str_keys"]
