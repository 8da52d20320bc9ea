"""Scaling measured times to a reference machine speed.

On a shared host the speed of one core drifts by a third or more over
seconds, as other tenants come and go. That swamps the differences the
benchmark exists to show. So the benchmark times a fixed pure-Python
kernel, with no rqcheck code in it, every `INTERVAL_S` of work, and
scales every time measured in between by `REFERENCE_NS` over the mean
of the kernel times on either side. A time is then reported as it would
read on a machine where the kernel takes `REFERENCE_NS`, which is about
its time on an idle 2.1 GHz Xeon under CPython 3.11.

The kernel does the kinds of work the checker does: it builds trees of
frozen dataclasses, walks them recursively with `isinstance` dispatch,
and unions frozensets and hashes them into a dict.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Tuple

REFERENCE_NS = 3_200_000
INTERVAL_S = 0.1


@dataclass(frozen=True)
class _Leaf:
    name: str


@dataclass(frozen=True)
class _Pair:
    left: object
    right: object


def _build(depth: int, i: int):
    if depth == 0:
        return _Leaf(f"x{i % 50}")
    return _Pair(_build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1))


def _names(t) -> frozenset:
    if isinstance(t, _Leaf):
        return frozenset((t.name,))
    if isinstance(t, _Pair):
        return _names(t.left) | _names(t.right)
    raise TypeError(t)


def kernel(rounds: int = 12) -> int:
    seen = {}
    for r in range(rounds):
        tree = _build(7, r)
        names = _names(tree)
        seen[names] = hash(tree)
    return len(seen)


def sample_ns() -> int:
    """One timing of the kernel, with the cyclic collector paused so the
    kernel does not pay for garbage the measured work left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        kernel()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before_ns: int, after_ns: int) -> float:
    """The factor taking a time measured between two kernel samples to
    the reference speed."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)


def timed(fn) -> Tuple[float, float, object]:
    """fn()'s seconds at the reference speed, its wall seconds, and its
    result."""
    before = sample_ns()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return wall * scale(before, sample_ns()), wall, result


class Gauge:
    """Tracks the kernel time; `factor()` closes the current interval
    and returns the scale for the times measured during it."""

    def __init__(self):
        self._last = sample_ns()
        self._since = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._since >= INTERVAL_S

    def factor(self) -> float:
        now = sample_ns()
        factor = scale(self._last, now)
        self._last, self._since = now, time.perf_counter()
        return factor
