"""Span recording from outside the engine.

A :class:`Tracer` replaces module attributes with timing wrappers. Each
wrapped call records a span (name, start, end, parent, run id) in memory.
When a SparkContext is attached, the call also runs under its own Spark
job group, so the jobs and tasks it launched can be read back from the
status tracker after the call (:meth:`Tracer.harvest`).
"""
from __future__ import annotations

import inspect
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One wrapped call. ``jobs``/``tasks`` count only the span's own group."""

    id: int
    name: str
    run: int
    parent: int | None
    start: float
    end: float = 0.0
    info: dict[str, float] = field(default_factory=dict)
    jobs: int = 0
    tasks: int = 0
    tasks_failed: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def group(self) -> str:
        return f"perfbench-{self.run}-{self.id}"


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children's intervals.

    Children of one span never overlap while the engine calls them from one
    thread, but the union is taken anyway so the arithmetic holds if they do.
    """
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids.get(s.id, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """Highest percentile (at least the median) with ``beyond`` samples above it.

    Returns ``(percentile, value)``: the order statistic with exactly
    ``beyond`` larger samples, at percentile ``100 * rank / (N - 1)``. When
    that order statistic would lie below the median (fewer than
    ``2 * beyond + 1`` samples), no tail can be told apart from the body
    and the median is returned as percentile 50.
    """
    if not values:
        return 50.0, 0.0
    xs = sorted(values)
    rank = len(xs) - 1 - beyond
    if 2 * rank < len(xs) - 1:
        return 50.0, statistics.median(xs)
    return 100.0 * rank / (len(xs) - 1), xs[rank]


class Tracer:
    """In-memory span recorder around module-level functions.

    ``wrap(module, attr, name, extract)`` swaps ``module.attr`` for a wrapper;
    ``restore()`` puts every original back. ``extract(bound_args, result)``
    may return numbers stored in ``Span.info``; it runs inside the span
    because it reads arguments the engine mutates after the call returns.
    """

    def __init__(self, sc=None):
        self.sc = sc
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[Span] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        module: Any,
        attr: str,
        name: str,
        extract: Callable[[dict, Any], dict] | None = None,
    ) -> None:
        orig = getattr(module, attr)
        sig = inspect.signature(orig)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                result = orig(*args, **kwargs)
                if extract is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    sp.info.update(extract(bound.arguments, result))
                return result

        wrapper.__wrapped__ = orig
        self._saved.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a span; with Spark, tag its jobs with the span's own group."""
        parent = self._stack[-1].id if self._stack else None
        sp = Span(id=len(self.spans), name=name, run=self.run, parent=parent, start=0.0)
        self.spans.append(sp)
        self._stack.append(sp)
        sc = self.sc
        if sc is not None:
            outer = (
                sc.getLocalProperty("spark.jobGroup.id"),
                sc.getLocalProperty("spark.job.description"),
            )
            sc.setJobGroup(sp.group, name)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if sc is not None:
                sc.setLocalProperty("spark.jobGroup.id", outer[0])
                sc.setLocalProperty("spark.job.description", outer[1])

    def harvest(self, spans: list[Span]) -> None:
        """Fill jobs/tasks of ``spans`` from the Spark status tracker.

        Waits for the listener bus to drain first: task-end events arrive
        asynchronously. A stage reused by a later job (a cached or shuffled
        input) shows up in that job's stage list as well; each stage's tasks
        are credited only to the first job that lists it, which is the one
        that ran them, so skipped stages add nothing.
        """
        if self.sc is None:
            return
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        jobs: list[tuple[int, Span]] = []
        for s in spans:
            jobs.extend((j, s) for j in tracker.getJobIdsForGroup(s.group))
        seen: set[int] = set()
        for jid, s in sorted(jobs, key=lambda x: x[0]):
            s.jobs += 1
            info = tracker.getJobInfo(jid)
            for sid in info.stageIds if info is not None else ():
                if sid in seen:
                    continue
                seen.add(sid)
                st = tracker.getStageInfo(sid)
                if st is not None:
                    s.tasks += st.numCompletedTasks
                    s.tasks_failed += st.numFailedTasks

