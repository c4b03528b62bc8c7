"""Spans and Spark job counts recorded around calls into the program.

Each span has a name, start, end, parent span and request id; spans of
one request share the id. Spark jobs are attributed with
``sc.setJobGroup`` and read back with ``getJobIdsForGroup`` as soon as
the span ends, because the status tracker keeps only the last
``spark.ui.retainedJobs`` jobs.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Iterator

from pyspark import SparkContext


@dataclass
class Span:
    name: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0
    jobs: int = 0  # Spark jobs run inside this span, children included
    counts: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, sc: SparkContext):
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = 0

    @contextmanager
    def request(self, name: str) -> Iterator[Span]:
        """A top-level span that starts a new request id."""
        self._request += 1
        with self.span(name) as s:
            yield s

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._request, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        group = f"perfbench-span-{index}"
        self.sc.setJobGroup(group, name)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.jobs += len(self.sc.statusTracker().getJobIdsForGroup(group))
            self._stack.pop()
            if parent is not None:
                self.spans[parent].jobs += span.jobs
                self.sc.setJobGroup(f"perfbench-span-{parent}", self.spans[parent].name)
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)

    def self_time(self, index: int) -> float:
        """Span duration minus the time its direct children cover."""
        children = sum(s.wall_s for s in self.spans if s.parent == index)
        return self.spans[index].wall_s - children

    def to_json(self) -> list[dict]:
        origin = self.spans[0].start if self.spans else 0.0
        out = []
        for i, s in enumerate(self.spans):
            d = asdict(s)
            d.update(start=s.start - origin, end=s.end - origin, self_s=self.self_time(i))
            out.append(d)
        return out
