"""In-memory spans around the benchmark's calls into the wlasdi layers.

A span records its name, start, end, parent span and run id. Spans stay in
memory while the run works and are written out as JSON when it ends. The
per-layer figures are derived from them: a span's self time is its
duration minus the time covered by its direct children, and a name's call
count is the number of its spans.

Spans are grouped by segment: ``<stage>-<k>`` for the k-th pass of a
stage, any other name for work done once. A per-layer value is the
once-only total plus, for each stage, the median over its passes of the
per-pass total: the cost of one typical pass of every stage.
"""
from __future__ import annotations

import dataclasses
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    segment: str


class NullTracer:
    """Calls straight through; used by the untraced runs."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer:
    """Records one span per ``call`` and named counters per segment."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._stack: list[int] = []
        self._segment = "setup"

    def segment(self, name: str) -> None:
        self._segment = name

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id, self._segment)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[self._segment][name] += value

    def per_segment(self) -> dict[str, dict[str, float]]:
        """{segment: {"<span>_s": self seconds, "<span>_calls": count, counters}}."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, covered in zip(self.spans, child_time):
            seg = out[span.segment]
            seg[f"{span.name}_s"] += (span.end - span.start) - covered
            seg[f"{span.name}_calls"] += 1
            seg[f"{span.name}_incl_s"] += span.end - span.start
        for segment, counters in self.counters.items():
            for name, value in counters.items():
                out[segment][name] += value
        return out

    def summary(self) -> dict[str, float]:
        """Once-only totals plus each stage's median per-pass total, per key."""
        groups: dict[str, list] = defaultdict(list)
        for name, values in self.per_segment().items():
            stem, _, k = name.rpartition("-")
            groups[stem if k.isdigit() else name].append(values)
        out: dict[str, float] = defaultdict(float)
        for passes in groups.values():
            for key in set().union(*passes):
                out[key] += statistics.median([p.get(key, 0.0) for p in passes])
        return dict(out)

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "run_id": self.run_id,
            "spans": [dataclasses.asdict(span) for span in self.spans],
            "counters": {k: dict(v) for k, v in self.counters.items()},
        }
        path.write_text(json.dumps(payload))
