"""In-memory span recording for the traced run.

A span has a name, a start and end (``time.perf_counter`` seconds), the
index of the span that was open when it began (its parent), and the id
of the benchmark operation it belongs to.  Spans are kept in a list and
written out once, at the end, as Chrome trace-event JSON.

Self time is a span's duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "tag")

    def __init__(self, name: str, start: float, parent: int, op: int,
                 tag: Optional[str] = None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; :meth:`begin`/:meth:`end` nest by call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: Id of the benchmark operation in flight (0 = set-up/none).
        self.op = 0

    def next_op(self) -> None:
        self.op += 1

    def begin(self, name: str, tag: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent, self.op, tag))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        # Pop back to the closing span (tolerates a leaked inner span).
        while self._stack:
            if self._stack.pop() == index:
                break

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


def covered(intervals: Sequence[Tuple[float, float]], low: float,
            high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    return [
        span.duration - covered(children.get(index, ()), span.start,
                                span.end)
        for index, span in enumerate(spans)
    ]


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """name -> calls, total seconds and self seconds."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
    return table


def render_table(table: Dict[str, Dict[str, float]]) -> str:
    lines = ["%-34s %9s %12s %12s" % ("span", "calls", "total_ms",
                                       "self_ms")]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append("%-34s %9d %12.3f %12.3f" % (
            name, row["calls"], row["total_s"] * 1e3, row["self_s"] * 1e3,
        ))
    return "\n".join(lines)


def chrome_trace(phases: Sequence[Tuple[str, Sequence[Span]]],
                 metadata: dict) -> dict:
    """Chrome trace-event JSON (complete events, microseconds); one
    thread row per ``(label, spans)`` phase."""
    starts = [spans[0].start for _label, spans in phases if spans]
    origin = min(starts) if starts else 0.0
    events = []
    for tid, (label, spans) in enumerate(phases, start=1):
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": tid, "args": {"name": label}})
        for index, span in enumerate(spans):
            args = {"op": span.op, "parent": span.parent, "index": index}
            if span.tag is not None:
                args["tag"] = span.tag
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": args,
            })
    return {"traceEvents": events, "metadata": metadata}


def write_chrome_trace(path: str,
                       phases: Sequence[Tuple[str, Sequence[Span]]],
                       metadata: dict) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(phases, metadata), handle)
