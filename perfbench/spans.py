"""Span trees and self-time arithmetic for the traced benchmark run.

A span is one call of a wrapped function: an id, the id of the span that
was open when it started (its parent), a name, the thread it ran on and
its start and end on the monotonic clock shared by all processes.

Self time splits the root span's duration among the spans without double
counting. At each instant the spans that are open and have no open child
share that instant equally. With one thread this is the usual "duration
minus the part its children cover"; when pool threads run sibling spans
side by side, the overlap is split between them, so the self times of all
spans always add up to the root's duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int = 0
    attrs: dict = field(default_factory=dict, compare=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self seconds of every span, keyed by span id.

    A sweep over the span boundaries: between two consecutive boundaries
    the set of open spans is fixed, and its members with no open child
    each take an equal share of the gap.
    """
    events: dict[float, tuple[list[Span], list[Span]]] = {}
    for s in spans:
        events.setdefault(s.start, ([], []))[0].append(s)
        events.setdefault(s.end, ([], []))[1].append(s)
    out = {s.id: 0.0 for s in spans}
    open_children = {s.id: 0 for s in spans}
    active: dict[int, Span] = {}
    times = sorted(events)
    for here, nxt in zip(times, times[1:] + [None]):
        starting, ending = events[here]
        for s in ending:
            if s.id in active:
                del active[s.id]
                if s.parent in open_children:
                    open_children[s.parent] -= 1
        for s in starting:
            if s.end > s.start:
                active[s.id] = s
                if s.parent in open_children:
                    open_children[s.parent] += 1
        if nxt is None or not active:
            continue
        leaves = [i for i in active if open_children[i] == 0]
        share = (nxt - here) / len(leaves)
        for i in leaves:
            out[i] += share
    return out


def pool_concurrency(run_spans: list[Span], group) -> float:
    """Busy seconds of the given spans over the wall seconds they cover.

    Spans are grouped by ``group(span)`` (one group per pool); each group's
    wall is from its first start to its last end. 1.0 means the runs of a
    group went one after another.
    """
    groups: dict[object, list[Span]] = {}
    for s in run_spans:
        groups.setdefault(group(s), []).append(s)
    busy = sum(s.duration for s in run_spans)
    wall = sum(
        max(s.end for s in members) - min(s.start for s in members)
        for members in groups.values()
    )
    return busy / wall
