"""Span arithmetic over the program's trace records.

The records are :meth:`repro.obs.Tracer.records` dicts (``name``,
``start_s``, ``dur_s``, ``depth``, optional ``attrs``) in creation
order.  A span's parent is the most recent span created one level
shallower, which holds for the tracer's single open-span stack and for
worker spans absorbed under the span that was open at dispatch.  A
span's self time is its duration minus the part of its interval that
its direct children cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict


def link_parents(records: list[dict]) -> list[int | None]:
    """Index of each record's parent (``None`` for top-level spans)."""
    parents: list[int | None] = []
    last_at_depth: dict[int, int] = {}
    for i, rec in enumerate(records):
        depth = rec["depth"]
        parents.append(last_at_depth.get(depth - 1) if depth > 0 else None)
        last_at_depth[depth] = i
    return parents


def covered(intervals: list[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(records: list[dict],
               parents: list[int | None] | None = None) -> list[float]:
    """Self time of every record: duration minus child-covered time."""
    if parents is None:
        parents = link_parents(records)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent is not None:
            rec = records[i]
            children[parent].append((rec["start_s"],
                                     rec["start_s"] + rec["dur_s"]))
    out = []
    for i, rec in enumerate(records):
        lo = rec["start_s"]
        hi = lo + rec["dur_s"]
        out.append(max(rec["dur_s"] - covered(children.get(i, []), lo, hi),
                       0.0))
    return out


def ancestor_named(records: list[dict], parents: list[int | None], i: int,
                   names: tuple[str, ...]) -> str | None:
    """Name of the nearest ancestor of record ``i`` among ``names``."""
    parent = parents[i]
    while parent is not None:
        if records[parent]["name"] in names:
            return records[parent]["name"]
        parent = parents[parent]
    return None


class SpanTable:
    """Totals over one trace, keyed by span name."""

    def __init__(self, records: list[dict]):
        self.records = records
        self.parents = link_parents(records)
        self.selfs = self_times(records, self.parents)

    def durations(self, name: str) -> list[float]:
        return [r["dur_s"] for r in self.records if r["name"] == name]

    def total(self, name: str) -> float:
        """Summed inclusive duration of spans called ``name``."""
        return sum(self.durations(name))

    def self_total(self, name: str) -> float:
        """Summed self time of spans called ``name``."""
        return sum(s for r, s in zip(self.records, self.selfs)
                   if r["name"] == name)

    def count(self, name: str) -> int:
        return len(self.durations(name))

    def attr_total(self, name: str, attr: str) -> float:
        return sum(r.get("attrs", {}).get(attr, 0) for r in self.records
                   if r["name"] == name)

    def bytes_by_ancestor(self, name: str,
                          groups: dict[str, tuple[str, ...]]) -> dict:
        """Sum the ``bytes`` attribute of ``name`` spans per ancestor group.

        ``groups`` maps a label to the ancestor span names that select
        it, e.g. ``{"down": ("download",), "up": ("upload",)}``.
        """
        lookup = {anc: label for label, names in groups.items()
                  for anc in names}
        every = tuple(lookup)
        out = {label: 0 for label in groups}
        for i, rec in enumerate(self.records):
            if rec["name"] != name:
                continue
            anc = ancestor_named(self.records, self.parents, i, every)
            if anc is not None:
                out[lookup[anc]] += int(rec.get("attrs", {}).get("bytes", 0))
        return out


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile (0..1) of ``values``; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[min(max(int(round(q * 100)) - 1, 0), 98)])
