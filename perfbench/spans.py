"""Per-layer statistics of a traced request, computed from its spans.

A span is ``(id, parent, name, start, end, attrs)`` as written by
``tracer.py``.  A layer's self time is its span's duration minus the part of
that interval covered by its child spans; children can overlap one another
when they run on worker threads, so the covered part is the length of the
union of their intervals, not their sum.
"""

from __future__ import annotations

from collections import defaultdict

# Top-level spans of a traced request (see tracer.py).
TOP_LEVEL = ("process.import", "cli.main")


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of ``(start, end)`` intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - union_length(children[sid], start, end)
        for sid, _parent, _name, start, end, _attrs in spans
    }


def reuse_ratio(keys) -> float:
    """Share of calls whose key was already asked for earlier (0 for no calls)."""
    seen = set()
    reused = 0
    for key in keys:
        reused += key in seen
        seen.add(key)
    return reused / len(keys) if keys else 0.0


def layer_stats(spans) -> dict[str, float]:
    """Per-layer statistics of one request, named ``<layer>.<stat>``.

    For every span name: ``calls`` and summed ``self_s``; where the spans
    carry them, the largest ``bytes_held`` and ``peak_alloc_mb``, and the
    ``reuse_ratio`` of their ``key`` attribute in start order.
    """
    selfs = self_times(spans)
    stats: dict[str, float] = defaultdict(float)
    keys = defaultdict(list)
    for sid, _parent, name, start, _end, attrs in sorted(spans, key=lambda s: s[3]):
        stats[f"{name}.calls"] += 1
        stats[f"{name}.self_s"] += selfs[sid]
        for attr in ("bytes_held", "peak_alloc_mb"):
            if attr in attrs:
                stats[f"{name}.{attr}"] = max(stats[f"{name}.{attr}"], attrs[attr])
        if "key" in attrs:
            keys[name].append(attrs["key"])
    for name, names_keys in keys.items():
        stats[f"{name}.reuse_ratio"] = reuse_ratio(names_keys)
    return dict(stats)


def uncovered_share(spans, wall_s: float) -> float:
    """Share of a request's wall time outside its top-level spans."""
    top = [(s[3], s[4]) for s in spans if s[1] is None and s[2] in TOP_LEVEL]
    return max(0.0, 1.0 - union_length(top) / wall_s)
