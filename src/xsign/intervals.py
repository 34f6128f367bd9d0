"""Half-open time interval algebra at second precision.

Intervals are (start, end) datetime pairs meaning [start, end); an empty
interval (start >= end) is never stored. Interval lists are kept sorted,
disjoint and maximal (adjacent intervals merged).
"""

from __future__ import annotations

from datetime import datetime

Interval = tuple[datetime, datetime]


def normalize(items: list[Interval]) -> list[Interval]:
    """Sort, drop empties, merge overlapping/adjacent intervals."""
    todo = sorted(iv for iv in items if iv[0] < iv[1])
    out: list[Interval] = []
    for start, end in todo:
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def intersect(a: list[Interval], b: list[Interval]) -> list[Interval]:
    out: list[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if start < end:
            out.append((start, end))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def subtract(a: list[Interval], b: list[Interval]) -> list[Interval]:
    """Remove every instant covered by b from a."""
    out: list[Interval] = []
    b = normalize(list(b))
    for start, end in normalize(list(a)):
        cur = start
        for bs, be in b:
            if be <= cur or bs >= end:
                continue
            if bs > cur:
                out.append((cur, bs))
            cur = max(cur, be)
            if cur >= end:
                break
        if cur < end:
            out.append((cur, end))
    return out
