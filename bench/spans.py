"""In-memory span recorder for the traced benchmark run.

A span is [name, start_ns, end_ns, parent_index, day]. Spans come from two
places: `span()` blocks the benchmark opens around its own calls into the
program, and `wrap()`, which replaces a public function at the point where
the program looks it up (a module global or a class attribute) by a timing
wrapper. `restore()` puts every original back.

The recorder keeps one stack, so it assumes one caller thread: the
benchmark drives the day loop as a closed loop with a single client.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

NAME, START, END, PARENT, DAY = range(5)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.day = None  # date of the last window sliced, stamped on new spans
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.day])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, day_arg: int | None = None) -> None:
        """Time every call of `owner.attr` as a span called `name`.

        With `day_arg`, that positional argument (a date) becomes the day
        stamped on this span and on every later one.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if day_arg is not None:
                self.day = args[day_arg]
            idx = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(idx)

        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, original))

    def restore(self) -> bool:
        """Put back every wrapped name; True when all of them are the originals again."""
        wrapped, self._wrapped = self._wrapped, []
        for owner, attr, original in reversed(wrapped):
            setattr(owner, attr, original)
        return all(getattr(owner, attr) is original for owner, attr, original in wrapped)

    def roots(self) -> list[int]:
        """Index of each span's outermost ancestor (its phase)."""
        out = []
        for i, s in enumerate(self.spans):
            out.append(i if s[PARENT] < 0 else out[s[PARENT]])
        return out

    def self_ns(self) -> list[int]:
        """Each span's duration minus the part of it that its children cover."""
        children = defaultdict(list)
        for s in self.spans:
            if s[PARENT] >= 0:
                children[s[PARENT]].append((s[START], s[END]))
        out = []
        for i, s in enumerate(self.spans):
            out.append(s[END] - s[START] - union_ns(children.get(i, ()), s[START], s[END]))
        return out

    def write(self, fh, rep: int) -> None:
        for s in self.spans:
            fh.write(
                json.dumps(
                    {
                        "rep": rep,
                        "name": s[NAME],
                        "start_ns": s[START],
                        "end_ns": s[END],
                        "parent": s[PARENT],
                        "day": None if s[DAY] is None else s[DAY].isoformat(),
                    }
                )
                + "\n"
            )


def union_ns(intervals, lo: int | None = None, hi: int | None = None) -> int:
    """Length of the union of [start, end) intervals, clipped to [lo, hi)."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if lo is not None:
            start, end = max(start, lo), min(end, hi)
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
