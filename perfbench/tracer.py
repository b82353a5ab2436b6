"""In-memory span tracer that wraps the program's public calls from outside.

The benchmark attributes time to layers without adding a span to the
program: :class:`Tracer` replaces selected public functions and methods
with timing wrappers for the duration of a ``with tracer.installed():``
block and restores the originals afterwards.  Each call becomes one span
``(name, start, end, parent)``; a generator layer becomes one span per
``next()``.  A layer's self time is its spans' duration minus the part
of each span that its child spans cover.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Collect spans in memory; write them out once, when the run ends."""

    def __init__(self):
        #: [name, start, end, parent index (-1 for a root), rows]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- recording
    def _open(self, name: str, rows: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, rows])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, rows=None):
        """``fn`` with each call recorded as one span named ``name``."""

        def traced(*args, **kwargs):
            index = self._open(name, rows(args) if rows else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def wrap_generator(self, name: str, fn):
        """``fn`` returning a generator whose every ``next()`` is a span."""

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                index = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        return traced

    # -------------------------------------------------------------- patching
    def patch(self, owner, attr: str, name: str, rows=None):
        """Replace ``owner.attr`` with a traced version until uninstall.

        Generator functions get one span per ``next()``; static and class
        methods keep their descriptor type.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        descriptor = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if descriptor else raw
        if inspect.isgeneratorfunction(fn):
            traced = self.wrap_generator(name, fn)
        else:
            traced = self.wrap(name, fn, rows)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, descriptor(traced) if descriptor else traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, layers):
        """Patch every ``(owner, attr, name, rows)`` in ``layers``."""
        try:
            for owner, attr, name, rows in layers:
                self.patch(owner, attr, name, rows)
            yield self
        finally:
            self.uninstall()

    # -------------------------------------------------------------- analysis
    def in_windows(self, windows) -> list[int]:
        """Indices of the spans that lie inside one of ``windows``."""
        return [
            i
            for i, (_, start, end, _, _) in enumerate(self.spans)
            if any(lo <= start and end <= hi for lo, hi in windows)
        ]

    def layer_totals(self, windows) -> dict[str, dict[str, float]]:
        """Per layer: ``self_s``, ``span_s``, ``calls``, ``rows``.

        Only spans inside the timed ``windows`` ((start, end) pairs) count.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "span_s": 0.0, "calls": 0, "rows": 0}
        )
        for i in self.in_windows(windows):
            name, start, end, _, rows = self.spans[i]
            entry = out[name]
            entry["span_s"] += end - start
            entry["self_s"] += (end - start) - _union_length(children[i], start, end)
            entry["calls"] += 1
            entry["rows"] += rows
        return dict(out)

    def root_time(self, windows) -> float:
        """Time inside ``windows`` covered by root spans (no parent)."""
        return sum(
            self.spans[i][2] - self.spans[i][1]
            for i in self.in_windows(windows)
            if self.spans[i][3] < 0
        )

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line (name, start, end, parent)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, rows in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "rows": rows}
                    )
                    + "\n"
                )


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
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
