"""Spans recorded by the benchmark around its own calls into spapt.

The benchmark never patches or instruments ``src/spapt``: every public
call the workloads make goes through ``tracer.call(name, fn, ...)``.  With
tracing off that is a plain call; with tracing on it records a span
``(id, name, start, end, parent, unit, failed)`` in memory.  Names are
``<module>.<function>``; the unit spans that enclose them are ``unit``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

SETUP_UNIT = -1


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def unit(self, unit_id, kind):
        return nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int, bool]] = []
        self._stack: list[int] = []
        self._unit = SETUP_UNIT
        self._next = 0

    @contextmanager
    def _span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        failed = True
        start = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self._unit, failed))

    def call(self, name, fn, *args, **kwargs):
        with self._span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def unit(self, unit_id: int, kind: str):
        self._unit = unit_id
        try:
            with self._span(f"unit.{kind}"):
                yield
        finally:
            self._unit = SETUP_UNIT

    def layer_stats(self, scales: dict[int, float]) -> tuple[dict, dict]:
        """Per span name (calls, total seconds, failed) over every span,
        set-up included, and per module the share of traced unit time
        spent in that module's spans (self time).  Durations inside unit
        ``u`` are multiplied by ``scales[u]`` (default 1)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        busy: dict[str, float] = defaultdict(float)
        unit_time = 0.0
        for sid, name, start, end, _, unit, failed in self.spans:
            scale = scales.get(unit, 1.0)
            if name.startswith("unit."):
                unit_time += (end - start) * scale
                continue
            stats = per_name[name]
            stats[0] += 1
            stats[1] += (end - start) * scale
            stats[2] += int(failed)
            if unit != SETUP_UNIT:
                busy[name.split(".")[0]] += ((end - start) - child_time[sid]) * scale
        return dict(per_name), {module: t / unit_time for module, t in busy.items()}

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "unit", "failed")
        with open(path, "w", encoding="utf-8") as fp:
            json.dump([dict(zip(keys, span)) for span in self.spans], fp)
