"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent). Spans are opened and closed around
calls into the package from the benchmark's own wrappers, so nesting
follows the call stack of one thread. Nothing is written until the run
ends; self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.enabled = False

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call made while enabled."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        own = self.durations()
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def totals(self, self_time: bool = False):
        """{name: (calls, total seconds)} over every span recorded."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        times = self.self_times() if self_time else self.durations()
        for name, t in zip(self.names, times):
            out[name][0] += 1
            out[name][1] += t
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        """All spans as JSON lines of name, start, end, parent (seconds)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": self.starts[i] - t0,
                            "end": self.ends[i] - t0,
                            "parent": self.parents[i],
                        }
                    )
                    + "\n"
                )
