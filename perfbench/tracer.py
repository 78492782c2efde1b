"""Spans and counts recorded around the benchmark's own calls into srcfg.

The program itself is not instrumented: a span covers one call that the
benchmark makes into a public function `srcfg.<module>.<fn>`, and is named
`<module>.<fn>`.  Task and pass spans are the parents of those call spans.
Spans stay in memory until the run ends.  A disabled tracer only forwards
calls, so the end-to-end run pays nothing for it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

SPAN_FIELDS = ["kind", "name", "start", "end", "parent", "task", "phase", "index"]


def layer_name(fn) -> str:
    """`srcfg.iso.aut_order` -> `iso.aut_order`."""
    return f"{fn.__module__.removeprefix('srcfg.')}.{fn.__qualname__}"


def _forward(fn, *args):
    return fn(*args)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[tuple, float] = defaultdict(float)
        self.phase = ("setup", 0)
        self._task = None
        self._stack: list[int] = []
        if not enabled:
            self.call = _forward

    def call(self, fn, *args):
        """Return fn(*args), recorded as a span named after fn."""
        with self._span("call", layer_name(fn)):
            return fn(*args)

    def scope(self, kind: str, name: str, task: str | None = None):
        """Context for a pass or task span; no-op when disabled."""
        if not self.enabled:
            return nullcontext()
        self._task = task
        return self._span(kind, name)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[(*self.phase, name)] += n

    @contextmanager
    def _span(self, kind, name):
        record = [kind, name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self._task,
                  *self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def layer_metrics(self, setup_runs: int, warm_passes: int) -> dict[str, float]:
        """Per-layer metrics from the span tree.

        Calls made in warm passes give `<module>.<fn>.busy_s` and `.calls`
        per warm pass; calls made in set-up give `setup.<module>.<fn>.*`
        per set-up.  Self time (a span's duration minus the time its
        children cover) is summed per module over the warm passes' tasks;
        time that the benchmark spends in its own code counts as `bench`.
        `<module>.share` divides it by the tasks' time.  Counts are per
        warm pass.  Times here are wall seconds.
        """
        child_time = defaultdict(float)
        for kind, name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        task_time = 0.0
        for i, (kind, name, start, end, parent, task, phase, idx) in enumerate(self.spans):
            if phase == "setup":
                prefix, scale = "setup.", 1.0 / setup_runs
            elif phase == "warm":
                prefix, scale = "", 1.0 / warm_passes
            else:
                continue
            dur = end - start
            if kind == "call":
                out[f"{prefix}{name}.busy_s"] += dur * scale
                out[f"{prefix}{name}.calls"] += scale
            if phase == "warm" and kind != "pass":
                owner = name.split(".")[0] if kind == "call" else "bench"
                self_time[owner] += (dur - child_time[i]) * scale
                if kind == "task":
                    task_time += dur * scale
        for owner, t in self_time.items():
            out[f"{owner}.share"] = t / task_time
        for (phase, idx, name), n in self.counts.items():
            if phase == "warm":
                out[name] += n / warm_passes
        return out

    def dump(self) -> dict:
        return {"fields": SPAN_FIELDS, "spans": self.spans,
                "counts": [[*key, n] for key, n in sorted(self.counts.items())]}
