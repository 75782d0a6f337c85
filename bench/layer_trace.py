"""Outside-in layer tracing for the fedmm benchmark.

The tracer replaces functions at the module or class attribute their
caller resolves, so one function reached from two callers can carry two
span names (`fedmm.client.make_batch` and `fedmm.metrics.make_batch` are
the same function, traced as `model.make_batch.train` and `.eval`). Each
call records a span (name, start, end, parent index) in memory; nothing
inside `src/` is instrumented. `installed()` restores every original
attribute on exit, so untraced runs execute the unmodified program.

A probe that names an attribute the program no longer has is skipped and
listed in `missing`; its metrics then read as zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """Trace `owner.<attr>` under span `name`; `on_return(tracer, args,
    kwargs, result)` may add counts after each call."""

    owner: object
    attr: str
    name: str
    on_return: Callable | None = None


class Tracer:
    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.seen: dict[str, set] = defaultdict(set)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([probe.name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if probe.on_return is not None:
                probe.on_return(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every probe for the duration of the block."""
        patched: list[tuple[object, str, object]] = []
        self.missing = []
        try:
            for probe in self.probes:
                original = vars(probe.owner).get(probe.attr)
                if original is None:
                    self.missing.append(f"{getattr(probe.owner, '__name__', probe.owner)}.{probe.attr}")
                    continue
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(original.__func__, probe))
                else:
                    replacement = self._wrap(original, probe)
                setattr(probe.owner, probe.attr, replacement)
                patched.append((probe.owner, probe.attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: call count and total self time, where self time
        is a span's duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = {p.name: [0, 0.0] for p in self.probes}
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name][0] += 1
            totals[name][1] += (end - start) - child_time[i]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
