"""Spans around the program's layer boundaries, recorded from outside it.

``Tracer.patch`` replaces a function at the name its caller looks it up by
(``coredse.trainer.sample``, not ``coredse.policy.sample``, because the
trainer binds the names it imports) with a wrapper that records one span
per call: name, start, end and the index of the enclosing span. Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def patch(self, module, attr: str, name: str) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time in seconds, call count).

        A span's self time is its duration minus the durations of its
        direct children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start - inner), calls + 1)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
