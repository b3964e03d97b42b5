"""Spans recorded from outside the program, by wrapping public functions.

A wrapper replaces a name in the module (or class) that looks it up at call
time, so the call sites inside ``oodlab`` reach it without any change to the
package. Each span is ``[name, start, end, parent]``, with ``parent`` the
index of the enclosing span or -1. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import csv
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[2] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)

    def wrap(self, owner, attr: str, name) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is the span name, or a callable mapping the call's bound
        arguments to one (used to tell the training phases apart).
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original) if callable(name) else None
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(signature.bind(*args, **kwargs).arguments) if signature else name
            span = tracer._enter(span_name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._exit(span)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent])


def summarize(spans: list[list]) -> dict:
    """Inclusive seconds and call counts per span name, self seconds per
    layer (the first dotted component of the name), and the number of
    ``training.adam_step`` spans under each training phase."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    phase_steps = defaultdict(int)
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        self_s[name.split(".", 1)[0]] += end - start - child_time[i]
        if name == "training.adam_step":
            p = parent
            while p >= 0 and not spans[p][0].startswith("training.phase_"):
                p = spans[p][3]
            if p >= 0:
                phase_steps[spans[p][0]] += 1
    return {"total": total, "calls": calls, "self": self_s, "phase_steps": phase_steps}
