"""In-memory trace spans around calls into the program, and self-time.

A span records its name, start, end, parent span and the operation it
belongs to.  Spans are opened by wrappers installed on module attributes
(so calls between bellkit modules are seen too), by the workloads around
`cli.main`, and by a profile hook keyed on code objects, which sees a
function such as `scipy.optimize.linprog` wherever it was imported from.
Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    error: bool = False
    info: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[Span] = []
        self._op = -1

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._op, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: bool = False) -> None:
        span.end = self.clock()
        span.error = span.error or error
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        failed = True
        try:
            yield span
            failed = False
        finally:
            self.close(span, failed)

    def op(self):
        """Span of one benchmark operation; its children share its op id."""
        self._op += 1
        return self.span("op")

    def wrap(self, fn, name: str, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    span.info = describe(result)
                failed = False
                return result
            finally:
                self.close(span, failed)

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace module attributes by traced wrappers, restoring them on exit.

        targets: (module, attribute, describe) triples; describe(result)
        or None gives the span's info.  A span is named
        '<last part of the module name>.<attribute>'.
        """
        saved = []
        try:
            for module, attr, describe in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                setattr(module, attr, self.wrap(fn, name, describe))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @contextmanager
    def profiled(self, spans: dict, counted: dict):
        """Profile hook keyed on code objects.

        spans: code -> (span name, describe(return value)); such a call
        becomes a span, marked as an error when it raises.
        counted: code -> counter name; such a call is only counted.
        """
        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                if code in spans:
                    self.open(spans[code][0])
                elif code in counted:
                    name = counted[code]
                    self.counts[name] = self.counts.get(name, 0) + 1
            elif event == "return" and frame.f_code in spans:
                span = self._stack[-1]
                # a frame left by an exception returns None to the hook
                if arg is None:
                    self.close(span, error=True)
                else:
                    span.info = spans[frame.f_code][1](arg)
                    self.close(span)

        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            yield
        finally:
            sys.setprofile(previous)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = s.duration - covered
    return out
