"""In-memory span recorder that instruments a package from outside.

A :class:`Tracer` replaces functions with wrappers that record one span per
call: name, start, end, the enclosing span and a trace id (the round index
while a round runs, 0 otherwise). Spans stay in memory until the caller writes
them out after the run. The recorder keeps one stack of open spans, so it
describes serial runs only.

A function is looked up wherever a module bound it, not only where it was
defined: ``from .trainer import train_one_client`` copies the reference into
the importing module, and patching ``trainer`` alone would leave the span
silently empty. :meth:`Tracer.install` therefore replaces every reference to
the original function object in every module of the package.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: int  # clock ticks (ns)
    end: int
    parent: int  # index of the enclosing span, -1 at the top
    trace_id: int


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.function`` recorded as span ``name``.

    ``observe(tracer, arguments, result)`` runs after each call to record
    counts; ``arguments`` maps parameter names to the values of the call.
    ``trace_arg`` names the parameter whose value becomes the trace id of
    every span inside the call.
    """

    module: str
    function: str
    name: str
    observe: object = None
    trace_arg: str | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.trace_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, target: Target, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        signature = inspect.signature(fn)
        needs_arguments = target.observe is not None or target.trace_arg is not None

        def traced(*args, **kwargs):
            previous = self.trace_id
            if needs_arguments:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                arguments = call.arguments
                if target.trace_arg is not None:
                    self.trace_id = int(arguments[target.trace_arg])
            span = Span(target.name, clock(), 0, stack[-1] if stack else -1, self.trace_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                self.trace_id = previous
            if target.observe is not None:
                target.observe(self, arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets, package: str) -> None:
        """Wrap every reference to each target held by a module of ``package``."""
        for target in targets:
            original = getattr(importlib.import_module(target.module), target.function)
            wrapper = self.wrap(target, original)
            for module_name, module in list(sys.modules.items()):
                if module is None or not (
                    module_name == package or module_name.startswith(package + ".")
                ):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, trace id."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.name, s.start, s.end, s.parent, s.trace_id]))
                handle.write("\n")


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    result = []
    for index, span in enumerate(spans):
        covered, cursor = 0, span.start
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index]
        )
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]
