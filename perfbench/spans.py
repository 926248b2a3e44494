"""Outside-in tracing: wrap public functions of the program, keep spans.

A span is ``[name, start, end, parent, op]``: the wrapped function's
``module.fn`` name, two clock readings, the index of the enclosing span (-1
at the top) and the operation it belongs to.  Spans stay in memory and are
written out once, when the pass ends.  A span's self time is its duration
minus the durations of its direct children; calls are synchronous, so the
children never overlap and their sum is the part of the interval they cover.

The wrappers are installed from outside: every module-level name in the
package that holds a wrapped function is rebound to the wrapper (``analytic``
imports ``level_congruence_count`` by name, ``curves`` imports
``factorize`` and ``stat_on_shape``), and restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from typing import Callable

#: The layer boundaries the trace records, as ``module.fn`` in the package.
TARGETS = (
    "curves.tally_structures",
    "curves.weighted_average_from_tally",
    "groups.stat_on_shape",
    "analytic.main_term",
    "analytic.euler_product",
    "analytic.local_factor",
    "densities.level_congruence_count",
    "densities.f_ell",
    "densities.f_ell_closed",
    "densities.probability_product",
    "arith.factorize",
)

#: Name of the span around each whole operation; its self time is the time
#: of the operation spent outside every wrapped function.
OP_SPAN = "cli"

Observer = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Collects spans and named counts for one pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        """fn, recording a span per call and passing (args, result) to observe."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def operation(self, op: int):
        """A top-level span around operation number ``op``."""
        self._op = op
        span = [OP_SPAN, self.clock(), None, -1, op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = self.clock()
            self._stack.pop()
            self._op = -1


@contextlib.contextmanager
def installed(tracer: Tracer, package: str, targets=TARGETS, observers=None):
    """Rebind every module-level name in ``package`` that holds a target."""
    observers = observers or {}
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    swaps = []
    for target in targets:
        module_name, fn_name = target.rsplit(".", 1)
        original = getattr(sys.modules[f"{package}.{module_name}"], fn_name)
        wrapper = tracer.wrap(target, original, observers.get(target))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    swaps.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in reversed(swaps):
            setattr(module, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the summed durations of direct children, per span."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s and inclusive total_s.

    None of the wrapped functions calls itself, so total_s counts no
    interval twice.
    """
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += span[2] - span[1]
    return out
