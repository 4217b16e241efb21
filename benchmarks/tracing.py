"""Span tracing of the aggrekin layers from outside the package.

The benchmark records a span (name, start, end, parent) around each call
into a traced public function by rebinding the module attribute the
caller looks up, so nothing inside ``src/`` changes.  Spans stay in
memory; a layer's self time is its span time minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name).  The span name is the layer that owns the
# function, which is not always the module the caller looks it up in:
# ``kinetic.fv_run`` is the finite-volume run loop, ``scenarios.extract_peaks``
# the finite-volume peak finder, ``kinetic.wasserstein2`` the W2 distance.
TRACE_POINTS = (
    ("aggrekin.scenarios", "run_scenario", "scenarios.run_scenario"),
    ("aggrekin.kinetic", "limit_experiment", "kinetic.limit_experiment"),
    ("aggrekin.kinetic", "write_limit_csv", "kinetic.write_limit_csv"),
    ("aggrekin.fv", "exp_velocity_scan", "expconv.scan"),
    ("aggrekin.kinetic", "exp_potential_scan", "expconv.scan"),
    ("aggrekin.fv", "make_flux", "fv.flux"),
    ("aggrekin.fv", "step", "fv.step"),
    ("aggrekin.fv", "species_peaks", "fv.peaks"),
    ("aggrekin.scenarios", "extract_peaks", "fv.peaks"),
    ("aggrekin.fv", "run", "fv.run"),
    ("aggrekin.kinetic", "fv_run", "fv.run"),
    ("aggrekin.kinetic", "solve_chemo_field", "kinetic.field"),
    ("aggrekin.kinetic", "step", "kinetic.step"),
    ("aggrekin.kinetic", "wasserstein2", "measures.w2"),
    ("aggrekin.scenarios", "sample_gaussian_bumps", "measures.sample"),
    ("aggrekin.measures", "sample_gaussian_bumps", "measures.sample"),
    ("aggrekin.particles", "advance", "particles.advance"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    each child clipped to the parent."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] += t
    return dict(totals)


def calls_by_name(spans: list[Span]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        counts[s.name] += 1
    return dict(counts)


class Tracer:
    """In-memory span recorder for one single-threaded process.

    ``counts`` collects work counters that observers add at the same
    boundaries as the spans.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx].start = start
            self.spans[idx].end = end

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span per call; ``observe(counts, args, result)``
        runs after the span has closed."""

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # the body of span(), inlined: this runs on every traced call
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced


@contextmanager
def installed(tracer: Tracer, observers: dict):
    """Rebind every trace point to a traced wrapper; restore on exit.

    ``observers`` maps a span name to its observe callback.
    """
    saved = []
    try:
        for module_name, attr, name in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, observers.get(name)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def span_cost(n: int = 20000) -> float:
    """Seconds the tracer adds per traced call, measured on an empty function."""

    def empty():
        return None

    tracer = Tracer()
    traced = tracer.wrap("calibrate", empty)
    t0 = time.perf_counter()
    for _ in range(n):
        empty()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    with_spans = time.perf_counter() - t0
    return max(with_spans - bare, 0.0) / n
