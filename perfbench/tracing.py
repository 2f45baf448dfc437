"""In-memory span tracing of the m2mpool layers, from outside the package.

For a traced operation, `Tracer.install` replaces the public names the package
calls through (for example `m2mpool.sim.poisson_counts`, which
`simulate_interval` looks up in its module) with wrappers that record a span:
name, start, end and parent.  `uninstall` puts the originals back, so untraced
operations run the package untouched.  Spans of one operation are folded into
per-name totals and self times when the operation ends; the spans of the first
few operations are kept verbatim for the trace file.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from time import perf_counter
from typing import Any, Callable

# (module, attribute, span name): calls through these names become spans
SPANNED = (
    ("m2mpool.cli", "build_parser", "cli.build_parser"),
    ("m2mpool.cli", "demand_summary", "analytic.demand_summary"),
    ("m2mpool.analytic", "demand_summary", "analytic.demand_summary"),
    ("m2mpool.cli", "dimension_capacity", "analytic.dimension_capacity"),
    ("m2mpool.analytic", "q_inverse", "numerics.q_inverse"),
    ("m2mpool.cli", "build_pool_plan", "lte.build_pool_plan"),
    ("m2mpool.cli", "estimate_failure_prob", "sim.estimate_failure_prob"),
    ("m2mpool.sim", "simulate_interval", "sim.simulate_interval"),
    ("m2mpool.cli", "sample_demand", "sim.sample_demand"),
    ("m2mpool.cli", "ks_distance", "sim.ks_distance"),
    ("m2mpool.sim", "poisson_counts", "numerics.poisson_counts"),
    ("m2mpool.sim", "leading_failure_counts", "numerics.leading_failure_counts"),
)
# (module, attribute, counter name): calls too cheap and too many for a span
COUNTED = (
    ("m2mpool.numerics", "q_function", "numerics.q_function"),
    ("m2mpool.analytic", "q_function", "numerics.q_function"),
    ("m2mpool.sim", "q_function", "numerics.q_function"),
    ("m2mpool.cli", "q_function", "numerics.q_function"),
    ("m2mpool.analytic", "failure_bound", "analytic.failure_bound"),
    ("m2mpool.cli", "failure_bound", "analytic.failure_bound"),
)
KEEP_OPS = 2  # operations whose raw spans go into the trace file

class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index, note]
        self.stack: list[int] = []
        self.totals: dict[str, list[float]] = {}  # name -> [count, total s, self s]
        self.counts: Counter[str] = Counter()
        self.kept: list[list[list[Any]]] = []
        self._replacements: list[tuple[Any, str, Any]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             note: Callable[..., Any] | None = None, **kwargs: Any) -> Any:
        """Run fn(*args, **kwargs) in a span; `note` summarises positional args and result after it."""
        record = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self.stack.pop()
        if note is not None:
            record[4] = note(self.counts, args, result)
        return result

    def install(self, modules: dict[str, Any]) -> None:
        if not self._replacements:
            for module, attr, name in SPANNED:
                fn = getattr(modules[module], attr)
                self._replacements.append((modules[module], attr, self._spanned(name, fn)))
            for module, attr, name in COUNTED:
                fn = getattr(modules[module], attr)
                self._replacements.append((modules[module], attr, self._counted(name, fn)))
            sim = modules["m2mpool.sim"]
            self._replacements.append((sim, "RngStream", self._traced_stream(sim.RngStream)))
        for module, attr, replacement in self._replacements:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def end_op(self) -> None:
        """Fold the finished operation's spans into totals and self times."""
        spans, self.spans = self.spans, []
        if len(self.kept) < KEEP_OPS:
            self.kept.append([record[:4] for record in spans])
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, _, note) in enumerate(spans):
            if name == "sim.simulate_interval":
                name = f"{name}.{note}"
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += end - start
            total[2] += end - start - child[index]

    def _spanned(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        note = _NOTES.get(name)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, note=note, **kwargs)

        return wrapper

    def _counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _traced_stream(self, base: type) -> type:
        tracer = self
        setup = base.generator.func

        class TracedStream(base):  # type: ignore[misc, valid-type]
            @cached_property
            def generator(self) -> Any:
                return tracer.call("numerics.stream_setup", setup, self)

        return TracedStream


def _note_interval(counts: Counter[str], args: tuple, result: Any) -> str:
    params, capacity, policy, _ = args
    counts["sim.reports"] += result.reports
    counts["sim.failures"] += result.failures
    counts["sim.slots"] += min(result.common_demand, capacity)
    return f"serve.{policy.value}" if result.common_demand > capacity else "fit"


def _note_poisson(counts: Counter[str], args: tuple, result: Any) -> None:
    _, mean, size = args
    counts["numerics.variates"] += size * math.ceil(mean / 500.0)


def _note_failures(counts: Counter[str], args: tuple, result: Any) -> None:
    _, p_e, size = args
    counts["numerics.variates"] += size if p_e > 0.0 else 0


def _note_sample_demand(counts: Counter[str], args: tuple, result: Any) -> None:
    counts["sim.replications"] += args[1]


_NOTES = {
    "sim.simulate_interval": _note_interval,
    "numerics.poisson_counts": _note_poisson,
    "numerics.leading_failure_counts": _note_failures,
    "sim.sample_demand": _note_sample_demand,
}


def layer_metrics(tracer: Tracer, points: int) -> dict[str, tuple[float, int]]:
    """Per-layer metrics as name -> (value, sample count), from the traced operations."""
    totals, counts = tracer.totals, tracer.counts

    def stat(name: str) -> list[float]:
        return totals.get(name, [0, 0.0, 0.0])

    def mean(name: str, field: int, scale: float) -> tuple[float, int]:
        # field 1 is the span's whole duration, field 2 its self time
        total = stat(name)
        return (scale * total[field] / total[0] if total[0] else 0.0), int(total[0])

    def per(value: float, base: float, scale: float = 1.0) -> tuple[float, int]:
        return (scale * value / base if base else 0.0), int(base)

    kinds = ("fit", "serve.random", "serve.fifo")
    intervals = sum(stat(f"sim.simulate_interval.{kind}")[0] for kind in kinds)
    draws = intervals + counts["sim.replications"]
    return {
        "numerics.stream_setup_us": mean("numerics.stream_setup", 1, 1e6),
        "numerics.stream_setups_per_interval": per(stat("numerics.stream_setup")[0], draws),
        "numerics.poisson_counts_us_per_interval": per(stat("numerics.poisson_counts")[1], draws, 1e6),
        "numerics.leading_failure_counts_us_per_interval":
            per(stat("numerics.leading_failure_counts")[1], draws, 1e6),
        "numerics.variates_per_interval": per(counts["numerics.variates"], draws),
        "numerics.q_function_calls_per_point": per(counts["numerics.q_function"], points),
        "analytic.demand_summary_us": mean("analytic.demand_summary", 1, 1e6),
        "analytic.dimension_capacity.self_us": mean("analytic.dimension_capacity", 2, 1e6),
        "analytic.failure_bound_calls_per_point": per(counts["analytic.failure_bound"], points),
        "lte.build_pool_plan_us": mean("lte.build_pool_plan", 1, 1e6),
        "sim.fit_self_us": mean("sim.simulate_interval.fit", 2, 1e6),
        "sim.serve_self_us.random": mean("sim.simulate_interval.serve.random", 2, 1e6),
        "sim.serve_self_us.fifo": mean("sim.simulate_interval.serve.fifo", 2, 1e6),
        "sim.estimate_failure_prob.self_us_per_interval":
            per(stat("sim.estimate_failure_prob")[2], intervals, 1e6),
        "sim.oversubscribed_share":
            per(intervals - stat("sim.simulate_interval.fit")[0], intervals),
        "sim.slots_per_interval": per(counts["sim.slots"], intervals),
        "sim.delivered_share": (
            (1.0 - counts["sim.failures"] / counts["sim.reports"]) if counts["sim.reports"] else 0.0,
            counts["sim.reports"],
        ),
        "sim.sample_demand_us_per_replication":
            per(stat("sim.sample_demand")[1], counts["sim.replications"], 1e6),
        "sim.ks_distance_ms": mean("sim.ks_distance", 1, 1e3),
        "cli.build_parser_ms": mean("cli.build_parser", 1, 1e3),
        "cli.main.self_ms": mean("cli.main", 2, 1e3),
    }
