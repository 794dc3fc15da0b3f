"""Which solver functions the traced run wraps, and the per-layer metrics.

Span-based metrics are per-pass figures: the mean over the traced passes
of one run (a pass solves the workload's whole instance set once).  Times
are self times: a span's duration minus the time of the wrapped calls it
makes.  :func:`run_metrics` adds the run-level figures.
"""

from __future__ import annotations

import statistics
import tracemalloc
from contextlib import contextmanager
from typing import Iterator

from qmct import _kernel, admissible, cheapest, io, pipeline, staticflow, temporal, transport

from spans import Span, Target, covered, self_times

TARGETS: list[Target] = [
    (pipeline, "validate", "network.validate", None),
    (cheapest, "pair_costs", "cheapest.pair_costs", lambda args, r: {"pairs": len(r)}),
    (transport, "build", "transport.build", lambda args, r: {"pairs": len(r.pairs)}),
    (transport, "solve", "transport.solve", None),
    (transport, "active_pairs", "transport.active_pairs", None),
    (
        admissible,
        "admissible_arcs",
        "admissible.arcs",
        lambda args, r: {"kept": len(r.arc_indices), "arcs": args[0].base_arc_count},
    ),
    (temporal, "quickest_transshipment", "temporal.search", lambda args, r: {"horizon": r.horizon}),
    (temporal, "expand", "temporal.expand", lambda args, r: {"arcs": r.num_arcs, "layers": r.horizon}),
    (temporal, "verify_schedule", "temporal.verify", None),
    (temporal, "mincost_over_time", "temporal.mincost", None),
    (_kernel, "build", "kernel.build", None),
    (_kernel, "max_flow", "kernel.max_flow", None),
    (_kernel, "min_cost_flow", "kernel.min_cost_flow", None),
    (staticflow, "decompose", "staticflow.decompose", lambda args, r: {"paths": len(r[0])}),
    (pipeline, "check_admissible_routing", "pipeline.routing_check", None),
    (pipeline, "oracle_quickest_mincost", "pipeline.oracle", None),
    (io, "report_to_doc", "io.report", None),
]

# Self-time metrics and the spans each one sums.
SELF_TIME = {
    "kernel.max_flow_s": ("kernel.max_flow",),
    "staticflow.decompose_s": ("staticflow.decompose",),
    "temporal.verify_s": ("temporal.verify",),
    "pipeline.routing_check_s": ("pipeline.routing_check",),
    "cheapest.pair_costs_s": ("cheapest.pair_costs",),
    "admissible.arcs_s": ("admissible.arcs",),
    "network.validate_s": ("network.validate",),
    "temporal.search_s": ("temporal.search",),
    "transport.solve_s": ("transport.build", "transport.solve", "transport.active_pairs"),
    "temporal.mincost_s": ("temporal.mincost",),
    "kernel.min_cost_flow_s": ("kernel.min_cost_flow",),
    "temporal.expand_s": ("temporal.expand",),
    "kernel.build_s": ("kernel.build",),
    "pipeline.oracle_s": ("pipeline.oracle",),
    "io.report_s": ("io.report",),
}

UNITS = {
    **{name: "s" for name in SELF_TIME},
    "kernel.max_flow_calls": "count",
    "temporal.probes": "count",
    "temporal.expansion_arcs": "count",
    "temporal.probe_layers_per_h": "ratio",
    "staticflow.paths": "count",
    "cheapest.pairs": "count",
    "admissible.kept_frac": "ratio",
    "transport.pairs": "count",
    "temporal.mincost_calls": "count",
    "temporal.search_peak_mib": "MiB",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


def _probes(spans: list[Span]) -> list[Span]:
    """Expansions built by the horizon search (not by the oracle)."""
    return [
        s
        for s in spans
        if s.name == "temporal.expand"
        and s.parent is not None
        and spans[s.parent].name == "temporal.search"
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_metrics(spans: list[Span], pass_start: float, pass_end: float) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    own = self_times(spans)
    by_name: dict[str, float] = {}
    for span, seconds in zip(spans, own):
        by_name[span.name] = by_name.get(span.name, 0.0) + seconds
    metrics = {
        metric: sum(by_name.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME.items()
    }

    def matching(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str, key: str) -> int:
        return sum(s.attrs[key] for s in matching(name))

    probes = _probes(spans)
    metrics.update(
        {
            "kernel.max_flow_calls": len(matching("kernel.max_flow")),
            "temporal.probes": len(probes),
            "temporal.expansion_arcs": sum(s.attrs["arcs"] for s in probes),
            "temporal.probe_layers_per_h": _ratio(
                sum(s.attrs["layers"] for s in probes), total("temporal.search", "horizon")
            ),
            "staticflow.paths": total("staticflow.decompose", "paths"),
            "cheapest.pairs": total("cheapest.pair_costs", "pairs"),
            "admissible.kept_frac": _ratio(
                total("admissible.arcs", "kept"), total("admissible.arcs", "arcs")
            ),
            "transport.pairs": total("transport.build", "pairs"),
            "temporal.mincost_calls": len(matching("temporal.mincost")),
            "trace.unattributed_s": (pass_end - pass_start)
            - covered(((s.start, s.end) for s in spans if s.parent is None), pass_start, pass_end),
        }
    )
    return metrics


def run_metrics(
    traced: list[dict[str, float]],
    traced_seconds: list[float],
    untraced_seconds: list[float],
    search_peak_bytes: int,
) -> dict[str, float]:
    """Average the traced passes and add the run-level figures.

    ``search_peak_bytes`` is the ``tracemalloc`` peak of one search, on the
    instance :func:`largest_search` picks.
    """
    metrics = {name: statistics.fmean(p[name] for p in traced) for name in traced[0]}
    metrics["temporal.search_peak_mib"] = search_peak_bytes / 2**20
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_seconds) / statistics.median(untraced_seconds) - 1
    )
    return metrics


def largest_search(spans: list[Span]) -> int:
    """Instance whose horizon-search probes built the most expansion arcs."""
    arcs: dict[int, int] = {}
    for s in _probes(spans):
        arcs[s.instance] = arcs.get(s.instance, 0) + s.attrs["arcs"]
    return max(arcs, key=arcs.get)


@contextmanager
def search_peak() -> Iterator[list[int]]:
    """Record the ``tracemalloc`` peak of every ``quickest_transshipment`` call."""
    peaks: list[int] = []
    original = temporal.quickest_transshipment

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    temporal.quickest_transshipment = measured
    try:
        yield peaks
    finally:
        temporal.quickest_transshipment = original
