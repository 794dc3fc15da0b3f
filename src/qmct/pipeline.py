"""End-to-end solvers and the brute-force verification oracle.

The main entry point chains the four stages: pairwise cheapest-path
costs, the static transportation solve with its optimal dual, the
admissible subnetwork carved by that dual, and a quickest-transshipment
search restricted to the subnetwork.  Every report carries the outcome
of the built-in verification checks (schedule validity, cost agreement
with the transportation optimum, admissibility of the routed paths).

The oracle answers the same question by brute force on time expansions
alone: take the stabilized cost at a provably large horizon, then scan
horizons from zero for the first one achieving it.  It shares only the
static-flow kernel with the main path, which makes it a meaningful
cross-check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import admissible, cheapest, staticflow, temporal, transport
from .errors import HorizonLimitError, InfeasibleError, ValidationError
from .network import Arc, Network, NodeId, validate
from .rationals import common_denominator

MODE_QUICKEST_MINCOST = "quickest-mincost"
MODE_QUICKEST = "quickest"
MODE_MINCOST_STATIC = "mincost-static"
MODE_ORACLE = "oracle"


@dataclass
class SolveReport:
    """Solver output plus self-verification flags and timings.

    ``horizon`` is in integer steps after transit scaling;
    ``horizon_original`` converts back to the input's time unit
    (``horizon / scale``).  ``subnetwork`` lists original arc indices and
    is only present for the cost-first mode.
    """

    mode: str
    cost: Fraction
    horizon: int | None
    horizon_original: Fraction | None
    scale: int
    subnetwork: tuple[int, ...] | None
    schedule: temporal.FlowOverTime | None
    transport_optimum: Fraction | None
    checks: dict[str, bool] = field(default_factory=dict)
    timing: dict[str, float] = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


@dataclass
class AlgorithmRun:
    """All intermediates of the cost-first pipeline, for verification."""

    network: Network
    scaled: Network
    scale: int
    pair_costs: dict[tuple[NodeId, NodeId], Fraction]
    instance: transport.TransportationInstance
    solution: transport.TransportSolution
    actives: frozenset[tuple[NodeId, NodeId]]
    subnetwork: admissible.Subnetwork
    arc_map: tuple[int, ...]
    restricted: Network
    quickest: temporal.QuickestResult
    schedule: temporal.FlowOverTime


def validate_or_raise(network: Network) -> None:
    report = validate(network)
    if not report.ok:
        details = "; ".join(v.detail for v in report.violations)
        raise ValidationError(f"invalid network: {details}", report.violations)


def scale_transits(network: Network) -> tuple[Network, int]:
    """Multiply all transit times by the least factor making them integers."""
    scale = common_denominator([a.transit for a in network.arcs])
    if scale == 1:
        return network, 1
    arcs = tuple(
        Arc(a.tail, a.head, a.capacity, a.transit * scale, a.cost) for a in network.arcs
    )
    return Network(network.nodes, arcs, dict(network.balances)), scale


def _remap_schedule(
    schedule: temporal.FlowOverTime, arc_map: tuple[int, ...]
) -> temporal.FlowOverTime:
    entries = tuple(
        temporal.ArcIntervals(arc_map[e.arc], e.intervals) for e in schedule.arc_flows
    )
    return temporal.FlowOverTime(schedule.horizon, entries)


def _trivial_report(mode: str, scale: int) -> SolveReport:
    """Report for the null instance (no supplies at all)."""
    mincost = mode == MODE_QUICKEST_MINCOST
    if mincost:
        checks = {
            "schedule_valid": True,
            "cost_equals_transport_optimum": True,
            "routing_admissible": True,
        }
    elif mode == MODE_MINCOST_STATIC:
        checks = {"transport_certified": True}
    else:
        checks = {"schedule_valid": True}
    return SolveReport(
        mode=mode,
        cost=Fraction(0),
        horizon=0,
        horizon_original=Fraction(0),
        scale=scale,
        subnetwork=() if mincost else None,
        schedule=temporal.FlowOverTime(0, ()),
        transport_optimum=Fraction(0) if mincost or mode == MODE_MINCOST_STATIC else None,
        checks=checks,
    )


def run_quickest_mincost(network: Network, max_layers: int | None = None) -> AlgorithmRun:
    """Execute the four-stage reduction and return all intermediates.

    The network must be valid and must have at least one source.
    Raises :class:`InfeasibleError` when the supplies cannot be routed.
    """
    scaled, scale = scale_transits(network)
    costs = cheapest.pair_costs(scaled)
    instance = transport.build(scaled, costs)
    solution = transport.solve(instance)
    actives = transport.active_pairs(instance, solution.dual)
    extended = admissible.extend(scaled, solution.dual)
    subnetwork = admissible.admissible_arcs(extended)
    arc_map = tuple(sorted(subnetwork.arc_indices))
    restricted = scaled.with_arcs(arc_map)
    quickest = temporal.quickest_transshipment(restricted, max_layers=max_layers)
    schedule = _remap_schedule(quickest.schedule, arc_map)
    return AlgorithmRun(
        network=network,
        scaled=scaled,
        scale=scale,
        pair_costs=costs,
        instance=instance,
        solution=solution,
        actives=actives,
        subnetwork=subnetwork,
        arc_map=arc_map,
        restricted=restricted,
        quickest=quickest,
        schedule=schedule,
    )


def routed_paths(run: AlgorithmRun) -> tuple[list[tuple[NodeId, NodeId, Fraction, Fraction]], bool]:
    """Project the witness onto terminal pairs: (source, sink, amount, path cost).

    The boolean is False if the witness contains a nonzero-cost cycle,
    which would invalidate the projection's cost accounting.  The
    witness's integer flows are decomposed as they are; only the routed
    amounts are unscaled.
    """
    witness = run.quickest.witness
    graph = witness.graph
    paths, cycles = staticflow.decompose(graph, staticflow.StaticFlow(witness.flows))
    n = len(run.restricted.nodes)
    movement = graph.movement

    def cost(arc_seq: tuple[int, ...]) -> Fraction:
        legs = (movement[e][0] for e in arc_seq if e < len(movement))
        return sum((run.restricted.arcs[i].cost for i in legs), Fraction(0))

    routes = []
    for arc_seq, amount in paths:
        source = run.restricted.nodes[graph.heads[arc_seq[0]] % n]
        sink = run.restricted.nodes[graph.tails[arc_seq[-1]] % n]
        routes.append((source, sink, Fraction(amount, graph.cap_scale), cost(arc_seq)))
    clean = all(cost(arc_seq) == 0 for arc_seq, _amount in cycles)
    return routes, clean


def check_admissible_routing(run: AlgorithmRun) -> bool:
    """Every routed path joins an active pair at its cheapest-path cost."""
    routes, clean = routed_paths(run)
    if not clean:
        return False
    for source, sink, _amount, cost in routes:
        if (source, sink) not in run.actives:
            return False
        if cost != run.pair_costs[(source, sink)]:
            return False
    return True


def solve_quickest_mincost(network: Network, max_layers: int | None = None) -> SolveReport:
    """Minimum-cost transshipment over time with the least possible horizon."""
    started = time.perf_counter()
    validate_or_raise(network)
    if network.total_supply == 0:
        return _trivial_report(MODE_QUICKEST_MINCOST, scale_transits(network)[1])
    run = run_quickest_mincost(network, max_layers)
    solved = time.perf_counter()
    verification = temporal.verify_schedule(run.scaled, run.schedule)
    checks = {
        "schedule_valid": verification.ok,
        "cost_equals_transport_optimum": verification.cost == run.solution.optimum,
        "routing_admissible": check_admissible_routing(run),
    }
    done = time.perf_counter()
    return SolveReport(
        mode=MODE_QUICKEST_MINCOST,
        cost=verification.cost,
        horizon=run.quickest.horizon,
        horizon_original=Fraction(run.quickest.horizon, run.scale),
        scale=run.scale,
        subnetwork=run.arc_map,
        schedule=run.schedule,
        transport_optimum=run.solution.optimum,
        checks=checks,
        timing={"solve": solved - started, "verify": done - solved},
    )


def solve_quickest(network: Network, max_layers: int | None = None) -> SolveReport:
    """Quickest transshipment ignoring costs; reports the realized cost."""
    started = time.perf_counter()
    validate_or_raise(network)
    scaled, scale = scale_transits(network)
    if network.total_supply == 0:
        return _trivial_report(MODE_QUICKEST, scale)
    quickest = temporal.quickest_transshipment(scaled, max_layers=max_layers)
    solved = time.perf_counter()
    verification = temporal.verify_schedule(scaled, quickest.schedule)
    done = time.perf_counter()
    return SolveReport(
        mode=MODE_QUICKEST,
        cost=verification.cost,
        horizon=quickest.horizon,
        horizon_original=Fraction(quickest.horizon, scale),
        scale=scale,
        subnetwork=None,
        schedule=quickest.schedule,
        transport_optimum=None,
        checks={"schedule_valid": verification.ok},
        timing={"solve": solved - started, "verify": done - solved},
    )


def solve_mincost_static(network: Network) -> SolveReport:
    """Transportation stage only: the minimum cost over all horizons."""
    started = time.perf_counter()
    validate_or_raise(network)
    if network.total_supply == 0:
        report = _trivial_report(MODE_MINCOST_STATIC, 1)
        report.horizon = None
        report.horizon_original = None
        report.schedule = None
        report.transport_optimum = Fraction(0)
        return report
    costs = cheapest.pair_costs(network)
    instance = transport.build(network, costs)
    solution = transport.solve(instance)
    done = time.perf_counter()
    return SolveReport(
        mode=MODE_MINCOST_STATIC,
        cost=solution.optimum,
        horizon=None,
        horizon_original=None,
        scale=1,
        subnetwork=None,
        schedule=None,
        transport_optimum=solution.optimum,
        checks={"transport_certified": True},
        timing={"solve": done - started},
    )


def oracle_quickest_mincost(
    network: Network,
    max_nodes: int = 10,
    max_layers: int | None = None,
) -> tuple[Fraction, int]:
    """Brute-force (cost, horizon) via time expansions only.

    Computes the stabilized minimum cost at a provably sufficient
    horizon, then linearly scans horizons from zero for the first one
    that achieves it.  Deliberately ignores the transportation-dual
    machinery so it can serve as an independent cross-check; guarded by
    ``max_nodes`` because the scan is pseudo-polynomial.
    """
    if len(network.nodes) > max_nodes:
        raise HorizonLimitError(
            f"oracle size guard: {len(network.nodes)} nodes exceeds limit {max_nodes}",
            requested=len(network.nodes),
            limit=max_nodes,
        )
    validate_or_raise(network)
    scaled, _scale = scale_transits(network)
    if scaled.total_supply == 0:
        return Fraction(0), 0
    bound = temporal.horizon_upper_bound(scaled)
    stabilized = temporal.mincost_over_time(scaled, bound, max_layers=max_layers)
    for horizon in range(bound + 1):
        try:
            probe = temporal.mincost_over_time(scaled, horizon, max_layers=max_layers)
        except InfeasibleError:
            continue
        if probe.cost == stabilized.cost:
            return stabilized.cost, horizon
    raise AssertionError("unreachable: stabilized horizon must satisfy its own cost")
