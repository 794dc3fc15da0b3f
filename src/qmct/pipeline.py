"""End-to-end solvers and the brute-force verification oracle.

The main entry point chains the four stages: pairwise cheapest-path
costs, the static transportation solve with its optimal dual, the
admissible subnetwork carved by that dual, and a quickest-transshipment
search restricted to the subnetwork.  Every report carries the outcome
of the built-in verification checks: schedule validity, cost agreement
with the transportation optimum, and admissibility of the routed paths,
certified by complementary slackness on the arcs the schedule uses.

The oracle answers the same question by brute force.  Its target is the
static optimum, from one min-cost flow on the network with capacities
ignored; it then grows one time expansion a layer at a time for the
first horizon whose minimum cost over time reaches that target, with
max flows up to the first feasible horizon and min-cost flows from
there.  It builds its own expansion and shares only the flow kernels
with the main path, which makes it a meaningful cross-check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import _kernel, admissible, cheapest, temporal, transport
from .errors import HorizonLimitError, InternalCheckError, ValidationError
from .network import Network, NodeId, validate

MODE_QUICKEST_MINCOST = "quickest-mincost"
MODE_QUICKEST = "quickest"
MODE_MINCOST_STATIC = "mincost-static"
MODE_ORACLE = "oracle"


@dataclass
class SolveReport:
    """Solver output plus self-verification flags and timings.

    ``horizon`` counts steps of ``1/scale`` of the input's time unit,
    ``scale`` being the network's ``time_scale`` (the lcm of its transits'
    denominators); ``horizon_original`` is ``horizon / scale``, in the
    input's unit.  ``subnetwork`` lists original arc indices and is only
    present for the cost-first mode.
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
    """All intermediates of the cost-first pipeline, for verification;
    pair costs, dual and labels are integers at the network's ``cost_scale``."""

    network: Network
    pair_costs: dict[tuple[NodeId, NodeId], int]
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


def _remap_schedule(
    schedule: temporal.FlowOverTime, arc_map: tuple[int, ...]
) -> temporal.FlowOverTime:
    entries = tuple(
        temporal.ArcIntervals(arc_map[e.arc], e.intervals) for e in schedule.arc_flows
    )
    return temporal.FlowOverTime(schedule.horizon, entries)


def run_quickest_mincost(network: Network, max_layers: int | None = None) -> AlgorithmRun:
    """Execute the four-stage reduction and return all intermediates.

    The network must be valid and must have at least one source.
    Raises :class:`InfeasibleError` when the supplies cannot be routed.
    """
    costs = cheapest.pair_costs(network)
    instance = transport.build(network, costs)
    solution = transport.solve(instance)
    actives = transport.active_pairs(instance, solution.dual)
    extended = admissible.extend(network, solution.dual)
    subnetwork = admissible.admissible_arcs(extended)
    arc_map = tuple(sorted(subnetwork.arc_indices))
    restricted = network.with_arcs(arc_map)
    quickest = temporal.quickest_transshipment(restricted, max_layers=max_layers)
    schedule = _remap_schedule(quickest.schedule, arc_map)
    return AlgorithmRun(
        network=network,
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


def check_admissible_routing(run: AlgorithmRun) -> bool:
    """Every routed path joins an active pair at its cheapest-path cost.

    Certified by complementary slackness on the reported schedule.  Let
    y be the transportation dual and π the labels that cut out the
    admissible subnetwork: cheapest costs from the super source S of the
    extended network, where S's arc into source s costs −y_s and sink
    t's arc into the super sink T costs y_t, so that π[T] = 0.  The
    check holds iff

    (i)  π[s] = −y_s for every source and π[t] = −y_t for every sink;
    (ii) π[tail] + cost = π[head] for every arc the schedule uses.

    This is the same verdict as decomposing the schedule into paths and
    cycles and testing each one.  Under (i) and (ii), any walk from s to
    t over scheduled arcs costs π[t] − π[s] = y_s − y_t.  That is at
    most d(s,t) by dual feasibility and at least d(s,t) because no walk
    is cheaper than a cheapest path; so the pair is tight, hence active,
    and the walk is cheapest.  Any cycle telescopes to cost 0.
    Conversely, let P be an admissible path from s to t, so that
    c(P) = d(s,t) = y_s − y_t.  Its reduced costs π[tail] + cost − π[head]
    sum to c(P) + π[s] − π[t] ≤ c(P) − y_s + y_t = 0, because
    π[s] ≤ −y_s by S's arc into s and π[t] ≥ π[T] − y_t = −y_t by t's
    arc into T.  Every reduced cost is ≥ 0, since π are cheapest-path
    labels, so each one is 0 and both inequalities hold with equality.
    Zero-cost cycles give the same result.  Every scheduled arc lies on
    some routed path or cycle, and every source and sink ends a routed
    path because all supplies are routed, so (i) and (ii) follow.  Both
    compare integers at the network's ``cost_scale``.
    """
    network = run.network
    index, form = network.node_index, network.integral
    labels = run.subnetwork.labels
    dual = run.solution.dual
    for v in (*network.sources, *network.sinks):
        if labels[index(v)] != -dual[v]:
            return False
    for entry in run.schedule.arc_flows:
        a = entry.arc
        tail, head = labels[form.tails[a]], labels[form.heads[a]]
        if tail is None or head is None or tail + form.costs[a] != head:
            return False
    return True


def solve_quickest_mincost(network: Network, max_layers: int | None = None) -> SolveReport:
    """Minimum-cost transshipment over time with the least possible horizon."""
    started = time.perf_counter()
    validate_or_raise(network)
    scale = network.integral.time_scale
    run = run_quickest_mincost(network, max_layers)
    solved = time.perf_counter()
    verification = temporal.verify_schedule(network, run.schedule)
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
        horizon_original=Fraction(run.quickest.horizon, scale),
        scale=scale,
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
    scale = network.integral.time_scale
    quickest = temporal.quickest_transshipment(network, max_layers=max_layers)
    solved = time.perf_counter()
    verification = temporal.verify_schedule(network, quickest.schedule)
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


def _static_optimum(network: Network) -> Fraction:
    """Minimum cost of a static transshipment with arc capacities ignored.

    One min-cost flow on the integer form from super source ``n``, with
    an arc of capacity b into each source, to super sink ``n + 1``, with
    an arc of capacity −b out of each sink.  When it routes r short of
    the total supply, raises the :class:`InfeasibleError` of the
    expansion at :func:`temporal.horizon_upper_bound`, whose max flow is
    r (proof in :func:`oracle_quickest_mincost`).
    """
    form = network.integral
    n = len(network.nodes)
    sources, sinks = form.sources, form.sinks
    g = _kernel.build(
        n + 2,
        [*form.tails, *[n] * len(sources), *sinks],
        [*form.heads, *sources, *[n + 1] * len(sinks)],
        [*[None] * len(form.tails), *(abs(form.balances[v]) for v in (*sources, *sinks))],
        [*form.costs, *[0] * (len(sources) + len(sinks))],
    )
    routed, cost, _, _ = _kernel.min_cost_flow(g, n, n + 1, form.supply)
    if routed < form.supply:
        deficit = Fraction(form.supply - routed, form.flow_scale)
        raise temporal._too_small(temporal.horizon_upper_bound(network), deficit)
    return Fraction(cost, form.flow_scale * form.cost_scale)


def oracle_quickest_mincost(
    network: Network,
    max_nodes: int = 10,
    max_layers: int | None = None,
) -> tuple[Fraction, int]:
    """Brute-force (cost, horizon) via time expansions only.

    The target is the static optimum: the least cost of a static
    transshipment with arc capacities ignored, from one min-cost flow.
    The horizon is the first one whose minimum cost over time reaches
    it.  That horizon is the answer:

    - No flow over time costs less than the target, because its
      projection onto the arcs is a static transshipment of the same
      cost.
    - The minimum cost over time never rises with the horizon: a flow
      feasible for T is feasible for T + 1 once it holds at the sinks.
    - It equals the target at :func:`temporal.horizon_upper_bound`,
      ⌈total/u_min⌉ + (n−1)·τ_max (proof in the bound's docstring).

    So the costs from the first feasible horizon on fall to the target
    and stay there, and the first horizon that reaches it is the least
    one at which the minimum cost is attained.

    The scan grows one time expansion a layer at a time from horizon 0.
    Up to the first feasible horizon each layer costs one max flow,
    which augments the flow left by the last one; from there each costs
    a min-cost flow from scratch on the same graph.  The bound caps the
    scan; passing it raises :class:`InternalCheckError`.

    When the static flow routes r short of the total supply, no horizon
    is feasible, and the :class:`InfeasibleError` names the bound and
    the deficit ``total − r`` without expanding: the expansion's max
    flow at the bound is exactly r.  It is at most r, because the
    projection of a flow over time is a static flow of the same value,
    capacities ignored, and r is the most such a flow routes.  It is at
    least r, because the bound's temporally repeated flow (see its
    docstring) sends the paths of a static flow of value r within the
    bound.

    Deliberately ignores the pair costs, transportation dual and
    admissible subnetwork, and builds its own expansion, sharing only
    the flow kernels with the main path, so it can serve as an
    independent cross-check.  For the same reason its expansion is the
    full one: it keeps the copies that :func:`temporal.expand` prunes
    as unusable, so it does not rest on that pruning's proof.  Guarded
    by ``max_nodes`` because the scan is pseudo-polynomial, and by
    ``max_layers`` on the expansion it grows, so the layer guard trips
    only when the scan passes it.
    """
    if len(network.nodes) > max_nodes:
        raise HorizonLimitError(
            f"oracle size guard: {len(network.nodes)} nodes exceeds limit {max_nodes}",
            requested=len(network.nodes),
            limit=max_nodes,
        )
    validate_or_raise(network)
    bound = temporal.horizon_upper_bound(network)
    target = _static_optimum(network)
    expansion = temporal._GrowingExpansion(network, max_layers)

    def grow() -> None:
        if expansion.horizon == bound:
            raise InternalCheckError(f"minimum cost over time is above {target} at horizon {bound}")
        expansion.grow()

    while expansion.routed < network.integral.supply:
        grow()
        expansion.max_flow()
    while expansion.min_cost() != target:
        grow()
    return target, expansion.horizon
