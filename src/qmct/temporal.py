"""Flows over time on unit-step time-expanded networks.

The expansion for an integer horizon ``T`` has one layer per unit
interval ``[q, q+1)``, ``q = 0..T-1``.  A copy of arc ``a`` at layer
``q`` carries the amount entering ``a`` during that interval (so its
capacity is the arc's rate bound) and delivers it during
``[q + transit, q + transit + 1)``; the copy exists only when
``q + transit <= T - 1`` so that everything has arrived by ``T``.
Holdover arcs let flow wait at any node free of charge.  Supplies are
injected on layer 0 and demands drained from the last layer, both via
super terminals, which makes feasibility at horizon ``T`` a max-flow
question and minimum cost over time a min-cost-flow question on the
expansion.

Transit times must already be integers here; the pipeline scales
rational transit times to integers before calling in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import _kernel
from .errors import HorizonLimitError, InfeasibleError
from .network import Network, NodeId
from .rationals import as_rational, common_denominator


@dataclass(frozen=True)
class TimeExpandedGraph:
    """Static expansion of a network over an integer horizon.

    Node copy ``(v, layer)`` has index ``layer * n + v``; the super
    source and super sink occupy the last two indices.  Arc order is
    movement copies first (aligned with ``movement``), then holdover
    arcs, then terminal wiring.  Capacities and costs are stored scaled
    to integers; ``cap_scale``/``cost_scale`` restore rationals.
    """

    network: Network
    horizon: int
    num_nodes: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    capacities: tuple[int | None, ...]
    costs: tuple[int, ...]
    movement: tuple[tuple[int, int], ...]
    holdover_start: int
    wiring_start: int
    super_source: int
    super_sink: int
    cap_scale: int
    cost_scale: int
    total_supply_scaled: int

    @property
    def num_arcs(self) -> int:
        return len(self.tails)

    def copy_index(self, node: NodeId, layer: int) -> int:
        return layer * len(self.network.nodes) + self.network.node_index(node)


@dataclass(frozen=True)
class ArcIntervals:
    """Inflow-rate steps for one arc: (start, end, rate), end exclusive."""

    arc: int
    intervals: tuple[tuple[int, int, Fraction], ...]


@dataclass(frozen=True)
class FlowOverTime:
    """Piecewise-constant inflow rates per arc over integer unit steps."""

    horizon: int
    arc_flows: tuple[ArcIntervals, ...]

    def cost(self, network: Network) -> Fraction:
        total = Fraction(0)
        for entry in self.arc_flows:
            amount = sum((Fraction(e - s) * r for s, e, r in entry.intervals), Fraction(0))
            total += network.arcs[entry.arc].cost * amount
        return total


@dataclass(frozen=True)
class ExpansionWitness:
    """A static flow on an expansion, kept for downstream verification.

    ``flows`` are the kernel's integer flows in the expansion's arc
    order, scaled like its capacities: arc ``i`` carries
    ``flows[i] / graph.cap_scale``.
    """

    graph: TimeExpandedGraph
    flows: tuple[int, ...]


@dataclass(frozen=True)
class QuickestResult:
    horizon: int
    schedule: FlowOverTime
    witness: ExpansionWitness


@dataclass(frozen=True)
class MincostOverTimeResult:
    cost: Fraction
    schedule: FlowOverTime
    witness: ExpansionWitness


@dataclass(frozen=True)
class ScheduleVerification:
    violations: tuple[str, ...]
    cost: Fraction

    @property
    def ok(self) -> bool:
        return not self.violations


def _resolve_balances(
    network: Network, balances: Mapping[NodeId, object] | None
) -> dict[NodeId, Fraction]:
    if balances is None:
        return dict(network.balances)
    full = {v: Fraction(0) for v in network.nodes}
    for v, b in balances.items():
        full[v] = as_rational(b)
    return full


def _integer_transits(network: Network) -> list[int]:
    transits = []
    for i, arc in enumerate(network.arcs):
        if arc.transit.denominator != 1:
            raise ValueError(
                f"arc {i} has non-integer transit {arc.transit}; "
                "scale transit times before time expansion"
            )
        transits.append(int(arc.transit))
    return transits


def expand(
    network: Network,
    horizon: int,
    balances: Mapping[NodeId, object] | None = None,
    max_layers: int | None = None,
) -> TimeExpandedGraph:
    """Build the time expansion for an integer horizon.

    Raises :class:`HorizonLimitError` when the layer count would exceed
    ``max_layers``.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if max_layers is not None and horizon > max_layers:
        raise HorizonLimitError(
            f"expansion with {horizon} layers exceeds the limit of {max_layers}",
            requested=horizon,
            limit=max_layers,
        )
    transits = _integer_transits(network)
    bal = _resolve_balances(network, balances)
    n = len(network.nodes)
    cap_scale = common_denominator(
        [a.capacity for a in network.arcs] + list(bal.values())
    )
    cost_scale = common_denominator([a.cost for a in network.arcs])
    caps_int = [int(a.capacity * cap_scale) for a in network.arcs]
    costs_int = [int(a.cost * cost_scale) for a in network.arcs]
    arc_tails = [network.node_index(a.tail) for a in network.arcs]
    arc_heads = [network.node_index(a.head) for a in network.arcs]

    tails: list[int] = []
    heads: list[int] = []
    caps: list[int | None] = []
    costs: list[int] = []
    movement: list[tuple[int, int]] = []

    last_layer = horizon - 1
    for layer in range(horizon):
        offset = layer * n
        for i in range(len(network.arcs)):
            arrival = layer + transits[i]
            if arrival <= last_layer:
                tails.append(offset + arc_tails[i])
                heads.append(arrival * n + arc_heads[i])
                caps.append(caps_int[i])
                costs.append(costs_int[i])
                movement.append((i, layer))
    holdover_start = len(tails)
    for layer in range(horizon - 1):
        offset = layer * n
        for v in range(n):
            tails.append(offset + v)
            heads.append(offset + n + v)
            caps.append(None)
            costs.append(0)

    super_source = n * horizon
    super_sink = super_source + 1
    wiring_start = len(tails)
    total_scaled = 0
    for v in network.nodes:
        b = bal[v]
        if b > 0 and horizon > 0:
            tails.append(super_source)
            heads.append(network.node_index(v))
            caps.append(int(b * cap_scale))
            costs.append(0)
            total_scaled += int(b * cap_scale)
        elif b < 0 and horizon > 0:
            tails.append(last_layer * n + network.node_index(v))
            heads.append(super_sink)
            caps.append(int(-b * cap_scale))
            costs.append(0)
    if horizon == 0:
        total_scaled = sum(int(b * cap_scale) for b in bal.values() if b > 0)

    return TimeExpandedGraph(
        network=network,
        horizon=horizon,
        num_nodes=super_sink + 1,
        tails=tuple(tails),
        heads=tuple(heads),
        capacities=tuple(caps),
        costs=tuple(costs),
        movement=tuple(movement),
        holdover_start=holdover_start,
        wiring_start=wiring_start,
        super_source=super_source,
        super_sink=super_sink,
        cap_scale=cap_scale,
        cost_scale=cost_scale,
        total_supply_scaled=total_scaled,
    )


def _schedule_from_movement(
    graph: TimeExpandedGraph, movement_flows: Sequence[int]
) -> FlowOverTime:
    per_arc: dict[int, dict[int, Fraction]] = {}
    for (arc, layer), raw in zip(graph.movement, movement_flows):
        if raw:
            per_arc.setdefault(arc, {})[layer] = Fraction(raw, graph.cap_scale)
    entries = []
    for arc in sorted(per_arc):
        rates = per_arc[arc]
        intervals: list[tuple[int, int, Fraction]] = []
        for layer in sorted(rates):
            rate = rates[layer]
            if intervals and intervals[-1][1] == layer and intervals[-1][2] == rate:
                start, _, _ = intervals[-1]
                intervals[-1] = (start, layer + 1, rate)
            else:
                intervals.append((layer, layer + 1, rate))
        entries.append(ArcIntervals(arc, tuple(intervals)))
    return FlowOverTime(graph.horizon, tuple(entries))


def _solve_max(graph: TimeExpandedGraph) -> tuple[int, tuple[int, ...], set[int]]:
    g = _kernel.build(graph.num_nodes, graph.tails, graph.heads, graph.capacities)
    value, reachable = _kernel.max_flow(g, graph.super_source, graph.super_sink)
    flows = tuple(g.flow(2 * i) for i in range(graph.num_arcs))
    return value, flows, reachable


def feasible(
    network: Network,
    horizon: int,
    balances: Mapping[NodeId, object] | None = None,
    max_layers: int | None = None,
) -> bool:
    """True when all supplies can reach their demands within the horizon."""
    return feasibility_witness(network, horizon, balances, max_layers)[0]


def feasibility_witness(
    network: Network,
    horizon: int,
    balances: Mapping[NodeId, object] | None = None,
    max_layers: int | None = None,
) -> tuple[bool, ExpansionWitness]:
    """Feasibility plus the max-flow witness on the expansion.

    When infeasible the witness carries the best partial routing found.
    """
    graph = expand(network, horizon, balances, max_layers)
    if graph.total_supply_scaled == 0 or horizon == 0:
        empty = ExpansionWitness(graph, (0,) * graph.num_arcs)
        return graph.total_supply_scaled == 0, empty
    value, flows, _ = _solve_max(graph)
    return value == graph.total_supply_scaled, ExpansionWitness(graph, flows)


def _horizon_lower_bound(network: Network, bal: dict[NodeId, Fraction]) -> int:
    """Smallest horizon not obviously impossible by transit distance.

    Every supplied source must reach some demanded sink (and vice versa);
    a positive amount needs strictly more time than the best transit, so
    the bound is one plus the largest of these per-terminal minima.
    Raises :class:`InfeasibleError` when some terminal is cut off.
    """
    sources = [v for v in network.nodes if bal[v] > 0]
    sinks = [v for v in network.nodes if bal[v] < 0]
    idx = network.node_index
    transits = _integer_transits(network)
    arcs = ((idx(a.tail), idx(a.head), tau) for a, tau in zip(network.arcs, transits))
    g = _kernel.arc_graph(len(network.nodes), arcs)
    best = 0
    sink_best: dict[NodeId, int] = {}
    for s in sources:
        dist = _kernel.labels(g, idx(s))
        reachable = [dist[idx(t)] for t in sinks if dist[idx(t)] is not None]
        if not reachable:
            raise InfeasibleError(
                f"supply at {s!r} cannot reach any sink",
                certificate={"isolated": s, "side": "source"},
            )
        best = max(best, min(reachable))
        for t in sinks:
            d = dist[idx(t)]
            if d is not None and (t not in sink_best or d < sink_best[t]):
                sink_best[t] = d
    for t in sinks:
        if t not in sink_best:
            raise InfeasibleError(
                f"demand at {t!r} cannot be reached by any source",
                certificate={"isolated": t, "side": "sink"},
            )
        best = max(best, sink_best[t])
    return best + 1


def horizon_upper_bound(
    network: Network, balances: Mapping[NodeId, object] | None = None
) -> int:
    """A horizon provably large enough for any routable balance vector.

    Routes every usable source-sink pair one after another along a
    single path: the ceiling of total supply over the smallest arc
    capacity, plus the worst-case transit of one simple path per pair.
    """
    bal = _resolve_balances(network, balances)
    total = sum((b for b in bal.values() if b > 0), Fraction(0))
    if total == 0:
        return 0
    if not network.arcs:
        return 0
    transits = _integer_transits(network)
    u_min = min(a.capacity for a in network.arcs)
    tau_max = max(transits)
    idx = network.node_index
    n = len(network.nodes)
    g = _kernel.arc_graph(n, ((idx(a.tail), idx(a.head), 0) for a in network.arcs))
    pair_count = 0
    sinks = [v for v in network.nodes if bal[v] < 0]
    for s in network.nodes:
        if bal[s] > 0:
            dist = _kernel.labels(g, idx(s))
            pair_count += sum(1 for t in sinks if dist[idx(t)] is not None)
    return math.ceil(total / u_min) + pair_count * (n - 1) * tau_max


def quickest_transshipment(
    network: Network,
    balances: Mapping[NodeId, object] | None = None,
    max_layers: int | None = None,
) -> QuickestResult:
    """Smallest integer horizon admitting a full transshipment.

    Gallops the horizon upwards from a transit-based lower bound, then
    binary-searches the feasibility threshold; both phases use exact
    max-flow probes on the expansion.  Raises :class:`InfeasibleError`
    (with a cut certificate) when no horizon works.
    """
    bal = _resolve_balances(network, balances)
    _integer_transits(network)
    total = sum((b for b in bal.values() if b > 0), Fraction(0))
    if total == 0:
        graph = expand(network, 0, bal, max_layers)
        empty = ExpansionWitness(graph, (0,) * graph.num_arcs)
        return QuickestResult(0, FlowOverTime(0, ()), empty)

    t_lb = _horizon_lower_bound(network, bal)
    t_ub = max(horizon_upper_bound(network, bal), t_lb)

    # Only two probe results outlive their probe: the flows of the
    # smallest feasible horizon so far (``hi`` only ever decreases), and
    # the residual-reachable set of the last infeasible probe, which is
    # the cut certificate when the search runs out of horizons.
    feasible_probe: tuple[TimeExpandedGraph, tuple[int, ...]] | None = None
    cut: tuple[int, set[int]] = (0, set())

    def probe(horizon: int) -> bool:
        nonlocal feasible_probe, cut
        graph = expand(network, horizon, bal, max_layers)
        value, flows, reachable = _solve_max(graph)
        if value == graph.total_supply_scaled:
            feasible_probe = (graph, flows)
            return True
        cut = (graph.super_source, reachable)
        return False

    lo = t_lb - 1
    hi = None
    horizon = t_lb
    while True:
        if probe(horizon):
            hi = horizon
            break
        lo = horizon
        if horizon >= t_ub:
            super_source, reachable = cut
            stranded = sorted(
                {v % len(network.nodes) for v in reachable if v < super_source}
            )
            raise InfeasibleError(
                "no horizon admits a transshipment: supplies are cut off from demands",
                certificate={
                    "horizon_tried": horizon,
                    "cut_nodes": [network.nodes[v] for v in stranded],
                },
            )
        horizon = min(horizon * 2, t_ub)

    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid

    assert feasible_probe is not None
    graph, flows = feasible_probe
    movement_flows = flows[: len(graph.movement)]
    schedule = _schedule_from_movement(graph, movement_flows)
    return QuickestResult(hi, schedule, ExpansionWitness(graph, flows))


def mincost_over_time(
    network: Network,
    horizon: int,
    balances: Mapping[NodeId, object] | None = None,
    max_layers: int | None = None,
) -> MincostOverTimeResult:
    """Minimum-cost transshipment within a fixed integer horizon."""
    graph = expand(network, horizon, balances, max_layers)
    if graph.total_supply_scaled == 0:
        empty = ExpansionWitness(graph, (0,) * graph.num_arcs)
        return MincostOverTimeResult(Fraction(0), FlowOverTime(horizon, ()), empty)
    if horizon == 0:
        raise InfeasibleError(
            "positive supply cannot move within a zero horizon",
            certificate={"horizon": 0},
        )
    g = _kernel.build(graph.num_nodes, graph.tails, graph.heads, graph.capacities, graph.costs)
    routed, _, reachable = _kernel.min_cost_flow(
        g, graph.super_source, graph.super_sink, graph.total_supply_scaled
    )
    if routed < graph.total_supply_scaled:
        deficit = Fraction(graph.total_supply_scaled - routed, graph.cap_scale)
        raise InfeasibleError(
            f"horizon {horizon} too small: {deficit} units cannot arrive in time",
            certificate={"horizon": horizon, "deficit": deficit},
        )
    flows = tuple(g.flow(2 * i) for i in range(graph.num_arcs))
    schedule = _schedule_from_movement(graph, flows[: len(graph.movement)])
    # Only movement copies have nonzero cost.
    cost = Fraction(
        sum(c * f for c, f in zip(graph.costs, flows)), graph.cap_scale * graph.cost_scale
    )
    return MincostOverTimeResult(cost, schedule, ExpansionWitness(graph, flows))


def _replay(
    network: Network,
    schedule: FlowOverTime,
    balances: Mapping[NodeId, object] | None,
) -> tuple[list[str], Fraction, dict[NodeId, list[Fraction]]]:
    """Simulate a schedule unit step by unit step.

    Returns every violation, the exact cost, and the amount held at each
    node at integer times 0..horizon.  Entries naming an unknown arc, a
    negative rate or an empty interval are reported and left out.
    """
    bal = _resolve_balances(network, balances)
    transits = _integer_transits(network)
    horizon = schedule.horizon
    violations: list[str] = []
    # Per-arc inflow rate at each unit step, accumulated over intervals.
    rates: dict[int, dict[int, Fraction]] = {}
    cost = Fraction(0)
    for entry in schedule.arc_flows:
        if not 0 <= entry.arc < len(network.arcs):
            violations.append(f"schedule references unknown arc {entry.arc}")
            continue
        arc = network.arcs[entry.arc]
        latest = horizon - transits[entry.arc]
        steps = rates.setdefault(entry.arc, {})
        for start, end, rate in entry.intervals:
            if rate < 0:
                violations.append(f"arc {entry.arc}: negative rate {rate}")
                continue
            if start < 0 or end <= start:
                violations.append(f"arc {entry.arc}: bad interval [{start},{end})")
                continue
            if end > latest:
                violations.append(
                    f"arc {entry.arc}: inflow during [{start},{end}) cannot arrive "
                    f"by horizon {horizon}"
                )
            for step in range(start, min(end, horizon)):
                steps[step] = steps.get(step, Fraction(0)) + rate
            cost += arc.cost * rate * (end - start)
    for arc_index, steps in rates.items():
        u = network.arcs[arc_index].capacity
        for step, rate in steps.items():
            if rate > u:
                violations.append(
                    f"arc {arc_index}: rate {rate} exceeds capacity {u} "
                    f"during [{step},{step + 1})"
                )

    held = {v: max(bal[v], Fraction(0)) for v in network.nodes}
    trace = {v: [held[v]] for v in network.nodes}
    for step in range(horizon):
        delta: dict[NodeId, Fraction] = {}
        for arc_index, steps in rates.items():
            arc = network.arcs[arc_index]
            out_rate = steps.get(step)
            if out_rate:
                delta[arc.tail] = delta.get(arc.tail, Fraction(0)) - out_rate
            entered = step - transits[arc_index]
            if entered >= 0:
                in_rate = steps.get(entered)
                if in_rate:
                    delta[arc.head] = delta.get(arc.head, Fraction(0)) + in_rate
        for v, d in delta.items():
            held[v] += d
            if held[v] < 0:
                violations.append(
                    f"node {v!r}: flow deficit {held[v]} during [{step},{step + 1})"
                )
        for v, values in trace.items():
            values.append(held[v])
    for v in network.nodes:
        expected = -bal[v] if bal[v] < 0 else Fraction(0)
        if held[v] != expected:
            violations.append(
                f"node {v!r}: {held[v]} units remain at horizon, expected {expected}"
            )
    return violations, cost, trace


def verify_schedule(
    network: Network,
    schedule: FlowOverTime,
    balances: Mapping[NodeId, object] | None = None,
) -> ScheduleVerification:
    """Check a schedule against capacities, conservation and balances.

    Returns a report listing every violation (never raises) along with
    the exact recomputed cost.
    """
    violations, cost, _ = _replay(network, schedule, balances)
    return ScheduleVerification(tuple(violations), cost)


def storage_trace(
    network: Network,
    schedule: FlowOverTime,
    balances: Mapping[NodeId, object] | None = None,
) -> dict[NodeId, tuple[Fraction, ...]]:
    """Amount held at each node at integer times 0..horizon.

    Schedule entries that :func:`verify_schedule` rejects (unknown arcs,
    negative rates, empty intervals) are left out.
    """
    _, _, trace = _replay(network, schedule, balances)
    return {v: tuple(values) for v, values in trace.items()}
