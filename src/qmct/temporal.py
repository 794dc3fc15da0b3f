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
expansion.  Results keep no expansion: a probe's flows live only until
its movement copies are read back into a :class:`FlowOverTime`.

Everything here reads :attr:`Network.integral`, computed once per
network however many horizons are expanded; other balances make another
network (:meth:`Network.with_balances`).  Transits must be integers
already: the pipeline scales rational transit times before calling in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _kernel
from .errors import HorizonLimitError, InfeasibleError
from .network import IntegerForm, Network, NodeId


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
class QuickestResult:
    horizon: int
    schedule: FlowOverTime


@dataclass(frozen=True)
class MincostOverTimeResult:
    cost: Fraction
    schedule: FlowOverTime


@dataclass(frozen=True)
class ScheduleVerification:
    violations: tuple[str, ...]
    cost: Fraction

    @property
    def ok(self) -> bool:
        return not self.violations


def _integer_form(network: Network) -> IntegerForm:
    """The network's integer form, whose transits must need no scaling."""
    form = network.integral
    if form.time_scale != 1:
        i, arc = next((i, a) for i, a in enumerate(network.arcs) if a.transit.denominator != 1)
        raise ValueError(
            f"arc {i} has non-integer transit {arc.transit}; "
            "scale transit times before time expansion"
        )
    return form


def expand(
    network: Network, horizon: int, max_layers: int | None = None
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
    form = _integer_form(network)
    transits, arc_tails = form.transits, form.tails
    caps_int, costs_int = form.capacities, form.costs
    n = len(network.nodes)
    # Head copy relative to the tail's layer: ``layer * n + head_shift[i]``.
    head_shift = [tau * n + v for tau, v in zip(transits, form.heads)]

    tails: list[int] = []
    heads: list[int] = []
    caps: list[int | None] = []
    costs: list[int] = []
    movement: list[tuple[int, int]] = []

    last_layer = horizon - 1
    arc_range = range(len(network.arcs))
    for layer in range(horizon):
        offset = layer * n
        slack = last_layer - layer
        live = [i for i in arc_range if transits[i] <= slack]
        tails.extend([offset + arc_tails[i] for i in live])
        heads.extend([offset + head_shift[i] for i in live])
        caps.extend([caps_int[i] for i in live])
        costs.extend([costs_int[i] for i in live])
        movement.extend([(i, layer) for i in live])
    holdover_start = len(tails)
    waits = max(horizon - 1, 0) * n
    tails.extend(range(waits))
    heads.extend(range(n, n + waits))
    caps.extend([None] * waits)
    costs.extend([0] * waits)

    super_source = n * horizon
    super_sink = super_source + 1
    wiring_start = len(tails)
    total_scaled = sum(b for b in form.balances if b > 0)
    if horizon > 0:
        for v, b in enumerate(form.balances):
            if b > 0:
                tails.append(super_source)
                heads.append(v)
                caps.append(b)
                costs.append(0)
            elif b < 0:
                tails.append(last_layer * n + v)
                heads.append(super_sink)
                caps.append(-b)
                costs.append(0)

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
        cap_scale=form.flow_scale,
        cost_scale=form.cost_scale,
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


def _solve_max(graph: TimeExpandedGraph) -> tuple[int, list[int], set[int]]:
    """Max-flow value, the movement copies' flows and the residual cut."""
    g = _kernel.build(graph.num_nodes, graph.tails, graph.heads, graph.capacities)
    value, reachable = _kernel.max_flow(g, graph.super_source, graph.super_sink)
    return value, g.rem[1 : 2 * len(graph.movement) : 2], reachable


def feasible(network: Network, horizon: int, max_layers: int | None = None) -> bool:
    """True when all supplies can reach their demands within the horizon."""
    graph = expand(network, horizon, max_layers)
    if graph.total_supply_scaled == 0 or horizon == 0:
        return graph.total_supply_scaled == 0
    return _solve_max(graph)[0] == graph.total_supply_scaled


def _horizon_lower_bound(network: Network) -> int:
    """Smallest horizon not obviously impossible by transit distance.

    Every supplied source must reach some demanded sink (and vice versa);
    a positive amount needs strictly more time than the best transit, so
    the bound is one plus the largest of these per-terminal minima.
    Raises :class:`InfeasibleError` when some terminal is cut off.
    """
    form = _integer_form(network)
    sources = network.sources
    sinks = network.sinks
    idx = network.node_index
    g = _kernel.arc_graph(len(network.nodes), zip(form.tails, form.heads, form.transits))
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


def horizon_upper_bound(network: Network) -> int:
    """``⌈total/u_min⌉ + (n−1)·τ_max``: feasible and cost-stabilising.

    ``total`` is the total supply, ``u_min`` the smallest arc capacity
    and ``τ_max`` the largest transit.  Whenever some static
    transshipment exists (arc capacities ignored, as in the
    transportation stage), this horizon admits a flow over time that
    routes everything at the static minimum cost:

    - Take a minimum-cost static transshipment and decompose it into
      paths and cycles.  Drop the cycles, which cost ≥ 0 as the network
      has no negative cycle, and shorten every path to a simple one by
      cutting out the cycles it repeats.  No cost rises and the balances
      are unchanged, so the paths p carry amounts a_p summing to
      ``total``.
    - Let T′ = ⌈total/u_min⌉ and send each path p at rate a_p/T′ during
      [0, T′), a temporally repeated flow (Ford & Fulkerson 1958).
    - A simple path enters each arc at most once, so at any step an arc
      carries at most Σ a_p/T′ = total/T′ ≤ u_min.
    - A simple path has at most n−1 arcs, so its transit is at most
      (n−1)·τ_max, and every unit has arrived by T′ + (n−1)·τ_max.

    The flow's cost is Σ a_p·cost(p), the static optimum, and no flow
    over time costs less because its projection onto the arcs is a
    static transshipment of the same cost.  So the minimum cost over time
    has stabilised at this horizon, which is what the oracle needs; and
    when no horizon up to it is feasible, no static transshipment exists
    and none ever will be, which is what the solver's infeasibility stop
    needs.
    """
    # ``total`` and ``u_min`` both carry ``flow_scale``: the ceiling is exact.
    form = network.integral
    total = sum(b for b in form.balances if b > 0)
    if total == 0 or not network.arcs:
        return 0
    tau_max = max(_integer_form(network).transits)
    return -(-total // min(form.capacities)) + (len(network.nodes) - 1) * tau_max


def quickest_transshipment(
    network: Network, max_layers: int | None = None
) -> QuickestResult:
    """Smallest integer horizon admitting a full transshipment.

    Gallops the horizon upwards from a transit-based lower bound, then
    binary-searches the feasibility threshold; both phases use exact
    max-flow probes on the expansion.  Raises :class:`InfeasibleError`
    (with a cut certificate) when no horizon works.
    """
    if not any(b > 0 for b in _integer_form(network).balances):
        return QuickestResult(0, FlowOverTime(0, ()))

    t_lb = _horizon_lower_bound(network)
    t_ub = max(horizon_upper_bound(network), t_lb)

    # Only two probe results outlive their probe: the movement flows of
    # the smallest feasible horizon so far (``hi`` only ever decreases),
    # and the residual-reachable set of the last infeasible probe, which
    # is the cut certificate when the search runs out of horizons.
    feasible_probe: tuple[TimeExpandedGraph, list[int]] | None = None
    cut: tuple[int, set[int]] = (0, set())

    def probe(horizon: int) -> bool:
        nonlocal feasible_probe, cut
        graph = expand(network, horizon, max_layers)
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
    return QuickestResult(hi, _schedule_from_movement(*feasible_probe))


def mincost_over_time(
    network: Network, horizon: int, max_layers: int | None = None
) -> MincostOverTimeResult:
    """Minimum-cost transshipment within a fixed integer horizon."""
    graph = expand(network, horizon, max_layers)
    if graph.total_supply_scaled == 0:
        return MincostOverTimeResult(Fraction(0), FlowOverTime(horizon, ()))
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
    movement_flows = g.rem[1 : 2 * len(graph.movement) : 2]
    schedule = _schedule_from_movement(graph, movement_flows)
    # Only movement copies have nonzero cost; zip stops after them.
    cost = Fraction(
        sum(c * f for c, f in zip(graph.costs, movement_flows)),
        graph.cap_scale * graph.cost_scale,
    )
    return MincostOverTimeResult(cost, schedule)


def _replay(
    network: Network, schedule: FlowOverTime
) -> tuple[list[str], Fraction, dict[NodeId, list[Fraction]]]:
    """Simulate a schedule unit step by unit step.

    Returns every violation, the exact cost, and the amount held at each
    node at integer times 0..horizon.  Entries naming an unknown arc, a
    negative rate or an empty interval are reported and left out.
    """
    bal = network.balances
    transits = _integer_form(network).transits
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


def verify_schedule(network: Network, schedule: FlowOverTime) -> ScheduleVerification:
    """Check a schedule against capacities, conservation and balances.

    Returns a report listing every violation (never raises) along with
    the exact recomputed cost.
    """
    violations, cost, _ = _replay(network, schedule)
    return ScheduleVerification(tuple(violations), cost)


def storage_trace(
    network: Network, schedule: FlowOverTime
) -> dict[NodeId, tuple[Fraction, ...]]:
    """Amount held at each node at integer times 0..horizon.

    Schedule entries that :func:`verify_schedule` rejects (unknown arcs,
    negative rates, empty intervals) are left out.
    """
    _, _, trace = _replay(network, schedule)
    return {v: tuple(values) for v, values in trace.items()}
