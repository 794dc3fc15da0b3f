"""Brute-force oracles used by the tests.

Most of this is deliberately naive (exhaustive enumeration) and kept
independent of the solver's own path/flow machinery so the tests have a
second route to the same answers.

It is also the home of the decomposition reference for routing
admissibility: :func:`routed_paths` re-solves the final horizon
probe's expansion, checks that its flow, unfolded from the merged
corridors, is the reported schedule, and splits it into paths and
cycles.  The solver certifies the same
property from reduced costs on the schedule's arcs instead
(:func:`qmct.pipeline.check_admissible_routing`).

:func:`expansion_search` is the reference for the quickest horizon: the
gallop-and-bisect search over expansion max flows that
:func:`qmct.temporal.quickest_transshipment` replaced by probing only at
proven lower bounds.  :func:`step_replay` is the reference schedule
simulator, unit step by unit step in ``Fraction`` arithmetic, that
:func:`qmct.temporal.verify_schedule` replaced by prefix sums over the
integer form.  :func:`network_from_doc` is the reference parser: it
walks a document arc by arc and turns every value into its own
``Fraction``, where :func:`qmct.io.network_from_doc` reads it a column
at a time, parses each distinct literal once and walks the arcs only to
name the first bad one, which must be the one named here.
The remaining helpers (cheapest-path subnetworks, the capacity view of
a network and cut capacities) serve tests only.

:func:`paired_label_graph` is the reference label graph: the paired
residual graph that every label pass once built for itself, where
:meth:`qmct.network.Network.label_graph` lists the ``(head, weight)``
pairs of the forward arcs, once per network.  Tests label it through
:func:`qmct._kernel.flowless_label_graph`, as
:func:`qmct._kernel.min_cost_flow` labels its residual graph before
any flow.

:func:`full_expand` is the reference time expansion, every copy that
arrives by the horizon, which :func:`qmct.temporal.expand` replaced by
the copies on some super source → super sink path;
:func:`expansion_max_flow`, :func:`expansion_search` and
:func:`subset_expansion_flow` build it, so that they do not rest on the
pruning.  :func:`full_numbering` maps the pruned expansion's consecutive
ids back to the full one's ``layer·n + v``, so that the two compare.
:func:`endpoint_expand` is the full expansion as it was wired before
each terminal had a collector: supplies enter at layer 0 and demands
leave at layer T − 1, so that flow walks the holdover chains; it is the
reference the collectors answer as.

:func:`scale_transits` is the reference for counting time in steps of
``1/time_scale``: it builds a second network whose transits are the
integer step counts, which the solver once did before every time
expansion and now reads from :attr:`qmct.network.Network.integral`.

:class:`FlowProblem`, :func:`max_flow` and :func:`min_cost_flow` are the
rational static flow API the solver once routed its static solves
through: each parses its values, scales them to integers and unscales
the kernel's results.  :func:`transport_solve` is the transportation
solve over it, the reference for :func:`qmct.transport.solve`, which
runs the kernel on the network's integers as they are; :func:`qmct.generate.generate`
does the same in place of :func:`max_flow`.

:func:`stabilised_oracle` is the reference for
:func:`qmct.pipeline.oracle_quickest_mincost`: it takes its target cost
from a min-cost flow over the expansion at
:func:`qmct.oracle.horizon_upper_bound` and scans min-cost flows from
horizon zero, where the oracle takes the static optimum as its target
and scans max flows up to the first feasible horizon.

:func:`reprice` is the reference for :func:`qmct._kernel.reprice`: the
same Dijkstra run on until t itself is popped, where the kernel stops
at the first pop no nearer than t.

:func:`reprice_growth` is the reference for
:meth:`qmct.oracle._GrowingExpansion._reprice_growth`: it prices the
copies of a growth by Bellman–Ford rounds over the new edges, where the
oracle runs one seeded pass of :func:`qmct._kernel.label_correct` on the
new copies alone, and then repairs the arcs into the collectors as the
oracle does.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Any, Iterable, Sequence

from qmct import _kernel, staticflow
from qmct.cheapest import cheapest_from, cheapest_to
from qmct.corridors import merge_corridors
from qmct.errors import HorizonLimitError, InfeasibleError, InternalCheckError, ValidationError
from qmct.network import Arc, Network, NodeId
from qmct.oracle import _GrowingExpansion, horizon_upper_bound
from qmct.pipeline import AlgorithmRun, validate_or_raise
from qmct.rationals import as_rational, to_integers
from qmct.temporal import (
    FlowOverTime,
    QuickestResult,
    TimeExpandedGraph,
    _schedule_from_movement,
    _solve_max,
    mincost_over_time,
)
from qmct.transport import TransportationInstance, TransportSolution


@dataclass(frozen=True)
class FlowProblem:
    """A directed graph with capacities and costs, nodes indexed 0..n-1.

    ``capacities[i] is None`` marks an uncapacitated arc; such values are
    only compared, never used in arithmetic.
    """

    num_nodes: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    capacities: tuple[Fraction | None, ...]
    costs: tuple[Fraction, ...]

    @staticmethod
    def of(num_nodes: int, arcs: Iterable[tuple]) -> "FlowProblem":
        """Build from tuples ``(tail, head, capacity[, cost])``."""
        tails, heads, caps, costs = [], [], [], []
        for entry in arcs:
            tail, head, cap = entry[0], entry[1], entry[2]
            cost = entry[3] if len(entry) > 3 else 0
            tails.append(tail)
            heads.append(head)
            caps.append(None if cap is None else as_rational(cap))
            costs.append(as_rational(cost))
        return FlowProblem(
            num_nodes, tuple(tails), tuple(heads), tuple(caps), tuple(costs)
        )

    @property
    def num_arcs(self) -> int:
        return len(self.tails)


@dataclass(frozen=True)
class StaticFlow:
    """Per-arc flow values aligned with a FlowProblem's arc order.

    Solvers return Fractions; :func:`decompose` also takes integers.
    """

    values: tuple[Fraction | int, ...]


@dataclass(frozen=True)
class MaxFlowResult:
    value: Fraction
    flow: StaticFlow
    cut_nodes: frozenset[int]


@dataclass(frozen=True)
class MinCostFlowResult:
    flow: StaticFlow
    potentials: tuple[Fraction, ...]
    cost: Fraction


def _uncapped_path_exists(problem: FlowProblem, source: int, sink: int) -> bool:
    adj: list[list[int]] = [[] for _ in range(problem.num_nodes)]
    for i in range(problem.num_arcs):
        if problem.capacities[i] is None:
            adj[problem.tails[i]].append(problem.heads[i])
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u == sink:
            return True
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return False


def max_flow(problem: FlowProblem, source: int, sink: int) -> MaxFlowResult:
    """Maximum flow from source to sink with a min-cut certificate.

    ``cut_nodes`` is the source side of a minimum cut (the nodes still
    reachable in the final residual graph).
    """
    if source == sink:
        raise ValueError("max_flow: source and sink coincide")
    if _uncapped_path_exists(problem, source, sink):
        raise ValueError("max_flow: unbounded (a fully uncapacitated path exists)")
    denom, caps = to_integers(problem.capacities)
    g = _kernel.build(problem.num_nodes, problem.tails, problem.heads, caps)
    value = _kernel.max_flow(g, source, sink)
    reachable = _kernel.residual_reachable(g, source)
    flows = tuple(Fraction(f, denom) for f in g.rem[1::2])
    return MaxFlowResult(Fraction(value, denom), StaticFlow(flows), frozenset(reachable))


def min_cost_flow(problem: FlowProblem, balances: Sequence[Fraction]) -> MinCostFlowResult:
    """Minimum-cost flow satisfying node balances given in node order.

    Costs must be conservative.  Returns the flow, node potentials
    certifying optimality (``cost - pi[tail] + pi[head] >= 0`` on every
    residual arc), and the exact total cost.  Raises
    :class:`InfeasibleError` with a violated-cut certificate when the
    balances cannot be routed.
    """
    bal = [as_rational(b) for b in balances]
    if len(bal) != problem.num_nodes:
        raise ValueError("balances length does not match node count")
    total_balance = sum(bal, Fraction(0))
    if total_balance != 0:
        raise ValueError(f"balances sum to {total_balance}, expected 0")

    cap_denom, scaled = to_integers([*problem.capacities, *bal])
    caps, bal_int = scaled[: problem.num_arcs], scaled[problem.num_arcs :]
    cost_denom, costs = to_integers(problem.costs)

    n = problem.num_nodes
    # A super source n and super sink n + 1, wired in node order after the arcs.
    wiring = [(n, v, b) if b > 0 else (v, n + 1, -b) for v, b in enumerate(bal_int) if b]
    g = _kernel.build(
        n + 2,
        [*problem.tails, *(u for u, _, _ in wiring)],
        [*problem.heads, *(v for _, v, _ in wiring)],
        [*caps, *(b for _, _, b in wiring)],
        [*costs, *[0] * len(wiring)],
    )
    total = sum(b for b in bal_int if b > 0)
    routed, _, pi = _kernel.min_cost_flow(g, n, n + 1, total)
    if routed < total:
        stranded = sorted(v for v in _kernel.residual_reachable(g, n) if v < problem.num_nodes)
        deficit = Fraction(total - routed, cap_denom)
        raise InfeasibleError(
            f"balances cannot be routed: {deficit} units stranded",
            certificate={
                "cut_nodes": stranded,
                "deficit": deficit,
                "routed": Fraction(routed, cap_denom),
                "required": Fraction(total, cap_denom),
            },
        )
    flows = tuple(Fraction(f, cap_denom) for f in g.rem[1 : 2 * problem.num_arcs : 2])
    potentials = tuple(Fraction(-pi[v], cost_denom) for v in range(problem.num_nodes))
    cost = sum((c * f for c, f in zip(problem.costs, flows)), Fraction(0))
    return MinCostFlowResult(StaticFlow(flows), potentials, cost)


def transport_solve(instance: TransportationInstance) -> TransportSolution:
    """Optimal shipments plus an optimal dual, both certified exactly.

    The bipartite problem is built from the network's ``Fraction`` view
    (its balances) and the pair costs read as Fractions, sources then
    sinks in node order; from there the solve runs on Fractions, and its
    shipments, dual and optimum are Fractions.

    The dual is extracted from the min-cost-flow potentials and then
    checked outright: feasibility on every pair, strong duality against
    the primal cost, and pairwise complementary slackness.  Any failure
    is a solver bug and raises :class:`InternalCheckError`.

    Raises :class:`InfeasibleError` with a deficient terminal subset when
    the supplies cannot be matched to the demands.
    """
    network = instance.network
    nodes, balances = network.nodes, list(network.balances.values())
    sources = [v for v, b in enumerate(balances) if b > 0]
    terminals = sources + [v for v, b in enumerate(balances) if b < 0]
    position = {v: k for k, v in enumerate(terminals)}
    costs = tuple(Fraction(c, network.integral.cost_scale) for c in instance.costs)
    problem = FlowProblem(
        num_nodes=len(terminals),
        tails=tuple(position[s] for s, _ in instance.pairs),
        heads=tuple(position[t] for _, t in instance.pairs),
        capacities=(None,) * len(instance.pairs),
        costs=costs,
    )
    p = len(sources)
    try:
        result = min_cost_flow(problem, [balances[v] for v in terminals])
    except InfeasibleError as exc:
        reachable = sorted(exc.certificate.get("cut_nodes", ()))
        stranded_sources = tuple(nodes[terminals[k]] for k in reachable if k < p)
        served_sinks = tuple(nodes[terminals[k]] for k in reachable if k >= p)
        supply = sum((balances[terminals[k]] for k in reachable if k < p), Fraction(0))
        demand = -sum((balances[terminals[k]] for k in reachable if k >= p), Fraction(0))
        raise InfeasibleError(
            f"transportation infeasible: sources {stranded_sources} supply {supply} "
            f"but can only reach demand {demand}",
            certificate={
                "deficient_sources": stranded_sources,
                "reachable_sinks": served_sinks,
                "supply": supply,
                "demand": demand,
            },
        ) from exc

    dual = dict(zip(terminals, result.potentials))
    shipments = result.flow.values
    for (s, t), c, shipped in zip(instance.pairs, costs, shipments):
        slack = c - dual[s] + dual[t]
        if slack < 0 or (shipped > 0 and slack != 0):
            raise InternalCheckError(f"reference dual not optimal on pair {nodes[s]}->{nodes[t]}")
    objective = sum((balances[v] * dual[v] for v in terminals), Fraction(0))
    if objective != result.cost:
        raise InternalCheckError(f"reference duality gap: {objective} != {result.cost}")
    return TransportSolution(instance, shipments, dual, result.cost)


def simple_paths(network: Network, source: str, sink: str) -> list[tuple[int, ...]]:
    """All simple source->sink paths as tuples of arc indices."""
    out_arcs: dict[str, list[int]] = {v: [] for v in network.nodes}
    for i, arc in enumerate(network.arcs):
        out_arcs[arc.tail].append(i)
    found: list[tuple[int, ...]] = []
    stack: list[int] = []
    visited = {source}

    def walk(v: str) -> None:
        if v == sink:
            found.append(tuple(stack))
            return
        for i in out_arcs[v]:
            head = network.arcs[i].head
            if head not in visited:
                visited.add(head)
                stack.append(i)
                walk(head)
                stack.pop()
                visited.remove(head)

    walk(source)
    return found


def path_cost(network: Network, arcs: tuple[int, ...]) -> Fraction:
    return sum((network.arcs[i].cost for i in arcs), Fraction(0))


def cheapest_simple_cost(network: Network, source: str, sink: str) -> Fraction | None:
    costs = [path_cost(network, p) for p in simple_paths(network, source, sink)]
    return min(costs) if costs else None


def min_cut_by_enumeration(problem: FlowProblem, source: int, sink: int) -> Fraction:
    """Minimum s-t cut value by trying every node subset."""
    others = [v for v in range(problem.num_nodes) if v not in (source, sink)]
    best: Fraction | None = None
    for r in range(len(others) + 1):
        for chosen in combinations(others, r):
            side = {source, *chosen}
            total = Fraction(0)
            unbounded = False
            for i in range(problem.num_arcs):
                if problem.tails[i] in side and problem.heads[i] not in side:
                    cap = problem.capacities[i]
                    if cap is None:
                        unbounded = True
                        break
                    total += cap
            if not unbounded and (best is None or total < best):
                best = total
    assert best is not None, "no finite cut exists"
    return best


def scale_transits(network: Network) -> tuple[Network, int]:
    """Multiply all transit times by the least factor making them integers."""
    form = network.integral
    scale = form.time_scale
    if scale == 1:
        return network, 1
    arcs = tuple(
        Arc(a.tail, a.head, a.capacity, Fraction(tau), a.cost)
        for a, tau in zip(network.arcs, form.transits)
    )
    return Network.of(network.nodes, arcs, dict(network.balances)), scale


def pair_count_horizon_bound(network: Network) -> int:
    """A looser horizon bound to compare ``horizon_upper_bound`` against.

    ⌈total/u_min⌉ plus (n−1)·τ_max once for every source-sink pair the
    source reaches; transits must be integers.
    """
    total = sum((b for b in network.balances.values() if b > 0), Fraction(0))
    if total == 0 or not network.arcs:
        return 0
    out: dict[str, list[str]] = {v: [] for v in network.nodes}
    for arc in network.arcs:
        out[arc.tail].append(arc.head)
    pairs = 0
    for s in network.sources:
        seen = {s}
        stack = [s]
        while stack:
            for head in out[stack.pop()]:
                if head not in seen:
                    seen.add(head)
                    stack.append(head)
        pairs += sum(1 for t in network.sinks if t in seen)
    u_min = min(a.capacity for a in network.arcs)
    tau_max = max(int(a.transit) for a in network.arcs)
    return -(-total // u_min) + pairs * (len(network.nodes) - 1) * tau_max


def full_expand(network: Network, horizon: int) -> TimeExpandedGraph:
    """The full time expansion for an integer horizon: every movement
    copy that arrives by the horizon, every holdover and every arc
    between a terminal's collector and its copies, in the arc order of
    :func:`qmct.temporal.expand`, which keeps only the copies on some
    super source → super sink path of this one.  Copy ``(v, layer)`` is
    node ``layer·n + v``, the numbering :func:`full_numbering` maps back
    to, and terminal j's collector is node ``n·T + j``."""
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    form = network.integral
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
    waits = max(horizon - 1, 0) * n
    tails.extend(range(waits))
    heads.extend(range(n, n + waits))
    caps.extend([None] * waits)
    costs.extend([0] * waits)

    terminals = [(v, b) for v, b in enumerate(form.balances) if b] if horizon else []
    super_source = n * horizon + len(terminals)
    super_sink = super_source + 1
    wiring_start = len(tails)
    for j, (v, b) in enumerate(terminals):
        collector = n * horizon + j
        if b > 0:
            tails.append(super_source)
            heads.append(collector)
            caps.append(b)
        else:
            tails.append(collector)
            heads.append(super_sink)
            caps.append(-b)
        costs.append(0)
    for j, (v, b) in enumerate(terminals):
        collector = n * horizon + j
        for layer in range(horizon):
            if b > 0:
                tails.append(collector)
                heads.append(layer * n + v)
            else:
                tails.append(layer * n + v)
                heads.append(collector)
            caps.append(None)
            costs.append(0)

    return TimeExpandedGraph(
        horizon=horizon,
        num_nodes=super_sink + 1,
        tails=tuple(tails),
        heads=tuple(heads),
        capacities=tuple(caps),
        costs=tuple(costs),
        movement=tuple(movement),
        wiring_start=wiring_start,
    )


def endpoint_expand(network: Network, horizon: int) -> TimeExpandedGraph:
    """The full time expansion wired at its end layers, as
    :func:`qmct.temporal.expand` once wired it: the super source feeds
    each source's layer-0 copy and each sink's layer-(T−1) copy drains
    into the super sink, with no collectors.  It is the reference that
    the collectors of :func:`full_expand` answer as.  Copy ``(v, layer)``
    is node ``layer·n + v``."""
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    form = network.integral
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
    waits = max(horizon - 1, 0) * n
    tails.extend(range(waits))
    heads.extend(range(n, n + waits))
    caps.extend([None] * waits)
    costs.extend([0] * waits)

    super_source = n * horizon
    super_sink = super_source + 1
    wiring_start = len(tails)
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
        horizon=horizon,
        num_nodes=super_sink + 1,
        tails=tuple(tails),
        heads=tuple(heads),
        capacities=tuple(caps),
        costs=tuple(costs),
        movement=tuple(movement),
        wiring_start=wiring_start,
    )


def full_numbering(network: Network, graph: TimeExpandedGraph) -> TimeExpandedGraph:
    """``graph``, an expansion of :func:`qmct.temporal.expand`, with each id
    mapped back to the full expansion's ``layer·n + v``, terminal j's
    collector to ``n·T + j`` and the super terminals to the two ids after.

    The map is read off the arcs alone: the ends of the movement copies,
    the terminals' wiring, whose collector end is the lower one, and the
    holdover chains, each holdover's head one layer above its tail.  Every
    id must be mapped once, consistently, and each arc between a
    collector and a copy must meet a copy of the collector's terminal.
    """
    form, n, horizon = network.integral, len(network.nodes), graph.horizon
    terminals = [v for v, b in enumerate(form.balances) if b and horizon]
    k = len(terminals)
    full = {graph.super_source: n * horizon + k, graph.super_sink: n * horizon + k + 1}

    def put(node: int, key: int) -> None:
        assert full.setdefault(node, key) == key, (node, key, full[node])

    for e, (arc, layer) in enumerate(graph.movement):
        put(graph.tails[e], layer * n + form.tails[arc])
        put(graph.heads[e], (layer + form.transits[arc]) * n + form.heads[arc])
    collect_start = graph.wiring_start + k
    for j, e in enumerate(range(graph.wiring_start, collect_start)):
        put(min(graph.tails[e], graph.heads[e]), n * horizon + j)
    # Holdovers come by their tail's full id, so a chain's tail is mapped
    # before the holdover that leaves it.
    for e in range(graph.holdover_start, graph.wiring_start):
        put(graph.heads[e], full[graph.tails[e]] + n)
    for e in range(collect_start, graph.num_arcs):
        ends = graph.tails[e], graph.heads[e]
        assert full[min(ends)] % n == terminals[full[max(ends)] - n * horizon], e
    ids = [full[v] for v in range(graph.num_nodes)]
    assert len(set(ids)) == len(ids) == len(full)
    return replace(
        graph,
        num_nodes=n * horizon + k + 2,
        tails=tuple(ids[v] for v in graph.tails),
        heads=tuple(ids[v] for v in graph.heads),
    )


def expansion_max_flow(
    network: Network, horizon: int
) -> tuple[TimeExpandedGraph, tuple[int, ...], int]:
    """Max flow on the time expansion: the graph, the integer flow of
    every expansion arc (at the network's ``flow_scale``) and its value."""
    graph = full_expand(network, horizon)
    g = _kernel.build(graph.num_nodes, graph.tails, graph.heads, graph.capacities)
    value = _kernel.max_flow(g, graph.super_source, graph.super_sink)
    return graph, tuple(g.rem[1::2]), value


def movement_rates(
    graph: TimeExpandedGraph, flows, flow_scale: int, arc_map: tuple[int, ...] | None = None
) -> dict[tuple[int, int], Fraction]:
    """Nonzero inflow rate per (arc, step) carried by the movement copies,
    whose integer ``flows`` are at ``flow_scale``, arcs renumbered
    through ``arc_map`` when one is given."""
    rates = {}
    for (arc, layer), f in zip(graph.movement, flows):
        if f:
            rates[(arc if arc_map is None else arc_map[arc], layer)] = Fraction(f, flow_scale)
    return rates


def schedule_rates(schedule: FlowOverTime) -> dict[tuple[int, int], Fraction]:
    """Nonzero inflow rate per (arc, step) of a schedule."""
    rates: dict[tuple[int, int], Fraction] = {}
    for entry in schedule.arc_flows:
        for start, end, rate in entry.intervals:
            for step in range(start, end):
                rates[(entry.arc, step)] = rates.get((entry.arc, step), Fraction(0)) + rate
    return {key: rate for key, rate in rates.items() if rate}


def routed_paths(run: AlgorithmRun) -> tuple[list[tuple[NodeId, NodeId, Fraction, Fraction]], bool]:
    """Project the final probe's flow onto terminal pairs: (source, sink, amount, path cost).

    The boolean is False if the flow contains a nonzero-cost cycle,
    which would invalidate the projection's cost accounting.  The flow
    is the max flow at the reported horizon of the network the search
    solved, ``run.restricted`` with its corridors merged; unfolded step
    by step onto the restricted arcs, it is asserted to rebuild the
    reported schedule.  Its integer flows are decomposed as they are,
    and only the routed amounts are unscaled.
    """
    merged = merge_corridors(run.restricted)
    graph, flows, _value = expansion_max_flow(merged.network, run.quickest.horizon)
    form, transits = merged.network.integral, run.restricted.integral.transits
    unfolded = {}
    for (arc, step), rate in movement_rates(graph, flows, form.flow_scale).items():
        for k in merged.chains[arc]:
            unfolded[(k, step)] = rate
            step += transits[k]
    assert unfolded == schedule_rates(run.quickest.schedule)
    paths, cycles = staticflow.decompose(graph, flows)
    n = len(run.restricted.nodes)
    movement = graph.movement

    def cost(arc_seq: tuple[int, ...]) -> Fraction:
        legs = (movement[e][0] for e in arc_seq if e < len(movement))
        return Fraction(sum(form.costs[i] for i in legs), form.cost_scale)

    routes = []
    for arc_seq, amount in paths:
        source = run.restricted.nodes[graph.heads[arc_seq[1]] % n]
        sink = run.restricted.nodes[graph.tails[arc_seq[-2]] % n]
        routes.append((source, sink, Fraction(amount, form.flow_scale), cost(arc_seq)))
    clean = all(cost(arc_seq) == 0 for arc_seq, _amount in cycles)
    return routes, clean


def routing_admissible(run: AlgorithmRun) -> bool:
    """The decomposition verdict: every routed path joins an active pair
    at its cheapest-path cost, and every cycle costs nothing."""
    routes, clean = routed_paths(run)
    if not clean:
        return False
    index = run.network.node_index
    for source, sink, _amount, cost in routes:
        pair = (index(source), index(sink))
        if pair not in run.actives:
            return False
        if cost * run.network.integral.cost_scale != run.pair_costs[pair]:
            return False
    return True


def subnetwork_arcs(
    network: Network,
    forward: dict[NodeId, int],
    backward: dict[NodeId, int],
    optimum: int,
) -> frozenset[int]:
    """Arcs whose forward label + cost + backward label meets ``optimum``
    exactly, all at the network's ``cost_scale``."""
    selected = []
    for i, (arc, cost) in enumerate(zip(network.arcs, network.integral.costs)):
        if arc.tail in forward and arc.head in backward:
            if forward[arc.tail] + cost + backward[arc.head] == optimum:
                selected.append(i)
    return frozenset(selected)


class NoPathError(Exception):
    """No path joins the two nodes :func:`cheapest_paths_subnetwork` was given."""


def cheapest_paths_subnetwork(network: Network, source: NodeId, sink: NodeId) -> frozenset[int]:
    """Indices of all arcs lying on at least one cheapest source-sink path."""
    forward = cheapest_from(network, source)
    if sink not in forward:
        raise NoPathError(f"no path from {source!r} to {sink!r}")
    backward = cheapest_to(network, sink)
    return subnetwork_arcs(network, forward, backward, forward[sink])


def paired_label_graph(network: Network, column: str, reverse: bool = False) -> _kernel.Residual:
    """A label graph as each label pass once built its own: a paired
    :func:`qmct._kernel.build` graph of the arcs weighted by the integer
    form's ``column``, every arc uncapacitated but a self-loop, which gets
    capacity 0 as validation's cycle test gave it, so that passes skip it."""
    form = network.integral
    ends = (form.heads, form.tails) if reverse else (form.tails, form.heads)
    caps = [0 if u == v else None for u, v in zip(form.tails, form.heads)]
    return _kernel.build(len(network.nodes), *ends, caps, getattr(form, column))


def problem_from_network(network: Network) -> FlowProblem:
    """Capacity/cost view of a network (transit times dropped)."""
    idx = network.node_index
    return FlowProblem(
        len(network.nodes),
        tuple(idx(a.tail) for a in network.arcs),
        tuple(idx(a.head) for a in network.arcs),
        tuple(a.capacity for a in network.arcs),
        tuple(a.cost for a in network.arcs),
    )


def cut_capacity(problem: FlowProblem, cut_nodes: frozenset[int]) -> Fraction | None:
    """Total capacity leaving ``cut_nodes``; None if a crossing arc is uncapacitated."""
    total = Fraction(0)
    for i in range(problem.num_arcs):
        if problem.tails[i] in cut_nodes and problem.heads[i] not in cut_nodes:
            cap = problem.capacities[i]
            if cap is None:
                return None
            total += cap
    return total


def horizon_lower_bound(network: Network) -> int:
    """Smallest horizon not obviously impossible by transit distance.

    Every supplied source must reach some demanded sink (and vice versa);
    a positive amount needs strictly more time than the best transit, so
    the bound is one plus the largest of these per-terminal minima.
    Raises :class:`InfeasibleError` when some terminal is cut off.
    """
    form = network.integral
    sources = network.sources
    sinks = network.sinks
    idx = network.node_index
    caps = [None] * len(form.transits)
    g = _kernel.build(len(network.nodes), form.tails, form.heads, caps, form.transits)
    best = 0
    sink_best: dict[NodeId, int] = {}
    for s in sources:
        dist = _kernel.labels(_kernel.flowless_label_graph(g), {idx(s): 0})
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


def expansion_search(network: Network) -> QuickestResult:
    """Smallest integer horizon admitting a full transshipment.

    Gallops the horizon upwards from a transit-based lower bound, then
    binary-searches the feasibility threshold; both phases use exact
    max-flow probes on the expansion.  Raises :class:`InfeasibleError`
    (with a cut certificate) when no horizon works.
    """
    if not any(b > 0 for b in network.integral.balances):
        return QuickestResult(FlowOverTime(0, ()))

    t_lb = horizon_lower_bound(network)
    t_ub = max(horizon_upper_bound(network), t_lb)

    # Only two probe results outlive their probe: the movement flows of
    # the smallest feasible horizon so far (``hi`` only ever decreases),
    # and the residual-reachable set of the last infeasible probe, which
    # is the cut certificate when the search runs out of horizons.
    feasible_probe: tuple[TimeExpandedGraph, list[int]] | None = None
    cut: tuple[int, set[int]] = (0, set())

    def probe(horizon: int) -> bool:
        nonlocal feasible_probe, cut
        graph = full_expand(network, horizon)
        value, flows, reachable = _solve_max(graph, network.integral.supply)
        if reachable is None:
            feasible_probe = (graph, flows)
            return True
        cut = (len(network.nodes) * horizon, reachable)
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
            copies, reachable = cut
            stranded = sorted({v % len(network.nodes) for v in reachable if v < copies})
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
    return QuickestResult(_schedule_from_movement(graph, flows, network.integral.flow_scale))


def subset_expansion_flow(network: Network, subset, horizon: int) -> int:
    """o^T(A) by brute force: the max flow on the expansion for ``horizon``
    from the layer-0 copies of the sources in ``subset`` (node indices) to
    the last-layer copies of the sinks outside it, both wired without
    capacity limits; in units of the network's ``flow_scale``."""
    if horizon == 0:
        return 0
    graph = full_expand(network, horizon)
    n = len(network.nodes)
    keep = graph.wiring_start
    tails, heads = list(graph.tails[:keep]), list(graph.heads[:keep])
    for v, name in enumerate(network.nodes):
        b = network.balances[name]
        if b > 0 and v in subset:
            tails.append(graph.super_source)
            heads.append(v)
        elif b < 0 and v not in subset:
            tails.append((horizon - 1) * n + v)
            heads.append(graph.super_sink)
    caps = [*graph.capacities[:keep], *[None] * (len(tails) - keep)]
    g = _kernel.build(graph.num_nodes, tails, heads, caps)
    return _kernel.max_flow(g, graph.super_source, graph.super_sink)


def step_replay(
    network: Network, schedule: FlowOverTime
) -> tuple[list[str], Fraction, dict[NodeId, list[Fraction]]]:
    """Simulate a schedule unit step by unit step.

    Returns every violation, the exact cost, and the amount held at each
    node at integer times 0..horizon.  Entries naming an unknown arc, a
    negative rate or an empty interval are reported and left out.  A
    negative horizon raises ValueError.
    """
    bal = network.balances
    transits = network.integral.transits
    horizon = schedule.horizon
    if horizon < 0:
        raise ValueError(f"horizon {horizon} is negative")
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


def _value(raw: Any, where: str, key: object) -> Fraction:
    """``raw`` as a rational; errors name ``where.format(key)``, built only then."""
    try:
        return as_rational(raw)
    except (TypeError, ValueError) as exc:
        where = where.format(key)
        if isinstance(raw, float):
            raise ValidationError(
                f"{where}: floats are not exact; write the value as a string like \"3/2\""
            ) from None
        raise ValidationError(f"{where}: {exc}") from exc


def network_from_doc(doc: Any) -> Network:
    """Parse an instance document; raises ValidationError on bad shape."""
    if not isinstance(doc, dict):
        raise ValidationError("instance must be a JSON object")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not all(isinstance(v, str) for v in nodes):
        raise ValidationError("'nodes' must be a list of string ids")
    raw_arcs = doc.get("arcs")
    if not isinstance(raw_arcs, list):
        raise ValidationError("'arcs' must be a list")
    arcs = []
    for k, item in enumerate(raw_arcs):
        if not isinstance(item, dict):
            raise ValidationError(f"arc {k} must be an object")
        try:
            tail = item["tail"]
            head = item["head"]
        except KeyError as exc:
            raise ValidationError(f"arc {k} is missing {exc}") from exc
        arcs.append(
            Arc(
                tail=tail,
                head=head,
                capacity=_value(item.get("capacity", 1), "arc {} capacity", k),
                transit=_value(item.get("transit", 0), "arc {} transit", k),
                cost=_value(item.get("cost", 0), "arc {} cost", k),
            )
        )
    raw_balances = doc.get("balances", {})
    if not isinstance(raw_balances, dict):
        raise ValidationError("'balances' must be an object")
    balances = {v: _value(b, "balance of {!r}", v) for v, b in raw_balances.items()}
    try:
        return Network.of(nodes, arcs, balances)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def stabilised_oracle(network: Network, max_nodes: int = 10) -> tuple[Fraction, int]:
    """(cost, horizon) from the stabilised min-cost flow at the bound.

    Computes the minimum cost over time at :func:`horizon_upper_bound`,
    then scans horizons from zero for the first one whose minimum cost
    over time equals it.
    """
    if len(network.nodes) > max_nodes:
        raise HorizonLimitError(
            f"oracle size guard: {len(network.nodes)} nodes exceeds limit {max_nodes}",
            requested=len(network.nodes),
            limit=max_nodes,
        )
    validate_or_raise(network)
    bound = horizon_upper_bound(network)
    stabilized = mincost_over_time(network, bound)
    for horizon in range(bound + 1):
        try:
            probe = mincost_over_time(network, horizon)
        except InfeasibleError:
            continue
        if probe.cost == stabilized.cost:
            return stabilized.cost, horizon
    raise AssertionError("unreachable: stabilized horizon must satisfy its own cost")


def reprice_growth(expansion: _GrowingExpansion) -> None:
    """Price the copies grown since ``expansion``'s potentials were set,
    then make every negative arc into a collector non-negative.

    The prices are relaxed over the edges the growth added until none
    falls, at most one round per new copy plus one, so a negative cycle
    raises instead of looping.  The repair is the oracle's own (proof in
    :meth:`qmct.oracle._GrowingExpansion._reprice_growth`).
    """
    g, pi = expansion.graph, expansion.pi
    to, rem, cost = g.to, g.rem, g.cost
    priced = len(pi)
    new = range(expansion.priced, len(to), 2)
    pi += [_kernel.INF] * (g.n - priced)
    for _ in range(g.n - priced + 1):
        lowered = False
        for e in new:
            v = to[e]
            if v >= priced and rem[e] != 0:
                d = pi[to[e ^ 1]] + cost[e]
                if d < pi[v]:
                    pi[v] = d
                    lowered = True
        if not lowered:
            break
    else:
        raise InternalCheckError("negative cycle reached while pricing a layer")
    negative = [e for e in new if to[e] < priced and pi[to[e ^ 1]] < pi[to[e]]]
    for e in negative:
        rem[e] = 0
    for e in negative:
        rem[e] = expansion.caps[e // 2]
        tail, collector = to[e ^ 1], to[e]
        while (delta := pi[collector] - pi[tail]) > 0:
            dist, parent_edge = _kernel.reprice(g, collector, tail, pi, delta)
            if dist[tail] < delta:
                amount = _kernel.push_path(g, collector, tail, parent_edge)
                g.push(e, amount)
                expansion.cost += amount * (pi[tail] - pi[collector])


def reprice(g: _kernel.Residual, s: int, t: int, pi: list[int], bound: float = _kernel.INF):
    """Dijkstra from s under the potentials ``pi``, stopped once t is popped
    or the least open distance reaches ``bound``; returns ``(dist, parent_edge)``.

    The reference for :func:`qmct._kernel.reprice`, which stops as soon as
    the least open distance reaches t's: nodes nearer than the stop
    distance are settled either way, and every other node's raise of
    ``pi`` is capped at the same value.
    """
    dist: list[int | float] = [_kernel.INF] * g.n
    parent_edge = [-1] * g.n
    dist[s] = 0
    heap = [(0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == t or d >= bound:
            break
        for e in g.adj[u]:
            if g.rem[e] != 0:
                v = g.to[e]
                nd = d + pi[u] + g.cost[e] - pi[v]
                if nd < dist[v]:
                    dist[v] = nd
                    parent_edge[v] = e
                    heapq.heappush(heap, (nd, v))
    cap_at = min(dist[t], bound)
    if cap_at != _kernel.INF:
        for v in range(g.n):
            pi[v] += min(dist[v], cap_at)
    return dist, parent_edge
