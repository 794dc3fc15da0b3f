"""Brute-force oracles used by the tests.

Most of this is deliberately naive (exhaustive enumeration) and kept
independent of the solver's own path/flow machinery so the tests have a
second route to the same answers.

It is also the home of the decomposition reference for routing
admissibility: :func:`routed_paths` re-solves the final horizon
probe's expansion, checks that its flow is the reported schedule, and
splits it into paths and cycles.  The solver certifies the same
property from reduced costs on the schedule's arcs instead
(:func:`qmct.pipeline.check_admissible_routing`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from qmct import _kernel, staticflow
from qmct.network import Network, NodeId
from qmct.pipeline import AlgorithmRun
from qmct.staticflow import FlowProblem
from qmct.temporal import FlowOverTime, TimeExpandedGraph, expand


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


def expansion_max_flow(
    network: Network, horizon: int
) -> tuple[TimeExpandedGraph, tuple[int, ...], int]:
    """Max flow on the time expansion: the graph, the integer flow of
    every expansion arc (scaled by ``graph.cap_scale``) and its value."""
    graph = expand(network, horizon)
    g = _kernel.build(graph.num_nodes, graph.tails, graph.heads, graph.capacities)
    value, _reachable = _kernel.max_flow(g, graph.super_source, graph.super_sink)
    return graph, tuple(g.rem[1::2]), value


def movement_rates(
    graph: TimeExpandedGraph, flows, arc_map: tuple[int, ...] | None = None
) -> dict[tuple[int, int], Fraction]:
    """Nonzero inflow rate per (arc, step) carried by the movement copies,
    arcs renumbered through ``arc_map`` when one is given."""
    rates = {}
    for (arc, layer), f in zip(graph.movement, flows):
        if f:
            rates[(arc if arc_map is None else arc_map[arc], layer)] = Fraction(
                f, graph.cap_scale
            )
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
    is the max flow of ``run.restricted`` at the reported horizon,
    asserted to rebuild the reported schedule; its integer flows are
    decomposed as they are, and only the routed amounts are unscaled.
    """
    graph, flows, _value = expansion_max_flow(run.restricted, run.quickest.horizon)
    assert movement_rates(graph, flows) == schedule_rates(run.quickest.schedule)
    paths, cycles = staticflow.decompose(graph, staticflow.StaticFlow(flows))
    n = len(run.restricted.nodes)
    movement = graph.movement
    form = run.restricted.integral

    def cost(arc_seq: tuple[int, ...]) -> Fraction:
        legs = (movement[e][0] for e in arc_seq if e < len(movement))
        return Fraction(sum(form.costs[i] for i in legs), form.cost_scale)

    routes = []
    for arc_seq, amount in paths:
        source = run.restricted.nodes[graph.heads[arc_seq[0]] % n]
        sink = run.restricted.nodes[graph.tails[arc_seq[-1]] % n]
        routes.append((source, sink, Fraction(amount, graph.cap_scale), cost(arc_seq)))
    clean = all(cost(arc_seq) == 0 for arc_seq, _amount in cycles)
    return routes, clean


def routing_admissible(run: AlgorithmRun) -> bool:
    """The decomposition verdict: every routed path joins an active pair
    at its cheapest-path cost, and every cycle costs nothing."""
    routes, clean = routed_paths(run)
    if not clean:
        return False
    for source, sink, _amount, cost in routes:
        if (source, sink) not in run.actives:
            return False
        if cost != run.pair_costs[(source, sink)]:
            return False
    return True
