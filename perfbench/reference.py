"""Reference answers that do not come from the solver under test.

Everything here works on the instance document and on ``networkx``; it
imports nothing from ``qmct``.

* The chain family has a closed form: the only zero-cost route is the
  path ``v0 -> .. -> v11`` of capacity 1, so the cheapest transshipment
  costs 0 and its last unit arrives at ``S + sum of the path's transits``.
* For any instance, the minimum cost comes from a ``networkx`` min-cost
  flow on the uncapacitated static network, with data scaled to integers.
* A claimed quickest horizon ``H`` is checked on the benchmark's own
  time expansion.  Take optimal potentials ``pi`` of that static problem;
  every arc has reduced cost ``c(a) + pi(tail) - pi(head) >= 0``.  A flow
  over time with per-arc totals ``x`` costs ``sum c_pi(a) x(a)`` plus a
  constant equal to the static optimum, so it reaches the optimum exactly
  when it uses only arcs of reduced cost 0 (the *tight* arcs).  Hence
  "the minimum cost over time at horizon T equals the static optimum"
  is the same as "the tight arcs alone route all supply within T", a
  ``networkx`` max flow.  ``H`` is right when that holds at ``H`` and
  fails at ``H - 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx

_ROOT = ("root",)
_SOURCE = ("source",)
_SINK = ("sink",)


def chain_answer(supply: int, transits: list[int]) -> tuple[Fraction, int]:
    """(cost, horizon) of the chain instance with the given path transits."""
    return Fraction(0), supply + sum(transits)


@dataclass(frozen=True)
class StaticReference:
    """Static optimum plus the tight arcs of one optimal dual.

    Supplies (negative at demands) and tight-arc capacities are integers:
    the input's values times the least common multiple of their
    denominators.
    """

    cost: Fraction
    nodes: tuple[str, ...]
    supplies: dict[str, int]
    tight: tuple[tuple[str, str, int, int], ...]  # (tail, head, capacity, transit)


def _lcm_of_denominators(values) -> int:
    scale = 1
    for value in values:
        scale = math.lcm(scale, value.denominator)
    return scale


def static_reference(doc: dict) -> StaticReference:
    """Minimum cost of the uncapacitated static transshipment, and its tight arcs."""
    nodes = tuple(doc["nodes"])
    arcs = [
        (
            a["tail"],
            a["head"],
            Fraction(str(a.get("capacity", 1))),
            Fraction(str(a.get("transit", 0))),
            Fraction(str(a.get("cost", 0))),
        )
        for a in doc["arcs"]
    ]
    balances = {v: Fraction(str(b)) for v, b in doc.get("balances", {}).items()}
    if any(transit.denominator != 1 for _, _, _, transit, _ in arcs):
        raise ValueError("the reference expects integer transit times")
    scale = _lcm_of_denominators([*balances.values(), *(cap for _, _, cap, _, _ in arcs)])
    cost_scale = _lcm_of_denominators(cost for *_, cost in arcs)
    supplies = {v: int(b * scale) for v, b in balances.items() if b != 0}

    # Parallel arcs collapse to their cheapest copy: the static problem is
    # uncapacitated, so only the cheapest copy can matter.
    cheapest: dict[tuple[str, str], int] = {}
    for tail, head, _, _, cost in arcs:
        weight = int(cost * cost_scale)
        if (tail, head) not in cheapest or weight < cheapest[(tail, head)]:
            cheapest[(tail, head)] = weight
    graph = nx.DiGraph()
    for v in nodes:
        graph.add_node(v, demand=-supplies.get(v, 0))
    for (tail, head), weight in cheapest.items():
        graph.add_edge(tail, head, weight=weight)
    total, flow = nx.network_simplex(graph)

    # Optimal potentials: shortest distances in the residual graph of the
    # optimal flow, from a root joined to every node at cost 0.
    residual: dict[tuple, int] = {(_ROOT, v): 0 for v in nodes}

    def relax(edge: tuple, weight: int) -> None:
        if edge not in residual or weight < residual[edge]:
            residual[edge] = weight

    for (tail, head), weight in cheapest.items():
        relax((tail, head), weight)
        if flow[tail][head] > 0:
            relax((head, tail), -weight)
    residual_graph = nx.DiGraph()
    residual_graph.add_weighted_edges_from((u, v, w) for (u, v), w in residual.items())
    pi = nx.single_source_bellman_ford_path_length(residual_graph, _ROOT)

    tight = tuple(
        (tail, head, int(cap * scale), int(transit))
        for tail, head, cap, transit, cost in arcs
        if int(cost * cost_scale) + pi[tail] - pi[head] == 0
    )
    return StaticReference(
        Fraction(total, scale * cost_scale), nodes, supplies, tight
    )


def _transit_distances(ref: StaticReference, starts, reverse: bool) -> dict[str, int]:
    graph = nx.DiGraph()
    graph.add_nodes_from(ref.nodes)
    for tail, head, _, transit in ref.tight:
        u, v = (head, tail) if reverse else (tail, head)
        if not graph.has_edge(u, v) or transit < graph[u][v]["weight"]:
            graph.add_edge(u, v, weight=transit)
    return nx.multi_source_dijkstra_path_length(graph, set(starts))


def routes_within(ref: StaticReference, horizon: int) -> bool:
    """True when the tight arcs route every supply within ``horizon`` unit steps.

    The expansion has one layer per step ``q = 0..horizon-1``; a copy of arc
    ``a`` leaves layer ``q`` and enters layer ``q + transit(a)``, which must
    not exceed ``horizon - 1``.  Flow may wait at any node, supplies enter
    on layer 0 and demands leave from the last layer.  Copies of a node
    that no supply can reach in time, or that cannot reach a demand in
    time, are left out.
    """
    sources = [v for v, b in ref.supplies.items() if b > 0]
    sinks = [v for v, b in ref.supplies.items() if b < 0]
    if horizon < 0:
        return False
    if not sources:
        return True
    if horizon == 0:
        return False
    earliest = _transit_distances(ref, sources, reverse=False)
    to_sink = _transit_distances(ref, sinks, reverse=True)

    def exists(v: str, q: int) -> bool:
        return v in earliest and v in to_sink and earliest[v] <= q <= horizon - 1 - to_sink[v]

    graph = nx.DiGraph()
    for v in sources:
        if not exists(v, 0):
            return False
        graph.add_edge(_SOURCE, (v, 0), capacity=ref.supplies[v])
    for v in sinks:
        if not exists(v, horizon - 1):
            return False
        graph.add_edge((v, horizon - 1), _SINK, capacity=-ref.supplies[v])
    for v in earliest.keys() & to_sink.keys():
        for q in range(earliest[v], horizon - 1 - to_sink[v]):
            graph.add_edge((v, q), (v, q + 1))
    for tail, head, cap, transit in ref.tight:
        for q in range(horizon - transit):
            if exists(tail, q) and exists(head, q + transit):
                u, w = (tail, q), (head, q + transit)
                if graph.has_edge(u, w):
                    graph[u][w]["capacity"] += cap
                else:
                    graph.add_edge(u, w, capacity=cap)
    routed = nx.maximum_flow_value(
        graph, _SOURCE, _SINK, flow_func=nx.algorithms.flow.boykov_kolmogorov
    )
    return routed == sum(b for b in ref.supplies.values() if b > 0)


def horizon_is_quickest(ref: StaticReference, horizon: int) -> bool:
    """The static optimum is reachable within ``horizon`` steps but not within one less."""
    return routes_within(ref, horizon) and not routes_within(ref, horizon - 1)
