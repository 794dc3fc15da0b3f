"""Brute-force oracles used by the tests.

Everything here is deliberately naive (exhaustive enumeration) and kept
independent of the solver's own path/flow machinery so the tests have a
second route to the same answers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from qmct.network import Network
from qmct.staticflow import FlowProblem


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
