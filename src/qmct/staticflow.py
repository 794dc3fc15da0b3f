"""Static network-flow solvers with exact rational arithmetic.

Provides max-flow (with a min-cut certificate), min-cost flow with node
potentials certifying optimality, and flow decomposition into paths and
cycles.  Rational data is scaled to a common denominator and solved by
the integer kernel in :mod:`qmct._kernel`; results are unscaled exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import _kernel
from .errors import InfeasibleError
from .network import Network
from .rationals import as_rational, common_denominator

UNCAPPED = None


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


def _scale_caps(problem: FlowProblem, extra: Iterable[Fraction] = ()) -> tuple[int, list[int | None]]:
    finite = [c for c in problem.capacities if c is not None]
    denom = common_denominator([*finite, *extra])
    caps = [None if c is None else int(c * denom) for c in problem.capacities]
    return denom, caps


def _scale_costs(problem: FlowProblem) -> tuple[int, list[int]]:
    denom = common_denominator(problem.costs)
    return denom, [int(c * denom) for c in problem.costs]


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
    denom, caps = _scale_caps(problem)
    g = _kernel.build(problem.num_nodes, problem.tails, problem.heads, caps)
    value, reachable = _kernel.max_flow(g, source, sink)
    flows = tuple(Fraction(g.flow(2 * i), denom) for i in range(problem.num_arcs))
    return MaxFlowResult(Fraction(value, denom), StaticFlow(flows), frozenset(reachable))


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


def min_cost_flow(
    problem: FlowProblem, balances: Sequence[Fraction] | Mapping[int, Fraction]
) -> MinCostFlowResult:
    """Minimum-cost flow satisfying the given node balances.

    Costs must be conservative.  Returns the flow, node potentials
    certifying optimality (``cost - pi[tail] + pi[head] >= 0`` on every
    residual arc), and the exact total cost.  Raises
    :class:`InfeasibleError` with a violated-cut certificate when the
    balances cannot be routed.
    """
    if isinstance(balances, Mapping):
        bal = [as_rational(balances.get(v, 0)) for v in range(problem.num_nodes)]
    else:
        bal = [as_rational(b) for b in balances]
        if len(bal) != problem.num_nodes:
            raise ValueError("balances length does not match node count")
    total_balance = sum(bal, Fraction(0))
    if total_balance != 0:
        raise ValueError(f"balances sum to {total_balance}, expected 0")

    cap_denom, caps = _scale_caps(problem, extra=bal)
    cost_denom, costs = _scale_costs(problem)
    bal_int = [int(b * cap_denom) for b in bal]

    g = _kernel.build(problem.num_nodes + 2, problem.tails, problem.heads, caps, costs)
    super_source, super_sink, total = _kernel.wire_balances(g, bal_int)
    routed, pi, reachable = _kernel.min_cost_flow(g, super_source, super_sink, total)
    if routed < total:
        assert reachable is not None
        stranded = sorted(v for v in reachable if v < problem.num_nodes)
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
    flows = tuple(Fraction(g.flow(2 * i), cap_denom) for i in range(problem.num_arcs))
    potentials = tuple(Fraction(-pi[v], cost_denom) for v in range(problem.num_nodes))
    cost = sum((c * f for c, f in zip(problem.costs, flows)), Fraction(0))
    return MinCostFlowResult(StaticFlow(flows), potentials, cost)


def decompose(
    problem: FlowProblem, flow: StaticFlow
) -> tuple[list[tuple[tuple[int, ...], Fraction]], list[tuple[tuple[int, ...], Fraction]]]:
    """Split a feasible flow into weighted paths and cycles.

    The superposition of the returned paths and cycles reproduces the
    input arc-by-arc.  Every path runs from a node with net outflow to a
    node with net inflow; extraction is deterministic (lowest arc index
    first).  Each walk starts at the lowest-indexed node that still has
    net outflow and flow left on an out-arc, else at the tail of the
    lowest-indexed arc with flow left.  Neither index ever decreases, so
    path start nodes come out in non-decreasing order and two forward
    cursors, one over nodes and one over arcs, replace a rescan per
    path.

    Only the graph of ``problem`` (``num_nodes``, ``num_arcs``,
    ``tails``, ``heads``) is read, so a time expansion serves as well as
    a :class:`FlowProblem`.  Flow values may be ints or Fractions;
    amounts come out in the same type.
    """
    remaining = list(flow.values)
    net = [0] * problem.num_nodes
    for i, f in enumerate(remaining):
        if f < 0:
            raise ValueError(f"negative flow on arc {i}")
        net[problem.tails[i]] += f
        net[problem.heads[i]] -= f

    out_arcs: list[list[int]] = [[] for _ in range(problem.num_nodes)]
    for i in range(problem.num_arcs):
        out_arcs[problem.tails[i]].append(i)
    cursor = [0] * problem.num_nodes

    def next_arc(v: int) -> int | None:
        arcs = out_arcs[v]
        k = cursor[v]
        while k < len(arcs) and remaining[arcs[k]] == 0:
            k += 1
        cursor[v] = k
        return arcs[k] if k < len(arcs) else None

    paths: list[tuple[tuple[int, ...], Fraction]] = []
    cycles: list[tuple[tuple[int, ...], Fraction]] = []

    # Both start conditions, "net[v] > 0 with an out-arc still carrying
    # flow" and "remaining[i] != 0", only ever turn from true to false:
    # a path lowers net[start] to at least 0 and raises a negative
    # net[end] to at most 0, and remaining flow only falls.  So the
    # lowest qualifying node or arc never moves down, and two forward
    # cursors find the same start as a rescan from index 0.
    node_cursor = 0
    arc_cursor = 0

    def start_node() -> int | None:
        nonlocal node_cursor, arc_cursor
        while node_cursor < problem.num_nodes:
            v = node_cursor
            if net[v] > 0 and next_arc(v) is not None:
                return v
            node_cursor += 1
        while arc_cursor < problem.num_arcs:
            if remaining[arc_cursor] != 0:
                return problem.tails[arc_cursor]
            arc_cursor += 1
        return None

    while True:
        start = start_node()
        if start is None:
            break
        walk: list[int] = []
        position = {start: 0}
        order = [start]
        v = start
        while True:
            if v != start and net[v] < 0:
                amount = min(min(remaining[i] for i in walk), net[start], -net[v])
                for i in walk:
                    remaining[i] -= amount
                net[start] -= amount
                net[v] += amount
                paths.append((tuple(walk), amount))
                break
            arc = next_arc(v)
            if arc is None:
                raise ValueError("flow does not satisfy conservation; cannot decompose")
            w = problem.heads[arc]
            if w in position:
                k = position[w]
                cycle = walk[k:] + [arc]
                amount = min(remaining[i] for i in cycle)
                for i in cycle:
                    remaining[i] -= amount
                cycles.append((tuple(cycle), amount))
                if k == 0:
                    break
                # Backtrack to the revisited node and keep walking.
                for dropped in order[k + 1 :]:
                    del position[dropped]
                del order[k + 1 :]
                del walk[k:]
                v = w
                continue
            walk.append(arc)
            position[w] = len(order)
            order.append(w)
            v = w
    return paths, cycles
