"""Decomposition of a static flow into weighted paths and cycles.

Max flow and min-cost flow are the integer kernel's (:mod:`qmct._kernel`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def decompose(
    problem, values: Sequence[Fraction | int]
) -> tuple[list[tuple[tuple[int, ...], Fraction]], list[tuple[tuple[int, ...], Fraction]]]:
    """Split a feasible flow into weighted paths and cycles.

    ``values[i]`` is the flow on arc ``i``.  The superposition of the
    returned paths and cycles reproduces the input arc-by-arc.  Every
    path runs from a node with net outflow to a node with net inflow;
    extraction is deterministic (lowest arc index first).  Each walk
    starts at the lowest-indexed node that still has net outflow and
    flow left on an out-arc, else at the tail of the lowest-indexed arc
    with flow left.  Neither index ever decreases, so path start nodes
    come out in non-decreasing order and two forward cursors, one over
    nodes and one over arcs, replace a rescan per path.

    Only the graph of ``problem`` (``num_nodes``, ``num_arcs``,
    ``tails``, ``heads``) is read, so a time expansion serves.  Flow
    values may be ints or Fractions; amounts come out in the same type.
    """
    remaining = list(values)
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
