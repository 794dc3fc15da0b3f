"""Decomposition of a static flow into weighted paths and cycles.

Max flow and min-cost flow are the integer kernel's (:mod:`qmct._kernel`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InternalCheckError


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
    come out in non-decreasing order.

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

    def next_arc(v: int) -> int | None:
        return next((i for i in out_arcs[v] if remaining[i] != 0), None)

    def start_node() -> int | None:
        for v in range(problem.num_nodes):
            if net[v] > 0 and next_arc(v) is not None:
                return v
        return next((problem.tails[i] for i, f in enumerate(remaining) if f != 0), None)

    paths: list[tuple[tuple[int, ...], Fraction]] = []
    cycles: list[tuple[tuple[int, ...], Fraction]] = []

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
            if arc is None:  # the start has flow out; any other v has flow in and net[v] >= 0
                raise InternalCheckError(f"decompose: no flow leaves node {v} of a walk")
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
