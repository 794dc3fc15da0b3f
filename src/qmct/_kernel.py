"""Residual-graph kernels: max flow, min-cost flow and labels.

Max flow is Dinic's blocking-flow method with levels taken as residual
distances to the sink (see :func:`max_flow` for why not from the
source); min-cost flow is successive shortest paths with potentials,
and reports the cost of the flow it pushes from those potentials.

:func:`label_correct` is the solver's one label-correcting routine:
cheapest-path costs, the admissible subnetwork, validation's
negative-cycle test and the min-cost potentials all run it.  It only
adds and compares costs, so it is exact for ints and Fractions
alike.  Its cycle test is the walk-length criterion of
Cherkassky & Goldberg (*Negative-cycle detection algorithms*, Math.
Prog. 1999).  Each label is the cost of its *label walk*, whose edges
were relaxed one after another.  If a node ``x`` repeats on a label
walk, the later relaxation set ``x``'s label below what the earlier one
had set, since labels only fall; so the cycle between the two lowered
``x``'s own label and costs less than zero.  A walk of ``n`` edges
repeats a node, so reaching ``n`` edges proves a negative cycle.
Without one, label walks are simple and the test stays quiet; with a
reachable one the labels never settle, which they would if all walks
stayed below ``n`` edges, as those have finitely many costs.  Counting
how often a label falls is no such test: parallel arcs of falling
negative cost lower a label many times without any cycle.

Private module.  Capacities, balances and costs are plain integers:
callers read a network's :attr:`~qmct.network.Network.integral` form
(``generate`` scales the balances it draws), and unscale results on the
way out.  A capacity of ``None`` means uncapacitated; it is only ever
compared against, never used in arithmetic.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable

from .errors import InternalCheckError

INF = float("inf")


class Residual:
    """Paired-edge residual graph.

    Edge ``2k`` is the forward copy of input arc ``k`` (when built via
    :func:`build`), edge ``2k+1`` its reverse.  ``rem[e]`` is the
    remaining capacity (``None`` = unbounded) and ``rem[e ^ 1]`` of a
    forward edge equals the flow currently on it.  The solver's costs are
    ints; label graphs (:func:`arc_graph`) also take Fractions.
    """

    __slots__ = ("n", "to", "rem", "cost", "adj")

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.rem: list[int | None] = []
        self.cost: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, cap: int | None, cost: int = 0) -> int:
        e = len(self.to)
        self.to.append(v)
        self.rem.append(cap)
        self.cost.append(cost)
        self.adj[u].append(e)
        self.to.append(u)
        self.rem.append(0)
        self.cost.append(-cost)
        self.adj[v].append(e + 1)
        return e

    def add_nodes(self, count: int) -> None:
        self.adj.extend([] for _ in range(count))
        self.n += count

    def add_arcs(self, tails, heads, caps, costs=None) -> int:
        """Append arcs in bulk and return the first one's forward edge.

        Same edges, and the same order in every adjacency list, as
        calling :meth:`add` once per arc.  ``tails``, ``heads``, ``caps``
        and ``costs`` are sequences of equal length; no ``costs`` means 0.
        """
        first = len(self.to)
        m2 = 2 * len(tails)
        to = [0] * m2
        to[0::2] = heads
        to[1::2] = tails
        rem = [0] * m2
        rem[0::2] = caps
        cost = [0] * m2
        if costs is not None:
            cost[0::2] = costs
            cost[1::2] = [-w for w in costs]
        # An empty graph, as in :func:`build`, takes the lists without a copy.
        if first:
            self.to += to
            self.rem += rem
            self.cost += cost
        else:
            self.to, self.rem, self.cost = to, rem, cost
        adj = self.adj
        for e, u, v in zip(range(first, first + m2, 2), tails, heads):
            adj[u].append(e)
            adj[v].append(e + 1)
        return first

    def push(self, e: int, amount: int) -> None:
        rem = self.rem
        if rem[e] is not None:
            rem[e] -= amount
        if rem[e ^ 1] is not None:
            rem[e ^ 1] += amount


def build(n: int, tails, heads, caps, costs=None) -> Residual:
    """Arc ``k`` as edges ``2k`` and ``2k+1``, filled in bulk.

    The flow on arc ``k`` is then ``rem[2k + 1]``, so ``rem[1::2]``
    reads all of them.
    """
    g = Residual(n)
    g.add_arcs(tails, heads, caps, costs)
    return g


def _sink_distances(g: Residual, s: int, t: int) -> list[int]:
    """Residual hop distance to ``t``, by a BFS backwards from ``t``.

    ``u`` is one hop from ``v`` when the partner ``e ^ 1`` of an edge
    ``e`` of ``v`` (an edge ``u -> v``) has residual capacity.  The BFS
    stops as soon as ``s`` is labelled: every node closer to ``t`` than
    ``s`` is labelled by then, and the blocking flow visits no other.
    Unlabelled nodes keep distance -1.
    """
    to = g.to
    rem = g.rem
    adj = g.adj
    dist = [-1] * g.n
    dist[t] = 0
    frontier = [t]
    while frontier:
        following = []
        for v in frontier:
            d = dist[v] + 1
            for e in adj[v]:
                u = to[e]
                if dist[u] < 0 and rem[e ^ 1] != 0:
                    dist[u] = d
                    if u == s:
                        return dist
                    following.append(u)
        frontier = following
    return dist


def _blocking_flow(g: Residual, s: int, t: int, dist: list[int]) -> int:
    """Saturate every shortest ``s``-``t`` path of the level graph ``dist``.

    An iterative depth-first search from ``s`` with current-arc
    pointers: it only steps from ``u`` to ``v`` when ``dist[v] ==
    dist[u] - 1``, and a node whose pointer runs out is cut from the
    level graph by setting its distance to -1.
    """
    to = g.to
    rem = g.rem
    adj = g.adj
    pointer = [0] * g.n
    path: list[int] = []
    pushed = 0
    u = s
    while True:
        if u == t:
            bottleneck = None
            for e in path:
                r = rem[e]
                if r is not None and (bottleneck is None or r < bottleneck):
                    bottleneck = r
            if bottleneck is None:
                raise InternalCheckError("augmenting path with no finite capacity")
            for e in path:
                g.push(e, bottleneck)
            pushed += bottleneck
            # Retreat to the tail of the first saturated edge.
            for k, e in enumerate(path):
                if rem[e] == 0:
                    del path[k:]
                    u = to[e ^ 1]
                    break
            continue
        arcs = adj[u]
        k = pointer[u]
        below = dist[u] - 1
        while k < len(arcs):
            e = arcs[k]
            if rem[e] != 0 and dist[to[e]] == below:
                break
            k += 1
        pointer[u] = k
        if k < len(arcs):
            e = arcs[k]
            path.append(e)
            u = to[e]
            continue
        if u == s:
            return pushed
        dist[u] = -1
        e = path.pop()
        u = to[e ^ 1]
        pointer[u] += 1


def residual_reachable(g: Residual, s: int) -> set[int]:
    """Nodes reachable from ``s`` over edges with residual capacity."""
    to = g.to
    rem = g.rem
    adj = g.adj
    seen = [False] * g.n
    seen[s] = True
    stack = [s]
    while stack:
        u = stack.pop()
        for e in adj[u]:
            v = to[e]
            if not seen[v] and rem[e] != 0:
                seen[v] = True
                stack.append(v)
    return {v for v in range(g.n) if seen[v]}


def max_flow(g: Residual, s: int, t: int) -> int:
    """Maximum s-t flow by Dinic's blocking-flow method.

    Augments the flow already in ``g`` and returns the value it adds.
    :func:`residual_reachable` from ``s`` afterwards gives the source
    side of a minimum cut.

    Each phase labels nodes by their residual distance *to the sink*
    (:func:`_sink_distances`) rather than from the source, and then
    saturates the shortest paths of that level graph
    (:func:`_blocking_flow`).  On a time expansion the source reaches
    many node copies that can no longer reach the sink in time.  Forward
    levels from the source walk all of them in every phase; sink
    distances never label them.  On the expansions probed for
    ``generate(.., nodes=60, terminals=8, tau_max=10)`` instances (the
    ``random-wide`` benchmark workload), forward levels made max flow
    2.3 times slower than sink distances, and slower than the
    Edmonds-Karp method it replaced (Python 3.11, two vCPUs of a shared
    Xeon).

    Integers stay exact throughout; an augmenting path made only of
    uncapacitated edges raises :class:`InternalCheckError`.
    """
    value = 0
    while True:
        dist = _sink_distances(g, s, t)
        if dist[s] < 0:
            return value
        value += _blocking_flow(g, s, t, dist)


def label_correct(g: Residual, start: int | None = None) -> list | None:
    """FIFO label-correcting labels over the edges with remaining capacity.

    Labels grow from ``start``, or, when ``start`` is None, from an
    implicit zero-cost root joined to every node, so that every label
    starts at 0.  Nodes ``start`` does not reach get None.  Returns None
    instead of the labels when a negative cycle is reachable, that is,
    when a label's walk (root edge not counted) would reach ``n`` edges.
    """
    n = g.n
    to = g.to
    rem = g.rem
    cost = g.cost
    adj = g.adj
    if start is None:
        dist: list = [0] * n
        queue = deque(range(n))
    else:
        dist = [None] * n
        dist[start] = 0
        queue = deque([start])
    queued = [d is not None for d in dist]
    walk = [0] * n
    while queue:
        u = queue.popleft()
        queued[u] = False
        base = dist[u]
        edges = walk[u] + 1
        for e in adj[u]:
            if rem[e] != 0:
                v = to[e]
                d = base + cost[e]
                old = dist[v]
                if old is None or d < old:
                    if edges >= n:
                        return None
                    dist[v] = d
                    walk[v] = edges
                    if not queued[v]:
                        queued[v] = True
                        queue.append(v)
    return dist


def labels(g: Residual, start: int | None = None) -> list:
    """:func:`label_correct` for callers that have excluded negative cycles.

    Validation rejects networks with a negative cycle, so meeting one
    here means a solver bug: raises :class:`InternalCheckError`.
    """
    dist = label_correct(g, start)
    if dist is None:
        raise InternalCheckError("negative cycle reached during labeling")
    return dist


def arc_graph(n: int, arcs: Iterable[tuple]) -> Residual:
    """One uncapacitated edge per ``(tail, head, cost)`` arc, for labelling."""
    arcs = list(arcs)
    tails = [u for u, _, _ in arcs]
    heads = [v for _, v, _ in arcs]
    costs = [c for _, _, c in arcs]
    return build(n, tails, heads, [None] * len(arcs), costs)


def _dijkstra(g: Residual, s: int, t: int, pi: list[int]):
    """Shortest reduced-cost distances from s; returns (dist, parent_edge)."""
    adj, rem, to, cost = g.adj, g.rem, g.to, g.cost
    heappush, heappop = heapq.heappush, heapq.heappop
    dist: list[int | float] = [INF] * g.n
    parent_edge = [-1] * g.n
    dist[s] = 0
    heap = [(0, s)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        if u == t:
            break
        base = d + pi[u]
        for e in adj[u]:
            if rem[e] != 0:
                v = to[e]
                nd = base + cost[e] - pi[v]
                if nd < dist[v]:
                    dist[v] = nd
                    parent_edge[v] = e
                    heappush(heap, (nd, v))
    return dist, parent_edge


def augment(g: Residual, s: int, t: int, pi: list[int], limit: int | None = None):
    """One round of successive shortest paths: push along a cheapest path.

    Runs Dijkstra on reduced costs under the potentials ``pi`` and raises
    each ``pi[v]`` by its distance, capped at ``t``'s.  Every residual
    edge keeps a non-negative reduced cost and the path's edges become
    tight, so the path costs ``pi[t] - pi[s]``.  Pushes the least of
    ``limit`` and the path's capacities (one must be finite) and returns
    it, or returns None when ``s`` no longer reaches ``t``.
    """
    dist, parent_edge = _dijkstra(g, s, t, pi)
    if dist[t] == INF:
        return None
    cap_at = dist[t]
    for v in range(g.n):
        d = dist[v]
        pi[v] += cap_at if d > cap_at else d
    path = []
    amount = limit
    v = t
    while v != s:
        e = parent_edge[v]
        rem = g.rem[e]
        if rem is not None and (amount is None or rem < amount):
            amount = rem
        path.append(e)
        v = g.to[e ^ 1]
    for e in path:
        g.push(e, amount)
    return amount


def min_cost_flow(g: Residual, s: int, t: int, target: int):
    """Successive shortest paths with potentials from s to t.

    Pushes as much flow as possible up to ``target``.  Returns
    ``(routed, cost, pi, reachable)``.  ``cost`` sums amount·(pi[t] −
    pi[s]), each round's path cost (see :func:`augment`), and is the cost
    of the flow in ``g`` because every caller starts from a zero flow.
    ``pi`` satisfy ``cost[e] + pi[u] - pi[v] >= 0`` on every residual
    edge ``(u, v)`` with remaining capacity; ``reachable`` is the
    residual-reachable set from ``s`` when routing stopped short (else None).
    """
    pi = labels(g)
    routed = cost = 0
    while routed < target:
        amount = augment(g, s, t, pi, target - routed)
        if amount is None:
            return routed, cost, pi, residual_reachable(g, s)
        routed += amount
        cost += amount * (pi[t] - pi[s])
    return routed, cost, pi, None
