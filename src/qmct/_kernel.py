"""Residual-graph kernels: max flow, min-cost flow and labels.

Max flow is Dinic's blocking-flow method with levels taken as residual
distances to the sink (see :func:`max_flow` for why not from the
source); min-cost flow is successive shortest paths with potentials,
and reports the cost of the flow it pushes from those potentials.  It
continues a min-cost flow already in the graph when the caller passes
potentials for it, as :class:`qmct.oracle._GrowingExpansion` does.
:func:`wired` joins a super source and sink to every static flow
problem's arcs: transportation, subset paths, the oracle's static
optimum and ``generate``'s routability projection.

:func:`label_correct` is the solver's one label-correcting routine, and
every pass of it starts from *seeds*: starting labels of chosen nodes,
as if an implicit root were joined to each at that cost.  Cheapest-path
costs seed their origin at 0; the admissible subnetwork seeds each
source at minus its dual and, on the reversed graph, each sink at its
dual; the time expansion's least-transit pruning seeds the sources and,
reversed, the sinks at 0; validation's negative-cycle test and the
min-cost potentials seed every node at 0; the oracle's pricing seeds
each new copy of a growth at its least π(u) + c over the edges into it
from priced copies.  Every pass runs on a :func:`label_graph`, per node
the ``(head, weight)`` pair of each edge out of it: the min-cost
potentials on the :func:`flowless_label_graph` of a residual graph, the
oracle's pricing on one of a layer's transit-0 arcs, built once, and
every other pass on a network's cached label graphs
(:meth:`~qmct.network.Network.label_graph`), one per weight column and
direction.  It only adds and compares costs, so it is exact for ints and
Fractions alike.  Its cycle test is the walk-length criterion of
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
from itertools import compress, repeat
from operator import ne
from typing import Mapping

from .errors import InternalCheckError

INF = float("inf")


class Residual:
    """Paired-edge residual graph.

    Edge ``2k`` is the forward copy of input arc ``k`` (when built via
    :func:`build`), edge ``2k+1`` its reverse.  ``rem[e]`` is the
    remaining capacity (``None`` = unbounded) and ``rem[e ^ 1]`` of a
    forward edge equals the flow currently on it.  Costs are ints.
    """

    __slots__ = ("n", "to", "rem", "cost", "adj")

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.rem: list[int | None] = []
        self.cost: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, cap: int | None, cost: int = 0) -> int:
        """Append one arc: no solver calls it, but ``test_build_matches_per_arc_add`` holds
        :func:`build` to it as the per-arc reference."""
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

    def add_arcs(self, tails, heads, caps, costs=None) -> None:
        """Append arcs in bulk; the existing edges and their flows stay as they are.

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


def wired(n: int, tails, heads, caps, costs, feeds: Mapping, drains: Mapping) -> Residual:
    """:func:`build` of ``n`` nodes' arcs, then cost-0 arcs from a super source ``n``
    into each node of ``feeds`` and from each node of ``drains`` into a super sink
    ``n + 1``, each of the capacity its node maps to."""
    tails = [*tails, *repeat(n, len(feeds)), *drains]
    heads = [*heads, *feeds, *repeat(n + 1, len(drains))]
    caps = [*caps, *feeds.values(), *drains.values()]
    costs = None if costs is None else [*costs, *repeat(0, len(feeds) + len(drains))]
    return build(n + 2, tails, heads, caps, costs)


def label_graph(n: int, tails, heads, weights) -> list[list[tuple]]:
    """Per node, the ``(head, weight)`` pair of each arc out of it, in arc order,
    but for self-loops: no cheapest simple path uses one; validation reports them."""
    graph: list[list[tuple]] = [[] for _ in range(n)]
    for u, v, w in zip(tails, heads, weights):
        if u != v:
            graph[u].append((v, w))
    return graph


def flowless_label_graph(g: Residual) -> list[list[tuple]]:
    """:func:`label_graph` of the edges with remaining capacity of a ``g`` that
    carries no flow: its forward edges but those of capacity 0, weighted by cost."""
    caps, columns = g.rem[0::2], (g.to[1::2], g.to[0::2], g.cost[0::2])
    if 0 in caps:
        columns = [compress(column, map(ne, caps, repeat(0))) for column in columns]
    return label_graph(g.n, *columns)


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


def _push_bottleneck(rem: list[int | None], path: list[int], limit: int | None = None) -> int:
    """Push the least of ``limit`` and the finite ``rem`` of ``path``'s edges
    along it, and return that amount; raises :class:`InternalCheckError` when
    neither the limit nor any edge is finite."""
    amount = limit
    for e in path:
        r = rem[e]
        if r is not None and (amount is None or r < amount):
            amount = r
    if amount is None:
        raise InternalCheckError("augmenting path with no finite capacity")
    for e in path:
        if rem[e] is not None:
            rem[e] -= amount
        if rem[e ^ 1] is not None:
            rem[e ^ 1] += amount
    return amount


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
            pushed += _push_bottleneck(rem, path)
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


def label_correct(graph: list[list[tuple]], seeds: Mapping[int, object]) -> list | None:
    """FIFO label-correcting labels over a :func:`label_graph`.

    Labels grow as if from an implicit root joined to each node of
    ``seeds`` at the cost it maps to; nodes no seed reaches get None, and
    a reachable negative cycle, a label walk (root edge not counted) that
    would reach ``n`` edges, makes the result None.
    """
    n = len(graph)
    dist: list = [*map(seeds.get, range(n))]
    queue = deque(seeds)
    queued = [*map(seeds.__contains__, range(n))]
    walk = [0] * n
    while queue:
        u = queue.popleft()
        queued[u] = False
        base = dist[u]
        edges = walk[u] + 1
        for v, w in graph[u]:
            d = base + w
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


def labels(graph: list[list[tuple]], seeds: Mapping[int, object]) -> list:
    """:func:`label_correct` for callers that have excluded negative cycles.

    Validation rejects networks with a negative cycle, so meeting one
    here means a solver bug: raises :class:`InternalCheckError`.
    """
    dist = label_correct(graph, seeds)
    if dist is None:
        raise InternalCheckError("negative cycle reached during labeling")
    return dist


def reprice(g: Residual, s: int, t: int, pi: list[int], bound: float = INF):
    """Dijkstra from s under the potentials ``pi``, stopped once the least
    open distance reaches t's tentative one or ``bound``; returns
    ``(dist, parent_edge)``.

    Every node nearer than the stop distance, the least of ``t``'s
    distance and ``bound``, is settled with its exact distance; every
    other keeps a tentative one no smaller.  Below ``bound`` t's distance
    is then final, and so is its tree path: a later scan, from a node no
    nearer, could not lower it.  Each ``pi[v]`` is raised by its distance
    capped at the stop distance; when that is not finite ``pi`` stays as
    it is.  An edge ``u -> v`` with reduced cost r >= 0 keeps one: if the
    search scanned ``u``, ``v``'s distance is at most ``u``'s plus r, and
    any other ``u`` is raised by the whole cap, which no node exceeds.
    The search tree's edges from s to a t nearer than ``bound`` become
    tight, so that path costs ``pi[t] - pi[s]``.
    """
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
        if d >= dist[t] or d >= bound:
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
    cap_at = min(dist[t], bound)
    if cap_at != INF:
        for v in range(g.n):
            d = dist[v]
            pi[v] += cap_at if d > cap_at else d
    return dist, parent_edge


def push_path(g: Residual, s: int, t: int, parent_edge: list[int], limit: int | None = None) -> int:
    """:func:`_push_bottleneck` along the ``parent_edge`` path from s to t."""
    path = []
    v = t
    while v != s:
        e = parent_edge[v]
        path.append(e)
        v = g.to[e ^ 1]
    return _push_bottleneck(g.rem, path, limit)


def augment(g: Residual, s: int, t: int, pi: list[int], limit: int | None = None):
    """One round of successive shortest paths: push along a cheapest path.

    Runs :func:`reprice` from ``s`` to ``t`` with no bound, so every
    residual edge keeps a non-negative reduced cost and the path costs
    ``pi[t] - pi[s]``.  Pushes the least of ``limit`` and the path's
    capacities (one must be finite) and returns it, or returns None when
    ``s`` no longer reaches ``t``.
    """
    dist, parent_edge = reprice(g, s, t, pi)
    if dist[t] == INF:
        return None
    return push_path(g, s, t, parent_edge, limit)


def min_cost_flow(g: Residual, s: int, t: int, target: int, pi: list[int] | None = None):
    """Successive shortest paths with potentials from s to t.

    Augments the flow in ``g`` by as much as possible up to ``target``.
    Returns ``(routed, cost, pi)`` for the flow it adds: ``cost``
    sums amount·(pi[t] − pi[s]), each round's path cost (see
    :func:`augment`).  The potentials ``pi``, updated in place, must give
    every edge with remaining capacity a reduced cost ``cost[e] + pi[u] -
    pi[v] >= 0``, which holds while the flow in ``g`` is a min-cost flow of
    its value.  By default ``g`` must carry no flow, and they are
    :func:`labels` of ``flowless_label_graph(g)`` with every node seeded at
    0; so the ``cost`` of a caller that passes none is that of the whole flow.
    """
    if pi is None:
        pi = labels(flowless_label_graph(g), dict.fromkeys(range(g.n), 0))
    routed = cost = 0
    while routed < target:
        amount = augment(g, s, t, pi, target - routed)
        if amount is None:
            break
        routed += amount
        cost += amount * (pi[t] - pi[s])
    return routed, cost, pi
