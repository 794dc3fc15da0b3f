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
expansion.  :func:`expand` builds only the copies that some flow could
use: those reached from a source in time and reaching a sink by the
horizon.  The quickest horizon is found by probing only at proven
lower bounds, each in closed form from one terminal subset's shortest
paths (:func:`quickest_transshipment`).  Results keep no expansion: a
probe's flows live only until its movement copies are read back into a
:class:`FlowOverTime`.  The oracle's scan over consecutive horizons
instead grows one full expansion in place (:class:`_GrowingExpansion`),
and carries its min-cost flow and potentials from one horizon to the
next.

Everything here reads :attr:`Network.integral`, built with the network
however many horizons are expanded; other balances make another
network (:meth:`Network.with_balances`).  Time is counted in steps of
``1/time_scale`` of the input's time unit, so a transit ``τ`` takes
``τ·time_scale`` steps; horizons, layers and schedule times are all in
those steps, the unit of every report's ``horizon`` and ``scale``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import AbstractSet, Sequence

from . import _kernel, cheapest
from .errors import HorizonLimitError, InfeasibleError, InternalCheckError
from .network import IntegerForm, Network, NodeId


@dataclass(frozen=True)
class TimeExpandedGraph:
    """Static expansion of a network over an integer horizon.

    Node copy ``(v, layer)`` has index ``layer * n + v``; the super
    source and super sink occupy the last two indices, so ``num_nodes``
    is ``n·T + 2`` however many copies are dropped, and a dropped copy
    is an isolated node.  Arc order is movement copies first (aligned
    with ``movement``), then holdover arcs from ``holdover_start``, then
    terminal wiring from ``wiring_start``; the properties derive from
    the stored fields.  Capacities and costs are integers at the scales
    of the network's :attr:`~Network.integral` form, the one owner of
    scales and supply.
    """

    horizon: int
    num_nodes: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    capacities: tuple[int | None, ...]
    costs: tuple[int, ...]
    movement: tuple[tuple[int, int], ...]
    wiring_start: int

    @property
    def num_arcs(self) -> int:
        return len(self.tails)

    @property
    def holdover_start(self) -> int:
        return len(self.movement)

    @property
    def super_source(self) -> int:
        return self.num_nodes - 2

    @property
    def super_sink(self) -> int:
        return self.num_nodes - 1


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


@dataclass(frozen=True)
class QuickestResult:
    schedule: FlowOverTime

    @property
    def horizon(self) -> int:
        return self.schedule.horizon


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


def _layer_guard(horizon: int, max_layers: int | None) -> None:
    if max_layers is not None and horizon > max_layers:
        raise HorizonLimitError(
            f"expansion with {horizon} layers exceeds the limit of {max_layers}",
            requested=horizon,
            limit=max_layers,
        )


def _least_transits(network: Network) -> tuple[list[int | None], list[int | None]]:
    """``e(v)`` and ``ℓ(v)``: the least transit in steps from any source
    to v and from v to any sink, None where there is no path."""
    form = network.integral
    forward = cheapest.graph(network, form.transits)
    backward = cheapest.graph(network, form.transits, reverse=True)
    return (
        _kernel.labels(forward, dict.fromkeys(form.sources, 0)),
        _kernel.labels(backward, dict.fromkeys(form.sinks, 0)),
    )


def expand(network: Network, horizon: int) -> TimeExpandedGraph:
    """Build the live part of the time expansion for an integer horizon.

    Let ``e(v)`` be the least transit from any source to v and ``ℓ(v)``
    the least transit from v to any sink, ∞ without a path (transits are
    non-negative).  Flow sent into the super source reaches copy
    ``(v, q)`` only if ``e(v) <= q``, and flow at ``(v, q)`` reaches the
    super sink only if ``q + ℓ(v) <= T − 1``.  So the movement copy of arc
    ``a = (u, w)`` at layer q is kept iff ``e(u) <= q`` and ``q + τ_a +
    ℓ(w) <= T − 1``, the holdover ``(v, q) → (v, q+1)`` iff ``e(v) <= q``
    and ``q + 1 + ℓ(v) <= T − 1``, and every terminal wiring arc is kept.
    Conversely, a copy kept lies on the path that joins a source to its
    tail's copy by least transits, waits, crosses it and reaches a sink
    in time; so the kept copies are exactly those on some super source
    → super sink path of the full expansion.  Dropped copies leave
    isolated nodes; numbering and order are those of the full expansion
    with the dropped arcs left out.

    Nothing a caller reads changes.  In the full expansion let R be the
    nodes the super source reaches and L those that reach the super
    sink.  No arc leaves R and none enters L from outside, so the kept
    movement copies and holdovers, the arcs from R into L, join nodes of
    R ∩ L.  Both kernels augment along residual super source → super
    sink paths, and such a path never leaves R and, ending in L, never
    leaves L, as long as only kept arcs carry flow (their reverse edges
    stay inside R ∩ L); so its forward edges are kept arcs, and by
    induction every flow the kernels reach on the full expansion uses
    kept arcs only.  Hence:

    - the max-flow values agree, and so do min costs: the min-cost flow
      that successive shortest paths find on the full expansion, which
      has no negative cycle as the network has none, is a flow of the
      kept part;
    - Dinic (:func:`_kernel.max_flow`) makes the same augmentations: the
      shortest residual path to the super sink from a node of R is one
      such path, so the levels that its blocking flow reads are the same,
      and its search from the super source steps only along kept edges,
      which each node lists in the same order;
    - the residual-reachable set after it agrees on every node of L, as
      a residual path into L never leaves it.  Every sink's last copy is
      in L, and a source copy outside L keeps its wiring arc, which
      carries no flow, so A_X (:func:`_violated_subset`) is the same.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    form = network.integral
    transits, arc_tails = form.transits, form.tails
    caps_int, costs_int = form.capacities, form.costs
    n = len(network.nodes)
    # No path counts as ∞; the horizon is far enough to keep no copy.
    early, late = ([horizon if d is None else d for d in ds] for ds in _least_transits(network))
    # Head copy relative to the tail's layer: ``layer * n + head_shift[i]``.
    head_shift = [tau * n + v for tau, v in zip(transits, form.heads)]

    # Copy ``(layer, i)`` of arc i is kept for starts[i] <= layer < stops[i],
    # sorted layer by layer, arcs in order, as the key ``layer·m + i``.
    m = len(arc_tails)
    starts = [early[u] for u in arc_tails]
    stops = [horizon - tau - late[w] for tau, w in zip(transits, form.heads)]
    keys = sorted(
        layer * m + i for i, (a, b) in enumerate(zip(starts, stops)) for layer in range(a, b)
    )
    copies = [divmod(key, m) for key in keys]
    tails = [layer * n + arc_tails[i] for layer, i in copies]
    heads = [layer * n + head_shift[i] for layer, i in copies]
    caps: list[int | None] = [caps_int[i] for _, i in copies]
    costs = [costs_int[i] for _, i in copies]
    movement = [(i, layer) for layer, i in copies]
    # Holdover ``(v, q) → (v, q+1)`` for early[v] <= q < T − 1 − late[v],
    # listed by its tail, the copy ``q·n + v``.
    last_layer = horizon - 1
    waits = sorted(q * n + v for v in range(n) for q in range(early[v], last_layer - late[v]))
    tails += waits
    heads += [u + n for u in waits]
    caps += [None] * len(waits)
    costs += [0] * len(waits)

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


def _schedule_from_movement(
    graph: TimeExpandedGraph, movement_flows: Sequence[int], flow_scale: int
) -> FlowOverTime:
    # Runs [start, end, flow] per arc; movement copies come layer by layer.
    runs: dict[int, list[list[int]]] = {}
    for (arc, layer), raw in zip(graph.movement, movement_flows):
        if raw:
            steps = runs.setdefault(arc, [])
            if steps and steps[-1][1:] == [layer, raw]:
                steps[-1][1] = layer + 1
            else:
                steps.append([layer, layer + 1, raw])
    entries = (
        ArcIntervals(arc, tuple((s, e, Fraction(raw, flow_scale)) for s, e, raw in runs[arc]))
        for arc in sorted(runs)
    )
    return FlowOverTime(graph.horizon, tuple(entries))


def _solve_max(graph: TimeExpandedGraph) -> tuple[int, list[int], set[int]]:
    """Max-flow value, the movement copies' flows and the residual cut."""
    g = _kernel.build(graph.num_nodes, graph.tails, graph.heads, graph.capacities)
    value = _kernel.max_flow(g, graph.super_source, graph.super_sink)
    reachable = _kernel.residual_reachable(g, graph.super_source)
    return value, g.rem[1 : 2 * len(graph.movement) : 2], reachable


def feasible(network: Network, horizon: int) -> bool:
    """True when all supplies can reach their demands within the horizon."""
    return _solve_max(expand(network, horizon))[0] == network.integral.supply


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
    has reached the static optimum at this horizon, which caps the
    oracle's scan for the first horizon that reaches it.
    """
    # ``total`` is the form's ``supply``; it and ``u_min`` both carry
    # ``flow_scale``, so the ceiling is exact.
    form = network.integral
    if form.supply == 0 or not form.tails:
        return 0
    return -(-form.supply // min(form.capacities)) + (len(network.nodes) - 1) * max(form.transits)


def subset_paths(
    network: Network, subset: AbstractSet[int], need: int | None = None
) -> tuple[list[tuple[int, int]], _kernel.Residual]:
    """Successive shortest paths from A's sources to the sinks outside A,
    A being a set of node indices.

    Transits are the costs (non-negative, so zero potentials start the
    paths); super source ``n`` feeds the sources in ``subset`` and super
    sink ``n + 1`` drains the other sinks, both uncapacitated.  Returns
    each path's ``(length, amount)`` and the residual graph.  With
    ``need``, stops before the first path of length ``d`` with
    ``Σ amount·(d − length) >= need``.
    """
    form, n = network.integral, len(network.nodes)
    starts = [s for s in form.sources if s in subset]
    ends = [t for t in form.sinks if t not in subset]
    extra = len(starts) + len(ends)
    g = _kernel.build(
        n + 2,
        [*form.tails, *[n] * len(starts), *ends],
        [*form.heads, *starts, *[n + 1] * len(ends)],
        [*form.capacities, *[None] * extra],
        [*form.transits, *[0] * extra],
    )
    pi = [0] * (n + 2)
    paths: list[tuple[int, int]] = []
    flow = weighted = 0
    while (amount := _kernel.augment(g, n, n + 1, pi)) is not None:
        length = pi[n + 1]
        if need is not None and flow * length - weighted >= need:
            break
        paths.append((length, amount))
        flow += amount
        weighted += length * amount
    return paths, g


def _subset_horizon(network: Network, subset: AbstractSet[int]) -> int:
    """``T_A``, the least integer ``T`` with ``o^T(A) >= b(A)``.

    Raises :class:`InfeasibleError` when ``b(A) > 0`` and A's sources
    reach no sink outside A, naming the nodes they reach, which no arc
    leaves, as ``cut_nodes``.
    """
    need = sum(network.integral.balances[v] for v in subset)
    if need <= 0:
        return 0
    paths, g = subset_paths(network, subset, need)
    if not paths:
        nodes = network.nodes
        reached = _kernel.residual_reachable(g, len(nodes))
        raise InfeasibleError(
            "no horizon admits a transshipment: supplies in "
            f"{sorted(nodes[v] for v in subset)} cannot reach the demands outside it",
            certificate={
                "subset": [nodes[v] for v in sorted(subset)],
                "cut_nodes": [v for i, v in enumerate(nodes) if i in reached],
            },
        )
    flow = sum(amount for _, amount in paths)
    return -(-(need + sum(d * amount for d, amount in paths)) // flow)


def _violated_subset(network: Network, horizon: int, reachable: set[int]) -> set[int]:
    """A_X, as node indices, for the residual-reachable set X of an infeasible probe."""
    form, last = network.integral, (horizon - 1) * len(network.nodes)
    sources = {s for s in form.sources if s in reachable}
    return sources | {t for t in form.sinks if last + t in reachable}


def quickest_transshipment(network: Network, max_layers: int | None = None) -> QuickestResult:
    """Smallest integer horizon H admitting a full transshipment.

    Every probe is an expansion max flow at a proven lower bound on H,
    so the first feasible one is at H.  For a terminal set A let b(A)
    be its supply minus its demand, and o^T(A) the max flow on the
    expansion for T with uncapacitated super arcs into the layer-0
    copies of A's sources and out of the layer-(T−1) copies of the
    sinks outside A.

    *Criterion* (Klinz; Hoppe & Tardos, Math. OR 2000): T is feasible
    iff b(A) <= o^T(A) for all A.  A finite cut X of the expansion
    (super source in, super sink out) gives A_X, the sources s with
    (s, 0) in X and the sinks t with (t, T−1) in X.  No holdover leaves
    X, so its capacity is Σ_{s∉A_X} b_s + Σ_{t∈A_X} −b_t + M(X), M(X)
    being the movement copies leaving X.  X also cuts the A_X problem,
    so M(X) >= o^T(A_X) and the capacity is >= total − b(A_X) +
    o^T(A_X).  Conversely the super source plus the source side of a
    minimum cut of the A problem has capacity <= total − b(A) + o^T(A):
    the least cut, the max flow, reaches the total iff no A is violated.

    *Cut extraction*: the residual-reachable set X of an infeasible
    probe is a minimum cut below the total, so o^T(A_X) <= M(X) <
    b(A_X): b(A_X) > 0 and T_{A_X} > T.

    *Temporally repeated flows* (Ford & Fulkerson 1958): with lengths
    d_1 <= d_2 <= .. and amounts δ_i from :func:`subset_paths`,
    o^T(A) = Σ max(0, T − d_i)·δ_i.  Let x be the flow of the paths
    with d_i < T, a cheapest flow of its value Σ δ_i; it splits into
    simple paths of total transit Σ d_i·δ_i, as its cycles cost 0.
    Sending each path P at its amount during layers 0 .. T − τ(P) − 1
    loads each arc copy with at most x_a and routes T·|x| − Σ d_i·δ_i:
    that is ">=".  For "<=", raise the potentials π of the last round
    by distances capped at T − π(super sink), which the next path's
    length minus π(super sink), if any, is not below.  Now
    0 = π(super source) <= π <= π(super sink) = T, the reduced cost
    c_a = τ_a + π(tail) − π(head) of every residual edge is >= 0, and
    the cut {(v, q) : π(v) <= q} crosses the copies of arc a at layers
    π(tail) <= q < π(head) − τ_a (all within the horizon), of capacity
    Σ u_a·max(0, −c_a).  An arc with c_a < 0 has no residual forward
    edge, so x_a = u_a, and an arc carrying flow has a residual reverse
    edge, so −c_a >= 0: the cut is <= Σ x_a·(−c_a), which telescopes
    to T·|x| − Σ d_i·δ_i.

    So T_A = ⌈(b(A) + Σ d_i·δ_i) / Σ δ_i⌉ over the paths found before
    the first length d with Σ δ_i·(d − d_i) >= b(A), and T_A <= H.  The
    search starts at the largest T_A over {s} for each source and all
    terminals but t for each sink, and after an infeasible probe moves
    to T_{A_X}.  A subset with b(A) > 0 and no path proves the instance
    infeasible: :class:`InfeasibleError` names the isolated terminal
    for the first family and otherwise the subset and ``cut_nodes``.
    A probe above ``max_layers`` raises :class:`HorizonLimitError` before
    its expansion is built, and its ``requested`` horizon, a proven
    lower bound on H, shows that H exceeds the limit.
    """
    form, horizon = network.integral, 0
    terminals = {*form.sources, *form.sinks}
    seed = [(s, {s}, "supply at {!r} cannot reach any sink") for s in form.sources]
    seed += [
        (t, terminals - {t}, "demand at {!r} cannot be reached by any source")
        for t in form.sinks
    ]
    for node, subset, message in seed:
        try:
            horizon = max(horizon, _subset_horizon(network, subset))
        except InfeasibleError:
            name, side = network.nodes[node], "source" if node in subset else "sink"
            raise InfeasibleError(message.format(name), {"isolated": name, "side": side}) from None
    while True:
        _layer_guard(horizon, max_layers)
        graph = expand(network, horizon)
        value, flows, reachable = _solve_max(graph)
        if value == form.supply:
            return QuickestResult(_schedule_from_movement(graph, flows, form.flow_scale))
        violated = _violated_subset(network, horizon, reachable)
        bound = _subset_horizon(network, violated)
        if bound <= horizon:
            raise InternalCheckError(f"cut at horizon {horizon} gives bound {bound}")
        horizon = bound


def _too_small(horizon: int, deficit: Fraction) -> InfeasibleError:
    """The error for a horizon at which ``deficit`` units cannot arrive."""
    return InfeasibleError(
        f"horizon {horizon} too small: {deficit} units cannot arrive in time",
        certificate={"horizon": horizon, "deficit": deficit},
    )


def _min_cost(g: _kernel.Residual, s: int, t: int, form: IntegerForm, horizon: int) -> Fraction:
    """Route ``form.supply`` from s to t at least cost and return that cost
    in the input's units; a deficit raises :func:`_too_small` for ``horizon``."""
    routed, cost, _, _ = _kernel.min_cost_flow(g, s, t, form.supply)
    if routed < form.supply:
        raise _too_small(horizon, Fraction(form.supply - routed, form.flow_scale))
    return Fraction(cost, form.flow_scale * form.cost_scale)


def mincost_over_time(network: Network, horizon: int) -> MincostOverTimeResult:
    """Minimum-cost transshipment within a fixed integer horizon.

    Too small a horizon, 0 included, raises :class:`InfeasibleError`
    with the horizon and the undelivered deficit as its certificate.
    """
    graph, form = expand(network, horizon), network.integral
    g = _kernel.build(graph.num_nodes, graph.tails, graph.heads, graph.capacities, graph.costs)
    cost = _min_cost(g, graph.super_source, graph.super_sink, form, horizon)
    flows = g.rem[1 : 2 * len(graph.movement) : 2]
    return MincostOverTimeResult(cost, _schedule_from_movement(graph, flows, form.flow_scale))


class _GrowingExpansion:
    """The time expansion of a network, grown in place one layer at a time.

    The oracle scans horizons on one residual graph instead of expanding
    the network afresh for each.  With k sinks, the super source and
    super sink are nodes 0 and 1, sink t's *collector* ``c_t`` is one of
    nodes 2 .. k+1, in ``form.sinks`` order, and the copy of node ``v``
    at layer ``q`` is node ``2 + k + q·n + v``.  The collectors are made
    at construction, each with an arc ``c_t →`` super sink of capacity
    −b(t).  Unlike :func:`expand` the grower keeps the copies that no
    flow can use.

    *Growth* (:meth:`grow`) from T to T+1 appends the n copies of layer
    T, the holdovers from layer T−1 into them, the movement copies whose
    head is at layer T (arc a from layer T − τ_a, when that is ≥ 0) and,
    for each sink t, an uncapacitated arc of cost 0 from (t, T) into
    ``c_t``; the first growth also joins the super source to the
    sources' layer-0 copies.  Each movement copy of the full expansion
    F_{T+1} has its head at some layer q ≤ T and was appended with layer
    q, and its holdovers are the ones listed.  So at horizon T the graph
    is F_T with each drain (t, T−1) → super sink replaced by the arcs
    (t, q) → ``c_t`` for q < T and ``c_t`` → super sink.

    *Same answers.*  A flow of F_T maps onto the graph by sending each
    drain's flow through (t, T−1) → ``c_t``.  Conversely, flow entering
    ``c_t`` from (t, q) can instead wait at t along the free,
    uncapacitated holdovers up to (t, T−1) and drain there, and at most
    −b(t) leaves ``c_t`` in all, the drain's capacity.  Both maps keep a
    flow's value and cost, so the max-flow values, the min costs and the
    deficits of :func:`_too_small` agree with those of F_T at every T.
    A growth adds nodes and arcs and changes no existing one, so the flow
    left at T stays valid at T+1, and :meth:`max_flow` and
    :meth:`min_cost` there only have to augment it.

    *Which reduced costs a growth can make negative.*  :meth:`min_cost`
    keeps potentials π under which every residual edge u → v has reduced
    cost c + π(u) − π(v) >= 0, so the flow is a min-cost one of its
    value.  A growth keeps every old edge and its reduced cost, and the
    reverse edges it adds carry no flow and so have no capacity.  Its
    forward edges each enter a new copy, except the arcs (t, q) → c_t.
    Pricing each new copy w at the least π(u) + c over its residual
    edges u → w, repeated over those whose tail is new as well (the
    zero-transit copies of a layer, and holdovers when several layers
    were grown), makes every edge into a new copy non-negative.  Those
    edges form no negative cycle, as the network has none, so the prices
    settle within one pass per new copy, as in Bellman–Ford.  A copy that
    no edge from a priced node reaches keeps π = ∞: no edge can enter it
    later, since later growths only add arcs out of its layer and flow
    never reaches it, so no search meets it.  Every other residual edge
    out of a new copy enters a new copy too, so only the arcs into the
    collectors, of cost 0, can be left negative.
    The layer guard is checked at construction and before each growth.
    """

    def __init__(self, network: Network, max_layers: int | None = None):
        _layer_guard(0, max_layers)
        self.form = form = network.integral
        self.n = len(network.nodes)
        self.max_layers = max_layers
        self.horizon = 0
        self.routed = 0
        # min_cost's potentials, the cost of its flow and the edges that
        # its potentials cover; None until it runs and after max_flow.
        self.pi: list | None = None
        self.cost = 0
        self.priced = 0
        # Arcs by transit: layer T appends the movement copies of a prefix.
        order = sorted(range(len(form.tails)), key=form.transits.__getitem__)
        self.transits = [form.transits[a] for a in order]
        self.tail_shift = [form.tails[a] - form.transits[a] * self.n for a in order]
        self.heads = [form.heads[a] for a in order]
        self.arc_caps = [form.capacities[a] for a in order]
        self.arc_costs = [form.costs[a] for a in order]
        # Sink t's collector, in ``form.sinks`` order; layer 0 starts after them.
        self.collectors = range(2, 2 + len(form.sinks))
        # Each arc's capacity in the graph, for min_cost's resets and repairs.
        self.caps: list[int | None] = [-form.balances[t] for t in form.sinks]
        k = len(self.collectors)
        self.graph = _kernel.build(2 + k, self.collectors, [1] * k, self.caps)

    def grow(self) -> None:
        """Append layer :attr:`horizon` and its arcs into the collectors.

        Raises :class:`HorizonLimitError` when the new horizon exceeds
        ``max_layers``.
        """
        layer = self.horizon
        _layer_guard(layer + 1, self.max_layers)
        n, g = self.n, self.graph
        base = self.collectors.stop + layer * n
        g.add_nodes(n)
        held = range(base - n, base) if layer else range(0)
        live = bisect_right(self.transits, layer)
        sinks = self.form.sinks
        tails = [*held, *(base + d for d in self.tail_shift[:live]), *(base + t for t in sinks)]
        heads = [*(u + n for u in held), *(base + v for v in self.heads[:live]), *self.collectors]
        caps = [*[None] * len(held), *self.arc_caps[:live], *[None] * len(sinks)]
        costs = [*[0] * len(held), *self.arc_costs[:live], *[0] * len(sinks)]
        if not layer:
            sources, balances = self.form.sources, self.form.balances
            tails += [0] * len(sources)
            heads += [self.collectors.stop + v for v in sources]
            caps += [balances[v] for v in sources]
            costs += [0] * len(sources)
        g.add_arcs(tails, heads, caps, costs)
        self.caps += caps
        self.horizon = layer + 1

    def max_flow(self) -> int:
        """Augment the current flow to a maximum one and return its value."""
        self.routed += _kernel.max_flow(self.graph, 0, 1)
        self.pi = None
        return self.routed

    def min_cost(self) -> Fraction:
        """The minimum cost over time at :attr:`horizon`.

        Raises :class:`InfeasibleError` where :func:`mincost_over_time`
        does, with the same message and certificate, and leaves a
        min-cost flow of the value :attr:`routed` in the graph.  The first
        call, and the first after :meth:`max_flow`, resets the graph to a
        zero flow and takes its potentials from a label pass.  Every later
        one starts from the flow and potentials the last left: it prices
        the copies grown since and repairs the arcs into the collectors
        (:meth:`_reprice_growth`), then augments up to the supply.  Each
        augmentation adds amount·(π(super sink) − π(super source)) to the
        cost and each cancelled cycle its own cost, so :attr:`cost` stays
        that of the flow in the graph.
        """
        g, form = self.graph, self.form
        if self.pi is None:
            g.rem = [0] * (2 * len(self.caps))
            g.rem[0::2] = self.caps
            self.routed = self.cost = 0
        else:
            self._reprice_growth()
        routed, cost, self.pi, _ = _kernel.min_cost_flow(
            g, 0, 1, form.supply - self.routed, self.pi
        )
        self.priced = len(g.to)
        self.routed += routed
        self.cost += cost
        if self.routed < form.supply:
            raise _too_small(self.horizon, Fraction(form.supply - self.routed, form.flow_scale))
        return Fraction(self.cost, form.flow_scale * form.cost_scale)

    def _reprice_growth(self) -> None:
        """Price the copies grown since the potentials were set, then make
        every negative arc into a collector non-negative.

        The pricing is the one of the class docstring.  The negative arcs
        are masked (given no capacity; none carries flow yet) and then
        repaired one at a time.  For e = (t, q) → c_t with δ = π(c_t) −
        π(t, q) > 0, :func:`_kernel.reprice` searches from c_t for (t, q),
        stopped at distance δ; the edges it may scan, all but the masked
        ones, keep reduced costs >= 0 (proof in its docstring).

        - If (t, q) is settled at a distance D < δ, the tree path from c_t
          to it is tight and, closed by e, makes a cycle of cost
          D − δ < 0, which is π(t, q) − π(c_t) after the raise.  Its
          bottleneck is finite, because every edge out of c_t and out of
          the super sink is a finite drain or a reverse edge.  Pushing it
          gives the path's reverse edges reduced cost 0 and e's reverse
          δ − D.  The cost falls by a positive integer and is bounded
          below by the least cost of a flow of this value, so the search
          repeats only finitely often.
        - Otherwise every node settled below δ is raised by its distance
          and every other, (t, q) included, by δ.  That is the same as
          lowering each node w by max(0, δ − dist(w)) up to a common
          shift, and it leaves e tight, since c_t is at distance 0.

        Either way every residual edge but e and the masked arcs keeps a
        reduced cost >= 0: the search stops before it would scan e, which
        leaves (t, q).  The loop on e ends with e non-negative, so after
        the last repair every residual edge has reduced cost >= 0.
        """
        g, pi = self.graph, self.pi
        to, rem, cost = g.to, g.rem, g.cost
        priced = len(pi)
        new = range(self.priced, len(to), 2)
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
            rem[e] = self.caps[e // 2]
            tail, collector = to[e ^ 1], to[e]
            while (delta := pi[collector] - pi[tail]) > 0:
                dist, parent_edge = _kernel.reprice(g, collector, tail, pi, delta)
                if dist[tail] < delta:
                    amount = _kernel.push_path(g, collector, tail, parent_edge)
                    g.push(e, amount)
                    self.cost += amount * (pi[tail] - pi[collector])


def _replay(
    network: Network, schedule: FlowOverTime
) -> tuple[list[str], Fraction, dict[NodeId, list[int]], int]:
    """Simulate a schedule by prefix sums over the integer form.

    Returns the violations, the exact cost, each node's holdings at times
    0..horizon in units of ``1/scale``, and ``scale``.  Entries with an
    unknown arc, a negative rate or an empty interval are reported and skipped.
    """
    form = network.integral
    horizon = schedule.horizon
    violations: list[str] = []
    kept: list[tuple[int, int, int, Fraction]] = []
    cost = Fraction(0)
    for entry in schedule.arc_flows:
        if not 0 <= entry.arc < len(form.tails):
            violations.append(f"schedule references unknown arc {entry.arc}")
            continue
        latest = horizon - form.transits[entry.arc]
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
            # A zero rate moves nothing; inflow at or after H is dropped.
            if rate and start < horizon:
                kept.append((entry.arc, start, min(end, horizon), rate))
            cost += form.costs[entry.arc] * rate * (end - start)
    # One scale makes the balances, capacities and every rate integers.
    scale = math.lcm(form.flow_scale, *(rate.denominator for *_, rate in kept))
    up = scale // form.flow_scale
    # Per node, a difference array of its net inflow rate and the spans of
    # flow through it (only there is a deficit reported); per arc, its rate changes.
    flow = [[0] * (horizon + 1) for _ in network.nodes]
    moves: list[list[tuple[int, int]]] = [[] for _ in network.nodes]
    arc_changes: dict[int, list[tuple[int, int]]] = {}
    for arc, start, stop, rate in kept:
        r = rate.numerator * (scale // rate.denominator)
        arc_changes.setdefault(arc, []).extend([(start, r), (stop, -r)])
        for v, shift, d in ((form.tails[arc], 0, -r), (form.heads[arc], form.transits[arc], r)):
            lo, hi = min(start + shift, horizon), min(stop + shift, horizon)
            flow[v][lo] += d
            flow[v][hi] -= d
            moves[v].append((lo, hi))
    for arc, changes in arc_changes.items():
        changes.sort()
        for (lo, _), (hi, _), rate in zip(changes, changes[1:], accumulate(d for _, d in changes)):
            if rate > form.capacities[arc] * up:
                violations.extend(
                    f"arc {arc}: rate {Fraction(rate, scale)} exceeds capacity "
                    f"{Fraction(form.capacities[arc], form.flow_scale)} during [{q},{q + 1})"
                    for q in range(lo, hi)
                )
    trace: dict[NodeId, list[int]] = {}
    for v, name in enumerate(network.nodes):
        b = form.balances[v] * up
        held = list(accumulate(accumulate(flow[v][:horizon]), initial=max(b, 0)))
        if min(held) < 0:
            moving = {q for lo, hi in moves[v] for q in range(lo, hi)}
            violations.extend(
                f"node {name!r}: flow deficit {Fraction(h, scale)} during [{q},{q + 1})"
                for q, h in enumerate(held[1:]) if h < 0 and q in moving
            )
        if held[-1] != max(-b, 0):
            violations.append(
                f"node {name!r}: {Fraction(held[-1], scale)} units remain at horizon, "
                f"expected {Fraction(max(-b, 0), scale)}"
            )
        trace[name] = held
    return violations, cost / form.cost_scale, trace, scale


def verify_schedule(network: Network, schedule: FlowOverTime) -> ScheduleVerification:
    """Check a schedule against capacities, conservation and balances.

    Returns a report listing every violation (never raises) along with
    the exact recomputed cost.
    """
    violations, cost, _, _ = _replay(network, schedule)
    return ScheduleVerification(tuple(violations), cost)


def storage_trace(
    network: Network, schedule: FlowOverTime
) -> dict[NodeId, tuple[Fraction, ...]]:
    """Amount held at each node at integer times 0..horizon.

    Schedule entries that :func:`verify_schedule` rejects (unknown arcs,
    negative rates, empty intervals) are left out.
    """
    _, _, trace, scale = _replay(network, schedule)
    return {v: tuple(Fraction(h, scale) for h in held) for v, held in trace.items()}
