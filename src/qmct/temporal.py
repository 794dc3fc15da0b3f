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
instead grows one full expansion in place (:class:`_GrowingExpansion`).

Everything here reads :attr:`Network.integral`, computed once per
network however many horizons are expanded; other balances make another
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

from . import _kernel
from .errors import HorizonLimitError, InfeasibleError, InternalCheckError
from .network import Network, NodeId


@dataclass(frozen=True)
class TimeExpandedGraph:
    """Static expansion of a network over an integer horizon.

    Node copy ``(v, layer)`` has index ``layer * n + v``; the super
    source and super sink occupy the last two indices, so ``num_nodes``
    is ``n·T + 2`` however many copies are dropped, and a dropped copy
    is an isolated node.  Arc order is movement copies first (aligned
    with ``movement``), then holdover arcs, then terminal wiring.
    Capacities and costs are stored scaled to integers;
    ``cap_scale``/``cost_scale`` restore rationals.
    """

    network: Network
    horizon: int
    num_nodes: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    capacities: tuple[int | None, ...]
    costs: tuple[int, ...]
    movement: tuple[tuple[int, int], ...]
    holdover_start: int
    wiring_start: int
    super_source: int
    super_sink: int
    cap_scale: int
    cost_scale: int
    total_supply_scaled: int

    @property
    def num_arcs(self) -> int:
        return len(self.tails)


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

    def cost(self, network: Network) -> Fraction:
        total = Fraction(0)
        for entry in self.arc_flows:
            amount = sum((Fraction(e - s) * r for s, e, r in entry.intervals), Fraction(0))
            total += network.arcs[entry.arc].cost * amount
        return total


@dataclass(frozen=True)
class QuickestResult:
    horizon: int
    schedule: FlowOverTime


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
    n = len(network.nodes)
    arcs = list(zip(form.tails, form.heads, form.transits))
    # Node n is a root joined at no cost to the sources, or, with every
    # arc reversed, to the sinks.
    forward = _kernel.arc_graph(n + 1, [*arcs, *((n, s, 0) for s in form.sources)])
    reverse = ((w, u, tau) for u, w, tau in arcs)
    backward = _kernel.arc_graph(n + 1, [*reverse, *((n, t, 0) for t in form.sinks)])
    return _kernel.labels(forward, n)[:n], _kernel.labels(backward, n)[:n]


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
    m = len(network.arcs)
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
    holdover_start = len(tails)
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
        network=network,
        horizon=horizon,
        num_nodes=super_sink + 1,
        tails=tuple(tails),
        heads=tuple(heads),
        capacities=tuple(caps),
        costs=tuple(costs),
        movement=tuple(movement),
        holdover_start=holdover_start,
        wiring_start=wiring_start,
        super_source=super_source,
        super_sink=super_sink,
        cap_scale=form.flow_scale,
        cost_scale=form.cost_scale,
        total_supply_scaled=form.supply,
    )


def _schedule_from_movement(
    graph: TimeExpandedGraph, movement_flows: Sequence[int]
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
        ArcIntervals(arc, tuple((s, e, Fraction(raw, graph.cap_scale)) for s, e, raw in runs[arc]))
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
    graph = expand(network, horizon)
    return _solve_max(graph)[0] == graph.total_supply_scaled


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
    if form.supply == 0 or not network.arcs:
        return 0
    return -(-form.supply // min(form.capacities)) + (len(network.nodes) - 1) * max(form.transits)


def subset_paths(
    network: Network, subset: AbstractSet[NodeId], need: int | None = None
) -> tuple[list[tuple[int, int]], _kernel.Residual]:
    """Successive shortest paths from A's sources to the sinks outside A.

    Transits are the costs (non-negative, so zero potentials start the
    paths); super source ``n`` feeds the sources in ``subset`` and super
    sink ``n + 1`` drains the other sinks, both uncapacitated.  Returns
    each path's ``(length, amount)`` and the residual graph.  With
    ``need``, stops before the first path of length ``d`` with
    ``Σ amount·(d − length) >= need``.
    """
    form, nodes = network.integral, network.nodes
    n = len(nodes)
    starts = [s for s in form.sources if nodes[s] in subset]
    ends = [t for t in form.sinks if nodes[t] not in subset]
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


def _subset_horizon(network: Network, subset: AbstractSet[NodeId]) -> int:
    """``T_A``, the least integer ``T`` with ``o^T(A) >= b(A)``.

    Raises :class:`InfeasibleError` when ``b(A) > 0`` and A's sources
    reach no sink outside A, naming the nodes they reach, which no arc
    leaves, as ``cut_nodes``.
    """
    need = sum(b for v, b in zip(network.nodes, network.integral.balances) if v in subset)
    if need <= 0:
        return 0
    paths, g = subset_paths(network, subset, need)
    if not paths:
        reached = _kernel.residual_reachable(g, len(network.nodes))
        raise InfeasibleError(
            "no horizon admits a transshipment: supplies in "
            f"{sorted(subset)} cannot reach the demands outside it",
            certificate={
                "subset": [v for v in network.nodes if v in subset],
                "cut_nodes": [v for i, v in enumerate(network.nodes) if i in reached],
            },
        )
    flow = sum(amount for _, amount in paths)
    return -(-(need + sum(d * amount for d, amount in paths)) // flow)


def _violated_subset(network: Network, horizon: int, reachable: set[int]) -> set[NodeId]:
    """A_X for the residual-reachable set X of an infeasible probe."""
    index, last = network.node_index, (horizon - 1) * len(network.nodes)
    sources = {s for s in network.sources if index(s) in reachable}
    return sources | {t for t in network.sinks if last + index(t) in reachable}


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
    sources, sinks = network.sources, network.sinks
    seed = [(s, {s}, "supply at {!r} cannot reach any sink") for s in sources]
    seed += [
        (t, {*sources, *sinks} - {t}, "demand at {!r} cannot be reached by any source")
        for t in sinks
    ]
    horizon = 0
    for node, subset, message in seed:
        try:
            horizon = max(horizon, _subset_horizon(network, subset))
        except InfeasibleError:
            side = "source" if node in subset else "sink"
            raise InfeasibleError(message.format(node), {"isolated": node, "side": side}) from None
    while True:
        _layer_guard(horizon, max_layers)
        graph = expand(network, horizon)
        value, flows, reachable = _solve_max(graph)
        if value == graph.total_supply_scaled:
            return QuickestResult(horizon, _schedule_from_movement(graph, flows))
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


def mincost_over_time(network: Network, horizon: int) -> MincostOverTimeResult:
    """Minimum-cost transshipment within a fixed integer horizon.

    Too small a horizon, 0 included, raises :class:`InfeasibleError`
    with the horizon and the undelivered deficit as its certificate.
    """
    graph = expand(network, horizon)
    g = _kernel.build(graph.num_nodes, graph.tails, graph.heads, graph.capacities, graph.costs)
    total = graph.total_supply_scaled
    routed, cost, _, _ = _kernel.min_cost_flow(g, graph.super_source, graph.super_sink, total)
    if routed < total:
        raise _too_small(horizon, Fraction(total - routed, graph.cap_scale))
    schedule = _schedule_from_movement(graph, g.rem[1 : 2 * len(graph.movement) : 2])
    return MincostOverTimeResult(Fraction(cost, graph.cap_scale * graph.cost_scale), schedule)


class _GrowingExpansion:
    """The time expansion of a network, grown in place one layer at a time.

    The oracle scans horizons on one residual graph instead of expanding
    the network afresh for each.  The super source and super sink are
    nodes 0 and 1 at every horizon, and the copy of node ``v`` at layer
    ``q`` is node ``2 + q·n + v``.  At :attr:`horizon` T the arcs are
    those of the full expansion for T, every copy that arrives by T, in
    another order, plus each sink's spent drains from the layers below
    T − 1, whose capacity is 0.  Unlike :func:`expand` it keeps the
    copies that no flow can use.

    *Growth* (:meth:`grow`) from T to T+1 appends the n copies of layer
    T, the holdovers from layer T−1 into them, the movement copies whose
    head is at layer T (arc a from layer T − τ_a, when that is ≥ 0) and,
    for each sink t, a drain of capacity −b(t) from (t, T) to the super
    sink; the first growth also joins the super source to the sources'
    layer-0 copies.  Each movement copy of the full expansion for T+1 has
    its head at some layer q ≤ T and was appended with layer q, and its
    holdovers and drains are the ones listed, so the arc sets agree.
    The drain from (t, T−1) is spent: its capacity and its flow f become
    0, and f moves onto the new holdover out of (t, T−1) and the new
    drain out of (t, T).  Both copies still conserve flow, the new drain
    carries f ≤ −b(t), and no other arc changes, so the flow stays valid
    and keeps its value.  :meth:`max_flow` at T+1 therefore only has to
    augment the flow left at T.  The layer guard is checked at
    construction and before each growth.
    """

    def __init__(self, network: Network, max_layers: int | None = None):
        _layer_guard(0, max_layers)
        self.form = form = network.integral
        self.n = n = len(network.nodes)
        self.max_layers = max_layers
        self.horizon = 0
        self.routed = 0
        # Arcs by transit: layer T appends the movement copies of a prefix.
        order = sorted(range(len(form.tails)), key=form.transits.__getitem__)
        self.transits = [form.transits[a] for a in order]
        self.tail_shift = [form.tails[a] - form.transits[a] * n for a in order]
        self.heads = [form.heads[a] for a in order]
        self.arc_caps = [form.capacities[a] for a in order]
        self.arc_costs = [form.costs[a] for a in order]
        self.graph = _kernel.Residual(2)
        # Each arc's capacity in the graph, for min_cost's resets.
        self.caps: list[int | None] = []
        # Forward edge of each sink's live drain, in ``form.sinks`` order.
        self.drains: Sequence[int] = ()

    def grow(self) -> None:
        """Append layer :attr:`horizon` and move the drains onto it.

        Raises :class:`HorizonLimitError` when the new horizon exceeds
        ``max_layers``.
        """
        layer = self.horizon
        _layer_guard(layer + 1, self.max_layers)
        n, g = self.n, self.graph
        base = 2 + layer * n
        g.add_nodes(n)
        held = range(base - n, base) if layer else range(0)
        live = bisect_right(self.transits, layer)
        sinks, balances = self.form.sinks, self.form.balances
        tails = [*held, *(base + d for d in self.tail_shift[:live]), *(base + v for v in sinks)]
        heads = [*(u + n for u in held), *(base + v for v in self.heads[:live]), *[1] * len(sinks)]
        caps = [*[None] * len(held), *self.arc_caps[:live], *(-balances[v] for v in sinks)]
        costs = [*[0] * len(held), *self.arc_costs[:live], *[0] * len(sinks)]
        if not layer:
            sources = self.form.sources
            tails += [0] * len(sources)
            heads += [2 + v for v in sources]
            caps += [balances[v] for v in sources]
            costs += [0] * len(sources)
        first = g.add_arcs(tails, heads, caps, costs)
        self.caps += caps
        start = first + 2 * (len(held) + live)
        drains = range(start, start + 2 * len(sinks), 2)
        rem = g.rem
        for old, new, v in zip(self.drains, drains, sinks):
            f = rem[old + 1]
            rem[old] = rem[old + 1] = self.caps[old // 2] = 0
            rem[first + 2 * v + 1] = f
            rem[new] -= f
            rem[new + 1] = f
        self.drains = drains
        self.horizon = layer + 1

    def max_flow(self) -> int:
        """Augment the current flow to a maximum one and return its value."""
        self.routed += _kernel.max_flow(self.graph, 0, 1)
        return self.routed

    def min_cost(self) -> Fraction:
        """The minimum cost over time at :attr:`horizon`, from a zero flow.

        Resets every residual capacity to its arc's, so the kernel's cost
        is that of the whole flow.  Raises :class:`InfeasibleError` where
        :func:`mincost_over_time` does, with the same message and
        certificate.
        """
        rem = [0] * (2 * len(self.caps))
        rem[0::2] = self.caps
        self.graph.rem = rem
        form = self.form
        self.routed, cost, _, _ = _kernel.min_cost_flow(self.graph, 0, 1, form.supply)
        if self.routed < form.supply:
            raise _too_small(self.horizon, Fraction(form.supply - self.routed, form.flow_scale))
        return Fraction(cost, form.flow_scale * form.cost_scale)


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
        if not 0 <= entry.arc < len(network.arcs):
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
            cost += network.arcs[entry.arc].cost * rate * (end - start)
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
                    f"{network.arcs[arc].capacity} during [{q},{q + 1})"
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
    return violations, cost, trace, scale


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
