"""Flows over time on unit-step time-expanded networks.

The expansion for an integer horizon ``T`` has one layer per unit
interval ``[q, q+1)``, ``q = 0..T-1``.  A copy of arc ``a`` at layer
``q`` carries the amount entering ``a`` during that interval (so its
capacity is the arc's rate bound) and delivers it during
``[q + transit, q + transit + 1)``; the copy exists only when
``q + transit <= T - 1`` so that everything has arrived by ``T``.
Holdover arcs let flow wait at any node free of charge.  Supplies enter
and demands leave at any layer, through one collector node per terminal
wired to a super terminal, which makes feasibility at horizon ``T`` a
max-flow question and minimum cost over time a min-cost-flow question
on the expansion.  :func:`expand` builds only the copies that some flow
could use: those reached from a source in time and reaching a sink by
the horizon.  The quickest horizon is found by probing only at proven
lower bounds, each in closed form from one terminal subset's shortest
paths (:func:`quickest_transshipment`).  Results keep no expansion: a
probe's flows live only until its movement copies are read back into a
:class:`FlowOverTime`.

Everything here reads :attr:`Network.integral`, built with the network
however many horizons are expanded; other balances make another
network (:meth:`Network.with_balances`).  Time is counted in steps of
``1/time_scale`` of the input's time unit, so a transit ``τ`` takes
``τ·time_scale`` steps; horizons, layers and schedule times are all in
those steps, the unit of every report's ``horizon`` and ``scale``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from typing import AbstractSet, Sequence

from . import _kernel
from .corridors import merge_corridors
from .errors import InfeasibleError, InternalCheckError, layer_guard, too_small
from .network import Network, NodeId


@dataclass(frozen=True)
class TimeExpandedGraph:
    """Static expansion of a network over an integer horizon.

    The nodes are the copies ``(v, layer)`` that :func:`expand` keeps,
    numbered in the order of ``layer·n + v``, then the terminals'
    collectors in node order, then the super source and super sink;
    only ``expand`` knows which copy an index is.  Arc order is movement
    copies first (aligned with ``movement``), then holdover arcs from
    ``holdover_start``, then from ``wiring_start`` each terminal's arc
    between its collector and a super terminal, in node order, then the
    arcs between the collectors and their copies; the properties derive
    from the stored fields.
    Capacities and costs are integers at the scales of the network's
    :attr:`~Network.integral` form, the one owner of scales and supply.
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


def _least_transits(network: Network) -> tuple[tuple[int | None, ...], tuple[int | None, ...]]:
    """``e(v)`` and ``ℓ(v)``: the least transit in steps from any source
    to v and from v to any sink, None where there is no path.

    They depend on the network alone, so they are labelled once per
    network and kept in its :attr:`~Network.label_cache`: a search
    expands one network at every probe.
    """
    cache = network.label_cache
    if "least transits" not in cache:
        form = network.integral
        early = _kernel.labels(network.label_graph("transits"), dict.fromkeys(form.sources, 0))
        late = _kernel.labels(network.label_graph("transits", True), dict.fromkeys(form.sinks, 0))
        cache["least transits"] = tuple(early), tuple(late)
    return cache["least transits"]


def expand(network: Network, horizon: int) -> TimeExpandedGraph:
    """Build the live part of the time expansion for an integer horizon.

    Every terminal has a *collector*.  The super source feeds a source's
    collector at capacity b(s), and the collector feeds every copy of s;
    every copy of a sink t drains into its collector, which drains into
    the super sink at capacity −b(t).  The arcs between a collector and
    its copies are uncapacitated and cost 0, so flow enters and leaves
    the expansion at any layer, and an augmenting path need not walk a
    holdover chain from layer 0 or up to layer T − 1.  The holdovers stay,
    at the terminals too, so the flows are in value and cost those of the
    expansion wired at layers 0 and T − 1 alone: flow sent into (s, q)
    could as well enter (s, 0) and wait, and flow drained at (t, q) could
    wait up to (t, T − 1).

    Let ``e(v)`` be the least transit from any source to v and ``ℓ(v)``
    the least transit from v to any sink, ∞ without a path (transits are
    non-negative).  Flow sent into the super source reaches copy
    ``(v, q)`` only if ``e(v) <= q``, and flow at ``(v, q)`` reaches the
    super sink only if ``q + ℓ(v) <= T − 1``.  So the movement copy of
    arc ``a = (u, w)`` at layer q is kept iff ``e(u) <= q`` and ``q + τ_a
    + ℓ(w) <= T − 1``, the holdover ``(v, q) → (v, q+1)`` iff ``e(v) <=
    q`` and ``q + 1 + ℓ(v) <= T − 1``, the arc between a terminal's
    collector and its copy at layer q iff ``e(v) <= q <= T − 1 − ℓ(v)``
    (a source has e = 0, a sink ℓ = 0), and every wiring arc between a
    super terminal and a collector is kept.  Conversely, every other arc
    kept lies on the path that leaves a source's collector, reaches the
    arc's tail by least transits and waits there, crosses the arc and
    reaches a sink's collector in time.  So the kept copies, those with
    ``e(v) <= q <= T − 1 − ℓ(v)``, and the kept arcs but the wiring are
    exactly those on some super source → super sink path of the full
    expansion.  The copies get ids in the order of ``q·n + v``, then come
    the collectors in node order, then the super source and super sink;
    with arcs in order, each node lists its edges and ties break as in
    the full one.

    Nothing a caller reads changes.  In the full expansion let R be the
    nodes the super source reaches and L those that reach the super
    sink.  No arc leaves R and none enters L from outside, so the kept
    arcs but the wiring, the arcs from R into L, join nodes of R ∩ L.
    Both kernels augment along residual super source → super sink
    paths, and such a path never leaves R and, ending in L, never leaves
    L, as long as only kept arcs carry flow (their reverse edges stay
    inside R ∩ L); so its forward edges are kept arcs, and by induction
    every flow the kernels reach on the full expansion uses kept arcs
    only.  Hence:

    - the max-flow values agree, and so do min costs: the min-cost flow
      that successive shortest paths find on the full expansion, which
      has no negative cycle as the network has none, is a flow of the
      kept part;
    - Dinic (:func:`_kernel.max_flow`) makes the same augmentations: the
      shortest residual path to the super sink from a node of R is one
      such path, so the levels that its blocking flow reads are the same,
      and its search from the super source steps only along kept edges;
    - the residual-reachable set after it agrees on every node of L, as
      a residual path into L never leaves it.  Every sink's collector is
      in L, and a source's collector outside L keeps its wiring arc,
      which carries no flow, so A_X (:func:`_violated_subset`) is the same.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    form = network.integral
    transits, arc_tails = form.transits, form.tails
    caps_int, costs_int = form.capacities, form.costs
    n = len(network.nodes)
    # No path counts as ∞; the horizon is far enough to keep no copy.
    early, late = ([horizon if d is None else d for d in ds] for ds in _least_transits(network))
    # Node v keeps its copies at layers e(v) .. T − 1 − ℓ(v); ids follow
    # the order of ``layer·n + v``.
    spans = [range(early[v] * n + v, (horizon - late[v]) * n, n) for v in range(n)]
    kept = sorted(chain.from_iterable(spans))
    ids = dict(zip(kept, range(len(kept))))
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
    tails = [ids[layer * n + arc_tails[i]] for layer, i in copies]
    heads = [ids[layer * n + head_shift[i]] for layer, i in copies]
    caps: list[int | None] = [caps_int[i] for _, i in copies]
    costs = [costs_int[i] for _, i in copies]
    movement = [(i, layer) for layer, i in copies]
    # Holdover ``(v, q) → (v, q+1)`` wherever both copies are kept, by its tail.
    waits = [key for key in kept if key + n in ids]
    tails += [ids[key] for key in waits]
    heads += [ids[key + n] for key in waits]
    caps += [None] * len(waits)
    costs += [0] * len(waits)

    # Terminal j's collector is node ``len(kept) + j``.
    terminals = [(v, b) for v, b in enumerate(form.balances) if b] if horizon else []
    super_source = len(kept) + len(terminals)
    super_sink = super_source + 1
    wiring_start = len(tails)
    for collector, (v, b) in enumerate(terminals, len(kept)):
        tails.append(super_source if b > 0 else collector)
        heads.append(collector if b > 0 else super_sink)
        caps.append(abs(b))
    for collector, (v, b) in enumerate(terminals, len(kept)):
        ends = [ids[key] for key in spans[v]]
        if b > 0:
            tails += [collector] * len(ends)
            heads += ends
        else:
            tails += ends
            heads += [collector] * len(ends)
    caps += [None] * (len(tails) - len(caps))
    costs += [0] * (len(tails) - len(costs))

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


def _solve_max(graph: TimeExpandedGraph, supply: int) -> tuple[int, list[int], set[int] | None]:
    """Max-flow value, the movement copies' flows and, for a value short of
    ``supply``, the residual cut."""
    g = _kernel.build(graph.num_nodes, graph.tails, graph.heads, graph.capacities)
    value = _kernel.max_flow(g, graph.super_source, graph.super_sink)
    reachable = _kernel.residual_reachable(g, graph.super_source) if value < supply else None
    return value, g.rem[1 : 2 * len(graph.movement) : 2], reachable


def feasible(network: Network, horizon: int) -> bool:
    """True when all supplies can reach their demands within the horizon."""
    supply = network.integral.supply
    return _solve_max(expand(network, horizon), supply)[0] == supply


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
    ``Σ amount·(d − length) >= need``.  A path's length is its cost
    π(super sink) − π(super source); π(super sink) alone is that only
    while :func:`_kernel.reprice` keeps π(super source) at 0.
    """
    form, n = network.integral, len(network.nodes)
    feeds = dict.fromkeys(s for s in form.sources if s in subset)
    drains = dict.fromkeys(t for t in form.sinks if t not in subset)
    g = _kernel.wired(n, form.tails, form.heads, form.capacities, form.transits, feeds, drains)
    pi = [0] * (n + 2)
    paths: list[tuple[int, int]] = []
    flow = weighted = 0
    while (amount := _kernel.augment(g, n, n + 1, pi)) is not None:
        length = pi[n + 1] - pi[n]
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


def _violated_subset(network: Network, graph: TimeExpandedGraph, reachable: set[int]) -> set[int]:
    """A_X, as node indices, for the residual-reachable set X of an infeasible
    probe: the terminals whose wiring arc's lower end, their collector, is in X."""
    terminals = (v for v, b in enumerate(network.integral.balances) if b)
    wiring = zip(graph.tails[graph.wiring_start :], graph.heads[graph.wiring_start :])
    return {v for v, ends in zip(terminals, wiring) if min(ends) in reachable}


def quickest_transshipment(network: Network, max_layers: int | None = None) -> QuickestResult:
    """Smallest integer horizon H admitting a full transshipment.

    Every probe is an expansion max flow at a proven lower bound on H,
    so the first feasible one is at H.  For a terminal set A let b(A)
    be its supply minus its demand, and o^T(A) the max flow on the
    expansion for T with uncapacitated super arcs into the layer-0
    copies of A's sources and out of the layer-(T−1) copies of the
    sinks outside A.

    *Criterion* (Klinz; Hoppe & Tardos, Math. OR 2000): T is feasible
    iff b(A) <= o^T(A) for all A.  A finite cut X of the expansion of
    :func:`expand` (super source in, super sink out) gives A_X, the
    terminals whose collector is in X.  No uncapacitated arc leaves X:
    with the collector of a source s in X all of s's copies are, and
    with the collector of a sink t outside X none of t's copies is.  So
    its capacity is Σ_{s∉A_X} b_s + Σ_{t∈A_X} −b_t + M(X), M(X) being
    the movement copies leaving X.  The copies in X also cut the A_X
    problem: they hold every copy of A_X's sources and none of the
    sinks outside A_X, and no holdover leaves them.  So M(X) >=
    o^T(A_X) and the capacity is >= total − b(A_X) + o^T(A_X).
    Conversely the source side Y of a minimum cut of the A problem, with
    the super source and the collectors of A, has capacity <= total −
    b(A) + o^T(A): Y holds every copy of A's sources and no copy of the
    sinks outside A, since no holdover leaves it.  The least cut, the
    max flow, reaches the total iff no A is violated.

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
    All of this runs on the network with its corridors merged
    (:mod:`qmct.corridors`), which has the same feasible horizons and
    T_A; the schedule is unfolded onto the input's arcs, and
    ``cut_nodes`` gains the merged nodes behind those it names.
    A probe above ``max_layers`` raises :class:`HorizonLimitError` before
    its expansion is built, and its ``requested`` horizon, a proven
    lower bound on H, shows that H exceeds the limit; a negative
    ``max_layers`` raises :class:`ValueError` before any work.
    """
    layer_guard(0, max_layers)
    merged = merge_corridors(network)
    network = merged.network
    form, horizon = network.integral, 0
    terminals = {*form.sources, *form.sinks}
    seed = [(s, {s}, "supply at {!r} cannot reach any sink") for s in form.sources]
    seed += [
        (t, terminals - {t}, "demand at {!r} cannot be reached by any source")
        for t in form.sinks
        if len(terminals) > 2  # else all terminals but t are a source's {s} or supply nothing
    ]
    for node, subset, message in seed:
        try:
            horizon = max(horizon, _subset_horizon(network, subset))
        except InfeasibleError:
            name, side = network.nodes[node], "source" if node in subset else "sink"
            raise InfeasibleError(message.format(name), {"isolated": name, "side": side}) from None
    while True:
        layer_guard(horizon, max_layers)
        graph = expand(network, horizon)
        value, flows, reachable = _solve_max(graph, form.supply)
        if value == form.supply:
            schedule = _schedule_from_movement(graph, flows, form.flow_scale)
            return QuickestResult(merged.unfold(schedule))
        try:
            bound = _subset_horizon(network, _violated_subset(network, graph, reachable))
        except InfeasibleError as cut_off:
            merged.widen_cut(cut_off.certificate)
            raise
        if bound <= horizon:
            raise InternalCheckError(f"cut at horizon {horizon} gives bound {bound}")
        horizon = bound


def mincost_over_time(network: Network, horizon: int) -> MincostOverTimeResult:
    """Minimum-cost transshipment within a fixed integer horizon.

    Too small a horizon, 0 included, raises :class:`InfeasibleError`
    with the horizon and the undelivered deficit as its certificate.
    """
    graph, form = expand(network, horizon), network.integral
    g = _kernel.build(graph.num_nodes, graph.tails, graph.heads, graph.capacities, graph.costs)
    routed, cost, _ = _kernel.min_cost_flow(g, graph.super_source, graph.super_sink, form.supply)
    if routed < form.supply:
        raise too_small(horizon, form.supply - routed, form.flow_scale)
    flows = g.rem[1 : 2 * len(graph.movement) : 2]
    schedule = _schedule_from_movement(graph, flows, form.flow_scale)
    return MincostOverTimeResult(Fraction(cost, form.flow_scale * form.cost_scale), schedule)


def _replay(
    network: Network, schedule: FlowOverTime
) -> tuple[list[str], Fraction, dict[NodeId, list[int]], int]:
    """Simulate a schedule by prefix sums over the integer form.

    Returns the violations, the exact cost, each node's holdings at times
    0..horizon in units of ``1/scale``, and ``scale``; a horizon that is not
    an int, or is negative, and ``arc_flows`` that are not a tuple or list
    raise ValueError.  Entries that are no
    :class:`ArcIntervals`, or have a bad arc, intervals, rate or interval,
    are reported and skipped; the cost sums in integers at ``scale``.
    """
    form = network.integral
    horizon = schedule.horizon
    if type(horizon) is not int:
        raise ValueError(f"horizon {horizon!r} is not an int")
    if horizon < 0:
        raise ValueError(f"horizon {horizon} is negative")
    if not isinstance(schedule.arc_flows, (tuple, list)):
        raise ValueError(f"arc_flows {schedule.arc_flows!r} is not a tuple or list")
    violations: list[str] = []
    valid: list[tuple[int, int, int, Fraction]] = []
    for entry in schedule.arc_flows:
        if not isinstance(entry, ArcIntervals):
            violations.append(f"schedule entry {entry!r} is not an ArcIntervals")
            continue
        if type(entry.arc) is not int or not 0 <= entry.arc < len(form.tails):
            violations.append(f"schedule references unknown arc {entry.arc!r}")
            continue
        if not isinstance(entry.intervals, (tuple, list)):
            violations.append(f"arc {entry.arc}: bad intervals {entry.intervals!r}")
            continue
        latest = horizon - form.transits[entry.arc]
        for interval in entry.intervals:
            try:
                start, end, rate = interval
            except (TypeError, ValueError):
                violations.append(f"arc {entry.arc}: bad interval {interval!r}")
                continue
            if isinstance(rate, bool) or not isinstance(rate, (int, Fraction)):
                violations.append(f"arc {entry.arc}: rate {rate!r} is not an int or Fraction")
                continue
            if rate < 0:
                violations.append(f"arc {entry.arc}: negative rate {rate}")
                continue
            if type(start) is not int or type(end) is not int or start < 0 or end <= start:
                violations.append(f"arc {entry.arc}: bad interval [{start},{end})")
                continue
            if end > latest:
                violations.append(
                    f"arc {entry.arc}: inflow during [{start},{end}) cannot arrive "
                    f"by horizon {horizon}"
                )
            valid.append((entry.arc, start, end, rate))
    # One scale makes the balances, capacities and every rate integers.
    scale = math.lcm(form.flow_scale, *(rate.denominator for *_, rate in valid))
    up = scale // form.flow_scale
    # Per node, a difference array of its net inflow rate and the spans of
    # flow through it (only there is a deficit reported); per arc, its rate changes.
    flow = [[0] * (horizon + 1) for _ in network.nodes]
    moves: list[list[tuple[int, int]]] = [[] for _ in network.nodes]
    arc_changes: dict[int, list[tuple[int, int]]] = {}
    cost = 0
    for arc, start, end, rate in valid:
        r = rate.numerator * (scale // rate.denominator)
        cost += form.costs[arc] * r * (end - start)
        if not r or start >= horizon:  # a zero rate moves nothing; inflow at or after H is dropped
            continue
        stop = min(end, horizon)
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
    return violations, Fraction(cost, scale * form.cost_scale), trace, scale


def verify_schedule(network: Network, schedule: FlowOverTime) -> ScheduleVerification:
    """Check a schedule against capacities, conservation and balances.

    Returns a report listing every violation (never raises) along with
    the exact recomputed cost; a horizon that is not an int, or is
    negative, or ``arc_flows`` that are not a tuple or list, is the only
    one, at cost 0.
    """
    try:
        violations, cost, _, _ = _replay(network, schedule)
    except ValueError as bad_shape:
        return ScheduleVerification((str(bad_shape),), Fraction(0))
    return ScheduleVerification(tuple(violations), cost)


def storage_trace(
    network: Network, schedule: FlowOverTime
) -> dict[NodeId, tuple[Fraction, ...]]:
    """Amount held at each node at integer times 0..horizon.

    Schedule entries that :func:`verify_schedule` rejects (no
    :class:`ArcIntervals`, unknown arcs, bad intervals or rates) are left
    out; a horizon that is not an int, or is negative, and ``arc_flows``
    that are not a tuple or list raise ValueError.
    """
    _, _, trace, scale = _replay(network, schedule)
    return {v: tuple(Fraction(h, scale) for h in held) for v, held in trace.items()}
