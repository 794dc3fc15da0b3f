"""Flows over time on unit-step time-expanded networks.

The expansion for an integer horizon ``T`` has one layer per unit
interval ``[q, q+1)``, ``q = 0..T-1``.  A copy of arc ``a`` at layer
``q`` carries the amount entering ``a`` during that interval (so its
capacity is the arc's rate bound) and delivers it during
``[q + transit, q + transit + 1)``; the copy exists only when
``q + transit <= T - 1`` so that everything has arrived by ``T``.
Holdover arcs let flow wait free of charge at any node with arcs in and
out.  Supplies enter and demands leave at any layer through one
collector node per terminal, wired to a super terminal, which makes
feasibility at horizon ``T`` a max-flow question and minimum cost over
time a min-cost-flow question on the expansion.  :func:`expand` builds
only the copies that some flow could use, those reached from a source
in time and reaching a sink by the horizon, and a terminal without
holdovers keeps no copy but its collector.  The quickest horizon is
found by probing only at proven lower bounds, each in closed form from
one terminal subset's shortest paths (:func:`quickest_transshipment`).
Results keep no expansion: a probe's flows live only until its movement
copies are read back into a :class:`FlowOverTime`.

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
from itertools import accumulate
from typing import AbstractSet, Sequence

from . import _kernel
from .corridors import merge_corridors
from .errors import InfeasibleError, InternalCheckError, layer_guard, too_small
from .network import Network, NodeId


@dataclass(frozen=True)
class TimeExpandedGraph:
    """Static expansion of a network over an integer horizon.

    The nodes are the kept copies ``(v, layer)`` of the nodes with
    holdovers, node by node and each node's by layer, then the
    terminals' collectors in node order, each also every copy of a
    terminal without holdovers, then the super source and super sink;
    only :func:`expand` knows which copy an index is.  Arc order is
    movement copies first (aligned with ``movement``), arc by arc and
    each arc's by layer, then the kept holdover arcs from
    ``holdover_start``, node by node and each node's by layer, then from
    ``wiring_start`` each terminal's arc between its collector and a
    super terminal, in node order, then the arcs between the collectors
    and the other copies; the properties derive from the stored fields.
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
    holdover chain from layer 0 or up to layer T − 1.  Holdovers stay only
    at the nodes that some arc enters and some arc leaves.  Any other
    node with copies is a source that no arc enters, where waiting flow
    could have entered a layer later from the collector over an
    uncapacitated arc of cost 0, or a sink that no arc leaves, where it
    could drain at once.  So every flow maps to one of the same value and
    cost, and the flows are in value and cost those of the expansion with
    every holdover, wired at layers 0 and T − 1 alone: flow sent into
    (s, q) could as well enter (s, 0) and wait, and flow drained at
    (t, q) could wait up to (t, T − 1).  A copy of such a terminal then
    meets only its collector arc and movement copies, so it is contracted
    into the collector: flows map both ways, at the same value and cost.

    Let ``e(v)`` be the least transit from any source to v and ``ℓ(v)``
    the least transit from v to any sink, ∞ without a path (transits are
    non-negative).  Flow sent into the super source reaches copy
    ``(v, q)`` only if ``e(v) <= q``, and flow at ``(v, q)`` reaches the
    super sink only if ``q + ℓ(v) <= T − 1``.  So the movement copy of
    arc ``a = (u, w)`` at layer q is kept iff ``e(u) <= q`` and ``q + τ_a
    + ℓ(w) <= T − 1``, the holdover ``(v, q) → (v, q+1)`` at a node v
    that keeps holdovers iff ``e(v) <= q`` and ``q + 1 + ℓ(v) <= T − 1``,
    the arc between a terminal's collector and its copy at layer q iff
    ``e(v) <= q <= T − 1 − ℓ(v)`` (a source has e = 0, a sink ℓ = 0), and
    every wiring arc between a super terminal and a collector is kept.
    Conversely, every other arc kept lies on the path that leaves a
    source's collector, reaches the arc's tail by least transits and
    waits there (a tail that no arc enters is a source, entered at that
    layer), crosses the arc and reaches a sink's collector in time.  So
    the kept copies, those with ``e(v) <= q <= T − 1 − ℓ(v)``, and the
    kept arcs but the wiring are, before the contraction, exactly those
    on some super source → super sink path of the full expansion, which
    has every copy and the same holdovers.  The copies of each node, and
    those of each arc, are one run of layers, so ids are arithmetic: the
    copies with holdovers are numbered node by node, ``(v, q)`` as
    ``base[v] + q``, then come the collectors in node order, then the
    super source and super sink; the movement copies come arc by arc and
    the holdovers node by node, each run by layer.

    Nothing a caller reads changes but which max flow Dinic
    (:func:`_kernel.max_flow`) returns, and so the schedule: its levels
    lose a hop at a contracted sink.  In the full expansion let R be the
    nodes the super source reaches and L those that reach the super
    sink.  No arc leaves R and none enters L from outside, so the kept
    arcs but the wiring, the arcs from R into L, join nodes of R ∩ L.
    A flow's super source → super sink paths use only those, and its
    cycles stay in one layer and cost >= 0, as the network has no
    negative cycle; so max-flow values and min costs agree.  The
    residual-reachable set X is that of every max flow, the least
    minimum cut.  For one on the kept arcs, no residual edge enters L
    from outside, so X agrees on L, which holds every sink's collector; a
    source's collector outside L keeps its wiring arc, which carries no
    flow, so it is in X on both.  Lifted back, a contracted copy is in X
    only with its collector and other nodes are as before, so A_X
    (:func:`_violated_subset`), read off the collectors, is the same.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    form = network.integral
    n = len(network.nodes)
    # No path counts as ∞; the horizon is far enough to keep no copy.
    early, late = ([horizon if d is None else d for d in ds] for ds in _least_transits(network))
    # Node v has copies at layers e(v) .. T − 1 − ℓ(v); those of a node with
    # arcs in and out are numbered node by node, copy (v, q) as ``base[v] + q``.
    through = set(form.tails) & set(form.heads)
    base, count = [0] * n, 0
    for v in sorted(through):
        base[v] = count - early[v]
        count += max(horizon - late[v] - early[v], 0)
    # Terminal j's collector is node ``count + j``, also its copies outside ``through``.
    terminals = [(v, b) for v, b in enumerate(form.balances) if b] if horizon else []
    collector = {v: c for c, (v, _) in enumerate(terminals, count) if v not in through}

    def run(v: int, first: int, stop: int) -> Sequence[int]:
        """The ids of v's copies at layers ``first .. stop − 1``, none if stop <= first."""
        if v in collector:
            return [collector[v]] * (stop - first)
        return range(base[v] + first, base[v] + stop)

    # Arc i = (u, w) keeps its copies at layers e(u) .. T − τ − ℓ(w) − 1, arc by arc.
    tails: list[int] = []
    heads: list[int] = []
    movement: list[tuple[int, int]] = []
    for i, (u, w, tau) in enumerate(zip(form.tails, form.heads, form.transits)):
        first, stop = early[u], horizon - tau - late[w]
        tails += run(u, first, stop)
        heads += run(w, first + tau, stop + tau)
        movement += [(i, q) for q in range(first, stop)]
    caps: list[int | None] = [form.capacities[i] for i, _ in movement]
    costs = [form.costs[i] for i, _ in movement]
    # Holdover ``(v, q) → (v, q+1)`` wherever v keeps holdovers and both copies, node by node.
    for v in sorted(through):
        copies = run(v, early[v], horizon - late[v])
        tails += copies[:-1]
        heads += copies[1:]

    super_source = count + len(terminals)
    super_sink = super_source + 1
    wiring_start = len(tails)
    caps += [None] * (wiring_start - len(caps)) + [abs(b) for _, b in terminals]
    for c, (_, b) in enumerate(terminals, count):
        tails.append(super_source if b > 0 else c)
        heads.append(c if b > 0 else super_sink)
    for c, (v, b) in enumerate(terminals, count):
        ends = run(v, early[v], horizon - late[v]) if v in through else []
        tails += [c] * len(ends) if b > 0 else ends
        heads += ends if b > 0 else [c] * len(ends)
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
    # Runs [start, end, flow] per arc; each arc's movement copies come by layer.
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
    :func:`expand` (super source in, super sink out), each contracted
    copy on its collector's side, gives A_X, the terminals whose
    collector is in X.  No uncapacitated arc leaves X:
    with the collector of a source s in X all of s's copies are, and
    with the collector of a sink t outside X none of t's copies is.  So
    its capacity is Σ_{s∉A_X} b_s + Σ_{t∈A_X} −b_t + M(X), M(X) being
    the movement copies leaving X.  As :func:`expand` argues, o^T(A) is
    also the max flow of the *A problem*: the expansion with the same
    holdovers and uncapacitated collectors for A's sources and the sinks
    outside A alone.  The copies in X cut the A_X problem: they hold
    every copy of A_X's sources and none of the sinks outside A_X, and
    no kept holdover leaves them.  So M(X) >= o^T(A_X) and the capacity
    is >= total − b(A_X) + o^T(A_X).  Conversely the source side Y of a
    minimum cut of the A problem, with the collectors of A's sinks, has
    capacity <= total − b(A) + o^T(A): Y holds every copy of A's sources
    and no copy of the sinks outside A, and no kept holdover leaves it.
    The least cut, the max flow, reaches the total iff no A is violated.

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


def _holdings(start: int, changes: Sequence[tuple[int, int]], horizon: int) -> list[int]:
    """A node's holdings at times 0..horizon, from those at 0 and its rate changes."""
    rates = [0] * (horizon + 1)
    for time, d in changes:
        rates[time] += d
    return list(accumulate(accumulate(rates[:horizon]), initial=start))


def _replay(
    network: Network, schedule: FlowOverTime
) -> tuple[list[str], Fraction, list[tuple[int, list[tuple[int, int]]]], int]:
    """Simulate a schedule by sweeping rate changes over the integer form.

    Returns the violations, the exact cost, per node its holdings at time
    0 and its net inflow rate changes ``(time, ±rate)``, a pair per move,
    in units of ``1/scale``, and ``scale``.  A schedule that is no
    :class:`FlowOverTime`, a horizon that is not an int, or is negative,
    and ``arc_flows`` that are not a tuple or list raise ValueError.
    Entries that are no :class:`ArcIntervals`, or have a bad arc,
    intervals, rate or interval, are reported and skipped; the cost sums
    in integers at ``scale``.
    """
    if not isinstance(schedule, FlowOverTime):
        raise ValueError(f"schedule {schedule!r} is not a FlowOverTime")
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
    # Per node, its net inflow rate changes, a pair per move; per arc, its rate changes.
    node_changes: list[list[tuple[int, int]]] = [[] for _ in network.nodes]
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
            node_changes[v] += [(min(start + shift, horizon), d), (min(stop + shift, horizon), -d)]
    for arc, changes in arc_changes.items():
        changes.sort()
        for (lo, _), (hi, _), rate in zip(changes, changes[1:], accumulate(d for _, d in changes)):
            if rate > form.capacities[arc] * up:
                violations.extend(
                    f"arc {arc}: rate {Fraction(rate, scale)} exceeds capacity "
                    f"{Fraction(form.capacities[arc], form.flow_scale)} during [{q},{q + 1})"
                    for q in range(lo, hi)
                )
    nodes: list[tuple[int, list[tuple[int, int]]]] = []
    for v, name in enumerate(network.nodes):
        b, moves = form.balances[v] * up, node_changes[v]
        initial = held = low = max(b, 0)
        nodes.append((initial, moves))
        # Holdings are linear between two changes, so the least is at a change.
        rate = last = 0
        for time, d in sorted(moves):
            held += rate * (time - last)
            low, rate, last = min(low, held), rate + d, time
        held += rate * (horizon - last)
        if min(low, held) < 0:  # only then step by step, where flow moves
            moving = {q for (lo, _), (hi, _) in zip(moves[::2], moves[1::2]) for q in range(lo, hi)}
            violations.extend(
                f"node {name!r}: flow deficit {Fraction(h, scale)} during [{q},{q + 1})"
                for q, h in enumerate(_holdings(initial, moves, horizon)[1:])
                if h < 0 and q in moving
            )
        if held != max(-b, 0):
            violations.append(
                f"node {name!r}: {Fraction(held, scale)} units remain at horizon, "
                f"expected {Fraction(max(-b, 0), scale)}"
            )
    return violations, Fraction(cost, scale * form.cost_scale), nodes, scale


def verify_schedule(network: Network, schedule: FlowOverTime) -> ScheduleVerification:
    """Check a schedule against capacities, conservation and balances.

    Returns a report listing every violation (never raises) along with
    the exact recomputed cost, in O(|schedule| log |schedule|) time but
    for the steps of a node in deficit, whatever the horizon; a schedule
    that is no :class:`FlowOverTime`, a horizon that is not an int, or
    is negative, or ``arc_flows`` that are not a tuple or list, is the
    only one, at cost 0.
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
    out; a schedule that is no :class:`FlowOverTime`, a horizon that is
    not an int, or is negative, and ``arc_flows`` that are not a tuple or
    list raise ValueError.
    """
    _, _, nodes, scale = _replay(network, schedule)
    holdings = (_holdings(*node, schedule.horizon) for node in nodes)
    return {v: tuple(Fraction(h, scale) for h in held) for v, held in zip(network.nodes, holdings)}
