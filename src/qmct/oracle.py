"""The brute-force oracle: (cost, horizon) by time expansions alone.

Its target is the static optimum, from one min-cost flow on the network
with capacities ignored; it then grows one time expansion a layer at a
time for the first horizon whose minimum cost over time reaches that
target, with max flows up to the first feasible horizon and min-cost
flows from there (:func:`quickest_mincost`).  It deliberately ignores
the pair costs, transportation dual and admissible subnetwork, and
builds its own expansion, sharing only the flow kernels with the main
path, so it can serve as an independent cross-check.  For the same
reason its expansion is the full one: it keeps the copies that
:func:`qmct.temporal.expand` prunes as unusable, so it does not rest on
that pruning's proof.  ``tests/test_oracle_boundary.py`` checks that it
imports nothing of the package but ``_kernel``, ``network``, ``errors``
and ``rationals``; it calls the kernels as ``_kernel`` attributes, so
whatever wraps them sees its calls too.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from . import _kernel
from .errors import InternalCheckError, layer_guard, too_small
from .network import Network


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


def _static_optimum(network: Network) -> Fraction:
    """Minimum cost of a static transshipment with arc capacities ignored.

    One min-cost flow on the integer form from super source ``n``, with
    an arc of capacity b into each source, to super sink ``n + 1``, with
    an arc of capacity −b out of each sink.  When it routes r short of
    the total supply, raises the :class:`InfeasibleError` of the
    expansion at :func:`horizon_upper_bound`, whose max flow is r (proof
    in :func:`quickest_mincost`).
    """
    form = network.integral
    n, b, uncapped = len(network.nodes), form.balances, [None] * len(form.tails)
    feeds, drains = {s: b[s] for s in form.sources}, {t: -b[t] for t in form.sinks}
    g = _kernel.wired(n, form.tails, form.heads, uncapped, form.costs, feeds, drains)
    routed, cost, _ = _kernel.min_cost_flow(g, n, n + 1, form.supply)
    if routed < form.supply:
        raise too_small(horizon_upper_bound(network), form.supply - routed, form.flow_scale)
    return Fraction(cost, form.flow_scale * form.cost_scale)


def quickest_mincost(network: Network, max_layers: int | None) -> tuple[Fraction, int]:
    """Brute-force (cost, horizon) of a valid network via time expansions only.

    The target is the static optimum: the least cost of a static
    transshipment with arc capacities ignored, from one min-cost flow.
    The horizon is the first one whose minimum cost over time reaches
    it.  That horizon is the answer:

    - No flow over time costs less than the target, because its
      projection onto the arcs is a static transshipment of the same
      cost.
    - The minimum cost over time never rises with the horizon: a flow
      feasible for T is feasible for T + 1 once it holds at the sinks.
    - It equals the target at :func:`horizon_upper_bound`,
      ⌈total/u_min⌉ + (n−1)·τ_max (proof in the bound's docstring).

    So the costs from the first feasible horizon on fall to the target
    and stay there, and the first horizon that reaches it is the least
    one at which the minimum cost is attained.

    The scan grows one time expansion from horizon 0 by appending a
    layer at a time.  Flow reaches a sink t no earlier than layer e(t),
    the least transit from any source to t, so every horizon up to
    max_t e(t) is infeasible and the expansion grows that far with no
    max flow.  From there up to the first feasible horizon each layer
    costs one max flow, which augments the flow left by the last one.
    There a min-cost flow starts from zero, and each later layer
    continues it from the last one's flow and potentials on the same graph
    (:meth:`_GrowingExpansion.min_cost`).  Horizon 0 is checked against
    ``max_layers`` before any work, each growth first against the bound,
    which caps the scan (passing it raises :class:`InternalCheckError`);
    so the layer guard trips only when the scan passes it.

    When the static flow routes r short of the total supply, no horizon
    is feasible, and the :class:`InfeasibleError` names the bound and
    the deficit ``total − r`` without expanding: the expansion's max
    flow at the bound is exactly r.  It is at most r, because the
    projection of a flow over time is a static flow of the same value,
    capacities ignored, and r is the most such a flow routes.  It is at
    least r, because the bound's temporally repeated flow (see its
    docstring) sends the paths of a static flow of value r within the
    bound.
    """
    layer_guard(0, max_layers)
    bound = horizon_upper_bound(network)
    target = _static_optimum(network)
    expansion = _GrowingExpansion(network)

    def grow() -> None:
        if expansion.horizon == bound:
            raise InternalCheckError(f"minimum cost over time is above {target} at horizon {bound}")
        layer_guard(expansion.horizon + 1, max_layers)
        expansion.grow()

    form = network.integral
    early = _kernel.labels(network.label_graph("transits"), dict.fromkeys(form.sources, 0))
    while expansion.horizon < min(max((early[t] for t in form.sinks), default=0), bound - 1):
        grow()
    while expansion.routed < form.supply:
        grow()
        expansion.max_flow()
    while expansion.min_cost() != target:
        grow()
    return target, expansion.horizon


class _GrowingExpansion:
    """The time expansion of a network, grown in place one layer at a time.

    The oracle scans horizons on one residual graph instead of expanding
    the network afresh for each.  With k sinks, the super source and
    super sink are nodes 0 and 1, sink t's *collector* ``c_t`` is one of
    nodes 2 .. k+1, in ``form.sinks`` order, and the copy of node ``v``
    at layer ``q`` is node ``2 + k + q·n + v``.  The collectors are made
    at construction, each with an arc ``c_t →`` super sink of capacity
    −b(t).  Unlike :func:`qmct.temporal.expand` the grower keeps the
    copies that no flow can use.

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
    deficits of :func:`~qmct.errors.too_small` agree with those of F_T
    at every T.
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
    edges u → w makes every edge into a new copy non-negative.  These are
    cheapest-path labels, from one seeded :func:`~qmct._kernel.label_correct`
    pass over the new copies' edges among themselves with each copy seeded
    at its least π(u) + c from a priced copy u.  The edges among a growth's
    copies are the copies of the transit-0 arcs; they form no negative
    cycle, as the network has none.  A copy that no edge from a priced node
    reaches keeps π = ∞: no edge can enter it later, since later growths
    only add arcs out of its layer and flow never reaches it, so no search
    meets it.  Every other residual edge out of a new copy enters a new
    copy too, so only the arcs into the collectors, of cost 0, can be left
    negative.
    """

    def __init__(self, network: Network):
        self.form = form = network.integral
        self.n = len(network.nodes)
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
        # The copies of the transit-0 arcs, the only edges among one growth's new copies.
        still = bisect_right(self.transits, 0)
        self.layer = _kernel.label_graph(
            self.n, self.tail_shift[:still], self.heads[:still], self.arc_costs[:still]
        )
        # Sink t's collector, in ``form.sinks`` order; layer 0 starts after them.
        self.collectors = range(2, 2 + len(form.sinks))
        # Each arc's capacity in the graph, for min_cost's resets and repairs.
        self.caps: list[int | None] = [-form.balances[t] for t in form.sinks]
        k = len(self.collectors)
        self.graph = _kernel.build(2 + k, self.collectors, [1] * k, self.caps)

    def grow(self) -> None:
        """Append layer :attr:`horizon` and its arcs into the collectors."""
        layer = self.horizon
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

        Raises :class:`InfeasibleError` where
        :func:`qmct.temporal.mincost_over_time` does, with the same
        message and certificate, and leaves a min-cost flow of the value
        :attr:`routed` in the graph.  The first call, and the first after
        :meth:`max_flow`, resets the graph to a zero flow and takes its
        potentials from a label pass.  Every later one starts from the
        flow and potentials the last left: it prices
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
        routed, cost, self.pi = _kernel.min_cost_flow(
            g, 0, 1, form.supply - self.routed, self.pi
        )
        self.priced = len(g.to)
        self.routed += routed
        self.cost += cost
        if self.routed < form.supply:
            raise too_small(self.horizon, form.supply - self.routed, form.flow_scale)
        return Fraction(self.cost, form.flow_scale * form.cost_scale)

    def _reprice_growth(self) -> None:
        """Price the layer grown since the potentials were set, then make
        every negative arc into a collector non-negative.

        The pricing is the seeded label pass of the class docstring, on the
        label graph of one layer's transit-0 arcs that the expansion builds
        once; the residual edges into the layer from priced copies seed it.
        The negative arcs are masked (given no capacity; none carries flow
        yet) and then repaired one at a time.  For e = (t, q)
        → c_t with δ = π(c_t) − π(t, q) > 0, :func:`_kernel.reprice`
        searches from c_t for (t, q), stopped at distance δ; the edges it
        may scan, all but the masked ones, keep reduced costs >= 0 (proof
        in its docstring).

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
        g, pi, priced = self.graph, self.pi, len(self.pi)
        if g.n - priced != self.n:
            raise InternalCheckError("potentials must be set before every growth")
        to, rem, cost = g.to, g.rem, g.cost
        new = range(self.priced, len(to), 2)
        seeds: dict[int, int] = {}  # least π(u) + c into each new copy from a priced u
        for e in new:
            v, u = to[e] - priced, to[e ^ 1]
            if v < 0 or u >= priced or rem[e] == 0:  # rem None: uncapacitated
                continue
            if (d := pi[u] + cost[e]) < seeds.get(v, _kernel.INF):
                seeds[v] = d
        pi += [_kernel.INF if d is None else d for d in _kernel.labels(self.layer, seeds)]
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
