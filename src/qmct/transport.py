"""Static transportation problem between sources and sinks.

The bipartite instance connects every source-sink pair that is joined by
a path, with the pair's cheapest-path cost as arc cost and unlimited
capacity.  Solving it yields the primal shipment plan, an optimal dual
vector on the terminals, and the set of active (tight) pairs.  Amounts,
shipments included, are the integers of :attr:`Network.integral
<qmct.network.Network.integral>` at its ``flow_scale``, and costs and
duals at its ``cost_scale``, so the kernel's min-cost flow runs on them
as they are; only the optimum and error messages are ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import _kernel
from .errors import InfeasibleError, InternalCheckError
from .network import Network, NodeId


@dataclass(frozen=True)
class TransportationInstance:
    """Bipartite shipment problem with uncapacitated pair arcs.

    ``pairs[k] = (i, j)`` connects ``sources[i]`` to ``sinks[j]`` at cost
    ``costs[k]``.  ``supplies`` and ``demands`` are positive and sum to
    the same total.  Amounts are integers at ``flow_scale`` and costs at
    ``cost_scale``.
    """

    sources: tuple[NodeId, ...]
    supplies: tuple[int, ...]
    sinks: tuple[NodeId, ...]
    demands: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    costs: tuple[int, ...]
    flow_scale: int
    cost_scale: int

    def pair_nodes(self, k: int) -> tuple[NodeId, NodeId]:
        i, j = self.pairs[k]
        return self.sources[i], self.sinks[j]


@dataclass(frozen=True)
class DualSolution:
    """Dual values on terminal nodes, integers at the instance's ``cost_scale``;
    feasible when y[s] - y[t] <= cost(s,t)."""

    values: Mapping[NodeId, int]

    def __getitem__(self, node: NodeId) -> int:
        return self.values[node]


@dataclass(frozen=True)
class TransportSolution:
    instance: TransportationInstance
    shipments: tuple[int, ...]
    dual: DualSolution
    optimum: Fraction


def build(
    network: Network, costs: Mapping[tuple[NodeId, NodeId], int]
) -> TransportationInstance:
    """Assemble the bipartite instance from pairwise cheapest-path costs
    at the network's ``cost_scale``, with its integer balances.

    Raises :class:`InfeasibleError` naming the first terminal that has no
    usable pair at all (a source that reaches no sink, or a sink no
    source reaches).
    """
    sources = network.sources
    sinks = network.sinks
    source_pos = {s: i for i, s in enumerate(sources)}
    sink_pos = {t: j for j, t in enumerate(sinks)}
    pairs: list[tuple[int, int]] = []
    pair_costs: list[int] = []
    for (s, t), c in costs.items():
        if s in source_pos and t in sink_pos:
            pairs.append((source_pos[s], sink_pos[t]))
            pair_costs.append(c)
    covered_sources = {i for i, _ in pairs}
    covered_sinks = {j for _, j in pairs}
    for i, s in enumerate(sources):
        if i not in covered_sources:
            raise InfeasibleError(
                f"source {s!r} cannot reach any sink",
                certificate={"isolated": s, "side": "source"},
            )
    for j, t in enumerate(sinks):
        if j not in covered_sinks:
            raise InfeasibleError(
                f"no source can reach sink {t!r}",
                certificate={"isolated": t, "side": "sink"},
            )
    form, idx = network.integral, network.node_index
    return TransportationInstance(
        sources=sources,
        supplies=tuple(form.balances[idx(s)] for s in sources),
        sinks=sinks,
        demands=tuple(-form.balances[idx(t)] for t in sinks),
        pairs=tuple(pairs),
        costs=tuple(pair_costs),
        flow_scale=form.flow_scale,
        cost_scale=form.cost_scale,
    )


def solve(instance: TransportationInstance) -> TransportSolution:
    """Optimal shipments plus an optimal dual, both certified exactly.

    Sources are kernel nodes ``0..p-1`` and sinks ``p..p+q-1``; a super
    source ``p+q`` feeds every source its supply and every sink drains
    its demand into a super sink ``p+q+1``.  The shipments are the pair
    arcs' flows, and the dual of a terminal is its negated min-cost
    potential, both at the instance's scales.

    The dual is then checked outright: feasibility on every pair, strong
    duality against the primal cost, and pairwise complementary
    slackness.  Any failure is a solver bug and raises
    :class:`InternalCheckError`.

    Raises :class:`ValueError` when supplies and demands have different
    totals, and :class:`InfeasibleError` with a deficient terminal
    subset (the sources and sinks still reachable in the residual graph
    once routing stops short) when the supplies cannot be matched to the
    demands.
    """
    p = len(instance.sources)
    q = len(instance.sinks)
    flow_scale = instance.flow_scale
    total = sum(instance.supplies)
    imbalance = total - sum(instance.demands)
    if imbalance != 0:
        raise ValueError(f"balances sum to {Fraction(imbalance, flow_scale)}, expected 0")

    m = len(instance.pairs)
    n = p + q
    g = _kernel.build(
        n + 2,
        [*(i for i, _ in instance.pairs), *[n] * p, *range(p, n)],
        [*(p + j for _, j in instance.pairs), *range(p), *[n + 1] * q],
        [*[None] * m, *instance.supplies, *instance.demands],
        [*instance.costs, *[0] * n],
    )
    routed, _, pi, reachable = _kernel.min_cost_flow(g, n, n + 1, total)
    if routed < total:
        cut = sorted(v for v in reachable if v < n)
        stranded_sources = tuple(instance.sources[i] for i in cut if i < p)
        served_sinks = tuple(instance.sinks[j - p] for j in cut if j >= p)
        supply = Fraction(sum(instance.supplies[i] for i in cut if i < p), flow_scale)
        demand = Fraction(sum(instance.demands[j - p] for j in cut if j >= p), flow_scale)
        raise InfeasibleError(
            f"transportation infeasible: sources {stranded_sources} supply {supply} "
            f"but can only reach demand {demand}",
            certificate={
                "deficient_sources": stranded_sources,
                "reachable_sinks": served_sinks,
                "supply": supply,
                "demand": demand,
            },
        )

    shipments = tuple(g.rem[1 : 2 * m : 2])
    terminals = (*instance.sources, *instance.sinks)
    dual = DualSolution({v: -pi[k] for k, v in enumerate(terminals)})
    # Read off the shipments: the primal side of the duality certificate.
    cost = sum(c * f for c, f in zip(instance.costs, shipments))
    optimum = Fraction(cost, instance.cost_scale * flow_scale)
    _assert_optimality(instance, shipments, dual, optimum)
    return TransportSolution(instance, shipments, dual, optimum)


def _assert_optimality(
    instance: TransportationInstance,
    shipments: tuple[int, ...],
    dual: DualSolution,
    primal_cost: Fraction,
) -> None:
    for (s, t, slack), shipped in zip(_slacks(instance, dual), shipments):
        if slack < 0:
            raise InternalCheckError(f"extracted dual infeasible on pair {s}->{t}")
        if shipped > 0 and slack != 0:
            raise InternalCheckError(f"complementary slackness violated on pair {s}->{t}")
    objective = dual_objective(instance, dual)
    if objective != primal_cost:
        raise InternalCheckError(
            f"strong duality violated: dual {objective} != primal {primal_cost}"
        )


def dual_objective(instance: TransportationInstance, dual: DualSolution) -> Fraction:
    """Σ supply·y_s − Σ demand·y_t, as an exact value."""
    total = sum(b * dual[s] for s, b in zip(instance.sources, instance.supplies))
    total -= sum(d * dual[t] for t, d in zip(instance.sinks, instance.demands))
    return Fraction(total, instance.flow_scale * instance.cost_scale)


def _slacks(
    instance: TransportationInstance, dual: DualSolution
) -> list[tuple[NodeId, NodeId, int]]:
    """``(s, t, cost(s,t) − y[s] + y[t])`` for every pair, in order."""
    ends = map(instance.pair_nodes, range(len(instance.pairs)))
    return [(s, t, c - dual[s] + dual[t]) for (s, t), c in zip(ends, instance.costs)]


def is_dual_feasible(instance: TransportationInstance, dual: DualSolution) -> bool:
    return all(slack >= 0 for _, _, slack in _slacks(instance, dual))


def active_pairs(
    instance: TransportationInstance, dual: DualSolution
) -> frozenset[tuple[NodeId, NodeId]]:
    """Pairs whose dual constraint is tight under the given dual.

    The dual must be feasible for the instance; passing an infeasible
    vector is a contract violation.
    """
    slacks = _slacks(instance, dual)
    if any(slack < 0 for _, _, slack in slacks):
        raise ValueError("active_pairs: dual is not feasible for this instance")
    return frozenset((s, t) for s, t, slack in slacks if slack == 0)
