"""Static transportation problem between sources and sinks.

The bipartite instance connects every source-sink pair that is joined by
a path, with the pair's cheapest-path cost as arc cost and unlimited
capacity.  Solving it yields the primal shipment plan, an optimal dual
vector on the terminals, and the set of active (tight) pairs.  The
solve scales supplies, demands and pair costs to integers once and runs
the integer min-cost flow of :mod:`qmct._kernel`; shipments, duals and
the optimum come back as exact ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import _kernel
from .errors import InfeasibleError, InternalCheckError
from .network import Network, NodeId
from .rationals import to_integers


@dataclass(frozen=True)
class TransportationInstance:
    """Bipartite shipment problem with uncapacitated pair arcs.

    ``pairs[k] = (i, j)`` connects ``sources[i]`` to ``sinks[j]`` at cost
    ``costs[k]``.  ``supplies`` and ``demands`` are both positive numbers
    and sum to the same total.
    """

    sources: tuple[NodeId, ...]
    supplies: tuple[Fraction, ...]
    sinks: tuple[NodeId, ...]
    demands: tuple[Fraction, ...]
    pairs: tuple[tuple[int, int], ...]
    costs: tuple[Fraction, ...]

    def pair_nodes(self, k: int) -> tuple[NodeId, NodeId]:
        i, j = self.pairs[k]
        return self.sources[i], self.sinks[j]


@dataclass(frozen=True)
class DualSolution:
    """Dual values on terminal nodes; feasible when y[s] - y[t] <= cost(s,t)."""

    values: Mapping[NodeId, Fraction]

    def __getitem__(self, node: NodeId) -> Fraction:
        return self.values[node]


@dataclass(frozen=True)
class TransportSolution:
    instance: TransportationInstance
    shipments: tuple[Fraction, ...]
    dual: DualSolution
    optimum: Fraction


def build(
    network: Network, costs: Mapping[tuple[NodeId, NodeId], Fraction]
) -> TransportationInstance:
    """Assemble the bipartite instance from pairwise cheapest-path costs.

    Raises :class:`InfeasibleError` naming the first terminal that has no
    usable pair at all (a source that reaches no sink, or a sink no
    source reaches).
    """
    sources = network.sources
    sinks = network.sinks
    source_pos = {s: i for i, s in enumerate(sources)}
    sink_pos = {t: j for j, t in enumerate(sinks)}
    pairs: list[tuple[int, int]] = []
    pair_costs: list[Fraction] = []
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
    return TransportationInstance(
        sources=sources,
        supplies=tuple(network.balances[s] for s in sources),
        sinks=sinks,
        demands=tuple(-network.balances[t] for t in sinks),
        pairs=tuple(pairs),
        costs=tuple(pair_costs),
    )


def solve(instance: TransportationInstance) -> TransportSolution:
    """Optimal shipments plus an optimal dual, both certified exactly.

    Sources are kernel nodes ``0..p-1`` and sinks ``p..p+q-1``; a super
    source ``p+q`` feeds every source its supply and every sink drains
    its demand into a super sink ``p+q+1``.  Supplies and demands are
    scaled by one common denominator and pair costs by another.  The
    shipments are the pair arcs' integer flows unscaled, and the dual
    of a terminal is its negated min-cost potential unscaled.

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
    imbalance = sum(instance.supplies, Fraction(0)) - sum(instance.demands, Fraction(0))
    if imbalance != 0:
        raise ValueError(f"balances sum to {imbalance}, expected 0")
    flow_scale, amounts = to_integers([*instance.supplies, *instance.demands])
    cost_scale, costs = to_integers(instance.costs)

    m = len(instance.pairs)
    n = p + q
    g = _kernel.build(
        n + 2,
        [*(i for i, _ in instance.pairs), *[n] * p, *range(p, n)],
        [*(p + j for _, j in instance.pairs), *range(p), *[n + 1] * q],
        [*[None] * m, *amounts],
        [*costs, *[0] * n],
    )
    total = sum(amounts[:p])
    routed, pi, reachable = _kernel.min_cost_flow(g, n, n + 1, total)
    if routed < total:
        cut = sorted(v for v in reachable if v < n)
        stranded_sources = tuple(instance.sources[i] for i in cut if i < p)
        served_sinks = tuple(instance.sinks[j - p] for j in cut if j >= p)
        supply = sum((instance.supplies[i] for i in cut if i < p), Fraction(0))
        demand = sum((instance.demands[j - p] for j in cut if j >= p), Fraction(0))
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

    flows = g.rem[1 : 2 * m : 2]
    shipments = tuple(Fraction(f, flow_scale) for f in flows)
    terminals = (*instance.sources, *instance.sinks)
    dual = DualSolution({v: Fraction(-pi[k], cost_scale) for k, v in enumerate(terminals)})
    optimum = Fraction(sum(c * f for c, f in zip(costs, flows)), cost_scale * flow_scale)
    _assert_optimality(instance, shipments, dual, optimum)
    return TransportSolution(instance, shipments, dual, optimum)


def _assert_optimality(
    instance: TransportationInstance,
    shipments: tuple[Fraction, ...],
    dual: DualSolution,
    primal_cost: Fraction,
) -> None:
    for k in range(len(instance.pairs)):
        s, t = instance.pair_nodes(k)
        slack = instance.costs[k] - dual[s] + dual[t]
        if slack < 0:
            raise InternalCheckError(f"extracted dual infeasible on pair {s}->{t}")
        if shipments[k] > 0 and slack != 0:
            raise InternalCheckError(f"complementary slackness violated on pair {s}->{t}")
    objective = dual_objective(instance, dual)
    if objective != primal_cost:
        raise InternalCheckError(
            f"strong duality violated: dual {objective} != primal {primal_cost}"
        )


def dual_objective(instance: TransportationInstance, dual: DualSolution) -> Fraction:
    total = Fraction(0)
    for i, s in enumerate(instance.sources):
        total += instance.supplies[i] * dual[s]
    for j, t in enumerate(instance.sinks):
        total -= instance.demands[j] * dual[t]
    return total


def is_dual_feasible(instance: TransportationInstance, dual: DualSolution) -> bool:
    return all(
        dual[instance.pair_nodes(k)[0]] - dual[instance.pair_nodes(k)[1]] <= instance.costs[k]
        for k in range(len(instance.pairs))
    )


def active_pairs(
    instance: TransportationInstance, dual: DualSolution
) -> frozenset[tuple[NodeId, NodeId]]:
    """Pairs whose dual constraint is tight under the given dual.

    The dual must be feasible for the instance; passing an infeasible
    vector is a contract violation.
    """
    if not is_dual_feasible(instance, dual):
        raise ValueError("active_pairs: dual is not feasible for this instance")
    tight = []
    for k in range(len(instance.pairs)):
        s, t = instance.pair_nodes(k)
        if dual[s] - dual[t] == instance.costs[k]:
            tight.append((s, t))
    return frozenset(tight)
