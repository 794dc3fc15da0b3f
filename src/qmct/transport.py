"""Static transportation problem between sources and sinks.

The bipartite instance connects every source-sink pair that is joined by
a path, with the pair's cheapest-path cost as arc cost and unlimited
capacity.  Solving it yields the primal shipment plan, an optimal dual
as a plain map from terminal to value, and the set of active (tight)
pairs.  Terminals are node indices, as in the pair costs; names appear
only in errors and their certificates.  Amounts, shipments included, are
the integers of :attr:`Network.integral <qmct.network.Network.integral>`
at its ``flow_scale``, and costs and duals at its ``cost_scale``, so the
kernel's min-cost flow runs on them as they are; only the optimum and
error messages are ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import _kernel
from .errors import InfeasibleError, InternalCheckError
from .network import Network


@dataclass(frozen=True)
class TransportationInstance:
    """Bipartite shipment problem with uncapacitated pair arcs.

    ``pairs[k] = (s, t)`` joins source ``s`` to sink ``t``, both node
    indices of ``network``, at cost ``costs[k]`` (at its ``cost_scale``).
    The supplies and demands are the network's integer balances.
    """

    network: Network
    pairs: tuple[tuple[int, int], ...]
    costs: tuple[int, ...]


@dataclass(frozen=True)
class TransportSolution:
    """``dual`` maps each terminal's node index to its dual value, an integer
    at the network's ``cost_scale``; it is feasible when y[s] - y[t] <= cost(s,t)."""

    instance: TransportationInstance
    shipments: tuple[int, ...]
    dual: Mapping[int, int]
    optimum: Fraction


def build(network: Network, costs: Mapping[tuple[int, int], int]) -> TransportationInstance:
    """Assemble the bipartite instance from :func:`qmct.cheapest.pair_costs`.

    Raises :class:`InfeasibleError` naming the first terminal that has no
    usable pair at all (a source that reaches no sink, or a sink no
    source reaches).
    """
    form, nodes = network.integral, network.nodes
    covered_sources = {s for s, _ in costs}
    covered_sinks = {t for _, t in costs}
    for s in form.sources:
        if s not in covered_sources:
            raise InfeasibleError(
                f"source {nodes[s]!r} cannot reach any sink",
                certificate={"isolated": nodes[s], "side": "source"},
            )
    for t in form.sinks:
        if t not in covered_sinks:
            raise InfeasibleError(
                f"no source can reach sink {nodes[t]!r}",
                certificate={"isolated": nodes[t], "side": "sink"},
            )
    return TransportationInstance(network, tuple(costs), tuple(costs.values()))


def solve(instance: TransportationInstance) -> TransportSolution:
    """Optimal shipments plus an optimal dual, both certified exactly.

    Sources are kernel nodes ``0..p-1`` and sinks ``p..p+q-1``, each in
    form order; a super source ``p+q`` feeds every source its supply and
    every sink drains its demand into a super sink ``p+q+1``.  The
    shipments are the pair arcs' flows, and the dual of a terminal is its
    negated min-cost potential, both at the network's scales.

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
    form, nodes = instance.network.integral, instance.network.nodes
    terminals = (*form.sources, *form.sinks)
    amounts = [abs(form.balances[v]) for v in terminals]
    p, n = len(form.sources), len(terminals)
    imbalance = sum(form.balances)
    if imbalance != 0:
        raise ValueError(f"balances sum to {Fraction(imbalance, form.flow_scale)}, expected 0")

    position = {v: k for k, v in enumerate(terminals)}
    m = len(instance.pairs)
    tails = [position[s] for s, _ in instance.pairs]
    heads = [position[t] for _, t in instance.pairs]
    feeds, drains = dict(zip(range(p), amounts)), dict(zip(range(p, n), amounts[p:]))
    g = _kernel.wired(n, tails, heads, [None] * m, instance.costs, feeds, drains)
    total = form.supply
    routed, _, pi = _kernel.min_cost_flow(g, n, n + 1, total)
    if routed < total:
        cut = sorted(k for k in _kernel.residual_reachable(g, n) if k < n)
        stranded_sources = tuple(nodes[terminals[k]] for k in cut if k < p)
        served_sinks = tuple(nodes[terminals[k]] for k in cut if k >= p)
        supply = Fraction(sum(amounts[k] for k in cut if k < p), form.flow_scale)
        demand = Fraction(sum(amounts[k] for k in cut if k >= p), form.flow_scale)
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
    dual = {v: -pi[k] for k, v in enumerate(terminals)}
    # Read off the shipments: the primal side of the duality certificate.
    cost = sum(c * f for c, f in zip(instance.costs, shipments))
    optimum = Fraction(cost, form.cost_scale * form.flow_scale)
    _assert_optimality(instance, shipments, dual, optimum)
    return TransportSolution(instance, shipments, dual, optimum)


def _assert_optimality(
    instance: TransportationInstance,
    shipments: tuple[int, ...],
    dual: Mapping[int, int],
    primal_cost: Fraction,
) -> None:
    nodes = instance.network.nodes
    for (s, t, slack), shipped in zip(_slacks(instance, dual), shipments):
        if slack < 0:
            raise InternalCheckError(f"extracted dual infeasible on pair {nodes[s]}->{nodes[t]}")
        if shipped > 0 and slack != 0:
            raise InternalCheckError(
                f"complementary slackness violated on pair {nodes[s]}->{nodes[t]}"
            )
    objective = dual_objective(instance, dual)
    if objective != primal_cost:
        raise InternalCheckError(
            f"strong duality violated: dual {objective} != primal {primal_cost}"
        )


def dual_objective(instance: TransportationInstance, dual: Mapping[int, int]) -> Fraction:
    """Σ b_v·y_v over the terminals, as an exact value."""
    form = instance.network.integral
    total = sum(form.balances[v] * dual[v] for v in (*form.sources, *form.sinks))
    return Fraction(total, form.flow_scale * form.cost_scale)


def _slacks(
    instance: TransportationInstance, dual: Mapping[int, int]
) -> list[tuple[int, int, int]]:
    """``(s, t, cost(s,t) − y[s] + y[t])`` for every pair, in order."""
    return [(s, t, c - dual[s] + dual[t]) for (s, t), c in zip(instance.pairs, instance.costs)]


def is_dual_feasible(instance: TransportationInstance, dual: Mapping[int, int]) -> bool:
    return all(slack >= 0 for _, _, slack in _slacks(instance, dual))


def active_pairs(
    instance: TransportationInstance, dual: Mapping[int, int]
) -> frozenset[tuple[int, int]]:
    """Pairs whose dual constraint is tight under the given dual.

    The dual must be feasible for the instance; passing an infeasible
    vector is a contract violation.
    """
    slacks = _slacks(instance, dual)
    if any(slack < 0 for _, _, slack in slacks):
        raise ValueError("active_pairs: dual is not feasible for this instance")
    return frozenset((s, t) for s, t, slack in slacks if slack == 0)
