"""Cheapest-path labels and pairwise cheapest-path costs.

Arc costs may be negative as long as the network is conservative, so
labels come from the label-correcting routine :func:`qmct._kernel.labels`
rather than from Dijkstra.  Labels run on, and are returned as, the
integer costs of :attr:`Network.integral <qmct.network.Network.integral>`
at its ``cost_scale``.  A reachable negative cycle, which validation
excludes, raises
:class:`~qmct.errors.InternalCheckError`.  Unreachable nodes are
represented by absence from the label map, never by a sentinel value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import _kernel
from .network import Network, NodeId

FROM_SOURCE = "from-source"
TO_SINK = "to-sink"


@dataclass(frozen=True)
class CostLabels:
    """Cheapest-path costs from (or to) a fixed endpoint.

    ``values`` holds one integer cost at the network's ``cost_scale`` per
    reachable node; nodes absent from the map are unreachable.
    ``direction`` says whether costs are measured from the origin
    outwards or towards the target.
    """

    origin: NodeId
    direction: str
    values: Mapping[NodeId, int]

    def __contains__(self, node: NodeId) -> bool:
        return node in self.values

    def __getitem__(self, node: NodeId) -> int:
        return self.values[node]


def _graph(network: Network, reverse: bool = False) -> _kernel.Residual:
    form = network.integral
    ends = (form.heads, form.tails) if reverse else (form.tails, form.heads)
    return _kernel.build(len(network.nodes), *ends, [None] * len(form.costs), form.costs)


def _cost_labels(network: Network, origin: NodeId, direction: str) -> CostLabels:
    g = _graph(network, reverse=direction == TO_SINK)
    dist = _kernel.labels(g, {network.node_index(origin): 0})
    values = {v: d for v, d in zip(network.nodes, dist) if d is not None}
    return CostLabels(origin, direction, values)


def cheapest_from(network: Network, source: NodeId) -> CostLabels:
    """Cost of a cheapest path from ``source`` to every reachable node."""
    return _cost_labels(network, source, FROM_SOURCE)


def cheapest_to(network: Network, sink: NodeId) -> CostLabels:
    """Cost of a cheapest path from every node to ``sink`` (reversed labeling)."""
    return _cost_labels(network, sink, TO_SINK)


def pair_costs(network: Network) -> dict[tuple[NodeId, NodeId], int]:
    """Cheapest-path cost, at ``cost_scale``, for every connected source-sink pair.

    Pairs with no connecting path are absent from the result.  One label
    graph serves every source.
    """
    g, form, nodes = _graph(network), network.integral, network.nodes
    costs: dict[tuple[NodeId, NodeId], int] = {}
    for s in form.sources:
        dist = _kernel.labels(g, {s: 0})
        for t in form.sinks:
            if dist[t] is not None:
                costs[(nodes[s], nodes[t])] = dist[t]
    return costs
