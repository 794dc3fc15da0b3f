"""Cheapest-path labels and pairwise cheapest-path costs.

Arc costs may be negative as long as the network is conservative, so
labels come from the label-correcting routine :func:`qmct._kernel.labels`
rather than from Dijkstra.  Labels run on, and are returned as, the
integer costs of :attr:`Network.integral <qmct.network.Network.integral>`
at its ``cost_scale``.  :func:`cheapest_from` and :func:`cheapest_to`
map node names to costs; :func:`pair_costs` keys pairs by node index, as
every later stage does.  A reachable negative cycle, which validation
excludes, raises :class:`~qmct.errors.InternalCheckError`.  Unreachable
nodes are absent from the result, never given a sentinel value.

The passes run on the network's label graphs
(:meth:`Network.label_graph <qmct.network.Network.label_graph>`): one
per direction, built on first use and kept with the network, so
validation, the pair costs and both admissible passes share them.  They
leave self-loops out.  No cheapest simple path uses one and validation
reports each, so a negative self-loop, unlike a negative cycle through
two or more nodes, raises nothing here: the labels are those of the
network without it.
"""

from __future__ import annotations

from . import _kernel
from .network import Network, NodeId


def _cost_labels(network: Network, origin: NodeId, reverse: bool) -> dict[NodeId, int]:
    g = network.label_graph("costs", reverse)
    dist = _kernel.labels(g, {network.node_index(origin): 0})
    return {v: d for v, d in zip(network.nodes, dist) if d is not None}


def cheapest_from(network: Network, source: NodeId) -> dict[NodeId, int]:
    """Cost of a cheapest path from ``source`` to every reachable node."""
    return _cost_labels(network, source, reverse=False)


def cheapest_to(network: Network, sink: NodeId) -> dict[NodeId, int]:
    """Cost of a cheapest path from every node to ``sink`` (reversed labeling)."""
    return _cost_labels(network, sink, reverse=True)


def pair_costs(network: Network) -> dict[tuple[int, int], int]:
    """Cheapest-path cost, at ``cost_scale``, for every connected source-sink
    pair, keyed by (source index, sink index) in form order.

    Pairs with no connecting path are absent from the result.  One label
    graph serves every source.
    """
    form = network.integral
    g = network.label_graph("costs")
    costs: dict[tuple[int, int], int] = {}
    for s in form.sources:
        dist = _kernel.labels(g, {s: 0})
        for t in form.sinks:
            if dist[t] is not None:
                costs[(s, t)] = dist[t]
    return costs
