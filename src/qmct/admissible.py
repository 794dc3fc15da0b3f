"""Admissible subnetwork extraction via a dual-priced extended network.

A super source is wired to every supply node at cost minus its dual
value, and every demand node is wired to a super sink at cost plus its
dual value.  With a feasible dual every super-source-to-super-sink path
has non-negative cost, and the zero-cost ones are exactly the paths a
minimum-cost shipment plan may use.  The admissible arc set consists of
the original arcs lying on such a zero-cost path: none without terminals,
and none with a warning when terminals cannot connect.  The dual maps
each terminal's node index to an integer at the network's
``cost_scale``, so labels run on the base network's integer costs and
the duals as they are: the forward pass seeds each source at minus its
dual and the backward pass each sink at its dual, so neither super node
is ever built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import _kernel
from .errors import InternalCheckError
from .network import Network


@dataclass(frozen=True)
class ExtendedNetwork:
    """Base network plus priced super terminals.

    A super source joins each source at minus its dual, and each sink
    joins a super sink at its dual: ``source_costs`` and ``sink_costs``
    map base node indices to these costs, at the base network's
    ``cost_scale``.  Terminal arcs have zero transit and no capacity
    bound; only their costs matter here, and label passes start from
    them as seeds rather than from super nodes.
    """

    base: Network
    source_costs: Mapping[int, int]
    sink_costs: Mapping[int, int]

    @property
    def base_arc_count(self) -> int:
        return len(self.base.integral.tails)


@dataclass(frozen=True)
class Subnetwork:
    """Original-arc subset; super-terminal arcs are never included.

    ``labels`` are the cheapest-path costs from the super source that
    cut the subset out, at the network's ``cost_scale``, one per base
    node (``None`` when unreached).  The super sink is reached iff the
    subset is non-empty: unreached, it is empty; reached, some source
    seeded the labels, and every source keeps an admissible out-arc
    (:func:`_assert_terminals_covered`).
    """

    arc_indices: frozenset[int]
    labels: tuple[int | None, ...]


def extend(network: Network, dual: Mapping[int, int]) -> ExtendedNetwork:
    """Attach priced super terminals for the network's sources and sinks."""
    form = network.integral
    source_costs = {s: -dual[s] for s in form.sources}
    sink_costs = {t: dual[t] for t in form.sinks}
    return ExtendedNetwork(network, source_costs, sink_costs)


def admissible_arcs(extended: ExtendedNetwork) -> Subnetwork:
    """Original arcs lying on a cheapest super-source-to-super-sink path.

    With a feasible dual the cheapest such path costs exactly zero; a
    negative optimum means the supplied dual was infeasible and a
    positive one that no pair is tight, both of which indicate a bug in
    the calling pipeline.  An unreachable super sink yields an empty
    subnetwork, with a warning only when terminals exist but cannot connect.
    """
    network = extended.base
    form = network.integral
    forward = _kernel.labels(network.label_graph("costs"), extended.source_costs)
    labels = tuple(forward)
    # The super sink's label: the cheapest entry through a priced sink arc.
    sinks = extended.sink_costs.items()
    opt = min((forward[t] + c for t, c in sinks if forward[t] is not None), default=None)
    if opt is None:
        if extended.source_costs or extended.sink_costs:
            warnings.warn("super sink unreachable; admissible subnetwork is empty", stacklevel=2)
        return Subnetwork(frozenset(), labels)
    if opt != 0:
        cost = Fraction(opt, form.cost_scale)
        raise InternalCheckError(
            f"cheapest extended path costs {cost}, expected 0 for an optimal dual"
        )
    backward = _kernel.labels(network.label_graph("costs", reverse=True), extended.sink_costs)

    selected = []
    for i, (u, v, c) in enumerate(zip(form.tails, form.heads, form.costs)):
        df, db = forward[u], backward[v]
        if df is not None and db is not None and df + c + db == 0:
            selected.append(i)
    subnetwork = Subnetwork(frozenset(selected), labels)
    _assert_terminals_covered(network, subnetwork)
    return subnetwork


def _assert_terminals_covered(network: Network, subnetwork: Subnetwork) -> None:
    """Every supplied source must keep an outgoing admissible arc (and
    every demanded sink an incoming one); anything else means the
    transportation stage produced an inconsistent dual."""
    form, nodes = network.integral, network.nodes
    with_out = {form.tails[i] for i in subnetwork.arc_indices}
    with_in = {form.heads[i] for i in subnetwork.arc_indices}
    for s in form.sources:
        if s not in with_out:
            raise InternalCheckError(f"source {nodes[s]!r} has supply but no admissible out-arc")
    for t in form.sinks:
        if t not in with_in:
            raise InternalCheckError(f"sink {nodes[t]!r} has demand but no admissible in-arc")
