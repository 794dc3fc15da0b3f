"""Admissible subnetwork extraction via a dual-priced extended network.

A super source is wired to every supply node at cost minus its dual
value, and every demand node is wired to a super sink at cost plus its
dual value.  With a feasible dual every super-source-to-super-sink path
has non-negative cost, and the zero-cost ones are exactly the paths a
minimum-cost shipment plan may use.  The admissible arc set consists of
the original arcs lying on such a zero-cost path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import _kernel
from .errors import InternalCheckError
from .network import Network
from .transport import DualSolution


@dataclass(frozen=True)
class ExtendedNetwork:
    """Base network plus priced super terminals, indexed for labeling.

    Nodes 0..n-1 are the base nodes in order; ``super_source`` is n and
    ``super_sink`` is n+1.  Terminal arcs have zero transit and no
    capacity bound; only their costs matter here.
    """

    base: Network
    arcs: tuple[tuple[int, int, Fraction], ...]
    base_arc_count: int
    super_source: int
    super_sink: int

    @property
    def num_nodes(self) -> int:
        return len(self.base.nodes) + 2


@dataclass(frozen=True)
class Subnetwork:
    """Original-arc subset; super-terminal arcs are never included."""

    arc_indices: frozenset[int]
    connected: bool


def extend(network: Network, dual: DualSolution) -> ExtendedNetwork:
    """Attach priced super terminals for the network's sources and sinks."""
    idx = network.node_index
    arcs = [(idx(a.tail), idx(a.head), a.cost) for a in network.arcs]
    n = len(network.nodes)
    super_source = n
    super_sink = n + 1
    for s in network.sources:
        arcs.append((super_source, idx(s), -dual[s]))
    for t in network.sinks:
        arcs.append((idx(t), super_sink, dual[t]))
    return ExtendedNetwork(network, tuple(arcs), len(network.arcs), super_source, super_sink)


def admissible_arcs(extended: ExtendedNetwork) -> Subnetwork:
    """Original arcs lying on a cheapest super-source-to-super-sink path.

    With a feasible dual the cheapest such path costs exactly zero; a
    negative optimum means the supplied dual was infeasible and a
    positive one that no pair is tight, both of which indicate a bug in
    the calling pipeline.  An unreachable super sink yields an empty
    subnetwork with a warning.
    """
    n = extended.num_nodes
    forward = _kernel.labels(_kernel.arc_graph(n, extended.arcs), extended.super_source)
    opt = forward[extended.super_sink]
    if opt is None:
        warnings.warn("super sink unreachable; admissible subnetwork is empty", stacklevel=2)
        return Subnetwork(frozenset(), connected=False)
    if opt != 0:
        raise InternalCheckError(
            f"cheapest extended path costs {opt}, expected 0 for an optimal dual"
        )
    reversed_arcs = ((head, tail, cost) for tail, head, cost in extended.arcs)
    backward = _kernel.labels(_kernel.arc_graph(n, reversed_arcs), extended.super_sink)

    base = extended.base
    idx = base.node_index
    selected = []
    for i, arc in enumerate(base.arcs):
        df = forward[idx(arc.tail)]
        db = backward[idx(arc.head)]
        if df is not None and db is not None and df + arc.cost + db == opt:
            selected.append(i)
    subnetwork = Subnetwork(frozenset(selected), connected=True)
    _assert_terminals_covered(base, subnetwork)
    return subnetwork


def _assert_terminals_covered(network: Network, subnetwork: Subnetwork) -> None:
    """Every supplied source must keep an outgoing admissible arc (and
    every demanded sink an incoming one); anything else means the
    transportation stage produced an inconsistent dual."""
    with_out = {network.arcs[i].tail for i in subnetwork.arc_indices}
    with_in = {network.arcs[i].head for i in subnetwork.arc_indices}
    for s in network.sources:
        if s not in with_out:
            raise InternalCheckError(f"source {s!r} has supply but no admissible out-arc")
    for t in network.sinks:
        if t not in with_in:
            raise InternalCheckError(f"sink {t!r} has demand but no admissible in-arc")
