"""Admissible subnetwork extraction via a dual-priced extended network.

A super source is wired to every supply node at cost minus its dual
value, and every demand node is wired to a super sink at cost plus its
dual value.  With a feasible dual every super-source-to-super-sink path
has non-negative cost, and the zero-cost ones are exactly the paths a
minimum-cost shipment plan may use.  The admissible arc set consists of
the original arcs lying on such a zero-cost path: none without terminals,
and none with a warning when terminals cannot connect.  The duals are
integers at the network's ``cost_scale`` already, so labels run on the
base network's integer costs and the duals as they are.
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
    capacity bound; only their costs matter here.  ``terminal_arcs`` are
    ``(tail, head, cost)`` with costs at the base network's ``cost_scale``.
    """

    base: Network
    terminal_arcs: tuple[tuple[int, int, int], ...]
    base_arc_count: int
    super_source: int
    super_sink: int

    @property
    def num_nodes(self) -> int:
        return len(self.base.nodes) + 2


@dataclass(frozen=True)
class Subnetwork:
    """Original-arc subset; super-terminal arcs are never included.

    ``labels`` are the cheapest-path costs from the super source that
    cut the subset out, at the network's ``cost_scale``, one per base
    node (``None`` when unreached).
    """

    arc_indices: frozenset[int]
    connected: bool
    labels: tuple[int | None, ...]


def extend(network: Network, dual: DualSolution) -> ExtendedNetwork:
    """Attach priced super terminals for the network's sources and sinks."""
    idx = network.node_index
    n = len(network.nodes)
    terminal = [(n, idx(s), -dual[s]) for s in network.sources]
    terminal += [(idx(t), n + 1, dual[t]) for t in network.sinks]
    return ExtendedNetwork(network, tuple(terminal), len(network.arcs), n, n + 1)


def admissible_arcs(extended: ExtendedNetwork) -> Subnetwork:
    """Original arcs lying on a cheapest super-source-to-super-sink path.

    With a feasible dual the cheapest such path costs exactly zero; a
    negative optimum means the supplied dual was infeasible and a
    positive one that no pair is tight, both of which indicate a bug in
    the calling pipeline.  An unreachable super sink yields an empty
    subnetwork, with a warning only when terminals exist but cannot connect.
    """
    n = extended.num_nodes
    form, terminal = extended.base.integral, extended.terminal_arcs
    tails = [*form.tails, *(u for u, _, _ in terminal)]
    heads = [*form.heads, *(v for _, v, _ in terminal)]
    costs = [*form.costs, *(c for _, _, c in terminal)]
    forward = _kernel.labels(
        _kernel.arc_graph(n, zip(tails, heads, costs)), extended.super_source
    )
    labels = tuple(forward[: len(extended.base.nodes)])
    opt = forward[extended.super_sink]
    if opt is None:
        if terminal:
            warnings.warn("super sink unreachable; admissible subnetwork is empty", stacklevel=2)
        return Subnetwork(frozenset(), connected=False, labels=labels)
    if opt != 0:
        cost = Fraction(opt, form.cost_scale)
        raise InternalCheckError(
            f"cheapest extended path costs {cost}, expected 0 for an optimal dual"
        )
    backward = _kernel.labels(
        _kernel.arc_graph(n, zip(heads, tails, costs)), extended.super_sink
    )

    selected = []
    for i, (u, v, c) in enumerate(zip(form.tails, form.heads, costs)):  # the base arcs
        df, db = forward[u], backward[v]
        if df is not None and db is not None and df + c + db == 0:
            selected.append(i)
    subnetwork = Subnetwork(frozenset(selected), connected=True, labels=labels)
    _assert_terminals_covered(extended.base, subnetwork)
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
