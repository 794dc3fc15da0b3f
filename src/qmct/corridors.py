"""Corridor merging: the smaller network the horizon search runs on.

A *corridor* is a node of balance 0 with exactly one arc a = (u, v) into
it and one arc b = (v, w) out of it, a ≠ b.  Merging it replaces a and b
by one arc (u, w) of capacity min(u_a, u_b), transit τ_a + τ_b and cost
c_a + c_b.  :func:`merge_corridors` merges every corridor at once: each
maximal path u → v_1 → .. → v_k → w through corridors v_i, with u not
one, becomes one arc.  No merge changes a degree or a balance of a node
it keeps, so the corridors it leaves are those on cycles made only of
corridors, which no arc enters from outside and which are left alone.

*Same horizons.*  Merging one corridor keeps, for every horizon T and
every terminal set A, whether T is feasible and the value o^T(A) (the
max flow from A's sources to the sinks outside A within T), so by
induction over the merges a maximal path's arc does, and with them
T_A.  Storage is free at every node, and both networks have the same
terminals and balances.  Flows over time map both ways, each keeping
what every terminal sends and receives, by when:

- *Merged to original.*  Flow entering (u, w) at step q enters a at q
  and b at q + τ_a; v holds nothing, and each arc carries at most
  min(u_a, u_b).
- *Original to merged, when u_a ≥ u_b.*  The merged arc sends at q
  what b sent at q + τ_a, within u_b.  v has balance 0 and cannot emit
  what has not arrived, so up to every step u has sent on (u, w) no
  more than it sent on a; the rest waits at u, and w receives exactly
  what it did.
- *Original to merged, when u_a ≤ u_b.*  The merged arc sends at q
  what a sent at q, within u_a.  It reaches w at q + τ_a + τ_b, no
  later than b delivered it, and the surplus waits at w instead of at v.

So :func:`qmct.temporal.quickest_transshipment` searches the merged
network and unfolds its schedule (:meth:`Corridors.unfold`), the first
map above.  The input's arcs are not otherwise needed: the merge works
on the integer form at its own scales, as
:meth:`~qmct.network.Network.with_arcs` does, and keeps the node list,
so every node index, balance and terminal is the input's and a merged
node stays as an isolated one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import accumulate
from operator import attrgetter
from typing import TYPE_CHECKING

from .network import Network

if TYPE_CHECKING:
    from .temporal import FlowOverTime

_COLUMNS = ("tails", "heads", "capacities", "costs", "transits")


@dataclass(frozen=True)
class Corridors:
    """A network with its corridors merged, and the way back to it.

    ``network`` is the merged network; its arc k stands for the input
    arcs ``chains[k]``, a path in that order (one arc where nothing was
    merged).  Without a corridor to merge, ``network`` is the input.
    """

    original: Network
    network: Network
    chains: tuple[tuple[int, ...], ...]

    def unfold(self, schedule: FlowOverTime) -> FlowOverTime:
        """A schedule of ``network`` on the input's arcs: an interval [s, e) on a
        merged arc is [s + o_i, e + o_i) on its i-th arc, o_i being the transit
        before that arc, at the same rate; entries by arc."""
        from .temporal import ArcIntervals  # which imports this module

        if self.network is self.original:
            return schedule
        transits = self.original.integral.transits
        entries = []
        for entry in schedule.arc_flows:
            chain, steps = self.chains[entry.arc], entry.intervals
            offsets = accumulate((transits[k] for k in chain), initial=0)
            entries += (
                ArcIntervals(k, tuple((s + o, e + o, r) for s, e, r in steps) if o else steps)
                for k, o in zip(chain, offsets)
            )
        return replace(schedule, arc_flows=tuple(sorted(entries, key=attrgetter("arc"))))

    def widen_cut(self, certificate: dict) -> None:
        """Add to the certificate's ``cut_nodes``, names of nodes that no arc of
        ``network`` leaves, the merged nodes of every path whose first tail it
        names, in node order: then no arc of the input leaves them either."""
        form, nodes = self.original.integral, self.original.nodes
        named = set(certificate["cut_nodes"])
        inner = {
            form.heads[k]
            for chain in self.chains
            if nodes[form.tails[chain[0]]] in named
            for k in chain[:-1]
        }
        certificate["cut_nodes"] = [v for i, v in enumerate(nodes) if v in named or i in inner]


def merge_corridors(network: Network) -> Corridors:
    """The network with every corridor not on a cycle of corridors merged.

    Each merged arc takes the place of its path's first arc, the other
    arcs keep their order, and the scales stay the input's.
    """
    form = network.integral
    tails, heads = form.tails, form.heads
    # A node's one arc out, where it has one; dict order keeps the last.
    out_of = dict(zip(tails, range(len(tails))))
    ins, outs = Counter(heads), Counter(tails)
    corridors = {
        v
        for v, k in out_of.items()
        if ins[v] == outs[v] == 1 and not form.balances[v] and heads[k] != v
    }
    # A path that starts at a node no corridor runs through stays finite: a
    # corridor met twice would have two arcs in.  Arcs of cycles made only
    # of corridors start no path and stay as they are.
    chains: dict[int, list[int]] = {}
    for k, (u, w) in enumerate(zip(tails, heads)):
        if w in corridors and u not in corridors:
            chain = chains[k] = [k]
            while w in corridors:
                chain.append(out_of[w])
                w = heads[chain[-1]]
    if not chains:
        return Corridors(network, network, tuple(zip(range(len(tails)))))
    inner = {k for chain in chains.values() for k in chain[1:]}
    keep = [k for k in range(len(tails)) if k not in inner]
    # Columns of the arcs kept as they are; each path's first arc then
    # takes its path's head and totals.
    columns = {f: list(map(getattr(form, f).__getitem__, keep)) for f in _COLUMNS}
    for i, k in enumerate(keep):
        if (chain := chains.get(k)) is not None:
            columns["heads"][i] = heads[chain[-1]]
            for f, total in (("capacities", min), ("costs", sum), ("transits", sum)):
                columns[f][i] = total(map(getattr(form, f).__getitem__, chain))
    reduced = replace(form, **{f: tuple(column) for f, column in columns.items()})
    paths = tuple(tuple(chains.get(k, (k,))) for k in keep)
    return Corridors(network, Network(network.nodes, reduced), paths)
