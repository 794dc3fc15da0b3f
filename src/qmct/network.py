"""Core network data model and structural validation.

A :class:`Network` is a directed graph with per-arc capacity, transit
time and cost, plus a balance on every node: positive balances are
supplies (the node is a source), negative balances are demands (a sink),
zero balances are intermediate nodes.  Instances are immutable after
construction; :func:`validate` reports every violated invariant instead
of aborting on the first.  Each network turns its rationals into
integers once, in :attr:`Network.integral`, which every label pass and
time expansion reads; a restriction (:meth:`Network.with_arcs`) slices
its parent's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import _kernel
from .rationals import as_rational, to_integers

NodeId = str


@dataclass(frozen=True, slots=True)
class Arc:
    """Directed arc with capacity, transit time and cost coefficient."""

    tail: NodeId
    head: NodeId
    capacity: Fraction
    transit: Fraction
    cost: Fraction

    @staticmethod
    def of(tail: NodeId, head: NodeId, capacity, transit, cost) -> "Arc":
        return Arc(tail, head, as_rational(capacity), as_rational(transit), as_rational(cost))


@dataclass(frozen=True)
class IntegerForm:
    """A network's data as integers, arcs in order, balances per node index.

    Capacities and balances are multiplied by ``flow_scale``, costs by
    ``cost_scale`` and transits by ``time_scale``; each scale is a common
    multiple of the denominators it clears (the least one for a network
    built from its rationals; a restriction keeps its parent's), so every
    entry is exact and, the scales being positive, keeps the sign of its
    rational.  ``sources`` and ``sinks`` list the nodes of positive and
    negative balance by index, and ``supply`` totals the positive ones.
    """

    tails: tuple[int, ...]
    heads: tuple[int, ...]
    capacities: tuple[int, ...]
    balances: tuple[int, ...]
    costs: tuple[int, ...]
    transits: tuple[int, ...]
    flow_scale: int
    cost_scale: int
    time_scale: int
    sources: tuple[int, ...]
    sinks: tuple[int, ...]
    supply: int


@dataclass(frozen=True)
class Network:
    """Immutable directed network with node balances.

    ``sources`` and ``sinks`` are derived from the balance signs.  The
    constructor only checks representability (arc endpoints are string
    ids of known nodes); semantic invariants are checked by :func:`validate`.
    """

    nodes: tuple[NodeId, ...]
    arcs: tuple[Arc, ...]
    balances: Mapping[NodeId, Fraction]
    _index: Mapping[NodeId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {v: i for i, v in enumerate(self.nodes)}
        if len(index) != len(self.nodes):
            raise ValueError("duplicate node ids")
        for k, arc in enumerate(self.arcs):
            if not isinstance(arc.tail, str) or not isinstance(arc.head, str):
                end = "head" if isinstance(arc.tail, str) else "tail"
                raise ValueError(f"arc {k} {end} must be a string node id")
            if arc.tail not in index or arc.head not in index:
                raise ValueError(f"arc {arc.tail}->{arc.head} references unknown node")
        for v in self.balances:
            if v not in index:
                raise ValueError(f"balance given for unknown node {v!r}")
        object.__setattr__(self, "_index", index)

    @staticmethod
    def of(
        nodes: Sequence[NodeId],
        arcs: Iterable[tuple | Arc],
        balances: Mapping[NodeId, object] | None = None,
    ) -> "Network":
        """Build a network from plain tuples ``(tail, head, capacity, transit, cost)``."""
        built = tuple(a if isinstance(a, Arc) else Arc.of(*a) for a in arcs)
        bal = {v: as_rational(x) for v, x in (balances or {}).items()}
        return Network(tuple(nodes), built, dict.fromkeys(nodes, Fraction(0)) | bal)

    def node_index(self, v: NodeId) -> int:
        return self._index[v]

    @cached_property
    def integral(self) -> IntegerForm:
        """The integer form, computed on first use and then kept (the
        network never changes, so it never goes stale)."""
        arcs, index, m = self.arcs, self._index, len(self.arcs)
        flow_scale, flows = to_integers(
            [*(a.capacity for a in arcs), *(self.balances.get(v, 0) for v in self.nodes)]
        )
        cost_scale, costs = to_integers(a.cost for a in arcs)
        time_scale, transits = to_integers(a.transit for a in arcs)
        balances = flows[m:]
        sources = tuple(v for v, b in enumerate(balances) if b > 0)
        return IntegerForm(
            tuple(index[a.tail] for a in arcs),
            tuple(index[a.head] for a in arcs),
            flows[:m],
            balances,
            costs,
            transits,
            flow_scale,
            cost_scale,
            time_scale,
            sources,
            tuple(v for v, b in enumerate(balances) if b < 0),
            sum(balances[v] for v in sources),
        )

    @property
    def sources(self) -> tuple[NodeId, ...]:
        return tuple(self.nodes[v] for v in self.integral.sources)

    @property
    def sinks(self) -> tuple[NodeId, ...]:
        return tuple(self.nodes[v] for v in self.integral.sinks)

    @property
    def total_supply(self) -> Fraction:
        return Fraction(self.integral.supply, self.integral.flow_scale)

    def with_arcs(self, arc_indices: Iterable[int]) -> "Network":
        """Same nodes and balances, arcs restricted to the given indices.

        The restriction's integer form is a slice of this one at the same
        scales, so its horizons count the same time steps (a subset of
        the transits can have a smaller lcm).
        """
        keep = sorted(set(arc_indices))
        restricted = Network(self.nodes, tuple(self.arcs[i] for i in keep), dict(self.balances))
        form = self.integral
        fields = ("tails", "heads", "capacities", "costs", "transits")
        sliced = {f: tuple(getattr(form, f)[i] for i in keep) for f in fields}
        restricted.__dict__["integral"] = replace(form, **sliced)  # what cached_property reads
        return restricted

    def with_balances(self, balances: Mapping[NodeId, object]) -> "Network":
        """Same nodes and arcs, these balances (missing nodes get 0)."""
        return Network.of(self.nodes, self.arcs, balances)


@dataclass(frozen=True)
class Path:
    """A path given as a sequence of arc indices into a network."""

    arcs: tuple[int, ...]


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


def _check_path(network: Network, path: Path) -> None:
    for i in path.arcs:
        if not 0 <= i < len(network.arcs):
            raise ValueError(f"path references arc index {i} out of range")
    for a, b in zip(path.arcs, path.arcs[1:]):
        if network.arcs[a].head != network.arcs[b].tail:
            raise ValueError(
                f"path arcs {a} and {b} do not chain: "
                f"{network.arcs[a].head!r} != {network.arcs[b].tail!r}"
            )


def path_cost(network: Network, path: Path) -> Fraction:
    """Exact total cost of a path; the empty path costs 0."""
    _check_path(network, path)
    return sum((network.arcs[i].cost for i in path.arcs), Fraction(0))


def path_transit(network: Network, path: Path) -> Fraction:
    """Exact total transit time of a path; the empty path takes 0."""
    _check_path(network, path)
    return sum((network.arcs[i].transit for i in path.arcs), Fraction(0))


def validate(network: Network) -> ValidationReport:
    """Check every structural invariant and report all violations.

    Never raises: callers that need a hard failure inspect ``report.ok``.
    """
    violations: list[Violation] = []
    form = network.integral  # its entries keep the signs of the rationals
    for i, (u, v, cap, tau) in enumerate(
        zip(form.tails, form.heads, form.capacities, form.transits)
    ):
        if cap > 0 and tau >= 0 and u != v:
            continue
        arc = network.arcs[i]
        label = f"arc {i} ({arc.tail}->{arc.head})"
        if cap <= 0:
            violations.append(
                Violation("capacity", f"{label} has non-positive capacity {arc.capacity}")
            )
        if tau < 0:
            violations.append(Violation("transit", f"{label} has negative transit {arc.transit}"))
        if u == v:
            violations.append(Violation("self-loop", f"{label} is a self-loop"))

    total = Fraction(sum(form.balances), form.flow_scale)
    if total != 0:
        violations.append(Violation("balance", f"balances sum to {total}, expected 0"))

    # Self-loops are reported above; the cycle test runs on the rest.
    indexed = ((u, v, c) for u, v, c in zip(form.tails, form.heads, form.costs) if u != v)
    if _kernel.label_correct(_kernel.arc_graph(len(network.nodes), indexed)) is None:
        violations.append(Violation("negative-cycle", "network contains a negative-cost cycle"))

    return ValidationReport(tuple(violations))
