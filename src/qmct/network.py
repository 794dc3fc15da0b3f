"""Core network data model and structural validation.

A :class:`Network` is a directed graph with per-arc capacity, transit
time and cost, plus a balance on every node: positive balances are
supplies (the node is a source), negative balances are demands (a sink),
zero balances are intermediate nodes.  Instances are immutable after
construction; :func:`validate` reports every violated invariant instead
of aborting on the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import _kernel
from .rationals import as_rational

NodeId = str


@dataclass(frozen=True)
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
class Network:
    """Immutable directed network with node balances.

    ``sources`` and ``sinks`` are derived from the balance signs.  The
    constructor only checks representability (arcs reference known
    nodes); semantic invariants are checked by :func:`validate`.
    """

    nodes: tuple[NodeId, ...]
    arcs: tuple[Arc, ...]
    balances: Mapping[NodeId, Fraction]
    _index: Mapping[NodeId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {v: i for i, v in enumerate(self.nodes)}
        if len(index) != len(self.nodes):
            raise ValueError("duplicate node ids")
        for arc in self.arcs:
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
        unknown = set(bal) - set(nodes)
        if unknown:
            raise ValueError(f"balance given for unknown node(s): {sorted(unknown)}")
        full = {v: bal.get(v, Fraction(0)) for v in nodes}
        return Network(tuple(nodes), built, full)

    def node_index(self, v: NodeId) -> int:
        return self._index[v]

    @property
    def sources(self) -> tuple[NodeId, ...]:
        return tuple(v for v in self.nodes if self.balances[v] > 0)

    @property
    def sinks(self) -> tuple[NodeId, ...]:
        return tuple(v for v in self.nodes if self.balances[v] < 0)

    @property
    def total_supply(self) -> Fraction:
        return sum((self.balances[v] for v in self.sources), Fraction(0))

    def with_arcs(self, arc_indices: Iterable[int]) -> "Network":
        """Same nodes and balances, arcs restricted to the given indices."""
        keep = sorted(set(arc_indices))
        return Network(self.nodes, tuple(self.arcs[i] for i in keep), dict(self.balances))

    def with_balances(self, balances: Mapping[NodeId, object]) -> "Network":
        bal = {v: as_rational(x) for v, x in balances.items()}
        unknown = set(bal) - set(self.nodes)
        if unknown:
            raise ValueError(f"balance given for unknown node(s): {sorted(unknown)}")
        full = {v: bal.get(v, Fraction(0)) for v in self.nodes}
        return Network(self.nodes, self.arcs, full)


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
    for i, arc in enumerate(network.arcs):
        label = f"arc {i} ({arc.tail}->{arc.head})"
        if arc.capacity <= 0:
            violations.append(
                Violation("capacity", f"{label} has non-positive capacity {arc.capacity}")
            )
        if arc.transit < 0:
            violations.append(Violation("transit", f"{label} has negative transit {arc.transit}"))
        if arc.tail == arc.head:
            violations.append(Violation("self-loop", f"{label} is a self-loop"))

    total = sum(network.balances.values(), Fraction(0))
    if total != 0:
        violations.append(Violation("balance", f"balances sum to {total}, expected 0"))

    # Self-loops are reported above; the cycle test runs on the rest.
    indexed = (
        (network.node_index(a.tail), network.node_index(a.head), a.cost)
        for a in network.arcs
        if a.tail != a.head
    )
    if _kernel.label_correct(_kernel.arc_graph(len(network.nodes), indexed)) is None:
        violations.append(Violation("negative-cycle", "network contains a negative-cost cycle"))

    return ValidationReport(tuple(violations))
