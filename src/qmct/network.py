"""Core network data model and structural validation.

A :class:`Network` is a directed graph with per-arc capacity, transit
time and cost, plus a balance on every node: positive balances are
supplies (the node is a source), negative balances are demands (a sink),
zero balances are intermediate nodes.  A network stores its node ids and
its :class:`IntegerForm`, which :meth:`Network.of_columns` builds and
every stage reads; a restriction (:meth:`Network.with_arcs`) slices its
parent's.  :func:`validate` reports every violated invariant instead of
aborting on the first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, eq
from typing import Callable, Iterable, Mapping, Sequence

from . import _kernel
from .rationals import as_rational, to_integers

NodeId = str
_ARC_ROW = attrgetter("tail", "head", "capacity", "transit", "cost")


@dataclass(frozen=True, slots=True)
class Arc:
    """Directed arc with capacity, transit time and cost coefficient."""

    tail: NodeId
    head: NodeId
    capacity: Fraction
    transit: Fraction
    cost: Fraction


def _exact(value) -> int | Fraction:
    return value if type(value) is int else as_rational(value)


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
    """Immutable directed network with node balances, stored as its integer form.

    :meth:`of` builds one from values.  It checks only representability
    (node ids are strings, arc endpoints are known node ids); semantic
    invariants are checked by :func:`validate`.  ``arcs`` and ``balances``
    rebuild the values as ``Fraction``s on first use; no solve reads them.
    """

    nodes: tuple[NodeId, ...]
    integral: IntegerForm

    @staticmethod
    def of(
        nodes: Sequence[NodeId],
        arcs: Iterable[tuple | Arc],
        balances: Mapping[NodeId, object] | None = None,
    ) -> "Network":
        """:meth:`of_columns` of string node ids and ``Arc``s or rows ``(tail, head, capacity,
        transit, cost)``, each value not an int read by :func:`as_rational` (a ``Fraction``
        as it is)."""
        rows = [_ARC_ROW(a) if isinstance(a, Arc) else a for a in arcs]
        try:
            tails, heads, caps, transits, costs = zip(*rows, strict=True) if rows else ((),) * 5
        except ValueError:  # name the first row of another length
            k = next(k for k, row in enumerate(rows) if len(row) != 5)
            raise ValueError(f"arc {k} must be (tail, head, capacity, transit, cost)") from None
        if not {*map(type, chain(caps, transits, costs))} <= {int, Fraction}:
            # Arc by arc, so that the first bad value is the one named.
            rows = [(t, h, *map(_exact, v)) for t, h, *v in rows]
            tails, heads, caps, transits, costs = zip(*rows)
        bal = {v: _exact(x) for v, x in (balances or {}).items()}
        return Network.of_columns(nodes, tails, heads, caps, transits, costs, bal)

    @staticmethod
    def of_columns(nodes, tails, heads, capacities, transits, costs, balances) -> "Network":
        """The one builder of the integer form from columns of ints and ``Fraction``s (arc
        ``k`` is entry ``k`` of each), each scaled once.  Raises ``ValueError`` on a node id
        that is no string, duplicate node ids, an unknown balance and an endpoint that is no
        string node id (the first of each)."""
        nodes = tuple(nodes)
        for v in nodes:
            if not isinstance(v, str):
                raise ValueError(f"node id {v!r} must be a string")
        index = dict(zip(nodes, range(len(nodes))))
        if len(index) != len(nodes):
            raise ValueError("duplicate node ids")
        try:  # among string ids, an endpoint found is a string id
            ends = tuple(map(index.__getitem__, tails)), tuple(map(index.__getitem__, heads))
        except (KeyError, TypeError):
            ends = None
        if ends is None:  # name the first bad arc
            for k, (tail, head) in enumerate(zip(tails, heads)):
                if not isinstance(tail, str) or not isinstance(head, str):
                    end = "head" if isinstance(tail, str) else "tail"
                    raise ValueError(f"arc {k} {end} must be a string node id")
                if tail not in index or head not in index:
                    raise ValueError(f"arc {tail}->{head} references unknown node")
        for v in balances:
            if v not in index:
                raise ValueError(f"balance given for unknown node {v!r}")
        flow_scale, flows = to_integers([*capacities, *map(balances.get, nodes, repeat(0))])
        cost_scale, costs = to_integers(costs)
        time_scale, transits = to_integers(transits)
        caps, balances = flows[: len(capacities)], flows[len(capacities) :]
        sources = tuple(v for v, b in enumerate(balances) if b > 0)
        form = IntegerForm(
            *ends,
            caps,
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
        return Network(nodes, form)

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        form, nodes = self.integral, self.nodes
        scales = form.flow_scale, form.time_scale, form.cost_scale
        columns = zip(form.tails, form.heads, form.capacities, form.transits, form.costs)
        return tuple(Arc(nodes[u], nodes[w], *map(Fraction, xs, scales)) for u, w, *xs in columns)

    @cached_property
    def balances(self) -> dict[NodeId, Fraction]:
        scale = self.integral.flow_scale
        return {v: Fraction(b, scale) for v, b in zip(self.nodes, self.integral.balances)}

    @cached_property
    def node_index(self) -> Callable[[NodeId], int]:
        return {v: i for i, v in enumerate(self.nodes)}.__getitem__

    @cached_property
    def label_cache(self) -> dict:
        """What depends only on this network and its label passes, each entry made on first
        use: every :meth:`label_graph` by ``(column, reverse)``, the least transits of
        :func:`qmct.temporal._least_transits` and the :func:`validate` report."""
        return {}

    def label_graph(self, column: str, reverse: bool = False) -> list[list[tuple]]:
        """The arcs as a :func:`_kernel.label_graph` weighted by the integer
        form's ``column`` (``"costs"`` or ``"transits"``), each arc's ends
        swapped when ``reverse``; built once per network, on first use."""
        key = column, reverse
        cache = self.label_cache
        if key not in cache:
            form = self.integral
            ends = (form.heads, form.tails) if reverse else (form.tails, form.heads)
            cache[key] = _kernel.label_graph(len(self.nodes), *ends, getattr(form, column))
        return cache[key]

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
        """Same nodes and balances, arcs restricted to the given indices: a slice
        of this integer form at its scales, so that horizons count the same
        time steps (a subset of the transits can have a smaller lcm)."""
        keep = sorted(set(arc_indices))
        form = self.integral
        fields = ("tails", "heads", "capacities", "costs", "transits")
        sliced = {f: tuple(getattr(form, f)[i] for i in keep) for f in fields}
        return Network(self.nodes, replace(form, **sliced))

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
    """Check every structural invariant and report all violations, once per network.

    Never raises: callers that need a hard failure inspect ``report.ok``.
    """
    if (report := network.label_cache.get("validate")) is not None:
        return report
    violations: list[Violation] = []
    form = network.integral  # its entries keep the signs of the rationals
    tails, heads, caps, taus = form.tails, form.heads, form.capacities, form.transits
    # All arcs at once; the walk below runs only to word the violations.
    bad = min(caps, default=1) <= 0 or min(taus, default=0) < 0 or any(map(eq, tails, heads))
    for i, (u, v, cap, tau) in enumerate(zip(tails, heads, caps, taus) if bad else ()):
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

    # Self-loops are reported above; the label graph leaves them out.
    everywhere = dict.fromkeys(range(len(network.nodes)), 0)
    if _kernel.label_correct(network.label_graph("costs"), everywhere) is None:
        violations.append(Violation("negative-cycle", "network contains a negative-cost cycle"))

    return network.label_cache.setdefault("validate", ValidationReport(tuple(violations)))
