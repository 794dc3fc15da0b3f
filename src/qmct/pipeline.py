"""End-to-end solvers and the entry point of the brute-force oracle.

The main entry point chains the four stages: pairwise cheapest-path
costs, the static transportation solve with its optimal dual, the
admissible subnetwork carved by that dual, and a quickest-transshipment
search restricted to the subnetwork.  Every report carries the outcome
of the built-in verification checks: schedule validity, cost agreement
with the transportation optimum, and admissibility of the routed paths,
certified by complementary slackness on the arcs the schedule uses.
One frame guards, validates, times and verifies every report mode; each
``solve_*`` function gives it only its own mode's work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import admissible, cheapest, oracle, temporal, transport
from .errors import HorizonLimitError, ValidationError, layer_guard
from .network import Network, validate

MODE_QUICKEST_MINCOST = "quickest-mincost"
MODE_QUICKEST = "quickest"
MODE_MINCOST_STATIC = "mincost-static"
MODE_ORACLE = "oracle"


@dataclass
class SolveReport:
    """Solver output plus self-verification flags and timings.

    ``horizon`` is the schedule's, None without one; it counts steps of
    ``1/scale`` of the input's time unit, ``scale`` being the network's
    ``time_scale`` (the lcm of its transits' denominators);
    ``horizon_original`` is ``horizon / scale``, in the input's unit.
    ``subnetwork`` lists original arc indices and is only present for
    the cost-first mode.
    """

    mode: str
    cost: Fraction
    scale: int
    subnetwork: tuple[int, ...] | None
    schedule: temporal.FlowOverTime | None
    transport_optimum: Fraction | None
    checks: dict[str, bool] = field(default_factory=dict)
    timing: dict[str, float] = field(default_factory=dict)

    @property
    def horizon(self) -> int | None:
        return None if self.schedule is None else self.schedule.horizon

    @property
    def horizon_original(self) -> Fraction | None:
        return None if self.horizon is None else Fraction(self.horizon, self.scale)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


@dataclass
class AlgorithmRun:
    """All intermediates of the cost-first pipeline, for verification.

    Pair costs, dual and labels are integers at the network's
    ``cost_scale``, and terminals are node indices.  ``pair_costs`` reads
    the transportation instance; ``arc_map`` takes an arc of
    ``restricted`` to its index in ``network``.
    """

    network: Network
    solution: transport.TransportSolution
    actives: frozenset[tuple[int, int]]
    subnetwork: admissible.Subnetwork
    restricted: Network
    quickest: temporal.QuickestResult
    schedule: temporal.FlowOverTime

    @property
    def pair_costs(self) -> dict[tuple[int, int], int]:
        instance = self.solution.instance
        return dict(zip(instance.pairs, instance.costs))

    @property
    def arc_map(self) -> tuple[int, ...]:
        return tuple(sorted(self.subnetwork.arc_indices))


def validate_or_raise(network: Network) -> None:
    report = validate(network)
    if not report.ok:
        details = "; ".join(v.detail for v in report.violations)
        raise ValidationError(f"invalid network: {details}", report.violations)


def _remap_schedule(
    schedule: temporal.FlowOverTime, arc_map: tuple[int, ...]
) -> temporal.FlowOverTime:
    entries = tuple(
        temporal.ArcIntervals(arc_map[e.arc], e.intervals) for e in schedule.arc_flows
    )
    return temporal.FlowOverTime(schedule.horizon, entries)


def run_quickest_mincost(network: Network, max_layers: int | None = None) -> AlgorithmRun:
    """Execute the four-stage reduction and return all intermediates.

    The network must be valid and must have at least one source.
    Raises :class:`InfeasibleError` when the supplies cannot be routed.
    """
    layer_guard(0, max_layers)
    instance = transport.build(network, cheapest.pair_costs(network))
    solution = transport.solve(instance)
    actives = transport.active_pairs(instance, solution.dual)
    extended = admissible.extend(network, solution.dual)
    subnetwork = admissible.admissible_arcs(extended)
    arc_map = tuple(sorted(subnetwork.arc_indices))
    restricted = network.with_arcs(arc_map)
    quickest = temporal.quickest_transshipment(restricted, max_layers=max_layers)
    schedule = _remap_schedule(quickest.schedule, arc_map)
    return AlgorithmRun(
        network=network,
        solution=solution,
        actives=actives,
        subnetwork=subnetwork,
        restricted=restricted,
        quickest=quickest,
        schedule=schedule,
    )


def check_admissible_routing(run: AlgorithmRun) -> bool:
    """Every routed path joins an active pair at its cheapest-path cost.

    Certified by complementary slackness on the reported schedule.  Let
    y be the transportation dual and π the labels that cut out the
    admissible subnetwork: cheapest costs from the super source S of the
    extended network, where S's arc into source s costs −y_s and sink
    t's arc into the super sink T costs y_t, so that π[T] = 0.  The
    check holds iff

    (i)  π[s] = −y_s for every source and π[t] = −y_t for every sink;
    (ii) π[tail] + cost = π[head] for every arc the schedule uses.

    This is the same verdict as decomposing the schedule into paths and
    cycles and testing each one.  Under (i) and (ii), any walk from s to
    t over scheduled arcs costs π[t] − π[s] = y_s − y_t.  That is at
    most d(s,t) by dual feasibility and at least d(s,t) because no walk
    is cheaper than a cheapest path; so the pair is tight, hence active,
    and the walk is cheapest.  Any cycle telescopes to cost 0.
    Conversely, let P be an admissible path from s to t, so that
    c(P) = d(s,t) = y_s − y_t.  Its reduced costs π[tail] + cost − π[head]
    sum to c(P) + π[s] − π[t] ≤ c(P) − y_s + y_t = 0, because
    π[s] ≤ −y_s by S's arc into s and π[t] ≥ π[T] − y_t = −y_t by t's
    arc into T.  Every reduced cost is ≥ 0, since π are cheapest-path
    labels, so each one is 0 and both inequalities hold with equality.
    Zero-cost cycles give the same result.  Every scheduled arc lies on
    some routed path or cycle, and every source and sink ends a routed
    path because all supplies are routed, so (i) and (ii) follow.  Both
    compare integers at the network's ``cost_scale``.
    """
    form = run.network.integral
    labels = run.subnetwork.labels
    dual = run.solution.dual
    for v in (*form.sources, *form.sinks):
        if labels[v] != -dual[v]:
            return False
    for entry in run.schedule.arc_flows:
        a = entry.arc
        tail, head = labels[form.tails[a]], labels[form.heads[a]]
        if tail is None or head is None or tail + form.costs[a] != head:
            return False
    return True


class _Frame:
    """Every report mode's frame: made before the mode's work, it guards
    ``max_layers`` and validates; :meth:`close` times the work and verifies it."""

    def __init__(self, network: Network, max_layers: int | None):
        layer_guard(0, max_layers)
        self.network, self.started = network, time.perf_counter()
        validate_or_raise(network)

    def close(self, mode, schedule=None, subnetwork=None, optimum=None, **checks) -> SolveReport:
        """The report of the mode's work, its own ``checks`` (functions of no
        argument) last.  A schedule gives it its cost, ``schedule_valid`` from
        :func:`temporal.verify_schedule`, ``cost_equals_transport_optimum`` with
        a transportation ``optimum``, and a ``verify`` time; else its cost is ``optimum``."""
        solved = time.perf_counter()
        report = SolveReport(mode, optimum, 1, subnetwork, schedule, optimum)
        report.timing["solve"] = solved - self.started
        if schedule is not None:
            verification = temporal.verify_schedule(self.network, schedule)
            report.cost, report.scale = verification.cost, self.network.integral.time_scale
            report.checks["schedule_valid"] = verification.ok
            if optimum is not None:
                report.checks["cost_equals_transport_optimum"] = verification.cost == optimum
        report.checks.update((name, check()) for name, check in checks.items())
        if schedule is not None:
            report.timing["verify"] = time.perf_counter() - solved
        return report


def solve_quickest_mincost(network: Network, max_layers: int | None = None) -> SolveReport:
    """Minimum-cost transshipment over time with the least possible horizon.

    A negative ``max_layers`` raises :class:`ValueError` before any work.
    """
    frame = _Frame(network, max_layers)
    run = run_quickest_mincost(network, max_layers)
    return frame.close(
        MODE_QUICKEST_MINCOST,
        schedule=run.schedule,
        subnetwork=run.arc_map,
        optimum=run.solution.optimum,
        routing_admissible=lambda: check_admissible_routing(run),
    )


def solve_quickest(network: Network, max_layers: int | None = None) -> SolveReport:
    """Quickest transshipment ignoring costs; reports the realized cost.

    A negative ``max_layers`` raises :class:`ValueError` before any work.
    """
    frame = _Frame(network, max_layers)
    quickest = temporal.quickest_transshipment(network, max_layers=max_layers)
    return frame.close(MODE_QUICKEST, quickest.schedule)


def solve_mincost_static(network: Network) -> SolveReport:
    """Transportation stage only: the minimum cost over all horizons."""
    frame = _Frame(network, None)
    optimum = transport.solve(transport.build(network, cheapest.pair_costs(network))).optimum
    # transport.solve raises unless its dual certifies the optimum.
    return frame.close(MODE_MINCOST_STATIC, optimum=optimum, transport_certified=lambda: True)


def oracle_quickest_mincost(
    network: Network,
    max_nodes: int = 10,
    max_layers: int | None = None,
) -> tuple[Fraction, int]:
    """Brute-force (cost, horizon) via time expansions only, by
    :func:`oracle.quickest_mincost`; guarded by ``max_nodes`` because
    its scan is pseudo-polynomial, and by ``max_layers`` on its expansion;
    a negative ``max_layers`` raises :class:`ValueError` before any work."""
    layer_guard(0, max_layers)
    if len(network.nodes) > max_nodes:
        raise HorizonLimitError(
            f"oracle size guard: {len(network.nodes)} nodes exceeds limit {max_nodes}",
            requested=len(network.nodes),
            limit=max_nodes,
        )
    validate_or_raise(network)
    return oracle.quickest_mincost(network, max_layers)
