"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
``-rP``).  The 200-instance suite is generated once per module; the
suite keeps integer capacities <= 3, integer transits <= 3, integer
costs in [0, 3], at most 6 nodes and at most 3 sources and 3 sinks per
instance (balances may be half-integral, as in the skewed variants).
"""

import random
import time
from fractions import Fraction

import pytest

from _brute import path_cost, simple_paths
from conftest import (
    A_S2V,
    A_VT2,
    demo_network,
    VARIANT_A_BALANCES,
    VARIANT_B_BALANCES,
)
from qmct.cheapest import cheapest_paths_subnetwork, pair_costs
from qmct.errors import InfeasibleError
from qmct.generate import generate
from qmct.pipeline import (
    oracle_quickest_mincost,
    run_quickest_mincost,
    solve_quickest,
    solve_quickest_mincost,
)
from qmct.staticflow import StaticFlow, decompose
from qmct.temporal import feasible, horizon_upper_bound, mincost_over_time
from qmct.transport import build, dual_objective, is_dual_feasible, solve

SUITE_SIZE = 200


def _report(name: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"acceptance {name}: {status}")
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def suite():
    sizes = random.Random(9001)
    instances = []
    for seed in range(SUITE_SIZE):
        net = generate(
            seed,
            nodes=sizes.randint(3, 6),
            terminals=3,
            tau_max=3,
            cap_max=3,
            cost_max=3,
        )
        assert len(net.nodes) <= 6
        assert len(net.sources) <= 3 and len(net.sinks) <= 3
        for arc in net.arcs:
            assert arc.capacity.denominator == 1 and arc.capacity <= 3
            assert arc.transit.denominator == 1 and arc.transit <= 3
            assert arc.cost.denominator == 1 and 0 <= arc.cost <= 3
        instances.append(net)
    return instances


@pytest.fixture(scope="module")
def suite_runs(suite):
    return [run_quickest_mincost(net) for net in suite]


def test_criterion_1_unit_demo_goldens():
    started = time.perf_counter()
    net = demo_network()
    quickest = solve_quickest(net)
    mincost = solve_quickest_mincost(net)
    elapsed = time.perf_counter() - started
    failures = []
    if (quickest.horizon, quickest.cost) != (1, Fraction(1)):
        failures.append(("quickest", quickest.horizon, quickest.cost))
    if (mincost.cost, mincost.horizon) != (Fraction(0), 2):
        failures.append(("quickest-mincost", mincost.cost, mincost.horizon))
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    _report("1 unit-balance goldens", failures)


def test_criterion_2_skewed_supply_variant_a():
    report = solve_quickest_mincost(demo_network(VARIANT_A_BALANCES))
    failures = []
    if report.cost != Fraction(1, 2) or report.horizon != 2:
        failures.append((report.cost, report.horizon))
    if A_VT2 in report.subnetwork or A_S2V not in report.subnetwork:
        failures.append(("subnetwork", report.subnetwork))
    _report("2 skewed variant A", failures)


def test_criterion_3_skewed_supply_variant_b():
    report = solve_quickest_mincost(demo_network(VARIANT_B_BALANCES))
    failures = []
    if report.cost != Fraction(0) or report.horizon != 2:
        failures.append((report.cost, report.horizon))
    if A_S2V in report.subnetwork:
        failures.append(("subnetwork", report.subnetwork))
    _report("3 skewed variant B", failures)


def test_criterion_4_transportation_duality():
    net = demo_network(VARIANT_A_BALANCES)
    instance = build(net, pair_costs(net))
    solution = solve(instance)
    failures = []
    if solution.optimum != Fraction(1, 2):
        failures.append(("primal", solution.optimum))
    if dual_objective(instance, solution.dual) != Fraction(1, 2):
        failures.append(("dual objective", dual_objective(instance, solution.dual)))
    if not is_dual_feasible(instance, solution.dual):
        failures.append("dual infeasible")
    for k in range(len(instance.pairs)):
        s, t = instance.pair_nodes(k)
        slack = instance.costs[k] - solution.dual[s] + solution.dual[t]
        if solution.shipments[k] * slack != 0:
            failures.append(("slackness", s, t))
    _report("4 transportation duality", failures)


def test_criterion_5_oracle_equivalence(suite):
    started = time.perf_counter()
    failures = []
    for seed, net in enumerate(suite):
        report = solve_quickest_mincost(net)
        cost, horizon = oracle_quickest_mincost(net)
        if (report.cost, report.horizon) != (cost, horizon):
            failures.append((seed, report.cost, report.horizon, cost, horizon))
    elapsed = time.perf_counter() - started
    if elapsed > 60:
        failures.append(("runtime", elapsed))
    print(f"acceptance 5: {len(suite)} instances in {elapsed:.1f}s")
    _report("5 oracle equivalence", failures)


def test_criterion_6_path_equivalence(suite_runs):
    failures = []
    for seed, run in enumerate(suite_runs):
        net = run.scaled
        admissible_set = run.subnetwork.arc_indices
        for s in net.sources:
            for t in net.sinks:
                active = (s, t) in run.actives
                cheapest = run.pair_costs.get((s, t))
                for p in simple_paths(net, s, t):
                    is_admissible = active and path_cost(net, p) == cheapest
                    contained = set(p) <= admissible_set
                    if is_admissible != contained:
                        failures.append((seed, s, t, p))
    _report("6 admissible path equivalence", failures)


def _project_routes(run):
    """Independent projection of the witness onto terminal pairs."""
    witness = run.quickest.witness
    graph = witness.graph
    flow = StaticFlow(tuple(Fraction(f, graph.cap_scale) for f in witness.flows))
    paths, cycles = decompose(graph, flow)
    n = len(run.restricted.nodes)
    movement_count = len(graph.movement)
    routes = []
    for seq, amount in paths:
        cost = Fraction(0)
        for e in seq:
            if e < movement_count:
                cost += run.restricted.arcs[graph.movement[e][0]].cost
        source = run.restricted.nodes[graph.heads[seq[0]] % n]
        sink = run.restricted.nodes[graph.tails[seq[-1]] % n]
        routes.append((source, sink, amount, cost))
    cycle_costs = []
    for seq, _amount in cycles:
        cost = Fraction(0)
        for e in seq:
            if e < movement_count:
                cost += run.restricted.arcs[graph.movement[e][0]].cost
        cycle_costs.append(cost)
    return routes, cycle_costs


def test_criterion_7_routing_uses_active_pairs(suite_runs):
    failures = []
    for seed, run in enumerate(suite_runs):
        if run.quickest.horizon == 0:
            continue
        routes, cycle_costs = _project_routes(run)
        shipped = Fraction(0)
        for source, sink, amount, cost in routes:
            shipped += amount
            if (source, sink) not in run.actives:
                failures.append((seed, "inactive pair", source, sink))
            elif cost != run.pair_costs[(source, sink)]:
                failures.append((seed, "non-cheapest path", source, sink, cost))
        if shipped != run.scaled.total_supply:
            failures.append((seed, "lost flow", shipped))
        for cost in cycle_costs:
            if cost != 0:
                failures.append((seed, "costly cycle", cost))
    _report("7 routing admissibility", failures)


def test_criterion_8_monotone_and_stabilizing(suite_runs):
    failures = []
    for seed, run in enumerate(suite_runs):
        net = run.scaled
        bound = horizon_upper_bound(net)
        was_feasible = False
        previous_cost = None
        for horizon in range(bound + 1):
            now = feasible(net, horizon)
            if was_feasible and not now:
                failures.append((seed, "feasibility dropped", horizon))
            was_feasible = was_feasible or now
            try:
                cost = mincost_over_time(net, horizon).cost
            except InfeasibleError:
                if now:
                    failures.append((seed, "solver disagreement", horizon))
                continue
            if not now:
                failures.append((seed, "solver disagreement", horizon))
            if previous_cost is not None and cost > previous_cost:
                failures.append((seed, "cost increased", horizon))
            previous_cost = cost
        if not was_feasible:
            failures.append((seed, "never feasible"))
        if previous_cost != run.solution.optimum:
            failures.append((seed, "did not stabilize", previous_cost))
    _report("8 monotonicity and stabilization", failures)


def test_criterion_9_single_pair_degeneration():
    failures = []
    produced = 0
    for seed in range(60):
        net = generate(seed, nodes=5, terminals=1, tau_max=3)
        if len(net.sources) != 1 or len(net.sinks) != 1:
            failures.append((seed, "generator bounds"))
            continue
        produced += 1
        (s,) = net.sources
        (t,) = net.sinks
        run = run_quickest_mincost(net)
        direct = cheapest_paths_subnetwork(net, s, t)
        if run.subnetwork.arc_indices != direct:
            failures.append((seed, run.subnetwork.arc_indices, direct))
    if produced < 50:
        failures.append(("too few single-pair instances", produced))
    _report("9 single-pair degeneration", failures)
