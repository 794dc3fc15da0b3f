from fractions import Fraction

import pytest

from conftest import A_S2V, A_VT2, UNIT_BALANCES, parallel_falling_costs
from qmct.cheapest import cheapest_paths_subnetwork
from qmct.errors import HorizonLimitError, InfeasibleError, ValidationError
from qmct.generate import generate
from qmct.network import Arc, Network
from qmct.pipeline import (
    oracle_quickest_mincost,
    routed_paths,
    run_quickest_mincost,
    scale_transits,
    solve_mincost_static,
    solve_quickest,
    solve_quickest_mincost,
)
from qmct.temporal import horizon_upper_bound, mincost_over_time


def test_quickest_mode_golden(demo):
    report = solve_quickest(demo)
    assert report.horizon == 1
    assert report.cost == 1
    assert report.checks["schedule_valid"]


def test_quickest_mincost_golden(demo):
    report = solve_quickest_mincost(demo)
    assert report.cost == 0
    assert report.horizon == 2
    assert report.all_checks_pass


def test_variant_a_golden(demo_variant_a):
    report = solve_quickest_mincost(demo_variant_a)
    assert report.cost == Fraction(1, 2)
    assert report.horizon == 2
    assert A_VT2 not in report.subnetwork
    assert A_S2V in report.subnetwork


def test_variant_b_golden(demo_variant_b):
    report = solve_quickest_mincost(demo_variant_b)
    assert report.cost == 0
    assert report.horizon == 2
    assert A_S2V not in report.subnetwork


def test_oracle_matches_goldens(demo, demo_variant_a, demo_variant_b):
    assert oracle_quickest_mincost(demo) == (0, 2)
    assert oracle_quickest_mincost(demo_variant_a) == (Fraction(1, 2), 2)
    assert oracle_quickest_mincost(demo_variant_b) == (0, 2)


def test_oracle_size_guard():
    big = generate(0, nodes=12, terminals=2)
    with pytest.raises(HorizonLimitError):
        oracle_quickest_mincost(big, max_nodes=10)


def test_report_invariants_on_generated_instances():
    for seed in range(15):
        net = generate(seed, nodes=5, terminals=2)
        report = solve_quickest_mincost(net)
        assert report.all_checks_pass, (seed, report.checks)
        assert report.cost == report.transport_optimum
        assert report.schedule.horizon == report.horizon


def test_cost_stabilizes_at_static_optimum(demo_variant_a):
    report = solve_quickest_mincost(demo_variant_a)
    scaled, _ = scale_transits(demo_variant_a)
    bound = horizon_upper_bound(scaled)
    assert report.cost == mincost_over_time(scaled, bound).cost


def test_routed_paths_use_active_pairs(demo_variant_a):
    run = run_quickest_mincost(demo_variant_a)
    routes, clean = routed_paths(run)
    assert clean
    total = sum((amount for _, _, amount, _ in routes), Fraction(0))
    assert total == run.scaled.total_supply
    for source, sink, _amount, cost in routes:
        assert (source, sink) in run.actives
        assert cost == run.pair_costs[(source, sink)]


def test_single_pair_pipeline_equals_cheapest_paths_network():
    net = Network.of(
        ["s", "a", "b", "t"],
        [
            ("s", "a", 2, 1, 0),
            ("a", "t", 2, 0, 1),
            ("s", "b", 1, 0, 1),
            ("b", "t", 1, 2, 0),
            ("s", "t", 1, 0, 5),
        ],
        {"s": 2, "t": -2},
    )
    run = run_quickest_mincost(net)
    assert run.subnetwork.arc_indices == cheapest_paths_subnetwork(net, "s", "t")


def test_single_pair_mincost_equals_quickest_on_cheapest_network():
    for seed in range(10):
        net = generate(seed, nodes=5, terminals=1)
        (s,) = net.sources
        (t,) = net.sinks
        restricted = net.with_arcs(cheapest_paths_subnetwork(net, s, t))
        direct = solve_quickest(restricted)
        reduced = solve_quickest_mincost(net)
        assert (direct.cost, direct.horizon) == (reduced.cost, reduced.horizon)


def test_transit_scaling_is_transparent():
    # Dividing all transits by two and letting the pipeline rescale must
    # reproduce the integer instance's answer in scaled steps.
    net = generate(4, nodes=5, terminals=2, tau_max=3)
    assert any(a.transit == 1 for a in net.arcs)
    base = solve_quickest_mincost(net)
    halved = Network(
        net.nodes,
        tuple(Arc(a.tail, a.head, a.capacity, a.transit / 2, a.cost) for a in net.arcs),
        dict(net.balances),
    )
    report = solve_quickest_mincost(halved)
    assert report.scale == 2
    assert report.horizon == base.horizon
    assert report.horizon_original == Fraction(base.horizon, 2)
    assert report.cost == base.cost


def test_cost_scaling_leaves_structure_invariant():
    net = generate(7, nodes=5, terminals=2)
    base = solve_quickest_mincost(net)
    for factor in (Fraction(3), Fraction(1, 2)):
        scaled_net = Network(
            net.nodes,
            tuple(
                Arc(a.tail, a.head, a.capacity, a.transit, a.cost * factor)
                for a in net.arcs
            ),
            dict(net.balances),
        )
        report = solve_quickest_mincost(scaled_net)
        assert report.cost == base.cost * factor
        assert report.horizon == base.horizon
        assert report.subnetwork == base.subnetwork


def test_mincost_static_mode(demo_variant_a):
    report = solve_mincost_static(demo_variant_a)
    assert report.cost == Fraction(1, 2)
    assert report.horizon is None
    assert report.schedule is None


def test_zero_supply_reports(demo):
    empty = demo.with_balances({})
    for solver in (solve_quickest_mincost, solve_quickest, solve_mincost_static):
        report = solver(empty)
        assert report.cost == 0
        assert report.all_checks_pass
    assert oracle_quickest_mincost(empty) == (0, 0)


def test_validation_failure_raises(demo):
    broken = Network.of(
        demo.nodes,
        [("s1", "s1", 1, 0, 0)],
        UNIT_BALANCES,
    )
    with pytest.raises(ValidationError):
        solve_quickest_mincost(broken)


def test_infeasible_propagates():
    net = Network.of(["a", "b", "c"], [("b", "c", 1, 0, 0)], {"a": 1, "c": -1})
    with pytest.raises(InfeasibleError):
        solve_quickest_mincost(net)
    with pytest.raises(InfeasibleError):
        solve_quickest(net)


def test_horizon_guard_propagates():
    net = Network.of(["a", "b"], [("a", "b", 1, 25, 0)], {"a": 1, "b": -1})
    with pytest.raises(HorizonLimitError):
        solve_quickest_mincost(net, max_layers=10)


def test_timing_present(demo):
    report = solve_quickest_mincost(demo)
    assert "solve" in report.timing
    assert report.timing["solve"] >= 0


def test_oracle_agreement_with_negative_costs():
    for seed in range(40):
        net = generate(seed, nodes=5, terminals=2, negative_costs=True)
        report = solve_quickest_mincost(net)
        assert report.all_checks_pass, seed
        assert (report.cost, report.horizon) == oracle_quickest_mincost(net), seed


@pytest.mark.parametrize(
    "seed, expected",
    [
        # The oracle once answered horizon 9 here: its min-cost flow
        # cancelled flow over the reverse edge of an uncapacitated
        # holdover arc, which then kept a finite capacity.
        (2024440069, (Fraction(10), 8)),
        # The same defect made the transportation solve raise
        # InternalCheckError on this instance.
        (1149221581, (Fraction(21), 14)),
    ],
)
def test_oracle_agreement_after_cancelling_uncapacitated_flow(seed, expected):
    net = generate(seed, nodes=10, terminals=3, tau_max=8, cap_max=5, negative_costs=True)
    report = solve_quickest_mincost(net)
    assert report.all_checks_pass
    assert (report.cost, report.horizon) == expected
    assert oracle_quickest_mincost(net) == expected


def test_oracle_agreement_on_parallel_arcs_with_falling_costs():
    net = parallel_falling_costs()
    report = solve_quickest_mincost(net)
    assert report.all_checks_pass
    assert (report.cost, report.horizon) == (-6, 1)
    assert oracle_quickest_mincost(net) == (-6, 1)


def test_oracle_agreement_with_fractional_data():
    # Halve some capacities and divide transits by three: scaling and
    # rational flow values must not change the (cost, horizon) agreement.
    for seed in range(20):
        net = generate(seed, nodes=5, terminals=2, tau_max=3)
        arcs = tuple(
            Arc(
                a.tail,
                a.head,
                a.capacity / 2 if i % 2 else a.capacity,
                a.transit / 3,
                a.cost,
            )
            for i, a in enumerate(net.arcs)
        )
        frac = Network(net.nodes, arcs, dict(net.balances))
        try:
            report = solve_quickest_mincost(frac)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                oracle_quickest_mincost(frac)
            continue
        assert report.all_checks_pass, seed
        assert (report.cost, report.horizon) == oracle_quickest_mincost(frac), seed


def test_parallel_arcs_are_supported():
    net = Network.of(
        ["s", "t"],
        [("s", "t", 1, 0, 2), ("s", "t", 1, 1, 0), ("s", "t", 1, 3, 0)],
        {"s": 2, "t": -2},
    )
    report = solve_quickest_mincost(net)
    assert report.cost == 0
    assert report.subnetwork == (1, 2)
    # The transit-1 arc alone ships both units by entering in two
    # consecutive steps, so three steps suffice for free delivery.
    assert report.horizon == 3
    assert (report.cost, report.horizon) == oracle_quickest_mincost(net)
    quickest = solve_quickest(net)
    assert quickest.horizon == 2
    # Within two steps at least one unit is forced through the costly arc.
    assert 2 <= quickest.cost <= 4


def test_feasibility_equivalence_of_modes():
    # A transshipment over time exists iff the static transportation
    # instance is feasible; both solvers must agree on infeasibility.
    for seed in range(30):
        net = generate(seed, nodes=6, terminals=3)
        balances = {s: net.balances[s] for s in net.sources}
        total = sum(balances.values(), Fraction(0))
        heavy = net.sinks[seed % len(net.sinks)]
        balances[heavy] = -total
        skewed = net.with_balances(balances)
        outcomes = []
        for solver in (solve_quickest_mincost, solve_quickest):
            try:
                solver(skewed)
                outcomes.append(True)
            except InfeasibleError:
                outcomes.append(False)
        assert outcomes[0] == outcomes[1], seed


def test_mode_dominance():
    # Unrestricted quickest is never slower than the cost-first answer,
    # and no schedule can undercut the true minimum cost.
    for seed in range(25):
        net = generate(seed, nodes=6, terminals=2)
        cost_first = solve_quickest_mincost(net)
        time_first = solve_quickest(net)
        assert time_first.horizon <= cost_first.horizon
        assert time_first.cost >= cost_first.cost
