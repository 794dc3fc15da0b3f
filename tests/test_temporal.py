import hashlib
import importlib
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from _brute import (
    expansion_max_flow,
    full_expand,
    full_numbering,
    movement_rates,
    pair_count_horizon_bound,
    scale_transits,
)
from conftest import A_S1V, A_S2T2, A_S2V, A_VT1, A_VT2, detour_network
from qmct import _kernel, io, temporal
from qmct.errors import HorizonLimitError, InfeasibleError
from qmct.generate import generate
from qmct.io import load_instance
from qmct.network import Arc, Network
from qmct.oracle import horizon_upper_bound
from qmct.pipeline import solve_quickest, solve_quickest_mincost
from qmct.temporal import (
    ArcIntervals,
    FlowOverTime,
    expand,
    feasible,
    mincost_over_time,
    quickest_transshipment,
    storage_trace,
    verify_schedule,
)


# ------------------------------------------------------------- expansion


def test_expand_one_step_has_only_instant_arcs(demo):
    graph = expand(demo, 1)
    copies = {(arc, layer) for arc, layer in graph.movement}
    assert copies == {(A_S1V, 0), (A_S2V, 0), (A_VT1, 0), (A_VT2, 0)}
    assert graph.holdover_start == len(graph.movement)
    # No holdover with a single layer; one wiring arc per terminal and one
    # arc between each terminal's collector and its one copy.
    assert graph.wiring_start == graph.holdover_start
    assert graph.num_arcs == graph.wiring_start + 4 + 4
    assert graph.num_nodes == len(demo.nodes) + 4 + 2


def test_expand_two_steps_spans_the_slow_arc(demo):
    graph = full_numbering(demo, expand(demo, 2))
    # The transit-1 arc enters at layer 0 and arrives at layer 1.
    slow = [
        (graph.tails[i], graph.heads[i])
        for i, (arc, layer) in enumerate(graph.movement)
        if arc == A_S2T2
    ]
    n = len(demo.nodes)
    assert slow == [(demo.node_index("s2"), n + demo.node_index("t2"))]
    instant_copies = [m for m in graph.movement if m[0] == A_S1V]
    assert instant_copies == [(A_S1V, 0), (A_S1V, 1)]


def test_expand_zero_horizon(demo):
    graph = expand(demo, 0)
    assert graph.movement == ()
    assert graph.num_nodes == 2  # just the super terminals
    assert graph.num_arcs == 0


def test_expand_drops_arcs_slower_than_horizon():
    net = Network.of(["a", "b"], [("a", "b", 1, 5, 0)], {"a": 1, "b": -1})
    graph = expand(net, 4)
    assert graph.movement == ()
    graph = expand(net, 6)
    assert [layer for _, layer in graph.movement] == [0]


def test_expand_numbers_the_copies_of_one_slow_arc_alone():
    # Each end of the arc keeps one copy, however slow the arc, besides
    # the two collectors and the super terminals.  The sizes come first:
    # numbering all n·T copies would take gigabytes.
    nets = {
        tau: Network.of(["s", "t"], [("s", "t", 1, tau, 0)], {"s": 1, "t": -1})
        for tau in (1, 10**3, 10**7)
    }
    for tau, net in nets.items():
        assert expand(net, tau + 1).num_nodes == 6, tau
    tracemalloc.start()
    try:
        horizon = quickest_transshipment(nets[10**7]).horizon
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert horizon == 10**7 + 1
    assert peak < 2**20


def test_expand_rejects_negative_horizon(demo):
    with pytest.raises(ValueError):
        expand(demo, -1)


def test_expand_counts_steps_of_the_time_scale():
    # Transit 1/2 at time scale 2 is one step: the expansion is that of
    # the same network with the transit doubled, at the same scales.
    half = Network.of(["a", "b"], [("a", "b", 1, "1/2", 0)], {"a": 1, "b": -1})
    doubled = Network.of(["a", "b"], [("a", "b", 1, 1, 0)], {"a": 1, "b": -1})
    assert half.integral.time_scale == 2
    assert replace(half.integral, transits=(1,), time_scale=1) == doubled.integral
    for horizon in range(4):
        assert expand(half, horizon) == expand(doubled, horizon)


# Digest of every ``TimeExpandedGraph`` field, with the network's flow
# scale, cost scale and supply, at horizons 0-12, for the bundled
# instances and 20 generated ones, half of them with rational capacities
# and costs, so that a rewrite of ``expand`` that moves, drops or
# rescales any arc shows up.  The first pins the full expansion of
# ``_brute.full_expand``, the second the pruned one of ``expand``, its
# ids mapped back to ``layer·n + v`` by ``_brute.full_numbering``.
EXPANSION_GOLDEN = "3ab3de76d8842fe319e4eb91bbe67a0272764f0e633ba88c4e95dbba4e8ed926"
PRUNED_EXPANSION_GOLDEN = "2e7e189571691325c6b24f6876890e85f63cf30ddfac1df6bb5ba83560a385e0"


def _expansion_instances():
    for path in sorted(INSTANCES.glob("*.json")):
        yield load_instance(path)
    for seed in range(10):
        yield generate(seed, nodes=6, terminals=3, tau_max=4, negative_costs=seed % 2 == 1)
    for seed in range(10):
        net = generate(seed, nodes=5, terminals=2, tau_max=3)
        arcs = tuple(
            Arc(a.tail, a.head, a.capacity / (1 + i % 3), a.transit, a.cost / (2 + i % 2))
            for i, a in enumerate(net.arcs)
        )
        yield Network.of(net.nodes, arcs, dict(net.balances))


def _expansion_digest(build) -> str:
    digest = hashlib.sha256()
    count = 0
    for net in _expansion_instances():
        for horizon in range(13):
            graph, form = build(net, horizon), net.integral
            fields = [
                graph.horizon,
                graph.num_nodes,
                graph.tails,
                graph.heads,
                graph.capacities,
                graph.costs,
                graph.movement,
                graph.holdover_start,
                graph.wiring_start,
                graph.super_source,
                graph.super_sink,
                form.flow_scale,
                form.cost_scale,
                form.supply,
            ]
            assert all(type(c) is int for c in graph.costs)
            assert all(c is None or type(c) is int for c in graph.capacities)
            digest.update(json.dumps(fields).encode())
        count += 1
    assert count == 23
    return digest.hexdigest()


def test_expansion_matches_golden_digest():
    assert _expansion_digest(full_expand) == EXPANSION_GOLDEN


def test_pruned_expansion_matches_golden_digest():
    def numbered_as_full(net, horizon):
        return full_numbering(net, expand(net, horizon))

    assert _expansion_digest(numbered_as_full) == PRUNED_EXPANSION_GOLDEN


def test_expansion_size_bound(demo):
    """At most m·T movement copies, n·(T − 1) holdovers, and k wiring arcs
    and k·T arcs between the k terminals' collectors and their copies:
    in all at most (m + n + k)·(T + 1) arcs."""
    for horizon in (1, 3, 7):
        graph = expand(demo, horizon)
        m, n, k = len(demo.arcs), len(demo.nodes), len(demo.sources) + len(demo.sinks)
        assert graph.num_arcs <= (m + n + k) * (horizon + 1)


def test_pushed_paths_do_not_walk_the_horizon(monkeypatch):
    """Flow enters and leaves the expansion at any layer through the
    collectors, so no augmenting path waits along a holdover chain: on
    the chain-horizon workload's 12-node chain with supply 3200 (H =
    3221), every path the solve pushes along has at most n + 3 = 15 edges,
    where wiring at layers 0 and T − 1 alone made paths of 3,212."""
    monkeypatch.syspath_prepend(str(INSTANCES.parent / "perfbench"))
    network = io.network_from_doc(importlib.import_module("workloads").chain_doc(3200, 0))
    lengths = []
    push = _kernel._push_bottleneck

    def recording(rem, path, limit=None):
        lengths.append(len(path))
        return push(rem, path, limit)

    monkeypatch.setattr(_kernel, "_push_bottleneck", recording)
    assert solve_quickest_mincost(network).horizon == 3221
    assert lengths and max(lengths) <= len(network.nodes) + 3 == 15


def test_quickest_guards_each_probe_before_expanding(monkeypatch):
    # The search probes horizons 11, 13, 17 and 25 on the generated
    # network, and 9 alone on the detour network.
    cases = [(generate(251, nodes=8, terminals=4, tau_max=5), 25), (detour_network(), 9)]
    for net, quickest in cases:
        assert quickest_transshipment(net).horizon == quickest
        for limit in range(quickest):
            built = []

            def recording(network, horizon, *rest):
                built.append(horizon)
                return expand(network, horizon, *rest)

            monkeypatch.setattr(temporal, "expand", recording)
            with pytest.raises(HorizonLimitError) as caught:
                quickest_transshipment(net, max_layers=limit)
            monkeypatch.undo()
            assert limit < caught.value.requested <= quickest
            assert all(horizon <= limit for horizon in built), (limit, built)


# ------------------------------------------------------------ feasibility


def test_demo_feasible_within_one_step(demo):
    assert feasible(demo, 1)


def test_demo_without_costly_arc_needs_two_steps(demo):
    pruned = demo.with_arcs([A_S1V, A_S2T2, A_VT1, A_VT2])
    assert not feasible(pruned, 1)
    assert feasible(pruned, 2)


def test_infeasible_below_transit_bound():
    net = Network.of(["a", "b"], [("a", "b", 3, 2, 0)], {"a": 1, "b": -1})
    assert not feasible(net, 0)
    assert not feasible(net, 1)
    assert not feasible(net, 2)
    assert feasible(net, 3)


def test_zero_balances_always_feasible(demo):
    empty = demo.with_balances({})
    assert feasible(empty, 0)


# --------------------------------------------------------------- quickest


def test_quickest_on_full_demo(demo):
    result = quickest_transshipment(demo)
    assert result.horizon == 1
    assert verify_schedule(demo, result.schedule).cost == 1


def test_quickest_on_variant_a_subnetwork(demo_variant_a):
    restricted = demo_variant_a.with_arcs([A_S1V, A_S2V, A_S2T2, A_VT1])
    result = quickest_transshipment(restricted)
    assert result.horizon == 2
    assert verify_schedule(restricted, result.schedule).cost == Fraction(1, 2)


def test_quickest_single_path_matches_closed_form():
    for supply, cap, transit in [(1, 1, 0), (3, 2, 1), ("5/2", 1, 2), (4, 3, 0)]:
        net = Network.of(
            ["s", "m", "t"],
            [("s", "m", cap, transit, 0), ("m", "t", cap, 0, 0)],
            {"s": supply, "t": f"-{supply}"},
        )
        result = quickest_transshipment(net)
        b = Fraction(str(supply))
        expected = math.ceil(b / Fraction(cap) + Fraction(transit))
        assert result.horizon == expected


def test_quickest_searches_the_subset_of_a_chain_once(monkeypatch):
    # One source s and one sink t: {s} is also all terminals but t.
    subsets = []
    real = temporal.subset_paths

    def recorded(network, subset, need=None):
        subsets.append(set(subset))
        return real(network, subset, need)

    monkeypatch.setattr(temporal, "subset_paths", recorded)
    net = Network.of(
        ["s", "a", "b", "t"],
        [("s", "a", 2, 1, 0), ("a", "b", 2, 2, 0), ("b", "t", 2, 0, 0)],
        {"s": 5, "t": -5},
    )
    assert quickest_transshipment(net).horizon == 6  # ⌈5/2 + 3⌉
    assert subsets == [{0}]


def test_quickest_zero_supply(demo):
    result = quickest_transshipment(demo.with_balances({}))
    assert result.horizon == 0
    assert result.schedule.arc_flows == ()


def test_quickest_infeasible_is_certified():
    net = Network.of(
        ["a", "b", "c"], [("b", "c", 1, 0, 0)], {"a": 1, "c": -1}
    )
    with pytest.raises(InfeasibleError) as info:
        quickest_transshipment(net)
    assert info.value.certificate["side"] == "source"


def test_quickest_hall_failure_is_certified():
    net = Network.of(
        ["a", "b", "x", "y"],
        [("a", "x", 1, 0, 0), ("b", "y", 1, 0, 0)],
        {"a": 3, "b": 1, "x": -1, "y": -3},
    )
    with pytest.raises(InfeasibleError) as info:
        quickest_transshipment(net)
    certificate = info.value.certificate
    subset, cut_nodes = set(certificate["subset"]), set(certificate["cut_nodes"])
    assert subset == {"a", "x"} and cut_nodes == {"a", "x"}
    # No arc leaves the cut, it holds no sink outside the subset, and the
    # subset's supply exceeds its demand: no horizon can ever suffice.
    assert all(a.head in cut_nodes for a in net.arcs if a.tail in cut_nodes)
    assert not any(t in cut_nodes for t in net.sinks if t not in subset)
    assert sum(net.balances[v] for v in subset) > 0


def test_quickest_respects_max_layers(demo):
    net = Network.of(["a", "b"], [("a", "b", 1, 30, 0)], {"a": 1, "b": -1})
    with pytest.raises(HorizonLimitError):
        quickest_transshipment(net, max_layers=8)


def test_quickest_fits_a_layer_limit_equal_to_its_answer():
    assert quickest_transshipment(detour_network(), max_layers=9).horizon == 9
    with pytest.raises(HorizonLimitError):
        quickest_transshipment(detour_network(), max_layers=8)


# ------------------------------------------------------- min cost over time


def test_demo_cost_drops_with_horizon(demo):
    assert mincost_over_time(demo, 1).cost == 1
    assert mincost_over_time(demo, 2).cost == 0


def test_variant_a_cost_at_two_steps(demo_variant_a):
    assert mincost_over_time(demo_variant_a, 2).cost == Fraction(1, 2)


def test_mincost_infeasible_at_tiny_horizon(demo_variant_a):
    with pytest.raises(InfeasibleError):
        mincost_over_time(demo_variant_a, 0)


def test_mincost_nonincreasing_then_stable(demo):
    bound = horizon_upper_bound(demo)
    previous = None
    for horizon in range(1, bound + 1):
        cost = mincost_over_time(demo, horizon).cost
        if previous is not None:
            assert cost <= previous
        previous = cost
    assert previous == 0


# ----------------------------------------------------------- verification


def test_extracted_quickest_schedule_verifies(demo):
    result = quickest_transshipment(demo)
    report = verify_schedule(demo, result.schedule)
    assert report.ok, report.violations
    assert report.cost == 1


def test_schedules_verify_across_generated_instances():
    for seed in range(25):
        net = generate(seed, nodes=6, terminals=3)
        result = quickest_transshipment(net)
        report = verify_schedule(net, result.schedule)
        assert report.ok, (seed, report.violations)
        # The cost of the expansion's max flow, which the schedule reads back.
        graph, flows, _value = expansion_max_flow(net, result.horizon)
        rates = movement_rates(graph, flows, net.integral.flow_scale)
        assert report.cost == sum(net.arcs[arc].cost * rate for (arc, _), rate in rates.items())


def test_overloaded_rate_is_flagged(demo):
    schedule = FlowOverTime(
        1, (ArcIntervals(A_S1V, ((0, 1, Fraction(2)),)),)
    )
    report = verify_schedule(demo, schedule)
    assert any("exceeds capacity" in v for v in report.violations)


def test_empty_schedule_with_zero_balances_passes(demo):
    report = verify_schedule(demo.with_balances({}), FlowOverTime(0, ()))
    assert report.ok
    assert report.cost == 0


def test_empty_schedule_with_demands_fails(demo):
    report = verify_schedule(demo, FlowOverTime(2, ()))
    assert not report.ok


def test_late_inflow_is_flagged(demo):
    # Entering the transit-1 arc during [1, 2) cannot arrive by 2.
    schedule = FlowOverTime(
        2, (ArcIntervals(A_S2T2, ((1, 2, Fraction(1)),)),)
    )
    report = verify_schedule(demo, schedule)
    assert any("cannot arrive" in v for v in report.violations)


def test_deficit_is_flagged(demo):
    # v forwards a unit it never received.
    schedule = FlowOverTime(
        1, (ArcIntervals(A_VT1, ((0, 1, Fraction(1)),)),)
    )
    report = verify_schedule(demo, schedule)
    assert any("deficit" in v for v in report.violations)


def test_storage_trace_tracks_waiting_flow():
    net = Network.of(
        ["s", "m", "t"],
        [("s", "m", 2, 0, 0), ("m", "t", 1, 0, 0)],
        {"s": 2, "t": -2},
    )
    result = quickest_transshipment(net)
    assert result.horizon == 2
    trace = storage_trace(net, result.schedule)
    assert trace["t"][-1] == 2
    assert trace["s"][0] == 2
    assert trace["s"][-1] == 0


INSTANCES = Path(__file__).resolve().parent.parent / "instances"

# Digest of ``storage_trace`` over the schedules both solver modes return
# for the bundled instances and 20 generated ones (half of them with
# negative costs), so that a change to the schedule simulator that shifts
# any held amount at any step shows up.
STORAGE_GOLDEN = "45ccfd7dca39836694aeecb28d74fa9a95e30e404545a06f5b16069762504ba8"


def _storage_instances():
    for path in sorted(INSTANCES.glob("*.json")):
        yield load_instance(path)
    for seed in range(10):
        yield generate(seed)
    for seed in range(10):
        yield generate(seed, nodes=8, terminals=3, tau_max=4, negative_costs=True)


def test_storage_trace_matches_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for net in _storage_instances():
        for solver in (solve_quickest_mincost, solve_quickest):
            trace = storage_trace(net, solver(net).schedule)
            doc = {v: [str(x) for x in held] for v, held in trace.items()}
            digest.update(json.dumps(doc, sort_keys=True).encode())
        count += 1
    assert count == 23
    assert digest.hexdigest() == STORAGE_GOLDEN


def test_horizon_upper_bound_is_generous_but_finite(demo):
    bound = horizon_upper_bound(demo)
    assert feasible(demo, bound)
    assert bound >= quickest_transshipment(demo).horizon
    # ⌈2/1⌉ + (5 - 1) * 1; the pair-count bound charges 4 * 1 for each
    # of the four source-sink pairs.
    assert bound == 6
    assert pair_count_horizon_bound(demo) == 18


def _bound_instances():
    """200 routable instances: rational data, negative costs, zero transits."""
    for seed in range(200):
        net = generate(
            seed,
            nodes=3 + seed % 4,
            terminals=3,
            tau_max=seed % 3 + 1,
            half_balance_prob=0.4,
            negative_costs=seed % 2 == 1,
        )
        if seed % 4 >= 2:
            # Rational capacities, transits, costs and balances; scaling
            # every balance by one factor keeps the instance routable.
            k = 2 + seed % 3
            arcs = tuple(
                Arc(a.tail, a.head, a.capacity / (1 + i % k), a.transit / k, a.cost / k)
                for i, a in enumerate(net.arcs)
            )
            net = Network.of(net.nodes, arcs, {v: b * 2 / 3 for v, b in net.balances.items()})
        yield net


def test_horizon_upper_bound_is_feasible_and_stabilizing():
    from qmct.pipeline import run_quickest_mincost

    rational = zero_transit = negative = 0
    for net in _bound_instances():
        rational += any(a.transit.denominator > 1 for a in net.arcs)
        zero_transit += any(a.transit == 0 for a in net.arcs)
        negative += any(a.cost < 0 for a in net.arcs)
        bound = horizon_upper_bound(net)
        assert feasible(net, bound), net
        optimum = run_quickest_mincost(net).solution.optimum
        assert mincost_over_time(net, bound).cost == optimum, net
        # The pair-count formula sums transits, so it reads them in steps.
        assert bound <= pair_count_horizon_bound(scale_transits(net)[0]), net
    assert min(rational, zero_transit, negative) >= 40, (rational, zero_transit, negative)


def test_feasibility_witness_routes_everything(demo):
    assert feasible(demo, 1)
    graph, flows, _value = expansion_max_flow(demo, 1)
    routed = sum(f for f, tail in zip(flows, graph.tails) if tail == graph.super_source)
    assert Fraction(routed, demo.integral.flow_scale) == demo.total_supply


def test_balances_override_without_rebuilding(demo):
    # Probe alternative balances on the same arcs: ``with_balances``
    # shares them and gives each variant its own integer form.  Two
    # units out of s2 need both the middle route and the slow direct arc.
    assert feasible(demo.with_balances({"s1": 1, "t1": -1}), 1)
    assert not feasible(demo.with_balances({"s2": 2, "t2": -2}), 1)
    assert feasible(demo.with_balances({"s2": 2, "t2": -2}), 2)
    result = mincost_over_time(demo.with_balances({"s2": 1, "t1": -1}), 1)
    assert result.cost == 1


def _routed_amount(net, horizon):
    graph, flows, _value = expansion_max_flow(net, horizon)
    routed = sum(f for f, tail in zip(flows, graph.tails) if tail == graph.super_source)
    return Fraction(routed, net.integral.flow_scale)


def test_unit_grid_routes_as_much_as_any_finer_grid():
    # Discretization exactness at integer horizons: splitting every time
    # step into k pieces (transit times times k, per-step amounts u/k)
    # never routes more by the same deadline.  The quickest *horizon* can
    # still fall at a fractional time; the solver's contract is the least
    # integer horizon, which the closed-form single-path test pins down.
    from qmct.network import Arc, Network

    for seed in range(12):
        net = generate(seed, nodes=5, terminals=2, tau_max=2)
        horizon = quickest_transshipment(net).horizon
        base_cost = mincost_over_time(net, horizon).cost
        for k in (2, 3):
            refined = Network.of(
                net.nodes,
                tuple(
                    Arc(a.tail, a.head, a.capacity / k, a.transit * k, a.cost)
                    for a in net.arcs
                ),
                dict(net.balances),
            )
            for deadline in (max(horizon - 1, 0), horizon, horizon + 1):
                assert _routed_amount(net, deadline) == _routed_amount(
                    refined, k * deadline
                ), (seed, k, deadline)
            assert mincost_over_time(refined, k * horizon).cost == base_cost
