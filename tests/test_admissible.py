import warnings

import pytest

from _brute import cheapest_paths_subnetwork, path_cost, simple_paths
from conftest import A_S1V, A_S2T2, A_S2V, A_VT1, A_VT2
from qmct.admissible import admissible_arcs, extend
from qmct.cheapest import pair_costs
from qmct.errors import InternalCheckError
from qmct.generate import generate
from qmct.network import Network
from qmct.temporal import quickest_transshipment, verify_schedule
from qmct.transport import active_pairs, build, solve

# The demo's costs are integers, so its cost_scale is 1.
PRINTED_DUAL = {"s1": 0, "s2": 1, "t1": 0, "t2": 1}


def test_extend_prices_terminal_arcs(demo):
    idx = demo.node_index
    extended = extend(demo, {idx(v): y for v, y in PRINTED_DUAL.items()})
    assert extended.base_arc_count == 5
    assert extended.source_costs == {idx("s1"): 0, idx("s2"): -1}
    assert extended.sink_costs == {idx("t1"): 0, idx("t2"): 1}


def test_extend_with_zero_dual(demo):
    zero = {demo.node_index(v): 0 for v in ("s1", "s2", "t1", "t2")}
    extended = extend(demo, zero)
    assert all(c == 0 for c in extended.source_costs.values())
    assert all(c == 0 for c in extended.sink_costs.values())


def test_variant_a_drops_only_the_fan_out_arc(demo_variant_a):
    solution = solve(build(demo_variant_a, pair_costs(demo_variant_a)))
    subnet = admissible_arcs(extend(demo_variant_a, solution.dual))
    assert subnet.arc_indices == {A_S1V, A_S2V, A_S2T2, A_VT1}


def test_variant_b_drops_only_the_costly_arc(demo_variant_b):
    solution = solve(build(demo_variant_b, pair_costs(demo_variant_b)))
    subnet = admissible_arcs(extend(demo_variant_b, solution.dual))
    assert subnet.arc_indices == {A_S1V, A_S2T2, A_VT1, A_VT2}


def test_unit_demo_admits_one_of_three_subnetworks(demo):
    solution = solve(build(demo, pair_costs(demo)))
    subnet = admissible_arcs(extend(demo, solution.dual))
    full = {A_S1V, A_S2V, A_S2T2, A_VT1, A_VT2}
    assert subnet.arc_indices in (
        full - {A_S2V},
        full - {A_VT2},
        full - {A_S2V, A_VT2},
    )
    restricted = demo.with_arcs(subnet.arc_indices)
    result = quickest_transshipment(restricted)
    assert result.horizon == 2
    assert verify_schedule(restricted, result.schedule).cost == 0


def test_single_pair_reduces_to_cheapest_paths_network():
    net = Network.of(
        ["s", "a", "b", "t"],
        [
            ("s", "a", 1, 0, 1),
            ("s", "b", 1, 0, 2),
            ("a", "t", 1, 0, 2),
            ("b", "t", 1, 0, 1),
            ("s", "t", 2, 3, 3),
        ],
        {"s": 2, "t": -2},
    )
    solution = solve(build(net, pair_costs(net)))
    subnet = admissible_arcs(extend(net, solution.dual))
    assert subnet.arc_indices == cheapest_paths_subnetwork(net, "s", "t")


def test_non_optimal_dual_is_rejected_loudly(demo):
    # Feasible but non-optimal for a strictly positive instance: the
    # cheapest extended path then costs more than zero.
    pricey = Network.of(["s", "t"], [("s", "t", 1, 0, 3)], {"s": 1, "t": -1})
    zero = {0: 0, 1: 0}
    with pytest.raises(InternalCheckError):
        admissible_arcs(extend(pricey, zero))


def test_no_terminals_returns_empty_without_warning():
    # A zero-supply instance: nothing to route, nothing to warn about.
    lonely = Network.of(["s", "t"], [], {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        subnet = admissible_arcs(extend(lonely, {}))
    assert subnet.arc_indices == frozenset()


def test_unconnectable_terminals_warn_and_return_empty():
    # Terminals exist but no arc joins them: the super sink cannot be reached.
    cut_off = Network.of(["s", "t"], [], {"s": 1, "t": -1})
    zero = {0: 0, 1: 0}
    with pytest.warns(UserWarning, match="super sink unreachable"):
        subnet = admissible_arcs(extend(cut_off, zero))
    assert subnet.arc_indices == frozenset()


def test_zero_cost_optimum_on_extended_network(demo_variant_a):
    from qmct import _kernel

    solution = solve(build(demo_variant_a, pair_costs(demo_variant_a)))
    extended = extend(demo_variant_a, solution.dual)
    form = demo_variant_a.integral
    # The super source and super sink as explicit nodes n and n+1.
    n = len(demo_variant_a.nodes)
    tails = [*form.tails, *(n for _ in extended.source_costs), *extended.sink_costs]
    heads = [*form.heads, *extended.source_costs, *(n + 1 for _ in extended.sink_costs)]
    costs = [*form.costs, *extended.source_costs.values(), *extended.sink_costs.values()]
    g = _kernel.build(n + 2, tails, heads, [None] * len(costs), costs)
    assert _kernel.labels(_kernel.flowless_label_graph(g), {n: 0})[n + 1] == 0


def test_path_equivalence_on_generated_instances():
    # A simple source-sink path is admissible (active pair, cheapest
    # cost) exactly when all its arcs are in the admissible set.
    for seed in range(30):
        net = generate(seed, nodes=6, terminals=3)
        instance = build(net, pair_costs(net))
        solution = solve(instance)
        subnet = admissible_arcs(extend(net, solution.dual))
        actives = active_pairs(instance, solution.dual)
        costs = pair_costs(net)
        scale, i = net.integral.cost_scale, net.node_index
        for s in net.sources:
            for t in net.sinks:
                for p in simple_paths(net, s, t):
                    cheapest = path_cost(net, p) * scale == costs[(i(s), i(t))]
                    admissible_path = (i(s), i(t)) in actives and cheapest
                    contained = set(p) <= subnet.arc_indices
                    assert admissible_path == contained, (seed, s, t, p)


def test_stabilized_mincost_flows_project_into_admissible_set():
    # Once the horizon is generous enough to reach the static optimum,
    # a minimum-cost expansion flow only loads arcs of the admissible set.
    from qmct.pipeline import run_quickest_mincost
    from qmct.oracle import horizon_upper_bound
    from qmct.temporal import mincost_over_time

    for seed in range(30):
        net = generate(seed, nodes=5, terminals=3)
        run = run_quickest_mincost(net)
        bound = horizon_upper_bound(run.network)
        result = mincost_over_time(run.network, bound)
        used = {e.arc for e in result.schedule.arc_flows}
        assert used <= run.subnetwork.arc_indices, seed
