from fractions import Fraction

import pytest

from _brute import path_cost, simple_paths
from conftest import A_S1V, A_S2T2, A_S2V, A_VT1, A_VT2
from qmct.admissible import admissible_arcs, extend
from qmct.cheapest import cheapest_paths_subnetwork, pair_costs
from qmct.errors import InternalCheckError
from qmct.generate import generate
from qmct.network import Network
from qmct.temporal import quickest_transshipment
from qmct.transport import DualSolution, active_pairs, build, solve

PRINTED_DUAL = DualSolution(
    {"s1": Fraction(0), "s2": Fraction(1), "t1": Fraction(0), "t2": Fraction(1)}
)


def test_extend_prices_terminal_arcs(demo):
    extended = extend(demo, PRINTED_DUAL)
    assert extended.base_arc_count == 5
    terminal = extended.arcs[5:]
    n = len(demo.nodes)
    super_source, super_sink = n, n + 1
    priced = {(t, h): c for t, h, c in terminal}
    assert priced[(super_source, demo.node_index("s1"))] == 0
    assert priced[(super_source, demo.node_index("s2"))] == -1
    assert priced[(demo.node_index("t1"), super_sink)] == 0
    assert priced[(demo.node_index("t2"), super_sink)] == 1


def test_extend_with_zero_dual(demo):
    zero = DualSolution({v: Fraction(0) for v in ("s1", "s2", "t1", "t2")})
    extended = extend(demo, zero)
    assert all(c == 0 for _, _, c in extended.arcs[5:])


def test_variant_a_drops_only_the_fan_out_arc(demo_variant_a):
    solution = solve(build(demo_variant_a, pair_costs(demo_variant_a)))
    subnet = admissible_arcs(extend(demo_variant_a, solution.dual))
    assert subnet.connected
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
    assert result.schedule.cost(restricted) == 0


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
    zero = DualSolution({"s": Fraction(0), "t": Fraction(0)})
    with pytest.raises(InternalCheckError):
        admissible_arcs(extend(pricey, zero))


def test_unreachable_super_sink_warns_and_returns_empty():
    lonely = Network.of(["s", "t"], [], {})
    # No sources or sinks at all: the super sink cannot be reached.
    with pytest.warns(UserWarning):
        subnet = admissible_arcs(extend(lonely, DualSolution({})))
    assert subnet.arc_indices == frozenset()
    assert not subnet.connected


def test_zero_cost_optimum_on_extended_network(demo_variant_a):
    from qmct._kernel import arc_graph, labels

    solution = solve(build(demo_variant_a, pair_costs(demo_variant_a)))
    extended = extend(demo_variant_a, solution.dual)
    dist = labels(arc_graph(extended.num_nodes, extended.arcs), extended.super_source)
    assert dist[extended.super_sink] == 0


def _admissible_by_definition(net, instance, dual):
    """Path-level reference: union of arcs of admissible simple paths."""
    actives = active_pairs(instance, dual)
    costs = pair_costs(net)
    arcs = set()
    for s, t in actives:
        for p in simple_paths(net, s, t):
            if path_cost(net, p) == costs[(s, t)]:
                arcs |= set(p)
    return arcs


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
        for s in net.sources:
            for t in net.sinks:
                for p in simple_paths(net, s, t):
                    admissible_path = (s, t) in actives and path_cost(net, p) == costs[(s, t)]
                    contained = set(p) <= subnet.arc_indices
                    assert admissible_path == contained, (seed, s, t, p)


def test_stabilized_mincost_flows_project_into_admissible_set():
    # Once the horizon is generous enough to reach the static optimum,
    # a minimum-cost expansion flow only loads arcs of the admissible set.
    from qmct.pipeline import run_quickest_mincost
    from qmct.temporal import horizon_upper_bound, mincost_over_time

    for seed in range(30):
        net = generate(seed, nodes=5, terminals=3)
        run = run_quickest_mincost(net)
        bound = horizon_upper_bound(run.scaled)
        result = mincost_over_time(run.scaled, bound)
        graph = result.witness.graph
        used = {
            graph.movement[i][0]
            for i in range(len(graph.movement))
            if result.witness.flows[i] > 0
        }
        assert used <= run.subnetwork.arc_indices, seed
