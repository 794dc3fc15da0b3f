import random
from fractions import Fraction

import pytest

from _brute import cheapest_simple_cost, path_cost, simple_paths
from conftest import A_S1V, A_VT1, A_VT2
from qmct.cheapest import (
    cheapest_from,
    cheapest_paths_subnetwork,
    cheapest_to,
    pair_costs,
)
from qmct.errors import NoPathError
from qmct.generate import generate
from qmct.network import Network


def test_demo_labels_from_second_source(demo):
    labels = cheapest_from(demo, "s2")
    assert labels["v"] == 1
    assert labels["t1"] == 1
    assert labels["t2"] == 0
    assert labels["s2"] == 0
    assert "s1" not in labels


def test_label_at_origin_is_zero(demo):
    for v in demo.nodes:
        assert cheapest_from(demo, v)[v] == 0


def test_two_arc_path_with_negative_cost():
    net = Network.of(["a", "b", "c"], [("a", "b", 1, 0, -1), ("b", "c", 1, 0, 3)], {})
    assert cheapest_from(net, "a")["c"] == 2


def test_labels_satisfy_triangle_inequality(demo):
    labels = cheapest_from(demo, "s2")
    for arc in demo.arcs:
        if arc.tail in labels:
            assert arc.head in labels
            assert labels[arc.head] <= labels[arc.tail] + arc.cost


def test_backward_labels(demo):
    labels = cheapest_to(demo, "t2")
    assert labels["s2"] == 0
    assert labels["s1"] == 0
    assert labels["v"] == 0
    assert "t1" not in labels


def test_demo_subnetwork_single_pair(demo):
    assert cheapest_paths_subnetwork(demo, "s1", "t1") == {A_S1V, A_VT1}


def test_single_arc_subnetwork():
    net = Network.of(["a", "b"], [("a", "b", 1, 0, 4)], {})
    assert cheapest_paths_subnetwork(net, "a", "b") == {0}


def test_diamond_keeps_both_equal_branches():
    net = Network.of(
        ["s", "x", "y", "t"],
        [
            ("s", "x", 1, 0, 1),
            ("s", "y", 1, 0, 2),
            ("x", "t", 1, 0, 3),
            ("y", "t", 1, 0, 2),
        ],
        {},
    )
    assert cheapest_paths_subnetwork(net, "s", "t") == {0, 1, 2, 3}


def test_subnetwork_requires_reachability(demo):
    with pytest.raises(NoPathError):
        cheapest_paths_subnetwork(demo, "t1", "s1")


def test_demo_pair_costs_match_printed_matrix(demo):
    assert pair_costs(demo) == {
        ("s1", "t1"): Fraction(0),
        ("s1", "t2"): Fraction(0),
        ("s2", "t1"): Fraction(1),
        ("s2", "t2"): Fraction(0),
    }


def test_pair_absent_without_path(demo):
    cut = demo.with_arcs([A_S1V, A_VT1, A_VT2])  # s2 fully disconnected
    cut = cut.with_balances({"s1": 1, "s2": 1, "t1": -1, "t2": -1})
    costs = pair_costs(cut)
    assert ("s2", "t1") not in costs
    assert ("s2", "t2") not in costs
    assert ("s1", "t1") in costs


def test_pair_costs_match_brute_force_enumeration():
    for seed in range(40):
        net = generate(seed, nodes=6, terminals=3, cost_max=4)
        computed = pair_costs(net)
        for s in net.sources:
            for t in net.sinks:
                expected = cheapest_simple_cost(net, s, t)
                if expected is None:
                    assert (s, t) not in computed
                else:
                    assert computed[(s, t)] == expected


def test_subnetwork_membership_matches_path_enumeration():
    # Strictly positive costs keep zero-cost cycles away, so membership
    # in the subnetwork coincides with lying on a cheapest simple path.
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(3, 6)
        names = [f"x{i}" for i in range(n)]
        arcs = []
        for _ in range(rng.randint(4, 12)):
            u, v = rng.sample(range(n), 2)
            arcs.append((names[u], names[v], 1, 0, rng.randint(1, 5)))
        net = Network.of(names, arcs, {})
        paths = simple_paths(net, names[0], names[-1])
        if not paths:
            with pytest.raises(NoPathError):
                cheapest_paths_subnetwork(net, names[0], names[-1])
            continue
        best = min(path_cost(net, p) for p in paths)
        expected = {i for p in paths if path_cost(net, p) == best for i in p}
        assert cheapest_paths_subnetwork(net, names[0], names[-1]) == expected


def test_subnetwork_equality_is_tight(demo):
    from qmct.cheapest import subnetwork_arcs

    forward = cheapest_from(demo, "s2")
    backward = cheapest_to(demo, "t1")
    optimum = forward["t1"]
    selected = subnetwork_arcs(demo, forward, backward, optimum)
    for i, arc in enumerate(demo.arcs):
        if arc.tail in forward and arc.head in backward:
            value = forward[arc.tail] + arc.cost + backward[arc.head]
            if i in selected:
                assert value == optimum
            else:
                assert value > optimum


def test_labels_raise_on_reachable_negative_cycle():
    from qmct._kernel import arc_graph, labels
    from qmct.errors import InternalCheckError

    net = Network.of(
        ["a", "b", "c"],
        [("a", "b", 1, 0, 1), ("b", "c", 1, 0, -2), ("c", "b", 1, 0, 1)],
        {},
    )
    with pytest.raises(InternalCheckError):
        cheapest_from(net, "a")
    g = arc_graph(3, [(0, 1, Fraction(1)), (1, 2, Fraction(-2)), (2, 1, Fraction(1))])
    with pytest.raises(InternalCheckError):
        labels(g, 0)
