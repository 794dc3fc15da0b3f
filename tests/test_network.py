from fractions import Fraction

import pytest

from conftest import A_S2T2, A_S2V, A_VT1
from qmct.network import Arc, Network, Path, path_cost, path_transit, validate


def test_demo_network_is_valid(demo):
    report = validate(demo)
    assert report.ok
    assert demo.sources == ("s1", "s2")
    assert demo.sinks == ("t1", "t2")
    assert demo.total_supply == 2


def test_single_arc_network_is_valid():
    net = Network.of(["s", "t"], [("s", "t", 1, 0, 0)], {"s": 1, "t": -1})
    assert validate(net).ok


def test_negative_cycle_detected():
    net = Network.of(
        ["a", "b"],
        [("a", "b", 1, 0, 1), ("b", "a", 1, 0, -2)],
        {},
    )
    report = validate(net)
    assert not report.ok
    assert "negative-cycle" in report.kinds()


def test_self_loop_rejected_by_validation():
    net = Network.of(["a", "b"], [("a", "a", 1, 0, 0), ("a", "b", 1, 0, 0)], {})
    assert "self-loop" in validate(net).kinds()


def test_balance_mismatch_reported():
    net = Network.of(["a", "b"], [("a", "b", 1, 0, 0)], {"a": 2, "b": -1})
    assert "balance" in validate(net).kinds()


def test_bad_arc_data_reported():
    net = Network.of(
        ["a", "b"],
        [("a", "b", 0, 0, 0), ("b", "a", 1, -1, 0)],
        {},
    )
    kinds = validate(net).kinds()
    assert "capacity" in kinds
    assert "transit" in kinds


def test_all_violations_collected_not_first_only():
    net = Network.of(
        ["a", "b"],
        [("a", "a", 0, -1, 0)],
        {"a": 1, "b": 0},
    )
    kinds = validate(net).kinds()
    assert {"capacity", "transit", "self-loop", "balance"} <= kinds


def test_violation_details_are_pinned():
    # Every violation kind, with rational values in the messages.
    net = Network.of(
        ["a", "b", "c"],
        [
            ("a", "a", 0, -1, 0),
            ("a", "b", "-1/2", "-3/2", 1),
            ("b", "a", 1, 0, -2),
            ("b", "c", "2/3", 0, 0),
        ],
        {"a": "3/2", "c": -1},
    )
    assert [(v.kind, v.detail) for v in validate(net).violations] == [
        ("capacity", "arc 0 (a->a) has non-positive capacity 0"),
        ("transit", "arc 0 (a->a) has negative transit -1"),
        ("self-loop", "arc 0 (a->a) is a self-loop"),
        ("capacity", "arc 1 (a->b) has non-positive capacity -1/2"),
        ("transit", "arc 1 (a->b) has negative transit -3/2"),
        ("balance", "balances sum to 1/2, expected 0"),
        ("negative-cycle", "network contains a negative-cost cycle"),
    ]


def test_validate_reports_once_per_network(demo, monkeypatch):
    # The pipeline validates a network before each stage; repeats reuse the report.
    from qmct import _kernel

    first = validate(demo)
    passes = []
    monkeypatch.setattr(_kernel, "label_correct", lambda g, seeds: passes.append(g) or seeds)
    assert validate(demo) is first and not passes
    restricted = demo.with_arcs(range(len(demo.arcs)))
    assert validate(restricted) == first and len(passes) == 1


def test_path_cost_and_transit(demo):
    cheap = Path((A_S2V, A_VT1))
    assert path_cost(demo, cheap) == 1
    assert path_transit(demo, cheap) == 0
    direct = Path((A_S2T2,))
    assert path_cost(demo, direct) == 0
    assert path_transit(demo, direct) == 1


def test_empty_path_sums_to_zero(demo):
    assert path_cost(demo, Path(())) == 0
    assert path_transit(demo, Path(())) == 0


def test_malformed_path_raises(demo):
    with pytest.raises(ValueError):
        path_cost(demo, Path((A_S2T2, A_VT1)))
    with pytest.raises(ValueError):
        path_transit(demo, Path((99,)))


def test_constructor_rejects_unknown_nodes():
    with pytest.raises(ValueError):
        Network.of(["a"], [("a", "missing", 1, 0, 0)], {})
    with pytest.raises(ValueError):
        Network.of(["a", "a"], [], {})
    with pytest.raises(ValueError):
        Network.of(["a"], [], {"ghost": 1})


@pytest.mark.parametrize(
    "tail, head, message",
    [
        (["a"], "b", "arc 0 tail must be a string node id"),
        ("a", {"id": "b"}, "arc 0 head must be a string node id"),
        (1, "b", "arc 0 tail must be a string node id"),
    ],
    ids=["list tail", "dict head", "int tail"],
)
def test_constructor_rejects_non_string_endpoints(tail, head, message):
    with pytest.raises(ValueError) as built_of:
        Network.of(["a", "b"], [(tail, head, 1, 0, 0)])
    with pytest.raises(ValueError) as built:
        Network.of(("a", "b"), (Arc(tail, head, 1, 0, 0),), {})
    assert str(built_of.value) == str(built.value) == message


@pytest.mark.parametrize(
    "nodes, bad",
    [([1, 2], 1), (["a", 1], 1), (["a", 0, None], 0), (["a", None], None)],
    ids=["int ids", "one int id", "zero id", "None id"],
)
def test_constructor_names_the_first_node_id_that_is_no_string(nodes, bad):
    # Such a network would validate, then fail its own document round trip.
    with pytest.raises(ValueError, match=f"^node id {bad!r} must be a string$"):
        Network.of(nodes, [], {v: 0 for v in nodes})
    with pytest.raises(ValueError, match=f"^node id {bad!r} must be a string$"):
        Network.of_columns(nodes, (), (), (), (), (), {})


@pytest.mark.parametrize(
    "arcs, k",
    [
        ([("a", "b")], 0),
        ([("a", "b", 1, 0, 0), ("a", "b", 1, 0)], 1),
        ([("a", "b", 1, 0, 0, 0)], 0),
    ],
    ids=["all short", "one short", "too long"],
)
def test_constructor_names_the_first_arc_of_another_length(arcs, k):
    message = f"^arc {k} must be \\(tail, head, capacity, transit, cost\\)$"
    with pytest.raises(ValueError, match=message):
        Network.of(["a", "b"], arcs)


def test_unknown_balance_is_named_once():
    with pytest.raises(ValueError, match="^balance given for unknown node 'ghost'$"):
        Network.of(["a"], [], {"ghost": 1})


def test_with_arcs_keeps_balances(demo):
    sub = demo.with_arcs([0, 3])
    assert len(sub.arcs) == 2
    assert sub.balances["s1"] == 1
    assert sub.nodes == demo.nodes


def test_with_balances_replaces_everything(demo):
    swapped = demo.with_balances({"s1": "3/2", "t1": "-3/2"})
    assert swapped.balances["s1"] == Fraction(3, 2)
    assert swapped.balances["s2"] == 0
    assert swapped.total_supply == Fraction(3, 2)


def test_balances_sum_zero_for_valid_networks(demo):
    assert sum(demo.balances.values(), Fraction(0)) == 0
