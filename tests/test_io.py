import hashlib
import json
from fractions import Fraction

import pytest

from qmct.errors import ValidationError
from qmct.generate import generate
from qmct.io import (
    load_instance,
    network_from_doc,
    network_to_doc,
    report_to_doc,
    save_instance,
    schedule_to_doc,
)
from qmct.network import Network
from qmct.pipeline import solve_quickest_mincost


def test_network_round_trip(demo):
    doc = network_to_doc(demo)
    again = network_from_doc(doc)
    assert again.nodes == demo.nodes
    assert again.arcs == demo.arcs
    assert again.balances == demo.balances


def test_doc_uses_fraction_strings(demo_variant_a):
    doc = network_to_doc(demo_variant_a)
    assert doc["balances"]["s2"] == "3/2"
    assert doc["balances"]["t1"] == "-3/2"
    assert all(isinstance(a["capacity"], str) for a in doc["arcs"])


def test_missing_balances_default_to_zero():
    net = network_from_doc(
        {"nodes": ["a", "b"], "arcs": [{"tail": "a", "head": "b", "capacity": 1}]}
    )
    assert net.balances == {"a": Fraction(0), "b": Fraction(0)}
    assert net.arcs[0].transit == 0
    assert net.arcs[0].cost == 0


def test_floats_rejected():
    with pytest.raises(ValidationError, match="not exact"):
        network_from_doc(
            {
                "nodes": ["a", "b"],
                "arcs": [{"tail": "a", "head": "b", "capacity": 1.5}],
            }
        )


FLOATS = 'floats are not exact; write the value as a string like "3/2"'


@pytest.mark.parametrize(
    "arc, balances, message",
    [
        ({"capacity": 1.5}, {}, f"arc 0 capacity: {FLOATS}"),
        ({"transit": True}, {}, "arc 0 transit: expected a rational number, got bool True"),
        ({"cost": "x/2"}, {}, "arc 0 cost: not a valid rational literal: 'x/2'"),
        ({"cost": None}, {}, "arc 0 cost: expected int, str or Fraction, got NoneType"),
        ({}, {"a": "1/0"}, "balance of 'a': not a valid rational literal: '1/0'"),
        ({}, {"b": [1]}, "balance of 'b': expected int, str or Fraction, got list"),
        ({}, {"b": -0.5}, f"balance of 'b': {FLOATS}"),
        # Values are parsed with the arcs, endpoint types checked by Network after.
        ({"tail": 1, "capacity": 1.5}, {}, f"arc 0 capacity: {FLOATS}"),
    ],
)
def test_bad_values_name_their_place(arc, balances, message):
    doc = {"nodes": ["a", "b"], "arcs": [{"tail": "a", "head": "b", **arc}], "balances": balances}
    with pytest.raises(ValidationError) as caught:
        network_from_doc(doc)
    assert str(caught.value) == message


def test_decimal_strings_accepted():
    net = network_from_doc(
        {
            "nodes": ["a", "b"],
            "arcs": [{"tail": "a", "head": "b", "capacity": "1.5"}],
        }
    )
    assert net.arcs[0].capacity == Fraction(3, 2)


def test_schema_errors_are_validation_errors():
    with pytest.raises(ValidationError):
        network_from_doc([1, 2, 3])
    with pytest.raises(ValidationError):
        network_from_doc({"nodes": "ab", "arcs": []})
    with pytest.raises(ValidationError):
        network_from_doc({"nodes": ["a"], "arcs": [{"tail": "a"}]})
    with pytest.raises(ValidationError, match="^arc 1 must be an object$"):
        network_from_doc({"nodes": ["a", "b"], "arcs": [{"tail": "a", "head": "b"}, ["a", "b"]]})
    with pytest.raises(ValidationError):
        network_from_doc({"nodes": ["a"], "arcs": [], "balances": {"ghost": 1}})


def test_save_and_load(tmp_path, demo):
    path = tmp_path / "instance.json"
    save_instance(demo, path)
    assert load_instance(path).arcs == demo.arcs


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_instance(path)


def test_report_doc_shape(demo):
    report = solve_quickest_mincost(demo)
    doc = report_to_doc(report, include_schedule=True)
    assert doc["mode"] == "quickest-mincost"
    assert doc["cost"] == "0"
    assert doc["horizon"] == {"steps": 2, "original": "2"}
    assert doc["transport_optimum"] == "0"
    assert set(doc["checks"]) == {
        "schedule_valid",
        "cost_equals_transport_optimum",
        "routing_admissible",
    }
    assert all(doc["checks"].values())
    for intervals in doc["schedule"].values():
        for start, end, rate in intervals:
            assert isinstance(start, int) and isinstance(end, int)
            assert isinstance(rate, str)


def test_schedule_doc_lists_intervals(demo_variant_a):
    report = solve_quickest_mincost(demo_variant_a)
    doc = schedule_to_doc(report.schedule)
    assert all(isinstance(k, str) for k in doc)
    total = sum(len(v) for v in doc.values())
    assert total >= 1


def _documented_networks():
    """100 generated networks, most with half-integral balances, and 25 with their arcs'
    capacities, transits and costs made rational, so that all three scales exceed 1."""
    for seed in range(100):
        net = generate(seed, half_balance_prob=0.9)
        yield net
        if seed % 4 == 0:
            arcs = [
                (a.tail, a.head, a.capacity + Fraction(k % 3 + 1, 3),
                 a.transit + Fraction(1, 2 + k % 2), a.cost - Fraction(k % 5 + 1, 5))
                for k, a in enumerate(net.arcs)
            ]
            rational = Network.of(net.nodes, arcs, net.balances)
            form = rational.integral
            assert min(form.flow_scale, form.time_scale, form.cost_scale) > 1, seed
            yield rational


def test_network_to_doc_matches_golden_digest():
    digest = hashlib.sha256()
    for net in _documented_networks():
        digest.update(json.dumps(network_to_doc(net), sort_keys=True).encode())
    assert digest.hexdigest() == "966461f093d2c21b6592582a32c512f36ac05041f33a0ff30a68f094b26237ec"


def test_doc_round_trips_the_integer_form():
    for net in _documented_networks():
        assert network_from_doc(network_to_doc(net)).integral == net.integral


def test_equal_texts_in_a_document_are_one_string():
    for net in _documented_networks():
        doc = network_to_doc(net)
        columns = [[arc[key] for arc in doc["arcs"]] for key in ("capacity", "transit", "cost")]
        for texts in [*columns, [*doc["balances"].values()]]:
            assert len({*map(id, texts)}) == len({*texts}), texts
