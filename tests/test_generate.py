import hashlib
import json
from fractions import Fraction

import pytest

from qmct.cheapest import pair_costs
from qmct.generate import generate
from qmct.io import network_to_doc
from qmct.network import validate
from qmct.transport import build, solve


def test_same_seed_same_instance():
    a = network_to_doc(generate(1, nodes=5))
    b = network_to_doc(generate(1, nodes=5))
    assert a == b


def test_different_seeds_differ_somewhere():
    docs = {str(network_to_doc(generate(seed, nodes=6))) for seed in range(10)}
    assert len(docs) > 5


def test_generated_instances_validate():
    for seed in range(1000):
        net = generate(seed, nodes=6, terminals=3)
        assert validate(net).ok, seed


def test_generated_instances_are_routable():
    for seed in range(100):
        net = generate(seed, nodes=6, terminals=3)
        instance = build(net, pair_costs(net))
        solve(instance)  # must not raise InfeasibleError


def test_parameter_bounds_respected():
    for seed in range(50):
        net = generate(seed, nodes=6, terminals=2, tau_max=2, cap_max=4, cost_max=5)
        assert len(net.sources) <= 2
        assert len(net.sinks) <= 2
        for arc in net.arcs:
            assert 1 <= arc.capacity <= 4
            assert 0 <= arc.transit <= 2
            assert 0 <= arc.cost <= 5


def test_zero_tau_cap_gives_instant_network():
    net = generate(3, nodes=5, tau_max=0)
    assert all(arc.transit == 0 for arc in net.arcs)


def test_half_integral_balances_appear():
    seen_half = False
    for seed in range(40):
        net = generate(seed, nodes=5, half_balance_prob=0.9)
        if any(b.denominator == 2 for b in net.balances.values()):
            seen_half = True
            break
    assert seen_half


def test_negative_costs_stay_conservative():
    seen_negative = False
    for seed in range(40):
        net = generate(seed, nodes=6, negative_costs=True)
        assert validate(net).ok, seed
        if any(arc.cost < 0 for arc in net.arcs):
            seen_negative = True
    assert seen_negative


def test_balances_sum_to_zero():
    for seed in range(50):
        net = generate(seed, nodes=6, terminals=3)
        assert sum(net.balances.values(), Fraction(0)) == 0
        assert net.total_supply > 0


def test_tiny_node_count_rejected():
    with pytest.raises(ValueError):
        generate(1, nodes=1)


# Balances come from whichever maximum flow ``staticflow.max_flow``
# returns on the pair-reachability graph, so a max-flow change that picks
# another optimal flow changes the instances silently.  The digests pin
# 150 instances per option set: the defaults and the options of the two
# generated benchmark workloads.
GOLDEN_DIGESTS = {
    "default": (
        {},
        "fc3ecfb5e15713069684fce169f6280f6c0fd9d3547b712aa91375bbd69158e2",
    ),
    "random-wide": (
        dict(nodes=60, terminals=8, tau_max=10, cost_max=9, negative_costs=True),
        "27e8dbb02ef43fa80301cf8b891e0a579a84c811cba68d9963070c9028ab54ec",
    ),
    "oracle-crosscheck": (
        dict(nodes=10, terminals=3, tau_max=8, cap_max=5, negative_costs=True),
        "e0ebe313f3d9a2b4640a4da160c8e6725ad7d37647f2894e1a694b4f1cfea33d",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_generated_instances_match_golden_digest(name):
    options, expected = GOLDEN_DIGESTS[name]
    digest = hashlib.sha256()
    for seed in range(150):
        doc = network_to_doc(generate(seed, **options))
        digest.update(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == expected
