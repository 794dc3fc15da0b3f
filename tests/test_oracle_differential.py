"""The oracle against its stabilised reference, instance by instance.

:func:`qmct.pipeline.oracle_quickest_mincost` and
:func:`_brute.stabilised_oracle` must give the same ``(cost, horizon)``
or raise the same error class with the same message and certificate.
The kinds cover the benchmark's oracle-crosscheck family, smaller
generated networks with and without negative costs, rational
capacities, transits and costs, zero supply and statically infeasible
instances.
"""

from fractions import Fraction

import pytest

from _brute import stabilised_oracle
from qmct.errors import QmctError
from qmct.generate import generate
from qmct.network import Arc, Network
from qmct.pipeline import oracle_quickest_mincost


def _crosscheck():
    for seed in range(400):
        yield generate(seed, nodes=10, terminals=3, tau_max=8, cap_max=5, negative_costs=True)


def _small():
    for seed in range(400):
        yield generate(
            seed,
            nodes=3 + seed % 6,
            terminals=1 + seed % 3,
            tau_max=1 + seed % 4,
            negative_costs=seed % 2 == 1,
        )


def _rational():
    for seed in range(200):
        negative = seed % 3 == 0
        net = generate(seed, nodes=3 + seed % 5, terminals=3, tau_max=3, negative_costs=negative)
        k = 2 + seed % 2
        arcs = tuple(
            Arc(a.tail, a.head, a.capacity / (1 + i % 3), a.transit / k, a.cost / 2)
            for i, a in enumerate(net.arcs)
        )
        yield Network.of(net.nodes, arcs, {v: b * 3 / 2 for v, b in net.balances.items()})


def _zero_supply():
    yield Network.of(["a", "b"], [])
    yield Network.of(
        ["a", "b", "c"],
        [("a", "b", "1/2", "1/2", "3/4"), ("b", "c", "5/3", "1/3", "-1/6"), ("c", "a", 2, 0, 0)],
    )
    for seed in range(10):
        yield generate(seed, nodes=4 + seed % 4, negative_costs=True).with_balances({})


def _infeasible():
    yield Network.of(["s", "t"], [], {"s": 1, "t": -1})
    yield Network.of(["a", "b", "c"], [("b", "c", 1, 0, 0)], {"a": 1, "c": -1})
    yield Network.of(["s", "m", "t"], [("s", "m", 1, 1, 0), ("t", "m", 1, 1, 0)], {"s": 2, "t": -2})
    # All demand moved to one sink, which some source may not reach.
    for seed in range(30):
        net = generate(seed, nodes=6, terminals=3)
        balances = {s: net.balances[s] for s in net.sources}
        balances[net.sinks[seed % len(net.sinks)]] = -sum(balances.values(), Fraction(0))
        yield net.with_balances(balances)


# Each kind's instances, how many there are, and how many of them raise.
KINDS = {
    "crosscheck": (_crosscheck, 400, 0),
    "small": (_small, 400, 0),
    "rational": (_rational, 200, 0),
    "zero supply": (_zero_supply, 12, 0),
    "infeasible": (_infeasible, 33, 8),
}


def _outcome(oracle, net):
    try:
        return oracle(net)
    except QmctError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "certificate", None)


@pytest.mark.parametrize("kind", list(KINDS))
def test_oracle_matches_the_stabilised_reference(kind):
    instances, count, raising = KINDS[kind]
    seen = errors = 0
    for net in instances():
        expected = _outcome(stabilised_oracle, net)
        assert _outcome(oracle_quickest_mincost, net) == expected, (kind, seen)
        seen += 1
        errors += isinstance(expected[0], str)
    assert (seen, errors) == (count, raising)
