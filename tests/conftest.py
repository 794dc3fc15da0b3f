"""Shared fixtures: the two-source/two-sink demo network and variants.

The demo network has five nodes; one middle node fans flow from both
sources to both sinks for free, the second source also has a direct but
slow arc to the second sink, and its arc into the middle node is the
only one with positive cost.  The instance sets of the acceptance suite
and of the end-to-end golden digest live here too, so that other tests
can run over them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from qmct.generate import generate
from qmct.io import load_instance
from qmct.network import Arc, Network

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

# Example run times swing with the host's load, and warnings fail the
# run, so a slow example must not become a hypothesis deadline failure.
settings.register_profile("qmct", deadline=None)
settings.load_profile("qmct")

# Arc indices in DEMO_ARCS, used throughout the tests.
A_S1V = 0
A_S2V = 1
A_S2T2 = 2
A_VT1 = 3
A_VT2 = 4

DEMO_NODES = ["s1", "s2", "v", "t1", "t2"]
DEMO_ARCS = [
    ("s1", "v", 1, 0, 0),
    ("s2", "v", 1, 0, 1),
    ("s2", "t2", 1, 1, 0),
    ("v", "t1", 1, 0, 0),
    ("v", "t2", 1, 0, 0),
]

UNIT_BALANCES = {"s1": 1, "s2": 1, "t1": -1, "t2": -1}
VARIANT_A_BALANCES = {"s1": 1, "s2": "3/2", "t1": "-3/2", "t2": -1}
VARIANT_B_BALANCES = {"s1": "3/2", "s2": 1, "t1": -1, "t2": "-3/2"}


def demo_network(balances=None) -> Network:
    return Network.of(DEMO_NODES, DEMO_ARCS, balances or UNIT_BALANCES)


def parallel_falling_costs() -> Network:
    """One unit over six parallel arcs whose costs fall from -1 to -6.

    There is no cycle, but each arc lowers the sink's label once more.
    """
    return Network.of(
        ["s", "t"], [("s", "t", 1, 0, -k) for k in range(1, 7)], {"s": 1, "t": -1}
    )


def detour_network() -> Network:
    """Five units over a direct arc (rate 1, transit 4) and a two-arc
    detour (rate 1, transit 20 per arc): the quickest horizon is 9."""
    return Network.of(
        ["a", "b", "c"],
        [("a", "b", 1, 4, 0), ("a", "c", 1, 20, 0), ("c", "b", 1, 20, 0)],
        {"a": 5, "b": -5},
    )


def acceptance_suite() -> list[Network]:
    """The acceptance criteria's 200 seeded random instances: at most 6
    nodes, 3 sources and 3 sinks, integer data of at most 3."""
    sizes = random.Random(9001)
    return [
        generate(
            seed,
            nodes=sizes.randint(3, 6),
            terminals=3,
            tau_max=3,
            cap_max=3,
            cost_max=3,
        )
        for seed in range(200)
    ]


def _rational_instances():
    for seed in range(200):
        net = generate(
            seed,
            nodes=3 + seed % 4,
            terminals=3,
            tau_max=seed % 3 + 1,
            half_balance_prob=0.4,
            negative_costs=seed % 2 == 1,
        )
        k = 2 + seed % 3
        # A potential shift keeps every cycle's cost, so no negative
        # cycle appears.
        potential = {
            v: Fraction((5 * i + seed) % 7 - 3, 1 + (i + seed) % 4)
            for i, v in enumerate(net.nodes)
        }
        arcs = tuple(
            Arc(
                a.tail,
                a.head,
                a.capacity / (1 + i % k),
                a.transit / k,
                a.cost / k + potential[a.tail] - potential[a.head],
            )
            for i, a in enumerate(net.arcs)
        )
        yield Network.of(net.nodes, arcs, {v: b * 2 / 3 for v, b in net.balances.items()})


def golden_instances() -> list[Network]:
    """The end-to-end golden digest's 203 instances: the bundled ones,
    then 200 generated ones with rational capacities, transits, costs
    and balances, and negative costs from a node potential."""
    bundled = [load_instance(path) for path in sorted(INSTANCES.glob("*.json"))]
    return [*bundled, *_rational_instances()]


@pytest.fixture
def demo() -> Network:
    return demo_network()


@pytest.fixture
def demo_variant_a() -> Network:
    return demo_network(VARIANT_A_BALANCES)


@pytest.fixture
def demo_variant_b() -> Network:
    return demo_network(VARIANT_B_BALANCES)
