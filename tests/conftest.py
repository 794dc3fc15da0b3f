"""Shared fixtures: the two-source/two-sink demo network and variants.

The demo network has five nodes; one middle node fans flow from both
sources to both sinks for free, the second source also has a direct but
slow arc to the second sink, and its arc into the middle node is the
only one with positive cost.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from qmct.network import Network

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


@pytest.fixture
def demo() -> Network:
    return demo_network()


@pytest.fixture
def demo_variant_a() -> Network:
    return demo_network(VARIANT_A_BALANCES)


@pytest.fixture
def demo_variant_b() -> Network:
    return demo_network(VARIANT_B_BALANCES)
