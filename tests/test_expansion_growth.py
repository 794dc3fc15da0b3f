"""The oracle's growing time expansion against a fresh one per horizon.

At every horizon from 0 to three past the answer, the warm-started max
flow of :class:`qmct.oracle._GrowingExpansion` must route what a max
flow on the full expansion for T routes, and its min-cost flow must
cost what :func:`qmct.temporal.mincost_over_time` costs, or raise the
same error.
One expansion grows with max flows only, as the oracle's scan up to the
first feasible horizon does; another grows with a min-cost flow at every
horizon.  A growth only appends: every residual capacity and arc
capacity from before it is unchanged after it.
"""

from fractions import Fraction

import pytest

from _brute import expansion_max_flow
from qmct.errors import InfeasibleError
from qmct.generate import generate
from qmct.network import Arc, Network
from qmct.oracle import _GrowingExpansion
from qmct.pipeline import solve_quickest_mincost
from qmct.temporal import mincost_over_time


def _negative_costs():
    for seed in range(150):
        yield generate(
            seed,
            nodes=3 + seed % 6,
            terminals=1 + seed % 3,
            tau_max=1 + seed % 4,
            negative_costs=True,
        )


def _crosscheck():
    for seed in range(40):
        yield generate(seed, nodes=10, terminals=3, tau_max=8, cap_max=5, negative_costs=True)


def _rational():
    for seed in range(100):
        negative = seed % 2 == 0
        net = generate(seed, nodes=3 + seed % 5, terminals=3, tau_max=3, negative_costs=negative)
        k = 2 + seed % 2
        arcs = tuple(
            Arc(a.tail, a.head, a.capacity / (1 + i % 3), a.transit / k, a.cost / 2)
            for i, a in enumerate(net.arcs)
        )
        yield Network.of(net.nodes, arcs, {v: b * 3 / 2 for v, b in net.balances.items()})


def _zero_supply():
    yield Network.of(["a", "b"], [])
    for seed in range(12):
        yield generate(seed, nodes=4 + seed % 4, negative_costs=True).with_balances({})


# Each kind's instances; how many there are, how many have a zero-transit
# arc, how many have a time scale above 1, and at how many of the horizons
# scanned mincost_over_time raises.
KINDS = {
    "negative costs": (_negative_costs, (150, 124, 0, 456)),
    "crosscheck": (_crosscheck, (40, 37, 0, 393)),
    "rational": (_rational, (100, 80, 93, 561)),
    "zero supply": (_zero_supply, (13, 11, 0, 0)),
}


def _min_cost_or_error(compute):
    try:
        return compute()
    except InfeasibleError as exc:
        return str(exc), exc.certificate


@pytest.mark.parametrize("kind", list(KINDS))
def test_growth_matches_a_fresh_expansion_per_horizon(kind):
    instances, counts = KINDS[kind]
    seen = zero_transit = rescaled = raising = 0
    for net in instances():
        answer = solve_quickest_mincost(net).horizon
        by_max_flow = _GrowingExpansion(net)
        by_min_cost = _GrowingExpansion(net)
        for horizon in range(answer + 4):
            assert by_max_flow.horizon == by_min_cost.horizon == horizon
            assert by_max_flow.max_flow() == expansion_max_flow(net, horizon)[2], (kind, seen)
            expected = _min_cost_or_error(lambda: mincost_over_time(net, horizon).cost)
            assert _min_cost_or_error(by_min_cost.min_cost) == expected, (kind, seen, horizon)
            raising += not isinstance(expected, Fraction)
            for expansion in (by_max_flow, by_min_cost):
                rem, caps = list(expansion.graph.rem), list(expansion.caps)
                expansion.grow()
                assert expansion.graph.rem[: len(rem)] == rem, (kind, seen, horizon)
                assert expansion.caps[: len(caps)] == caps, (kind, seen, horizon)
        seen += 1
        zero_transit += 0 in net.integral.transits
        rescaled += net.integral.time_scale > 1
    assert (seen, zero_transit, rescaled, raising) == counts
