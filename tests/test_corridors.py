"""Corridor merging against the network it merges.

:func:`qmct.corridors.merge_corridors` replaces every path through
corridors (nodes of balance 0 with one arc in and one out) by one arc.
The unit cases pin what a merge makes of capacities, transits, costs,
self-loops, cycles of corridors and terminals; the property tests hold
the merged network to the input in o^T(A) and T_A for every terminal
subset, and the quickest search's schedules and certificates, which it
maps back from the merged network, to the input.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from _brute import expansion_search, subset_expansion_flow
from qmct import temporal
from qmct.corridors import merge_corridors
from qmct.errors import InfeasibleError
from qmct.generate import generate
from qmct.network import Arc, Network
from qmct.pipeline import run_quickest_mincost


def _columns(network: Network) -> list[tuple]:
    form = network.integral
    return list(zip(form.tails, form.heads, form.capacities, form.transits, form.costs))


def _solves_as_the_input(net: Network) -> None:
    """Same quickest horizon as the reference on the input, and a schedule that verifies."""
    result = temporal.quickest_transshipment(net)
    assert result.horizon == expansion_search(net).horizon
    assert temporal.verify_schedule(net, result.schedule).ok


@pytest.mark.parametrize("caps", [(1, 3), (3, 1), (2, 2)])
def test_a_corridor_becomes_one_arc(caps):
    # s → v → t with v a corridor, and a slower direct arc s → t.
    net = Network.of(
        ["s", "v", "t"],
        [("s", "v", caps[0], 2, 1), ("v", "t", caps[1], 3, 4), ("s", "t", 1, 9, 0)],
        {"s": 7, "t": -7},
    )
    corridors = merge_corridors(net)
    assert _columns(corridors.network) == [(0, 2, min(caps), 5, 5), (0, 2, 1, 9, 0)]
    assert corridors.chains == ((0, 1), (2,))
    assert corridors.network.nodes == net.nodes
    assert corridors.network.integral.balances == net.integral.balances
    _solves_as_the_input(net)


def test_unfold_shifts_each_interval_by_the_transit_before_its_arc():
    net = Network.of(
        ["s", "a", "b", "t"],
        [("s", "a", 2, 1, 0), ("a", "b", 2, 0, 0), ("b", "t", 2, 3, 0)],
        {"s": 4, "t": -4},
    )
    corridors = merge_corridors(net)
    assert _columns(corridors.network) == [(0, 3, 2, 4, 0)]
    step = temporal.ArcIntervals(0, ((0, 2, 2),))
    unfolded = corridors.unfold(temporal.FlowOverTime(6, (step,)))
    assert [(e.arc, e.intervals) for e in unfolded.arc_flows] == [
        (0, ((0, 2, 2),)),
        (1, ((1, 3, 2),)),
        (2, ((1, 3, 2),)),
    ]
    assert temporal.quickest_transshipment(net).schedule == unfolded
    assert temporal.verify_schedule(net, unfolded).ok


def test_zero_transit_arcs_inside_a_corridor():
    net = Network.of(
        ["s", "a", "b", "t"],
        [("s", "a", 1, 0, 1), ("a", "b", 2, 0, 2), ("b", "t", 1, 0, 3), ("s", "t", 1, 2, 0)],
        {"s": 3, "t": -3},
    )
    assert _columns(merge_corridors(net).network) == [(0, 3, 1, 0, 6), (0, 3, 1, 2, 0)]
    _solves_as_the_input(net)


def test_a_corridor_closing_on_its_first_tail_becomes_a_self_loop():
    # x → v → x through the corridor v; x itself has two arcs in and two out.
    net = Network.of(
        ["s", "x", "v", "t"],
        [("s", "x", 1, 1, 0), ("x", "v", 2, 1, 0), ("v", "x", 1, 1, 0), ("x", "t", 1, 1, 0)],
        {"s": 2, "t": -2},
    )
    corridors = merge_corridors(net)
    assert _columns(corridors.network) == [(0, 1, 1, 1, 0), (1, 1, 1, 2, 0), (1, 3, 1, 1, 0)]
    _solves_as_the_input(net)


def test_a_cycle_made_only_of_corridors_is_left_alone():
    net = Network.of(
        ["s", "p", "q", "t"],
        [("s", "t", 1, 1, 0), ("p", "q", 1, 1, 0), ("q", "p", 1, 1, 0)],
        {"s": 1, "t": -1},
    )
    corridors = merge_corridors(net)
    assert corridors.network is net
    assert corridors.chains == ((0,), (1,), (2,))


def test_terminals_are_never_merged():
    # m has one arc in and one out, but a demand.
    net = Network.of(
        ["s", "m", "t"], [("s", "m", 2, 1, 0), ("m", "t", 1, 1, 0)], {"s": 2, "m": -1, "t": -1}
    )
    assert merge_corridors(net).network is net


def test_a_supply_cut_off_behind_a_corridor_names_the_corridor():
    # s1 and s2 reach only t1 (demand 1), s1 through the corridor c; s3
    # reaches both sinks.  Every source reaches a sink and every sink a
    # source, so only a probe's cut can show {s1, s2, t1} cut off.
    nodes = ["s1", "c", "s2", "s3", "t1", "t2"]
    arcs = [
        ("s1", "c", 1, 1, 0),
        ("c", "t1", 1, 1, 0),
        ("s2", "t1", 1, 1, 0),
        ("s3", "t1", 1, 1, 0),
        ("s3", "t2", 1, 1, 0),
    ]
    net = Network.of(nodes, arcs, {"s1": 1, "s2": 1, "s3": 1, "t1": -1, "t2": -2})
    assert merge_corridors(net).network is not net
    with pytest.raises(InfeasibleError) as raised:
        temporal.quickest_transshipment(net)
    cut = raised.value.certificate["cut_nodes"]
    assert cut == ["s1", "c", "s2", "t1"]
    assert all(arc.head in cut for arc in net.arcs if arc.tail in cut)


def _merged_instances():
    """Restricted and raw generated networks that have a corridor to merge,
    every other one with rational capacities, transits and balances."""
    for seed in range(400):
        net = generate(seed, nodes=4 + seed % 5, terminals=2 + seed % 3, tau_max=3)
        if seed % 2:
            k = 2 + seed % 3
            arcs = tuple(
                Arc(a.tail, a.head, a.capacity / (1 + i % k), a.transit / k, a.cost)
                for i, a in enumerate(net.arcs)
            )
            net = Network.of(net.nodes, arcs, {v: b * 2 / 3 for v, b in net.balances.items()})
        try:
            net = run_quickest_mincost(net).restricted
        except InfeasibleError:
            pass
        if merge_corridors(net).network is not net:
            yield net


def test_merging_keeps_every_subset_horizon_and_flow():
    networks = rational = checked = 0
    for net in _merged_instances():
        reduced = merge_corridors(net).network
        terminals = [*net.integral.sources, *net.integral.sinks]
        for r in range(1, len(terminals) + 1):
            for subset in map(set, combinations(terminals, r)):
                horizons = []
                for network in (net, reduced):
                    try:
                        horizons.append(temporal._subset_horizon(network, subset))
                    except InfeasibleError as exc:
                        horizons.append(exc.certificate["subset"])
                assert horizons[0] == horizons[1], (net, subset)
                # Up to two past T_A, or a few steps where A is cut off.
                last = horizons[0] + 2 if isinstance(horizons[0], int) else 4
                for horizon in range(1, last + 1):
                    flows = [subset_expansion_flow(n, subset, horizon) for n in (net, reduced)]
                    assert flows[0] == flows[1], (net, subset, horizon)
                    checked += 1
        networks += 1
        rational += net.integral.time_scale > 1
        if networks == 100:
            break
    assert networks == 100
    assert rational >= 40 and checked >= 2500, (rational, checked)


def test_the_merged_network_of_a_merged_network_is_itself():
    merged = 0
    for net in _merged_instances():
        reduced = merge_corridors(net).network
        assert merge_corridors(reduced).network is reduced
        merged += 1
    assert merged >= 100, merged
