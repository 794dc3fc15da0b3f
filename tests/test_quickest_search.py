"""The cut-driven quickest search against the expansion search it replaced.

:func:`qmct.temporal.quickest_transshipment` probes only at proven lower
bounds, on the network with its corridors merged.  These tests hold it
to the gallop-and-bisect reference (``_brute.expansion_search``) on
generated instances, and check the two lemmas it rests on: the closed
form of ``o^T(A)`` against an expansion max flow, and that every
infeasible probe's cut names a violated subset.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from _brute import (
    expansion_search,
    reported_flow,
    schedule_rates,
    subset_expansion_flow,
    unfolded_rates,
)
from qmct import _kernel, temporal
from qmct.corridors import merge_corridors
from qmct.errors import InfeasibleError
from qmct.generate import generate
from qmct.network import Arc, Network
from qmct.pipeline import run_quickest_mincost
from qmct.temporal import verify_schedule


def _instances(count: int):
    """Generated instances: rational capacities, transits and balances
    on every other pair of seeds, negative costs on odd seeds, transits
    from 0, and every fifth one with a third of its arcs dropped, which
    leaves some supplies cut off."""
    for seed in range(count):
        net = generate(
            seed,
            nodes=4 + seed % 5,
            terminals=3,
            tau_max=seed % 4 + 1,
            half_balance_prob=0.4,
            negative_costs=seed % 2 == 1,
        )
        if seed % 4 >= 2:
            k = 2 + seed % 3
            arcs = tuple(
                Arc(a.tail, a.head, a.capacity / (1 + i % k), a.transit / k, a.cost)
                for i, a in enumerate(net.arcs)
            )
            net = Network.of(net.nodes, arcs, {v: b * 2 / 3 for v, b in net.balances.items()})
        if seed % 5 == 4:
            net = net.with_arcs([i for i in range(len(net.arcs)) if i % 3])
        yield net


def _outcome(search, network):
    try:
        result = search(network)
    except InfeasibleError:
        return "infeasible"
    return result.horizon, result.schedule


def test_matches_the_expansion_search_on_scaled_and_restricted_networks():
    """The search answers as the reference, on the input and, where it
    merges corridors, on the merged network, in horizon or infeasibility.
    Its schedule verifies and is its max flow, which lifted onto the lean
    expansion is a flow of the whole supply; the schedules that differ
    from the reference's, unfolded where corridors merge, are counted."""
    compared = infeasible = rational = negative = zero_transit = restricted = merged = 0
    rescheduled = 0
    for net in _instances(600):
        rational += any(a.transit.denominator > 1 for a in net.arcs)
        negative += any(a.cost < 0 for a in net.arcs)
        zero_transit += any(a.transit == 0 for a in net.arcs)
        networks = [net]
        try:
            networks.append(run_quickest_mincost(net).restricted)
        except InfeasibleError:
            pass
        restricted += len(networks) - 1
        for network in networks:
            new = _outcome(temporal.quickest_transshipment, network)
            old = reference = _outcome(expansion_search, network)
            corridors = merge_corridors(network)
            if corridors.network is not network:
                reference = _outcome(expansion_search, corridors.network)
                if reference != "infeasible":
                    reference = reference[0], corridors.unfold(reference[1])
                merged += 1
            assert (new == "infeasible") == (old == "infeasible"), network
            assert (new == "infeasible") == (reference == "infeasible"), network
            if new != "infeasible":
                assert new[0] == old[0] == reference[0], network
                graph, flows, value = reported_flow(corridors.network, new[0])
                assert value == network.integral.supply, network
                assert unfolded_rates(corridors, graph, flows) == schedule_rates(new[1]), network
                assert verify_schedule(network, new[1]).ok, network
                rescheduled += new[1] != reference[1]
            infeasible += new == "infeasible"
            compared += 1
    assert restricted >= 500, restricted
    assert compared >= 1100, compared
    assert merged >= 300, merged
    assert rescheduled == 64, rescheduled
    assert min(infeasible, rational, negative, zero_transit) >= 40, (
        infeasible,
        rational,
        negative,
        zero_transit,
    )


def _terminal_subsets(network: Network):
    terminals = [*network.integral.sources, *network.integral.sinks]
    for r in range(1, len(terminals) + 1):
        yield from (set(c) for c in combinations(terminals, r))


def _need(network: Network, subset) -> int:
    return sum(network.integral.balances[v] for v in subset)


def test_closed_form_matches_the_expansion_max_flow():
    checked = 0
    for network in _instances(60):
        for subset in _terminal_subsets(network):
            need = _need(network, subset)
            try:
                t_a = temporal._subset_horizon(network, subset)
            except InfeasibleError:
                assert need > 0 and subset_expansion_flow(network, subset, 6) == 0
                continue
            paths, _ = temporal.subset_paths(network, subset)
            for horizon in range(3 * t_a + 1):
                closed = sum(max(0, horizon - d) * amount for d, amount in paths)
                assert closed == subset_expansion_flow(network, subset, horizon), (
                    network,
                    subset,
                    horizon,
                )
                checked += 1
            if need > 0:
                assert subset_expansion_flow(network, subset, t_a) >= need
                assert subset_expansion_flow(network, subset, t_a - 1) < need
    assert checked >= 2000, checked


def test_every_infeasible_probe_names_a_violated_subset():
    probes = 0
    for network in _instances(120):
        try:
            answer = temporal.quickest_transshipment(network).horizon
        except InfeasibleError:
            continue
        for horizon in range(1, answer):
            graph = temporal.expand(network, horizon)
            value, _flows, reachable = temporal._solve_max(graph, network.integral.supply)
            assert value < network.integral.supply
            subset = temporal._violated_subset(network, graph, reachable)
            need = _need(network, subset)
            assert need > 0, (network, horizon, subset)
            assert subset_expansion_flow(network, subset, horizon) < need
            assert temporal._subset_horizon(network, subset) > horizon
            probes += 1
    assert probes >= 100, probes


def test_closed_form_is_exact_for_rational_capacities():
    # Two parallel routes of rates 1/2 and 1/3 with transits 1 and 3:
    # o^T = (T-1)/2 + (T-3)/3 for T >= 3, and o^4 = 11/6 < 2 <= o^5.
    net = Network.of(
        ["s", "t"], [("s", "t", "1/2", 1, 0), ("s", "t", "1/3", 3, 0)], {"s": 2, "t": -2}
    )
    scale = net.integral.flow_scale
    paths, _ = temporal.subset_paths(net, {0})  # node "s"
    assert [(d, Fraction(a, scale)) for d, a in paths] == [
        (1, Fraction(1, 2)),
        (3, Fraction(1, 3)),
    ]
    assert temporal._subset_horizon(net, {0}) == 5
    assert temporal.quickest_transshipment(net).horizon == 5


def test_path_lengths_ignore_a_common_shift_of_the_potentials(monkeypatch):
    # A common shift of π changes no reduced cost and so no path; a
    # repricing may move π(super source), and the lengths must not follow.
    cases = [(net, subset) for net in _instances(20) for subset in _terminal_subsets(net)]
    expected = [temporal.subset_paths(net, subset)[0] for net, subset in cases]
    real = _kernel.reprice

    def shifted(g, s, t, pi, bound=_kernel.INF):
        found = real(g, s, t, pi, bound)
        pi[:] = [p + 7 for p in pi]
        return found

    monkeypatch.setattr(_kernel, "reprice", shifted)
    assert [temporal.subset_paths(net, subset)[0] for net, subset in cases] == expected
    assert any(expected)
