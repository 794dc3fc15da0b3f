"""The routing-admissibility certificate against the decomposition it replaces.

``check_admissible_routing`` certifies the schedule by complementary
slackness: labels at the terminals match the dual, and every scheduled
arc has zero reduced cost.  ``_brute.routing_admissible`` decomposes the
final probe's max flow into paths and cycles and tests each one.  The
two must agree on every instance, and the certificate must reject each
kind of broken routing.
"""

from dataclasses import replace
from fractions import Fraction

from _brute import routing_admissible
from conftest import acceptance_suite, golden_instances
from qmct.errors import QmctError
from qmct.generate import generate
from qmct.network import Network
from qmct.pipeline import check_admissible_routing, run_quickest_mincost
from qmct.temporal import ArcIntervals, FlowOverTime, verify_schedule


def _wide_instances():
    for seed in range(100):
        yield generate(seed, nodes=10, terminals=3, tau_max=8, cap_max=5, negative_costs=True)


def _runs(networks):
    for net in networks:
        if net.total_supply == 0:
            continue
        try:
            yield run_quickest_mincost(net)
        except QmctError:
            continue


def _reduced_cost(run, i):
    """At the network's ``cost_scale``, like the labels."""
    form = run.network.integral
    tail = run.subnetwork.labels[form.tails[i]]
    head = run.subnetwork.labels[form.heads[i]]
    if tail is None or head is None:
        return None
    return tail + form.costs[i] - head


def test_certificate_agrees_with_decomposition():
    counts = {}
    for name, networks in (
        ("acceptance", acceptance_suite()),
        ("golden", golden_instances()),
        ("wide", _wide_instances()),
    ):
        counts[name] = 0
        for run in _runs(networks):
            assert check_admissible_routing(run) == routing_admissible(run), (name, run.network)
            counts[name] += 1
    assert counts == {"acceptance": 200, "golden": 203, "wide": 100}


def test_certificate_rejects_an_entry_moved_onto_a_costly_arc():
    moved = 0
    for run in _runs(acceptance_suite()[:60]):
        assert check_admissible_routing(run)
        costly = [
            i
            for i in range(len(run.network.arcs))
            if i not in run.subnetwork.arc_indices and _reduced_cost(run, i) not in (None, 0)
        ]
        if not costly:
            continue
        first, *rest = run.schedule.arc_flows
        entries = (ArcIntervals(costly[0], first.intervals), *rest)
        mutated = replace(run, schedule=FlowOverTime(run.schedule.horizon, entries))
        assert not check_admissible_routing(mutated), run.network
        moved += 1
    assert moved >= 20, moved


def test_certificate_rejects_a_costly_zero_transit_circulation():
    # a->b->a costs 2 and takes no time; the route s->a->t ignores it.
    net = Network.of(
        ["s", "a", "b", "t"],
        [
            ("s", "a", 1, 1, 0),
            ("a", "t", 1, 1, 0),
            ("a", "b", 1, 0, 1),
            ("b", "a", 1, 0, 1),
        ],
        {"s": 1, "t": -1},
    )
    run = run_quickest_mincost(net)
    assert check_admissible_routing(run)
    horizon = run.schedule.horizon
    loop = tuple(ArcIntervals(i, ((0, horizon, Fraction(1)),)) for i in (2, 3))
    mutated = replace(
        run, schedule=FlowOverTime(horizon, (*run.schedule.arc_flows, *loop))
    )
    # Still a valid schedule, only a dearer one.
    verification = verify_schedule(run.network, mutated.schedule)
    assert verification.ok
    assert verification.cost == run.solution.optimum + 2 * horizon
    assert not check_admissible_routing(mutated)


def test_certificate_rejects_a_raised_source_dual():
    raised = 0
    for run in _runs(acceptance_suite()[:40]):
        dual = run.solution.dual
        for s in run.network.integral.sources:
            shifted = {**dual, s: dual[s] + 1}  # one unit at cost_scale
            mutated = replace(run, solution=replace(run.solution, dual=shifted))
            assert not check_admissible_routing(mutated), (run.network, s)
            raised += 1
    assert raised >= 40, raised
