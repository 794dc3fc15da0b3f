"""Exact symmetries of quickest minimum-cost transshipments.

Four transformations change a network in a way whose effect on the
answer is known exactly, so they test the solver on networks of any
size, past the oracle's default reach of 10 nodes:

- relabelling (permute the nodes and the arcs): H and cost unchanged;
- flow scaling (capacities and balances times k > 0): H unchanged and
  cost times k, since every flow over time scales with them;
- cost potentials (c'(u, w) = c + p(u) - p(w)): H unchanged and cost
  plus the sum of b(v)·p(v), the same shift for every transshipment;
- time reversal (reverse every arc, negate every balance): H and cost
  unchanged.  Copy (v, q) of the expansion for T maps to
  (v, T - 1 - q), so inflow on arc a during [s, e) becomes inflow on
  the reversed arc during [T - e - τ_a, T - s - τ_a), a valid schedule
  of the same cost.

The paper's reduction is a fifth relation: the answer depends on the
admissible subnetwork alone, so on networks of at most 10 nodes the
brute-force oracle on the network and on its restriction to the
admissible arcs both give the solve's (cost, H).  The restriction keeps
its parent's scales, so both oracle runs count the same time steps.

Half of the networks have rational capacities, transits and balances.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from qmct.generate import generate
from qmct.network import Network
from qmct.pipeline import SolveReport, oracle_quickest_mincost, solve_quickest_mincost
from qmct.temporal import ArcIntervals, FlowOverTime, verify_schedule

COUNT = 1000


def _mapped(net: Network, arc, balance=lambda b: b) -> Network:
    """``net`` with ``arc`` applied to each arc and ``balance`` to each balance."""
    balances = {v: balance(b) for v, b in net.balances.items()}
    return Network.of(net.nodes, [arc(i, a) for i, a in enumerate(net.arcs)], balances)


def _networks(count=COUNT, sizes=17):
    for seed in range(count):
        net = generate(
            seed,
            nodes=4 + seed % sizes,
            terminals=1 + seed % 4,
            tau_max=1 + seed % 4,
            half_balance_prob=0.4,
            negative_costs=seed % 3 == 0,
        )
        if seed % 2:  # no capacity, odd-index transit or balance stays whole
            k = 2 + seed % 3
            net = _mapped(
                net,
                lambda i, a: replace(
                    a,
                    capacity=a.capacity * Fraction(1 + i % 3, 5),
                    transit=a.transit + Fraction(i % 2, k),
                ),
                lambda b: b * Fraction(3, 4),
            )
        yield seed, net


def _solve(net: Network) -> SolveReport:
    report = solve_quickest_mincost(net)
    assert report.all_checks_pass, report.checks
    return report


def _reversed_schedule(schedule: FlowOverTime, transits) -> FlowOverTime:
    end = schedule.horizon
    flows = []
    for entry in schedule.arc_flows:
        tau = transits[entry.arc]
        intervals = tuple((end - e - tau, end - s - tau, r) for s, e, r in entry.intervals)
        flows.append(ArcIntervals(entry.arc, intervals))
    return FlowOverTime(end, tuple(flows))


def test_four_exact_relations_hold():
    rational = 0
    for seed, net in _networks():
        rng = random.Random(seed)
        rational += net.integral.time_scale > 1 and net.integral.flow_scale > 1
        base = _solve(net)
        h, cost = base.horizon, base.cost

        nodes, arcs = list(net.nodes), list(net.arcs)
        rng.shuffle(nodes)
        rng.shuffle(arcs)
        relabelled = _solve(Network.of(nodes, arcs, net.balances))
        assert (relabelled.horizon, relabelled.cost) == (h, cost), (seed, "relabelling")

        k = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        scaled = _solve(
            _mapped(net, lambda i, a: replace(a, capacity=a.capacity * k), lambda b: b * k)
        )
        assert (scaled.horizon, scaled.cost) == (h, cost * k), (seed, "flow scaling")

        p = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for v in net.nodes}
        shifted = _solve(
            _mapped(net, lambda i, a: replace(a, cost=a.cost + p[a.tail] - p[a.head]))
        )
        shift = sum(b * p[v] for v, b in net.balances.items())
        assert (shifted.horizon, shifted.cost) == (h, cost + shift), (seed, "potentials")

        backwards = _mapped(net, lambda i, a: replace(a, tail=a.head, head=a.tail), lambda b: -b)
        reversal = _solve(backwards)
        assert (reversal.horizon, reversal.cost) == (h, cost), (seed, "time reversal")
        check = verify_schedule(backwards, _reversed_schedule(base.schedule, net.integral.transits))
        assert check.violations == () and check.cost == cost, (seed, check.violations)
    assert rational >= COUNT // 2


def test_the_oracle_agrees_with_the_reduction():
    count = 300
    rational = shrunk = 0
    for seed, net in _networks(count, sizes=7):
        rational += net.integral.time_scale > 1 and net.integral.flow_scale > 1
        base = _solve(net)
        restricted = net.with_arcs(base.subnetwork)
        shrunk += len(restricted.integral.tails) < len(net.integral.tails)
        answer = (base.cost, base.horizon)
        assert oracle_quickest_mincost(net) == answer, (seed, "oracle")
        assert oracle_quickest_mincost(restricted) == answer, (seed, "oracle on the restriction")
    assert rational >= count // 2
    assert shrunk >= count * 19 // 20
