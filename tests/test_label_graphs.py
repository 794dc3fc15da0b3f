"""A network's label graphs: the same labels as the paired reference, built once.

Every static label pass (validation's cycle test, the pair costs, both
admissible passes and the least transits of the time expansion) runs on
:meth:`Network.label_graph`, forward edges only and kept with the
network.  The differential holds each of them to the same pass on
:func:`_brute.paired_label_graph`, the graph each pass once built for
itself, turned into a label graph as :func:`qmct._kernel.min_cost_flow`
turns its residual graph; the guard counts the builds and passes of
random-wide-size solves.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from _brute import paired_label_graph
from qmct import _kernel, admissible, pipeline, temporal, transport
from qmct.cheapest import pair_costs
from qmct.errors import InternalCheckError
from qmct.generate import generate
from qmct.network import Network, validate

COUNT = 1000


def _networks():
    """Generated networks, half with rational data; some given a negative
    cycle, some a self-loop of either sign."""
    for seed in range(COUNT):
        net = generate(
            seed,
            nodes=4 + seed % 17,
            terminals=1 + seed % 4,
            tau_max=1 + seed % 4,
            half_balance_prob=0.4,
            negative_costs=seed % 3 == 0,
        )
        rng = random.Random(seed)
        arcs = [(a.tail, a.head, a.capacity, a.transit, a.cost) for a in net.arcs]
        if seed % 2:
            k = 2 + seed % 3
            arcs = [
                (u, v, c * Fraction(1 + i % 3, 5), t + Fraction(i % 2, k), w * Fraction(1, k))
                for i, (u, v, c, t, w) in enumerate(arcs)
            ]
        if seed % 5 == 4:  # an arc back along an arc, one unit below its cost's negation
            u, v, c, t, w = rng.choice(arcs)
            arcs.append((v, u, c, t, -w - 1))
        if seed % 7 == 3:
            v = rng.choice(net.nodes)
            arcs.append((v, v, 1, rng.randint(0, 2), rng.choice([-3, 0, 2])))
        rng.shuffle(arcs)
        yield Network.of(net.nodes, arcs, net.balances)


def _paired(net: Network, column: str, reverse: bool = False):
    """The flowless label graph of :func:`_brute.paired_label_graph`."""
    return _kernel.flowless_label_graph(paired_label_graph(net, column, reverse))


def _pair_costs(net: Network):
    """Pair costs from the reference graph, or the error a cycle raises."""
    g = _paired(net, "costs")
    form, costs = net.integral, {}
    for s in form.sources:
        dist = _kernel.label_correct(g, {s: 0})
        if dist is None:
            return InternalCheckError
        costs.update({(s, t): dist[t] for t in form.sinks if dist[t] is not None})
    return costs


def _outcome(call):
    try:
        return call()
    except InternalCheckError:
        return InternalCheckError


def test_cached_label_graphs_label_as_the_paired_reference():
    seen = Counter()
    for net in _networks():
        form = net.integral
        seen["networks"] += 1
        seen["rational"] += max(form.flow_scale, form.cost_scale, form.time_scale) > 1
        seen["negative cost"] += min(form.costs, default=0) < 0
        loops = [w for u, v, w in zip(form.tails, form.heads, form.costs) if u == v]
        seen["self-loop"] += bool(loops)
        seen["negative self-loop"] += min(loops, default=0) < 0

        everywhere = dict.fromkeys(range(len(net.nodes)), 0)
        cycle = _kernel.label_correct(_paired(net, "costs"), everywhere) is None
        assert ("negative-cycle" in validate(net).kinds()) == cycle
        seen["negative cycle"] += cycle

        costs = _outcome(lambda: pair_costs(net))
        assert costs == _pair_costs(net)
        seen["pair costs raise"] += costs is InternalCheckError

        early, late = temporal._least_transits(net)
        assert list(early) == _kernel.labels(
            _paired(net, "transits"), dict.fromkeys(form.sources, 0)
        )
        assert list(late) == _kernel.labels(
            _paired(net, "transits", True), dict.fromkeys(form.sinks, 0)
        )
        seen["unreached"] += None in early

        if cycle:
            continue
        dual = transport.solve(transport.build(net, costs)).dual
        extended = admissible.extend(net, dual)
        forward = _kernel.labels(_paired(net, "costs"), extended.source_costs)
        backward = _kernel.labels(_paired(net, "costs", True), extended.sink_costs)
        assert _kernel.labels(net.label_graph("costs"), extended.source_costs) == forward
        assert _kernel.labels(net.label_graph("costs", True), extended.sink_costs) == backward
        subnetwork = admissible.admissible_arcs(extended)
        assert list(subnetwork.labels) == forward
        tight = [
            i
            for i, (u, v, c) in enumerate(zip(form.tails, form.heads, form.costs))
            if None not in (forward[u], backward[v]) and forward[u] + c + backward[v] == 0
        ]
        assert subnetwork.arc_indices == set(tight)
        seen["admissible"] += 1
    assert seen == {
        "networks": COUNT,
        "rational": 674,
        "negative cost": 470,
        "self-loop": 143,
        "negative self-loop": 46,
        "negative cycle": 200,
        "pair costs raise": 194,
        "unreached": 403,
        "admissible": 800,
    }


class _Recorder:
    """Counts, during one solve, the label graphs built, the label passes
    and the graphs those passes ran on, and the probe expansions."""

    def __init__(self, patch: pytest.MonkeyPatch):
        # id(graph) -> (tails, heads, weights), and whether min_cost_flow built it
        self.label_graphs: dict[int, tuple] = {}
        self.in_min_cost_flow: dict[int, bool] = {}
        self.kept: list[list] = []  # so that no id is reused
        self.passes: list[tuple[list, bool]] = []  # graph, inside min_cost_flow
        self.searched: list[Network] = []
        self.probes = 0
        self._in_min_cost_flow = False
        label_graph = _kernel.label_graph
        label_correct, min_cost_flow = _kernel.label_correct, _kernel.min_cost_flow
        expand, search = temporal.expand, temporal.quickest_transshipment

        def record_label_graph(n, tails, heads, weights):
            g = label_graph(n, tails, heads, weights)
            self.label_graphs[id(g)] = tails, heads, weights
            self.in_min_cost_flow[id(g)] = self._in_min_cost_flow
            self.kept.append(g)
            return g

        def record_label_correct(g, seeds=None):
            self.passes.append((g, self._in_min_cost_flow))
            return label_correct(g, seeds)

        def record_min_cost_flow(*args):
            self._in_min_cost_flow = True
            try:
                return min_cost_flow(*args)
            finally:
                self._in_min_cost_flow = False

        def record_expand(network, horizon):
            self.probes += 1
            return expand(network, horizon)

        def record_search(network, max_layers=None):
            self.searched.append(network)
            return search(network, max_layers)

        patch.setattr(_kernel, "label_graph", record_label_graph)
        patch.setattr(_kernel, "label_correct", record_label_correct)
        patch.setattr(_kernel, "min_cost_flow", record_min_cost_flow)
        patch.setattr(temporal, "expand", record_expand)
        patch.setattr(temporal, "quickest_transshipment", record_search)


def test_a_solve_builds_each_label_graph_once_and_labels_least_transits_once():
    probe_counts = []
    for seed in range(6):
        net = generate(seed, nodes=60, terminals=8, tau_max=10)
        with pytest.MonkeyPatch.context() as patch:
            seen = _Recorder(patch)
            report = pipeline.solve_quickest_mincost(net)
        assert all(report.checks.values())
        (restricted,) = seen.searched
        probe_counts.append(seen.probes)

        # One graph per (network, weights, direction), each built once.
        keys = [
            tuple(map(id, args))
            for g, args in seen.label_graphs.items()
            if not seen.in_min_cost_flow[g]
        ]
        cost, transit = net.integral, restricted.integral
        assert sorted(keys) == sorted(
            [
                (id(cost.tails), id(cost.heads), id(cost.costs)),
                (id(cost.heads), id(cost.tails), id(cost.costs)),
                (id(transit.tails), id(transit.heads), id(transit.transits)),
                (id(transit.heads), id(transit.tails), id(transit.transits)),
            ]
        )

        # The least transits: one pass each way per search, whatever the probes.
        weights = {g: args[2] for g, args in seen.label_graphs.items()}
        transit_passes = [g for g, _ in seen.passes if weights.get(id(g)) is transit.transits]
        assert len(transit_passes) == 2 and transit_passes[0] is not transit_passes[1]

        # Every pass labels a label graph; min_cost_flow labels only its own.
        for g, in_min_cost_flow in seen.passes:
            assert seen.in_min_cost_flow[id(g)] == in_min_cost_flow
    assert min(probe_counts) >= 1 and max(probe_counts) >= 2, probe_counts
