"""The pruned time expansion against the full one it is cut from.

:func:`qmct.temporal.expand` keeps only the copies on some super source
→ super sink path; ``_brute.full_expand`` keeps every copy that arrives
by the horizon.  The property tests check that the pruned graph, its
ids mapped back by ``_brute.full_numbering``, is the full one with
exactly the off-path copies left out, and that every id it gives a node
copy is an end of some arc.  The differential test holds every reader
of an expansion to the same answers on both: max flows, movement flows
and violated subsets at every horizon up to the quickest one, the
quickest search's horizon and schedule, and minimum costs over time.

Both wire each terminal through a collector that meets every copy of
it.  ``_brute.endpoint_expand`` is the full expansion wired at its end
layers alone, supplies at layer 0 and demands at layer T − 1; the last
test holds the collectors to its max-flow values, violated subsets and
minimum costs.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

import pytest

from _brute import endpoint_expand, full_expand, full_numbering
from qmct import temporal
from qmct.errors import InfeasibleError
from qmct.generate import generate
from qmct.network import Arc, Network


def _generated(count: int):
    for seed in range(count):
        yield generate(
            seed,
            nodes=3 + seed % 6,
            terminals=1 + seed % 3,
            tau_max=1 + seed % 4,
            half_balance_prob=0.4,
            negative_costs=seed % 2 == 1,
        )


def _rational(count: int):
    for seed in range(count):
        net = generate(
            seed, nodes=3 + seed % 5, terminals=3, tau_max=3, negative_costs=seed % 2 == 0
        )
        k = 2 + seed % 2
        arcs = tuple(
            Arc(a.tail, a.head, a.capacity / (1 + i % 3), a.transit / k, a.cost / 2)
            for i, a in enumerate(net.arcs)
        )
        yield Network.of(net.nodes, arcs, {v: b * 3 / 2 for v, b in net.balances.items()})


def _with_dead_ends(count: int):
    """A node that no source reaches, feeding a sink, and a node that
    reaches no sink, fed by a source, added to generated networks."""
    for seed in range(count):
        net = generate(seed, nodes=4 + seed % 4, terminals=2, tau_max=2 + seed % 3)
        source, sink = net.sources[0], net.sinks[-1]
        extra = [
            Arc("dark", sink, 1 + seed % 2, seed % 3, 1),
            Arc(source, "end", 1, seed % 2, 0),
            Arc("dark", "end", 2, 0, -1),
        ]
        yield Network.of((*net.nodes, "dark", "end"), (*net.arcs, *extra), dict(net.balances))


KINDS = {
    "generated": lambda: _generated(600),
    "rational": lambda: _rational(300),
    "dead ends": lambda: _with_dead_ends(120),
}


def _on_path(graph) -> list[bool]:
    """Per arc of the expansion, whether some super source → super sink
    path uses it, by a forward and a backward search."""

    def search(start, froms, tos):
        out = [[] for _ in range(graph.num_nodes)]
        for a, b in zip(froms, tos):
            out[a].append(b)
        seen = {start}
        queue = deque([start])
        while queue:
            for v in out[queue.popleft()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    ahead = search(graph.super_source, graph.tails, graph.heads)
    behind = search(graph.super_sink, graph.heads, graph.tails)
    return [u in ahead and w in behind for u, w in zip(graph.tails, graph.heads)]


def test_expand_keeps_exactly_the_copies_on_a_path():
    checked = dropped = 0
    for kind in KINDS.values():
        for net in islice(kind(), 60):
            for horizon in range(13):
                full = full_expand(net, horizon)
                pruned = full_numbering(net, temporal.expand(net, horizon))
                on_path = _on_path(full)
                # The k wiring arcs are kept even where no path uses them.
                wired = full.wiring_start + sum(1 for b in net.integral.balances if b and horizon)
                keep = on_path[: full.wiring_start] + [True] * (wired - full.wiring_start)
                keep += on_path[wired:]
                for name in ("tails", "heads", "capacities", "costs"):
                    kept = tuple(x for x, k in zip(getattr(full, name), keep) if k)
                    assert getattr(pruned, name) == kept, (net, horizon, name)
                assert pruned.movement == tuple(m for m, k in zip(full.movement, keep) if k)
                assert pruned.holdover_start == len(pruned.movement)
                assert pruned.wiring_start == sum(keep[: full.wiring_start])
                for name in ("num_nodes", "super_source", "super_sink"):
                    assert getattr(pruned, name) == getattr(full, name)
                checked += 1
                dropped += full.num_arcs - pruned.num_arcs
    assert checked == 180 * 13
    assert dropped > 0


def test_expand_numbers_only_the_ends_of_its_arcs():
    checked = 0
    for kind in KINDS.values():
        for net in kind():
            for horizon in range(13):
                graph = temporal.expand(net, horizon)
                ends = {*graph.tails, *graph.heads}
                assert ends >= set(range(graph.super_source)), (net, horizon)
                checked += 1
    assert checked == 1020 * 13


def _probe(build, net: Network, horizon: int):
    graph = build(net, horizon)
    # A need above the supply asks for the residual cut at feasible horizons too.
    value, flows, reachable = temporal._solve_max(graph, net.integral.supply + 1)
    moved = {copy: f for copy, f in zip(graph.movement, flows) if f}
    return value, moved, temporal._violated_subset(net, graph, reachable)


def _outcome(compute):
    try:
        return compute()
    except InfeasibleError as exc:
        return str(exc), exc.certificate


def _quickest(net: Network):
    result = temporal.quickest_transshipment(net)
    return result.horizon, result.schedule


# Per kind: networks, those with a scale above 1, with a negative cost,
# with a zero-transit arc and with a node no source reaches; horizons
# compared, and those at which some source reaches no sink in time.
COUNTS = {
    "generated": (600, 202, 202, 501, 363, 3642, 949),
    "rational": (300, 298, 77, 232, 183, 2627, 527),
    "dead ends": (120, 33, 120, 120, 120, 748, 216),
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_pruned_expansion_answers_as_the_full_one(kind):
    mismatches = []
    networks = rational = negative = zero_transit = unreached = horizons = stranded = 0
    for net in KINDS[kind]():
        form = net.integral
        quickest = _outcome(lambda: _quickest(net))
        # Up to the quickest horizon and three past it, where costs still fall.
        scan = range(1, quickest[0] + 4)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(temporal, "expand", full_expand)
            if _outcome(lambda: _quickest(net)) != quickest:
                mismatches.append((networks, "quickest"))
            costs = [_outcome(lambda: temporal.mincost_over_time(net, h).cost) for h in scan]
        early, late = temporal._least_transits(net)
        sources = [v for v, b in enumerate(form.balances) if b > 0]
        for horizon, cost in zip(scan, costs):
            if _probe(temporal.expand, net, horizon) != _probe(full_expand, net, horizon):
                mismatches.append((networks, horizon, "probe"))
            if _outcome(lambda: temporal.mincost_over_time(net, horizon).cost) != cost:
                mismatches.append((networks, horizon, "min cost"))
            horizons += 1
            stranded += any(late[s] is None or late[s] >= horizon for s in sources)
        networks += 1
        rational += max(form.flow_scale, form.cost_scale, form.time_scale) > 1
        negative += min(form.costs, default=0) < 0
        zero_transit += 0 in form.transits
        unreached += None in early
    assert mismatches == []
    counts = (networks, rational, negative, zero_transit, unreached, horizons, stranded)
    assert counts == COUNTS[kind]


# Per kind: networks, horizons compared and those below the quickest one.
ENDPOINT_COUNTS = {
    "generated": (600, 3642, 1242),
    "rational": (300, 2627, 1427),
    "dead ends": (120, 748, 268),
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_collectors_answer_as_the_endpoint_wiring(kind):
    """Max-flow values, violated subsets A_X and minimum costs over time
    at every horizon from 1 to three past the quickest one."""
    mismatches = []
    networks = horizons = infeasible = 0
    for net in KINDS[kind]():
        quickest = temporal.quickest_transshipment(net).horizon
        for horizon in range(1, quickest + 4):
            collected, _, subset = _probe(temporal.expand, net, horizon)
            value, _, endpoint_subset = _probe(endpoint_expand, net, horizon)
            if (collected, subset) != (value, endpoint_subset):
                mismatches.append((networks, horizon, "probe"))
            cost = _outcome(lambda: temporal.mincost_over_time(net, horizon).cost)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(temporal, "expand", endpoint_expand)
                if _outcome(lambda: temporal.mincost_over_time(net, horizon).cost) != cost:
                    mismatches.append((networks, horizon, "min cost"))
            horizons += 1
            infeasible += horizon < quickest
        networks += 1
    assert mismatches == []
    assert (networks, horizons, infeasible) == ENDPOINT_COUNTS[kind]
