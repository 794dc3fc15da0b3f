"""The label-correcting routine against networkx's Bellman-Ford."""

import random
from fractions import Fraction

import pytest

from qmct._kernel import arc_graph, label_correct

nx = pytest.importorskip("networkx")


def _random_arcs(rng: random.Random, n: int, fractions: bool, plant_cycle: bool):
    """Arcs with costs ``w + p[u] - p[v]`` (``w >= 0``) for node potentials ``p``.

    Such costs are negative often enough but make every cycle cost
    ``sum(w) >= 0``; ``w = 0`` along a cycle gives zero-cost cycles.
    Parallel and antiparallel copies are mixed in, and with
    ``plant_cycle`` one cycle gets its last arc cheapened below zero.
    """
    unit = Fraction(1, rng.choice([2, 3, 6])) if fractions else 1
    p = [rng.randint(-4, 4) * unit for _ in range(n)]

    def arc(u, v, w):
        return (u, v, w + p[u] - p[v])

    arcs = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        arcs.append(arc(u, v, rng.randint(0, 3) * unit))
        roll = rng.random()
        if roll < 0.2:
            arcs.append(arc(u, v, rng.randint(0, 3) * unit))
        elif roll < 0.4:
            arcs.append(arc(v, u, rng.randint(0, 3) * unit))
    if rng.random() < 0.3:
        ring = rng.sample(range(n), rng.randint(2, n))
        arcs += [arc(u, v, 0) for u, v in zip(ring, ring[1:] + ring[:1])]
    if plant_cycle:
        ring = rng.sample(range(n), rng.randint(2, n))
        steps = list(zip(ring, ring[1:] + ring[:1]))
        arcs += [arc(u, v, 0) for u, v in steps[:-1]]
        u, v = steps[-1]
        arcs.append(arc(u, v, -unit))
    rng.shuffle(arcs)
    return arcs


def _networkx(n, arcs):
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(range(n))
    for u, v, cost in arcs:
        graph.add_edge(u, v, weight=cost)
    return graph


def _expected(graph, start, n):
    """Labels of nodes ``0..n-1``, or None when a negative cycle is reachable."""
    reach = graph.subgraph(nx.descendants(graph, start) | {start}).copy()
    if nx.negative_edge_cycle(reach):
        return None
    dist = nx.single_source_bellman_ford_path_length(graph, start)
    return [dist.get(v) for v in range(n)]


def test_labels_match_networkx_in_both_start_modes():
    rng = random.Random(11)
    seen = {"cycle": 0, "clean": 0, "unreached": 0, "root-cycle": 0}
    for trial in range(300):
        n = rng.randint(2, 7)
        arcs = _random_arcs(rng, n, fractions=trial % 2 == 1, plant_cycle=trial % 3 == 0)
        g = arc_graph(n, arcs)
        graph = _networkx(n, arcs)
        for start in range(n):
            expected = _expected(graph, start, n)
            assert label_correct(g, start) == expected, (trial, start, arcs)
            if expected is None:
                seen["cycle"] += 1
            else:
                seen["clean"] += 1
                seen["unreached"] += expected.count(None)
        # The root mode equals labelling from an explicit root joined to
        # every node at cost 0.
        rooted = _networkx(n, arcs)
        rooted.add_edges_from(("root", v, {"weight": 0}) for v in range(n))
        expected = _expected(rooted, "root", n)
        assert label_correct(g) == expected, (trial, arcs)
        assert (expected is None) == nx.negative_edge_cycle(graph)
        seen["root-cycle"] += expected is None
    assert min(seen.values()) >= 30, seen
