import hashlib
import random
from fractions import Fraction

import pytest

from _brute import (
    FlowProblem,
    cut_capacity,
    max_flow,
    min_cost_flow,
    min_cut_by_enumeration,
    problem_from_network,
    reprice,
)
from qmct import _kernel
from qmct.errors import InfeasibleError, InternalCheckError
from qmct.staticflow import decompose


def _check_residual_optimality(problem, result):
    """No residual arc may have negative reduced cost."""
    pot = result.potentials
    for i in range(problem.num_arcs):
        u, v = problem.tails[i], problem.heads[i]
        c = problem.costs[i]
        f = result.flow.values[i]
        cap = problem.capacities[i]
        if cap is None or f < cap:
            assert c - pot[u] + pot[v] >= 0
        if f > 0:
            assert -c - pot[v] + pot[u] >= 0


# ---------------------------------------------------------------- max flow


def test_single_arc_capacity_five():
    problem = FlowProblem.of(2, [(0, 1, 5)])
    result = max_flow(problem, 0, 1)
    assert result.value == 5


def test_disconnected_gives_zero():
    problem = FlowProblem.of(3, [(0, 1, 2)])
    result = max_flow(problem, 0, 2)
    assert result.value == 0
    assert result.flow.values == (Fraction(0),)


def test_demo_zero_transit_auxiliary_value_two(demo):
    # Zero-transit arcs of the demo network plus unit super wiring.
    zero_transit = [
        (demo.node_index(a.tail) + 1, demo.node_index(a.head) + 1, a.capacity)
        for a in demo.arcs
        if a.transit == 0
    ]
    n = len(demo.nodes) + 2
    src, snk = 0, n - 1
    wiring = [
        (src, demo.node_index("s1") + 1, 1),
        (src, demo.node_index("s2") + 1, 1),
        (demo.node_index("t1") + 1, snk, 1),
        (demo.node_index("t2") + 1, snk, 1),
    ]
    problem = FlowProblem.of(n, zero_transit + wiring)
    result = max_flow(problem, src, snk)
    assert result.value == min_cut_by_enumeration(problem, src, snk) == 2


def _networkx_max_flow_value(problem, source, sink):
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    graph.add_nodes_from(range(problem.num_nodes))
    for u, v, cap in zip(problem.tails, problem.heads, problem.capacities):
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, capacity=0)
        edge = graph[u][v]
        if cap is None:
            # networkx reads an edge without a capacity as unbounded.
            edge.pop("capacity", None)
        elif "capacity" in edge:
            edge["capacity"] += cap
    return nx.maximum_flow_value(graph, source, sink)


def test_min_cut_certificate_matches_value():
    rng = random.Random(7)
    checked = 0
    for trial in range(120):
        # The first 25 graphs have finite capacities only; later ones
        # mix in uncapacitated, parallel and antiparallel arcs.
        mixed = trial >= 25
        n = rng.randint(3, 6)
        arcs = []
        for _ in range(rng.randint(3, 12)):
            u, v = rng.sample(range(n), 2)
            if not mixed:
                arcs.append((u, v, rng.randint(1, 4)))
                continue
            arcs.append((u, v, rng.choice([None, 1, 2, 3, 4])))
            roll = rng.random()
            if roll < 0.25:
                arcs.append((u, v, rng.randint(1, 4)))
            elif roll < 0.5:
                arcs.append((v, u, rng.choice([None, 1, 2, 3, 4])))
        problem = FlowProblem.of(n, arcs)
        try:
            result = max_flow(problem, 0, n - 1)
        except ValueError:
            continue  # no finite cut: an uncapacitated path joins the terminals
        checked += 1
        assert 0 in result.cut_nodes and n - 1 not in result.cut_nodes
        assert cut_capacity(problem, result.cut_nodes) == result.value
        assert result.value == min_cut_by_enumeration(problem, 0, n - 1)
        assert result.value == _networkx_max_flow_value(problem, 0, n - 1)
    assert checked >= 80


def test_push_back_keeps_uncapacitated_edge_unbounded():
    g = _kernel.Residual(2)
    e = g.add(0, 1, None)
    g.push(e, 3)
    g.push(e ^ 1, 1)
    assert g.rem[e] is None
    assert g.rem[e ^ 1] == 2  # the flow on e


def test_path_with_no_finite_capacity_raises_in_max_flow_and_push_path():
    g = _kernel.build(3, [0, 1], [1, 2], [None, None])
    with pytest.raises(InternalCheckError, match="augmenting path with no finite capacity"):
        _kernel.max_flow(g, 0, 2)
    with pytest.raises(InternalCheckError, match="augmenting path with no finite capacity"):
        _kernel.push_path(g, 0, 2, [-1, 0, 2])
    assert g.rem == [None, 0, None, 0]
    assert _kernel.push_path(g, 0, 2, [-1, 0, 2], limit=4) == 4
    assert g.rem == [None, 4, None, 4]


def test_build_matches_per_arc_add():
    rng = random.Random(17)
    for trial in range(150):
        n = rng.randint(1, 7)
        arcs = []
        for _ in range(rng.randint(0, 14)):
            u, v = rng.randrange(n), rng.randrange(n)
            arcs.append((u, v, rng.choice([None, 0, 1, 2, 5]), rng.randint(-4, 4)))
            roll = rng.random()
            if roll < 0.25:
                arcs.append((u, v, rng.choice([None, 3]), rng.randint(-4, 4)))
            elif roll < 0.5:
                arcs.append((v, u, rng.choice([None, 2]), rng.randint(-4, 4)))
        tails, heads, caps, costs = (tuple(col) for col in zip(*arcs)) if arcs else ((),) * 4
        expected = _kernel.Residual(n)
        for u, v, cap, cost in arcs:
            expected.add(u, v, cap, cost if trial % 2 else 0)
        g = _kernel.build(n, tails, heads, caps, costs if trial % 2 else None)
        assert g.n == expected.n
        assert (g.to, g.rem, g.cost, g.adj) == (
            expected.to,
            expected.rem,
            expected.cost,
            expected.adj,
        ), trial


def test_wired_matches_build_on_the_explicit_columns():
    # Base arcs or none, costs or none, empty feeds or drains, and terminal
    # capacities of None and of ints must all be drawn.
    rng = random.Random(23)
    covered = set()
    for trial in range(200):
        n = rng.randint(1, 6)
        m = rng.choice([0, rng.randint(1, 8)])
        tails = [rng.randrange(n) for _ in range(m)]
        heads = [rng.randrange(n) for _ in range(m)]
        caps = [rng.choice([None, 1, 4]) for _ in range(m)]
        costs = [rng.randint(-3, 3) for _ in range(m)] if trial % 2 else None
        picked = rng.sample(range(n), rng.randint(0, n))
        cut = rng.randint(0, len(picked))
        feeds = {v: rng.choice([None, 2, 5]) for v in picked[:cut]}
        drains = {v: rng.choice([None, 3]) for v in picked[cut:]}
        g = _kernel.wired(n, tails, heads, caps, costs, feeds, drains)
        expected = _kernel.build(
            n + 2,
            tails + [n] * len(feeds) + list(drains),
            heads + list(feeds) + [n + 1] * len(drains),
            caps + list(feeds.values()) + list(drains.values()),
            None if costs is None else costs + [0] * (len(feeds) + len(drains)),
        )
        assert g.n == expected.n == n + 2
        assert (g.to, g.rem, g.cost, g.adj) == (
            expected.to,
            expected.rem,
            expected.cost,
            expected.adj,
        ), trial
        ends = [*feeds.values(), *drains.values()]
        drawn = {
            "no base arcs": m == 0,
            "costs": costs is not None,
            "no costs": costs is None,
            "no feeds": not feeds,
            "no drains": not drains,
            "None capacity": None in ends,
            "int capacity": any(cap is not None for cap in ends),
        }
        covered |= {name for name, hit in drawn.items() if hit}
    assert covered == set(drawn)


def test_fractional_capacities_exact():
    problem = FlowProblem.of(2, [(0, 1, "3/2"), (0, 1, "1/3")])
    assert max_flow(problem, 0, 1).value == Fraction(11, 6)


def test_source_equals_sink_rejected():
    with pytest.raises(ValueError):
        max_flow(FlowProblem.of(2, [(0, 1, 1)]), 0, 0)


def test_unbounded_flow_rejected():
    problem = FlowProblem.of(2, [(0, 1, None)])
    with pytest.raises(ValueError):
        max_flow(problem, 0, 1)


# ------------------------------------------------------------ min cost flow


def test_demo_bipartite_skewed_optimum_is_half():
    # Bipartite pair costs of the demo network, supplies (1, 3/2),
    # demands (3/2, 1): the expensive pair must carry half a unit.
    problem = FlowProblem.of(
        4,
        [
            (0, 2, None, 0),  # s1 -> t1
            (0, 3, None, 0),  # s1 -> t2
            (1, 2, None, 1),  # s2 -> t1
            (1, 3, None, 0),  # s2 -> t2
        ],
    )
    balances = [Fraction(1), Fraction(3, 2), Fraction(-3, 2), Fraction(-1)]
    result = min_cost_flow(problem, balances)
    assert result.cost == Fraction(1, 2)
    _check_residual_optimality(problem, result)


def test_zero_balances_zero_flow():
    problem = FlowProblem.of(3, [(0, 1, 2, 5), (1, 2, 2, -1)])
    result = min_cost_flow(problem, [0, 0, 0])
    assert result.cost == 0
    assert all(f == 0 for f in result.flow.values)


def test_chain_routing_cost():
    # Two units over two unit-cost arcs: cost 2 * (1 + 1) = 4.
    problem = FlowProblem.of(3, [(0, 1, 2, 1), (1, 2, 2, 1)])
    result = min_cost_flow(problem, [2, 0, -2])
    assert result.cost == 4
    assert result.flow.values == (Fraction(2), Fraction(2))


def test_negative_costs_handled_conservatively():
    problem = FlowProblem.of(
        3, [(0, 1, 2, -3), (1, 2, 2, 1), (0, 2, 2, -1)]
    )
    result = min_cost_flow(problem, [2, 0, -2])
    assert result.cost == -4
    _check_residual_optimality(problem, result)


def test_parallel_arcs_with_falling_negative_costs():
    # No cycle anywhere, but the potential pass lowers node 1's label
    # once per arc.
    problem = FlowProblem.of(2, [(0, 1, 1, -k) for k in range(1, 7)])
    result = min_cost_flow(problem, [1, -1])
    assert result.cost == -6
    assert result.flow.values == (0, 0, 0, 0, 0, 1)
    _check_residual_optimality(problem, result)


def test_infeasible_reports_cut():
    problem = FlowProblem.of(3, [(0, 1, 1, 0), (1, 2, 3, 0)])
    with pytest.raises(InfeasibleError) as info:
        min_cost_flow(problem, [2, 0, -2])
    assert info.value.certificate["deficit"] == 1
    assert info.value.certificate["routed"] == 1
    assert 0 in info.value.certificate["cut_nodes"]


def test_balance_sum_must_be_zero():
    problem = FlowProblem.of(2, [(0, 1, 1, 0)])
    with pytest.raises(ValueError):
        min_cost_flow(problem, [1, 0])


def test_random_instances_match_lp(demo):
    scipy = pytest.importorskip("scipy.optimize")
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(3, 6)
        arcs = []
        for _ in range(rng.randint(4, 12)):
            u, v = rng.sample(range(n), 2)
            arcs.append((u, v, rng.randint(1, 4), rng.randint(0, 5)))
        problem = FlowProblem.of(n, arcs)
        supply = rng.randint(1, 3)
        balances = [Fraction(0)] * n
        balances[0] = Fraction(supply)
        balances[n - 1] = Fraction(-supply)
        try:
            result = min_cost_flow(problem, balances)
        except InfeasibleError:
            continue
        _check_residual_optimality(problem, result)
        # Independent check: the same instance as an LP.
        a_eq = [[0.0] * problem.num_arcs for _ in range(n)]
        for i in range(problem.num_arcs):
            a_eq[problem.tails[i]][i] += 1.0
            a_eq[problem.heads[i]][i] -= 1.0
        lp = scipy.linprog(
            c=[float(c) for c in problem.costs],
            A_eq=a_eq,
            b_eq=[float(b) for b in balances],
            bounds=[(0.0, float(cap)) for cap in problem.capacities],
            method="highs",
        )
        assert lp.success
        assert abs(float(result.cost) - lp.fun) < 1e-7


def test_min_cost_flow_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    feasible = infeasible = 0
    for trial in range(180):
        n = rng.randint(2, 7)
        # Costs shifted by a node potential: negative coefficients, but
        # every cycle keeps its nonnegative base cost.
        potential = [rng.randint(-5, 5) for _ in range(n)]
        half = trial % 3 == 0  # halve every capacity and balance
        arcs = []
        for _ in range(rng.randint(1, 14)):
            u, v = rng.sample(range(n), 2)
            copies = 2 if rng.random() < 0.2 else 1  # parallel arcs
            for _ in range(copies):
                cap = rng.choice([None, 1, 2, 3, 5])
                base = rng.randint(0, 6)
                arcs.append((u, v, cap, base + potential[u] - potential[v]))
        supply = [0] * n
        for _ in range(rng.randint(1, 3)):
            s, t = rng.sample(range(n), 2)
            amount = rng.randint(1, 4)
            supply[s] += amount
            supply[t] -= amount
        scale = Fraction(1, 2) if half else Fraction(1)
        problem = FlowProblem.of(
            n, [(u, v, None if cap is None else cap * scale, c) for u, v, cap, c in arcs]
        )
        graph = nx.MultiDiGraph()
        for v in range(n):
            graph.add_node(v, demand=-supply[v])
        for u, v, cap, c in arcs:
            if cap is None:
                graph.add_edge(u, v, weight=c)
            else:
                graph.add_edge(u, v, weight=c, capacity=cap)
        try:
            expected = nx.min_cost_flow_cost(graph)
        except nx.NetworkXUnfeasible:
            expected = None
        try:
            result = min_cost_flow(problem, [b * scale for b in supply])
        except InfeasibleError:
            assert expected is None, trial
            infeasible += 1
            continue
        assert expected is not None, trial
        assert result.cost == expected * scale, trial
        _check_residual_optimality(problem, result)
        feasible += 1
    assert feasible >= 75 and infeasible >= 75, (feasible, infeasible)


def test_potentials_certify_on_demo_network(demo):
    # Static routing ignores transit, so the slow free arc wins: cost 0.
    problem = problem_from_network(demo)
    balances = [demo.balances[v] for v in demo.nodes]
    result = min_cost_flow(problem, balances)
    assert result.cost == 0
    _check_residual_optimality(problem, result)


def test_kernel_min_cost_flow_reports_the_cost_of_its_flow():
    # Costs ``w + p[u] - p[v]`` with ``w >= 0`` are often negative but
    # leave no negative cycle.  Targets: zero, up to the max flow, above it.
    rng = random.Random(2718)
    seen = {"negative": 0, "parallel": 0, "short": 0, "zero": 0}
    for _ in range(300):
        n = rng.randint(2, 7)
        p = [rng.randint(-5, 5) for _ in range(n)]
        arcs = []
        for _ in range(rng.randint(1, 12)):
            u, v = rng.sample(range(n), 2)
            for _ in range(rng.choice([1, 1, 2, 3])):
                arcs.append((u, v, rng.randint(1, 5), rng.randint(0, 6) + p[u] - p[v]))
        seen["negative"] += any(c < 0 for *_, c in arcs)
        seen["parallel"] += len({(u, v) for u, v, *_ in arcs}) < len(arcs)

        def graph():
            return _kernel.build(n, *(list(column) for column in zip(*arcs)))

        most = _kernel.max_flow(graph(), 0, n - 1)
        for target in (0, rng.randint(0, most), most + rng.randint(1, 5)):
            g = graph()
            routed, cost, _ = _kernel.min_cost_flow(g, 0, n - 1, target)
            assert routed == min(target, most)
            assert cost == sum(g.cost[e] * g.rem[e + 1] for e in range(0, len(g.to), 2))
            seen["short"] += routed < target
            seen["zero"] += target == 0
    assert min(seen.values()) >= 100, seen


# -------------------------------------------------------------- decompose


def test_decompose_single_path():
    problem = FlowProblem.of(3, [(0, 1, 5), (1, 2, 5)])
    paths, cycles = decompose(problem, (Fraction(3), Fraction(3)))
    assert paths == [((0, 1), Fraction(3))]
    assert cycles == []


def test_decompose_circulation_only():
    problem = FlowProblem.of(2, [(0, 1, 2), (1, 0, 2)])
    paths, cycles = decompose(problem, (Fraction(2), Fraction(2)))
    assert paths == []
    assert len(cycles) == 1
    assert set(cycles[0][0]) == {0, 1}
    assert cycles[0][1] == 2


def test_decompose_demo_static_projection(demo):
    # A static unit routing of the demo supplies over zero-transit arcs.
    problem = problem_from_network(demo)
    flow = (Fraction(1), Fraction(1), Fraction(0), Fraction(1), Fraction(1))
    paths, cycles = decompose(problem, flow)
    assert cycles == []
    assert len(paths) == 2
    assert {p for p, _ in paths} == {(0, 3), (1, 4)} or {p for p, _ in paths} == {
        (0, 4),
        (1, 3),
    }
    assert all(amount == 1 for _, amount in paths)


def test_decompose_rejects_negative_flow():
    problem = FlowProblem.of(3, [(0, 1, 5), (1, 2, 5)])
    with pytest.raises(ValueError, match="^negative flow on arc 0$"):
        decompose(problem, (-1, 0))


def test_decompose_superposition_random():
    rng = random.Random(23)
    many_terminals = 0
    for trial in range(90):
        # The first 30 flows are small; later ones superpose more walks
        # on more nodes, so many nodes have positive or negative net
        # flow and the search for each path's start passes spent nodes.
        max_nodes, max_walks = (7, 5) if trial < 30 else (12, 15)
        n = rng.randint(3, max_nodes)
        arcs = []
        for _ in range(rng.randint(4, 2 * max_nodes)):
            u, v = rng.sample(range(n), 2)
            arcs.append((u, v, None))
        problem = FlowProblem.of(n, arcs)
        # Build a feasible flow by superposing random walks source->sink.
        values = [Fraction(0)] * problem.num_arcs
        out_by_node = [[] for _ in range(n)]
        for i in range(problem.num_arcs):
            out_by_node[problem.tails[i]].append(i)
        for _ in range(rng.randint(1, max_walks)):
            v = rng.randrange(n)
            amount = Fraction(rng.randint(1, 4), rng.choice([1, 2]))
            for _step in range(rng.randint(1, 2 * n)):
                if not out_by_node[v]:
                    break
                arc = rng.choice(out_by_node[v])
                values[arc] += amount
                v = problem.heads[arc]
        net = [Fraction(0)] * n
        for i, f in enumerate(values):
            net[problem.tails[i]] += f
            net[problem.heads[i]] -= f
        if sum(x > 0 for x in net) >= 3 and sum(x < 0 for x in net) >= 3:
            many_terminals += 1
        paths, cycles = decompose(problem, values)
        rebuilt = [Fraction(0)] * problem.num_arcs
        for arcs_seq, amount in paths + cycles:
            for i in arcs_seq:
                rebuilt[i] += amount
        assert rebuilt == values
        assert len(paths) + len(cycles) <= problem.num_arcs + n
        for arcs_seq, _ in paths:
            assert all(
                problem.heads[a] == problem.tails[b]
                for a, b in zip(arcs_seq, arcs_seq[1:])
            )
        starts = [problem.tails[arcs_seq[0]] for arcs_seq, _ in paths]
        assert starts == sorted(starts)
    assert many_terminals >= 10


# Digest of the exact ``(paths, cycles)`` that ``decompose`` returns for
# 1,000 seeded random flows: int amounts and Fractions, each flow a
# superposition of random walks, some of them closed, on graphs with
# parallel and antiparallel arcs.  ``repr`` keeps ints apart from Fractions.
DECOMPOSE_GOLDEN = "343d20bd94d475129cb3cd4c8da1bf6bde181ef0f044387abe3d9697b632ba17"


def _random_flow(rng, fractional):
    n = rng.randint(2, 9)
    arcs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3 * n))]
    problem = FlowProblem.of(n, [(u, v, None) for u, v in arcs])
    out_by_node = [[] for _ in range(n)]
    for i, (u, _) in enumerate(arcs):
        out_by_node[u].append(i)
    values = [Fraction(0) if fractional else 0] * len(arcs)
    for _ in range(rng.randint(1, 8)):
        start = v = rng.randrange(n)
        amount = rng.randint(1, 6)
        if fractional:
            amount = Fraction(amount, rng.choice([1, 2, 3]))
        closed = rng.random() < 0.3
        for step in range(rng.randint(1, 2 * n)):
            if not out_by_node[v] or (closed and step and v == start):
                break
            arc = rng.choice(out_by_node[v])
            values[arc] += amount
            v = arcs[arc][1]
    return problem, values


def test_decompose_matches_golden_digest():
    rng = random.Random(4242)
    digest = hashlib.sha256()
    totals = {"paths": 0, "cycles": 0}
    for trial in range(1000):
        problem, values = _random_flow(rng, fractional=trial % 2 == 1)
        paths, cycles = decompose(problem, values)
        totals["paths"] += len(paths)
        totals["cycles"] += len(cycles)
        digest.update(repr((paths, cycles)).encode())
    assert min(totals.values()) >= 500, totals
    assert digest.hexdigest() == DECOMPOSE_GOLDEN


def _plateau_residual(rng: random.Random, n: int):
    """A residual graph with potentials that give every residual edge a
    reduced cost >= 0, most of them 0; some arcs carry flow, so their
    reverse edges are residual at reduced cost 0."""
    pi = [rng.randint(-5, 5) for _ in range(n)]
    arcs = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
    reduced = [rng.choice((0, 0, 0, 1, 2)) for _ in arcs]
    caps = [rng.choice((None, 0, 1, 2, 3)) for _ in arcs]
    costs = [r - pi[u] + pi[v] for (u, v), r in zip(arcs, reduced)]
    g = _kernel.build(n, [u for u, _ in arcs], [v for _, v in arcs], caps, costs)
    for k, (r, cap) in enumerate(zip(reduced, caps)):
        if r == 0 and cap and rng.random() < 0.5:
            g.push(2 * k, rng.randint(1, cap))
    return g, pi


def _tree_path(parent_edge: list[int], g, s: int, t: int) -> list[int]:
    path, v = [], t
    while v != s:
        path.append(parent_edge[v])
        v = g.to[parent_edge[v] ^ 1]
    return path


def test_reprice_stops_once_t_is_final_and_answers_as_the_full_search():
    rng = random.Random(3701)
    stopped = reached = 0
    for _ in range(3000):
        n = rng.randint(2, 12)
        g, pi = _plateau_residual(rng, n)
        s, t = rng.randrange(n), rng.randrange(n)
        bound = rng.choice((_kernel.INF, rng.randint(0, 6)))
        pi_ref = list(pi)
        dist, parent_edge = _kernel.reprice(g, s, t, pi, bound)
        dist_ref, parent_ref = reprice(g, s, t, pi_ref, bound)
        assert pi == pi_ref
        assert dist[t] == dist_ref[t]
        stop = min(dist_ref[t], bound)
        below = {v: d for v, d in enumerate(dist_ref) if d < stop}
        assert below == {v: d for v, d in enumerate(dist) if d < stop}
        if dist[t] < bound:
            assert _tree_path(parent_edge, g, s, t) == _tree_path(parent_ref, g, s, t)
            reached += 1
            stopped += dist != dist_ref
    # The kernel stopped short of the reference's search on a share of them.
    assert reached >= 2000 and stopped >= 200, (reached, stopped)
