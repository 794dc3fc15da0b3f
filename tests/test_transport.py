import dataclasses
import random
from fractions import Fraction

import pytest

from _brute import FlowProblem, max_flow, transport_solve
from conftest import demo_network
from qmct import admissible, temporal
from qmct.cheapest import pair_costs
from qmct.errors import InfeasibleError
from qmct.generate import generate
from qmct.network import Network
from qmct.transport import (
    active_pairs,
    build,
    dual_objective,
    is_dual_feasible,
    solve,
)


def _demo_instance(balances=None):
    net = demo_network(balances)
    return net, build(net, pair_costs(net))


def test_build_demo_instance(demo):
    instance, i = build(demo, pair_costs(demo)), demo.node_index
    assert instance.network.integral.sources == (i("s1"), i("s2"))
    assert instance.network.integral.sinks == (i("t1"), i("t2"))
    assert len(instance.pairs) == 4
    by_pair = {
        instance.pairs[k]: instance.costs[k] for k in range(len(instance.pairs))
    }
    assert by_pair[(i("s2"), i("t1"))] == 1
    assert by_pair[(i("s1"), i("t2"))] == 0


def test_build_single_pair():
    net = Network.of(["s", "t"], [("s", "t", 1, 0, 2)], {"s": 1, "t": -1})
    instance = build(net, pair_costs(net))
    assert instance.pairs == ((0, 1),)
    assert instance.costs == (Fraction(2),)


def test_build_rejects_isolated_source(demo):
    cut = demo.with_arcs([0, 3, 4])  # drop both arcs out of s2
    with pytest.raises(InfeasibleError) as info:
        build(cut, pair_costs(cut))
    assert info.value.certificate == {"isolated": "s2", "side": "source"}


def test_solve_skewed_demo_matches_strong_duality(demo_variant_a):
    instance = build(demo_variant_a, pair_costs(demo_variant_a))
    solution = solve(instance)
    assert solution.optimum == Fraction(1, 2)
    assert is_dual_feasible(instance, solution.dual)
    assert dual_objective(instance, solution.dual) == Fraction(1, 2)
    for k in range(len(instance.pairs)):
        s, t = instance.pairs[k]
        slack = instance.costs[k] - solution.dual[s] + solution.dual[t]
        assert solution.shipments[k] * slack == 0


def test_solve_unit_demo_costs_nothing(demo):
    instance = build(demo, pair_costs(demo))
    assert solve(instance).optimum == 0


def test_solve_one_pair_scales_with_supply():
    net = Network.of(["s", "t"], [("s", "t", 1, 0, "5/2")], {"s": "3/2", "t": "-3/2"})
    instance = build(net, pair_costs(net))
    assert solve(instance).optimum == Fraction(3, 2) * Fraction(5, 2)


def test_active_pairs_with_printed_dual(demo_variant_a):
    instance, i = build(demo_variant_a, pair_costs(demo_variant_a)), demo_variant_a.node_index
    dual = {i("s1"): Fraction(0), i("s2"): Fraction(1), i("t1"): Fraction(0), i("t2"): Fraction(1)}
    assert active_pairs(instance, dual) == {
        (i("s1"), i("t1")),
        (i("s2"), i("t1")),
        (i("s2"), i("t2")),
    }


def test_active_pairs_degenerate_duals():
    net = Network.of(
        ["a", "b", "x", "y"],
        [("a", "x", 1, 0, 0), ("a", "y", 1, 0, 0), ("b", "x", 1, 0, 0), ("b", "y", 1, 0, 0)],
        {"a": 1, "b": 1, "x": -1, "y": -1},
    )
    instance = build(net, pair_costs(net))
    zero = {net.node_index(v): Fraction(0) for v in ("a", "b", "x", "y")}
    assert len(active_pairs(instance, zero)) == 4

    pricey = Network.of(
        ["a", "x"], [("a", "x", 1, 0, 3)], {"a": 1, "x": -1}
    )
    pricey_instance = build(pricey, pair_costs(pricey))
    zero2 = {0: Fraction(0), 1: Fraction(0)}
    assert active_pairs(pricey_instance, zero2) == frozenset()


def test_active_pairs_rejects_infeasible_dual(demo):
    instance, i = build(demo, pair_costs(demo)), demo.node_index
    bad = {i("s1"): Fraction(5), i("s2"): Fraction(0), i("t1"): Fraction(0), i("t2"): Fraction(0)}
    with pytest.raises(ValueError):
        active_pairs(instance, bad)


def _transportation_feasible_by_max_flow(instance) -> bool:
    form = instance.network.integral
    src, snk = len(form.balances), len(form.balances) + 1
    arcs = [(s, t, None) for s, t in instance.pairs]
    arcs += [(src, s, form.balances[s]) for s in form.sources]
    arcs += [(t, snk, -form.balances[t]) for t in form.sinks]
    problem = FlowProblem.of(snk + 1, arcs)
    value = max_flow(problem, src, snk).value
    return value == form.supply


def _check_solve_matches_max_flow(net) -> bool:
    """Returns True when the instance turned out infeasible."""
    try:
        instance = build(net, pair_costs(net))
    except InfeasibleError:
        return False
    feasible = _transportation_feasible_by_max_flow(instance)
    try:
        solution = solve(instance)
    except InfeasibleError as exc:
        assert not feasible
        assert exc.certificate["supply"] > exc.certificate["demand"]
        return True
    assert feasible
    assert is_dual_feasible(instance, solution.dual)
    return False


def test_infeasibility_equivalence_with_max_flow():
    # Redistribute demands of generated instances; solve() must report
    # infeasible exactly when the bipartite max-flow falls short.
    checked_infeasible = 0
    for seed in range(60):
        net = generate(seed, nodes=6, terminals=3)
        sinks = net.sinks
        balances = {s: net.balances[s] for s in net.sources}
        total = sum(balances.values(), Fraction(0))
        # One sink takes nearly everything, the rest split half a unit.
        heavy = sinks[seed % len(sinks)]
        light = [t for t in sinks if t != heavy]
        if light and total > Fraction(1, 2):
            share = Fraction(1, 2) / len(light)
            for t in light:
                balances[t] = -share
            balances[heavy] = -(total - Fraction(1, 2))
        else:
            balances[heavy] = -total
        if _check_solve_matches_max_flow(net.with_balances(balances)):
            checked_infeasible += 1

    # Deterministic Hall violation: both terminals covered pairwise but
    # the heavy sink is reachable only from the small source.
    hall = Network.of(
        ["a", "b", "x", "y"],
        [("a", "x", 1, 0, 0), ("b", "y", 1, 0, 0)],
        {"a": 3, "b": 1, "x": -1, "y": -3},
    )
    assert _check_solve_matches_max_flow(hall)
    checked_infeasible += 1
    assert checked_infeasible > 0


def _alternative_optimal_duals(instance, dual):
    """Walk the optimal dual face: shift tight components with zero net
    balance by the largest slack-preserving amounts, plus a constant
    shift of everything."""
    form = instance.network.integral
    terminals = list(form.sources) + list(form.sinks)
    balance = {v: form.balances[v] for v in terminals}

    adjacency = {v: set() for v in terminals}
    for k in range(len(instance.pairs)):
        s, t = instance.pairs[k]
        if dual[s] - dual[t] == instance.costs[k]:
            adjacency[s].add(t)
            adjacency[t].add(s)
    components = []
    seen = set()
    for v in terminals:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        components.append(comp)

    alternatives = [{v: dual[v] + 7 for v in terminals}]
    for comp in components:
        if len(comp) == len(terminals):
            continue
        if sum((balance[v] for v in comp), Fraction(0)) != 0:
            continue
        lo, hi = None, None  # allowed negative/positive shift
        for k in range(len(instance.pairs)):
            s, t = instance.pairs[k]
            slack = instance.costs[k] - dual[s] + dual[t]
            if s in comp and t not in comp:
                hi = slack if hi is None else min(hi, slack)
            elif t in comp and s not in comp:
                lo = -slack if lo is None else max(lo, -slack)
        for delta in (hi, lo):
            if delta:
                shifted = {
                    v: dual[v] + delta if v in comp else dual[v] for v in terminals
                }
                alternatives.append(shifted)
    return alternatives


def test_downstream_result_invariant_under_dual_choice():
    # The admissible arc set may change with the dual representative,
    # but the final (cost, horizon) must not.
    exercised = 0
    for seed in range(25):
        net = generate(seed, nodes=5, terminals=2, tau_max=2)
        instance = build(net, pair_costs(net))
        solution = solve(instance)
        baseline = None
        for dual in [solution.dual] + _alternative_optimal_duals(instance, solution.dual):
            assert is_dual_feasible(instance, dual)
            assert dual_objective(instance, dual) == solution.optimum
            subnet = admissible.admissible_arcs(admissible.extend(net, dual))
            restricted = net.with_arcs(subnet.arc_indices)
            result = temporal.quickest_transshipment(restricted)
            schedule_cost = temporal.verify_schedule(restricted, result.schedule).cost
            outcome = (schedule_cost, result.horizon)
            if baseline is None:
                baseline = outcome
            else:
                assert outcome == baseline
                exercised += 1
    assert exercised > 0


def test_demo_unit_balances_have_genuinely_different_duals(demo):
    # Two optimal duals that carve different subnetworks still lead to
    # the same cost and horizon.
    instance = build(demo, pair_costs(demo))
    i = demo.node_index
    low = {i(v): Fraction(0) for v in ("s1", "s2", "t1", "t2")}
    high = {i("s1"): Fraction(0), i("s2"): Fraction(1), i("t1"): Fraction(0), i("t2"): Fraction(1)}
    outcomes = []
    subnets = []
    for dual in (low, high):
        assert is_dual_feasible(instance, dual)
        assert dual_objective(instance, dual) == 0
        subnet = admissible.admissible_arcs(admissible.extend(demo, dual))
        restricted = demo.with_arcs(subnet.arc_indices)
        result = temporal.quickest_transshipment(restricted)
        cost = temporal.verify_schedule(restricted, result.schedule).cost
        outcomes.append((cost, result.horizon))
        subnets.append(subnet.arc_indices)
    assert subnets[0] != subnets[1]
    assert outcomes[0] == outcomes[1] == (Fraction(0), 2)


def _outcome(solver, instance):
    """What a solve answers: shipments, dual and optimum as Fractions, or its error."""
    try:
        solution = solver(instance)
    except (InfeasibleError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "certificate", None)
    if solver is transport_solve:  # the reference answers in Fractions
        return solution.shipments, solution.dual, solution.optimum
    form = instance.network.integral
    shipments = tuple(Fraction(f, form.flow_scale) for f in solution.shipments)
    dual = {v: Fraction(y, form.cost_scale) for v, y in solution.dual.items()}
    return shipments, dual, solution.optimum


def _split(total: Fraction, parts: int, rng: random.Random) -> list[Fraction]:
    """``total`` as ``parts`` positive rationals with denominators up to 7."""
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 7)) for _ in range(parts)]
    scale = total / sum(weights)
    return [w * scale for w in weights]


def _hall_violation(net, rng: random.Random):
    """Balances on ``net``'s terminals under which a source that misses
    some sink supplies more than the sinks it reaches demand; None when
    every source reaches every sink."""
    instance, nodes = build(net, pair_costs(net)), net.nodes
    sources, sinks = net.sources, net.sinks
    for s in sources:
        reached = {nodes[t] for u, t in instance.pairs if nodes[u] == s}
        missed = [t for t in sinks if t not in reached]
        if not missed:
            continue
        demand = dict(zip(sinks, _split(Fraction(rng.randint(2, 12), 2), len(sinks), rng)))
        short = sum((demand[t] for t in missed), Fraction(0))
        balances = {t: -d for t, d in demand.items()}
        balances[s] = sum((demand[t] for t in reached), Fraction(0)) + short / 2
        others = [v for v in sources if v != s]
        balances.update(zip(others, _split(short / 2, len(others), rng)))
        return net.with_balances(balances)
    return None


def test_solve_matches_rational_reference():
    # transport.solve runs the kernel on the network's integers; the
    # reference goes through the rational FlowProblem/min_cost_flow layer
    # it replaced.  Both must answer alike, infeasible instances included.
    rng = random.Random(41)
    checked = infeasible = rational = negative = 0
    for seed in range(600):
        net = generate(
            seed,
            nodes=4 + seed % 9,
            terminals=1 + seed % 4,
            tau_max=2,
            negative_costs=seed % 2 == 1,
            half_balance_prob=0.5,
        )
        variants = [net]
        if seed % 3 == 0:
            supplies = _split(Fraction(rng.randint(1, 20), rng.randint(1, 3)), len(net.sources), rng)
            demands = _split(sum(supplies, Fraction(0)), len(net.sinks), rng)
            balances = dict(zip(net.sources, supplies))
            balances.update((t, -d) for t, d in zip(net.sinks, demands))
            variants.append(net.with_balances(balances))
        violated = _hall_violation(net, rng)
        if violated is not None:
            variants.append(violated)
        for variant in variants:
            instance = build(variant, pair_costs(variant))
            if seed % 5 == 0:  # the same costs times a rational ratio
                up, down = rng.randint(1, 5), rng.randint(2, 7)
                form = variant.integral
                scaled = dataclasses.replace(form, cost_scale=form.cost_scale * down)
                instance = dataclasses.replace(
                    instance,
                    network=dataclasses.replace(variant, integral=scaled),
                    costs=tuple(c * up for c in instance.costs),
                )
            expected = _outcome(transport_solve, instance)
            assert _outcome(solve, instance) == expected, seed
            checked += 1
            infeasible += expected[0] is InfeasibleError
            rational += any(b.denominator > 2 for b in variant.balances.values())
            negative += any(c < 0 for c in instance.costs)
    assert checked >= 800 and infeasible >= 20, (checked, infeasible)
    assert rational >= 100 and negative >= 100, (rational, negative)


@pytest.mark.parametrize("side, total", [("supplies", "1/3"), ("demands", "-1/3")])
def test_solve_rejects_unequal_totals_like_the_reference(demo, side, total):
    # A third of a unit more at the first source or the first sink, which
    # Network.of allows: balance is checked by validation, not by building.
    node = demo.sources[0] if side == "supplies" else demo.sinks[0]
    balances = {**demo.balances, node: demo.balances[node] + Fraction(total)}
    unbalanced = Network.of(demo.nodes, demo.arcs, balances)
    unequal = build(unbalanced, pair_costs(unbalanced))
    expected = _outcome(transport_solve, unequal)
    assert expected[:2] == (ValueError, f"balances sum to {total}, expected 0")
    assert _outcome(solve, unequal) == expected
