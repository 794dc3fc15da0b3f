"""The integer form of a network, and the label passes that read it.

The label passes used to run on Fraction costs.  They now run on, and
return, integers at the network's ``cost_scale``.  Each is checked here
against the Fraction computation, restated on top of ``_kernel.labels``
with the network's Fraction costs, on networks with rational and
negative costs.
"""

import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _brute import transport_solve
from conftest import golden_instances
from qmct import _kernel, admissible, cheapest, transport
from qmct.errors import InternalCheckError
from qmct.generate import generate
from qmct.network import Arc, Network

# ------------------------------------------------------------- the form

_values = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _networks(draw):
    n = draw(st.integers(1, 5))
    nodes = [f"v{i}" for i in range(n)]
    arcs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(nodes), st.sampled_from(nodes), _values, _values, _values
            ),
            max_size=8,
        )
    )
    balances = draw(st.lists(_values, min_size=n, max_size=n))
    return Network(
        tuple(nodes), tuple(Arc(*a) for a in arcs), dict(zip(nodes, balances))
    )


@given(_networks())
def test_integer_form_scales_every_value_exactly(net):
    form = net.integral
    assert net.integral is form
    caps = [a.capacity for a in net.arcs]
    bals = [net.balances[v] for v in net.nodes]
    costs = [a.cost for a in net.arcs]
    transits = [a.transit for a in net.arcs]
    assert form.flow_scale == math.lcm(*(x.denominator for x in caps + bals))
    assert form.cost_scale == math.lcm(*(x.denominator for x in costs))
    assert form.time_scale == math.lcm(*(x.denominator for x in transits))
    for ints, values, scale in [
        (form.capacities, caps, form.flow_scale),
        (form.balances, bals, form.flow_scale),
        (form.costs, costs, form.cost_scale),
        (form.transits, transits, form.time_scale),
    ]:
        assert len(ints) == len(values)
        for k, x in zip(ints, values):
            assert type(k) is int and k == x * scale
    assert form.tails == tuple(net.node_index(a.tail) for a in net.arcs)
    assert form.heads == tuple(net.node_index(a.head) for a in net.arcs)
    _assert_terminals_match_balance_signs(net)
    _assert_terminals_match_balance_signs(net.with_arcs(range(0, len(net.arcs), 2)))


def _assert_terminals_match_balance_signs(net):
    """The form's terminals and supply, against a scan of the balances."""
    form = net.integral
    bals = form.balances
    assert form.sources == tuple(v for v, b in enumerate(bals) if b > 0)
    assert form.sinks == tuple(v for v, b in enumerate(bals) if b < 0)
    assert form.supply == sum(b for b in bals if b > 0)
    assert net.total_supply == sum(b for b in net.balances.values() if b > 0)
    assert net.sources == tuple(v for v in net.nodes if net.balances[v] > 0)
    assert net.sinks == tuple(v for v in net.nodes if net.balances[v] < 0)


def test_golden_terminals_match_balance_signs():
    for net in golden_instances():
        _assert_terminals_match_balance_signs(net)
        _assert_terminals_match_balance_signs(net.with_arcs(range(1, len(net.arcs), 2)))


# ------------------------------------------- labels against Fractions


def _rational_networks():
    """240 routable networks with rational, often negative, costs.

    A rational node potential folded into rational costs keeps every
    cycle's cost, so the networks stay conservative; per-arc divisors
    vary the denominators.
    """
    for seed in range(240):
        net = generate(
            seed, nodes=3 + seed % 6, terminals=3, tau_max=2, negative_costs=seed % 2 == 0
        )
        rng = random.Random(seed)
        potential = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for v in net.nodes}
        k = rng.randint(1, 4)
        arcs = tuple(
            Arc(
                a.tail,
                a.head,
                a.capacity,
                a.transit,
                a.cost / k + potential[a.tail] - potential[a.head],
            )
            for a in net.arcs
        )
        yield Network(net.nodes, arcs, dict(net.balances))


def _fraction_labels(arcs, n, start):
    """Labels on Fraction costs, as every label pass computed them before."""
    return _kernel.labels(_kernel.arc_graph(n, arcs), start)


def _fraction_arcs(net, reverse=False):
    idx = net.node_index
    arcs = [(idx(a.tail), idx(a.head), a.cost) for a in net.arcs]
    return [(v, u, c) for u, v, c in arcs] if reverse else arcs


def _fraction_admissible(extended):
    """``admissible_arcs`` on Fraction labels: (arc set, labels), or the failure.

    The terminal arcs' integer duals are read at the base network's
    ``cost_scale`` and the base arcs' costs as the network's Fractions.
    """
    net, n = extended.base, extended.num_nodes
    scale = net.integral.cost_scale
    arcs = _fraction_arcs(net)
    arcs += [(u, v, Fraction(c, scale)) for u, v, c in extended.terminal_arcs]
    forward = _fraction_labels(arcs, n, extended.super_source)
    opt = forward[extended.super_sink]
    if opt is None:
        return "unreachable"
    if opt != 0:
        return f"cheapest extended path costs {opt}, expected 0 for an optimal dual"
    reverse = [(v, u, c) for u, v, c in arcs]
    backward = _fraction_labels(reverse, n, extended.super_sink)
    selected = set()
    for i, (u, v, c) in enumerate(arcs[: extended.base_arc_count]):
        if forward[u] is not None and backward[v] is not None:
            if forward[u] + c + backward[v] == opt:
                selected.add(i)
    return frozenset(selected), tuple(forward[: len(net.nodes)])


def _admissible(extended):
    """``admissible_arcs``: (arc set, labels), or the failure."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            sub = admissible.admissible_arcs(extended)
        except InternalCheckError as exc:
            return str(exc)
    if caught:
        assert not sub.arc_indices and not sub.connected
        return "unreachable"
    return sub.arc_indices, sub.labels


def _scaled(value, scale):
    """A reference Fraction at ``scale``; it must come out an integer."""
    if value is None:
        return None
    assert (value * scale).denominator == 1
    return int(value * scale)


def _same(got, reference, scale):
    """The integer answer equals the Fraction reference times ``scale``."""
    if isinstance(reference, str):
        return got == reference
    arcs, labels = got
    assert all(d is None or type(d) is int for d in labels)
    return arcs == reference[0] and labels == tuple(_scaled(d, scale) for d in reference[1])


def test_label_passes_match_fraction_labels():
    seen = {"negative": 0, "rational": 0, "kept": 0, "rejected": 0}
    for net in _rational_networks():
        seen["negative"] += any(a.cost < 0 for a in net.arcs)
        seen["rational"] += any(a.cost.denominator > 1 for a in net.arcs)
        n = len(net.nodes)
        idx = net.node_index
        scale = net.integral.cost_scale
        forward = {v: _fraction_labels(_fraction_arcs(net), n, idx(v)) for v in net.nodes}
        backward = {
            v: _fraction_labels(_fraction_arcs(net, reverse=True), n, idx(v)) for v in net.nodes
        }
        for v in net.nodes:
            for direction, labels, expected in [
                ("from", cheapest.cheapest_from(net, v), forward[v]),
                ("to", cheapest.cheapest_to(net, v), backward[v]),
            ]:
                want = {w: _scaled(d, scale) for w, d in zip(net.nodes, expected) if d is not None}
                assert labels.values == want, (direction, v, net)
                assert all(type(d) is int for d in labels.values.values())
        costs = cheapest.pair_costs(net)
        want = {
            (s, t): _scaled(forward[s][idx(t)], scale)
            for s in net.sources
            for t in net.sinks
            if forward[s][idx(t)] is not None
        }
        assert costs == want, net
        assert all(type(d) is int for d in costs.values())

        instance = transport.build(net, costs)
        dual = transport.solve(instance).dual
        reference = transport_solve(instance).dual.values
        assert dual.values == {v: _scaled(y, scale) for v, y in reference.items()}, net
        assert all(type(y) is int for y in dual.values.values())
        extended = admissible.extend(net, dual)
        got = _admissible(extended)
        assert _same(got, _fraction_admissible(extended), scale), net
        seen["kept"] += isinstance(got, tuple)
        # Raising one source's dual by one unit at cost_scale takes
        # 1/cost_scale off every extended path through it, so the
        # cheapest one costs -1/cost_scale and both versions must reject
        # the dual with the same message.
        shifted = dict(dual.values)
        shifted[net.sources[0]] += 1
        extended = admissible.extend(net, transport.DualSolution(shifted))
        got = _admissible(extended)
        assert _same(got, _fraction_admissible(extended), scale), net
        seen["rejected"] += isinstance(got, str)
    assert seen["kept"] == seen["rejected"] == 240, seen
    assert min(seen["negative"], seen["rational"]) >= 200, seen


def test_label_passes_raise_on_a_reachable_negative_cycle():
    net = Network.of(
        ["a", "b", "c"],
        [("a", "b", 1, 0, "1/2"), ("b", "c", 1, 0, "-1/3"), ("c", "b", 1, 0, "-1/4")],
        {"a": 1, "c": -1},
    )
    with pytest.raises(InternalCheckError):
        cheapest.pair_costs(net)
    with pytest.raises(InternalCheckError):
        cheapest.cheapest_to(net, "c")
