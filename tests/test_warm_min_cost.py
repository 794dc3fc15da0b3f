"""The oracle's warm-started min-cost scan against a fresh expansion per horizon.

Each expansion grows the way :func:`qmct.pipeline.oracle_quickest_mincost`
grows it: with max flows up to the first feasible horizon, then with a
min-cost flow at every horizon up to three past the answer, each one
warm-started from the flow and potentials of the last.  Every cost must
equal that of :func:`qmct.temporal.mincost_over_time`, and ``routed``
must equal the flow value in the graph after each call.  The repair of
negative arcs into the collectors, and the cancelling of a negative
cycle through one, must both run, so that the differential covers them.
Past the oracle's default 10 nodes, the oracle must agree with the
solver on networks of the benchmark's random-wide size.
"""

import pytest
from test_expansion_growth import KINDS

from qmct import _kernel
from qmct.errors import InfeasibleError, InternalCheckError
from qmct.generate import generate
from qmct.network import Network
from qmct.oracle import _GrowingExpansion
from qmct.pipeline import oracle_quickest_mincost, solve_quickest_mincost
from qmct.temporal import mincost_over_time

# Per kind: min-cost calls, and floors on how many of them repaired at least
# one negative collector arc and on how many repair searches cancelled a cycle.
COUNTS = {
    "negative costs": (617, 14, 13),
    "crosscheck": (234, 33, 37),
    "rational": (413, 13, 19),
    "zero supply": (52, 0, 0),
}


def _flow_value(g: _kernel.Residual) -> int:
    """The flow into the super sink, node 1: every edge of its list is the
    reverse of an arc into it, so its remaining capacity is that arc's flow."""
    return sum(g.rem[e] for e in g.adj[1])


@pytest.mark.parametrize("kind", list(KINDS))
def test_warm_min_cost_matches_a_fresh_expansion_per_horizon(kind, monkeypatch):
    searches: list[tuple[int, bool]] = []
    reprice = _kernel.reprice

    def recorded(g, s, t, pi, bound=_kernel.INF):
        dist, parent_edge = reprice(g, s, t, pi, bound)
        if bound != _kernel.INF:
            searches.append((calls, dist[t] < bound))
        return dist, parent_edge

    monkeypatch.setattr(_kernel, "reprice", recorded)
    instances, _ = KINDS[kind]
    calls = 0
    for seen, net in enumerate(instances()):
        answer = solve_quickest_mincost(net).horizon
        expansion = _GrowingExpansion(net)
        while expansion.routed < net.integral.supply:
            expansion.grow()
            expansion.max_flow()
        for horizon in range(expansion.horizon, answer + 4):
            expected = mincost_over_time(net, horizon).cost
            assert expansion.min_cost() == expected, (kind, seen, horizon)
            assert expansion.routed == _flow_value(expansion.graph), (kind, seen, horizon)
            calls += 1
            expansion.grow()
    calls_made, repaired, cycles = COUNTS[kind]
    assert calls == calls_made
    assert len({call for call, _ in searches}) >= repaired
    assert sum(cancelled for _, cancelled in searches) >= cycles


def test_oracle_matches_the_solver_past_ten_nodes():
    for seed in range(20):
        net = generate(seed, nodes=60, terminals=8, tau_max=10, cost_max=9, negative_costs=True)
        report = solve_quickest_mincost(net)
        assert oracle_quickest_mincost(net, max_nodes=60) == (report.cost, report.horizon), seed


def test_pricing_a_layer_with_a_negative_cycle_raises_instead_of_looping():
    # Validation rejects this network; the grower must not hang on it.
    net = Network.of(["a", "b"], [("a", "b", 1, 0, -1), ("b", "a", 1, 0, 0)], {"a": 1, "b": -1})
    expansion = _GrowingExpansion(net)
    with pytest.raises(InfeasibleError):
        expansion.min_cost()
    expansion.grow()
    with pytest.raises(InternalCheckError, match="negative cycle"):
        expansion.min_cost()
