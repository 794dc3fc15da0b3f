"""The static stages under fuzzing, held to the oracle.

Hypothesis draws networks of at most eight nodes with rational
capacities, costs, balances and transits, negative costs, and cycles of
zero transit.  A backbone path ``v0 → v1 → …`` runs through every node,
and sources come before sinks on it, so every source reaches every sink
and each instance is feasible.  Costs are a non-negative base plus a
rational node potential difference, so every cycle, zero-transit ones
included, costs the sum of its non-negative bases.

Every check of :func:`solve_quickest_mincost` must pass, and the
brute-force oracle must give the same cost and horizon.  Both count
time in steps of ``1/time_scale``; what a capacity means per step is
not pinned here.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qmct.network import Arc, Network
from qmct.pipeline import oracle_quickest_mincost, solve_quickest_mincost


def _rationals(low: int, high: int, denominator: int):
    """``k / d`` for integers ``low ≤ k ≤ high`` and ``1 ≤ d ≤ denominator``."""
    return st.builds(Fraction, st.integers(low, high), st.integers(1, denominator))


_amounts = _rationals(1, 6, 3)  # capacities and supplies
_transits = st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])
_base_costs = _rationals(0, 6, 4)
_potentials = _rationals(-6, 6, 3)


@st.composite
def _instances(draw) -> Network:
    n = draw(st.integers(2, 8))
    nodes = [f"v{i}" for i in range(n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    ends = [(i, i + 1) for i in range(n - 1)] + [(u, v) for u, v in extra if u != v]
    potential = draw(st.lists(_potentials, min_size=n, max_size=n))
    arcs = [
        Arc(
            nodes[u],
            nodes[v],
            draw(_amounts),
            draw(_transits),
            draw(_base_costs) + potential[u] - potential[v],
        )
        for u, v in ends
    ]
    sources = nodes[: draw(st.integers(1, n // 2))]
    sinks = nodes[n - draw(st.integers(1, n // 2)) :]
    supplies = draw(st.lists(_amounts, min_size=len(sources), max_size=len(sources)))
    shares = draw(st.lists(st.integers(1, 4), min_size=len(sinks), max_size=len(sinks)))
    total = sum(supplies, Fraction(0))
    balances = dict(zip(sources, supplies))
    balances.update((t, -total * w / sum(shares)) for t, w in zip(sinks, shares))
    return Network.of(tuple(nodes), tuple(arcs), dict.fromkeys(nodes, Fraction(0)) | balances)


@settings(max_examples=200)
@given(_instances())
def test_solve_passes_its_checks_and_matches_the_oracle(net):
    report = solve_quickest_mincost(net)
    assert report.all_checks_pass, report.checks
    assert oracle_quickest_mincost(net) == (report.cost, report.horizon)
