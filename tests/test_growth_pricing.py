"""The oracle's pricing of a growth against the loop it replaced.

Each expansion grows the way :func:`qmct.pipeline.oracle_quickest_mincost`
grows it, as in ``test_warm_min_cost.py``: with max flows up to the first
feasible horizon, then with a min-cost flow at every horizon up to three
past the answer.  Every call of
:meth:`qmct.oracle._GrowingExpansion._reprice_growth` also runs
:func:`_brute.reprice_growth` on a deep copy of the expansion; the
potentials, the residual capacities and the cost must then be equal.
Each pricing must be one :func:`qmct._kernel.label_correct` pass on a
graph of the new copies alone.

A new copy that no residual edge reaches keeps π = ∞.  With zero
supply the arcs out of the super source have no capacity, so every
pricing leaves its new copies at ∞; the oracle's own scan never prices
such a growth, since it answers at horizon 0.  With supply, the first
min-cost flow labels every copy and each later copy is reached over its
holdover, so no pricing leaves one.  The counts below pin both.
"""

import copy

import pytest
from test_expansion_growth import KINDS

from _brute import reprice_growth
from qmct import _kernel
from qmct.oracle import _GrowingExpansion
from qmct.pipeline import solve_quickest_mincost

# Per kind: pricings; floors on how many of them priced a copy over an
# edge from another new copy and how many changed the flow by repairing an
# arc into a collector; and how many left a new copy at π = ∞.
COUNTS = {
    "negative costs": (467, 389, 11, 0),
    "crosscheck": (194, 185, 31, 0),
    "rational": (313, 253, 11, 0),
    "zero supply": (39, 33, 0, 39),
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_pricing_a_growth_matches_the_replaced_loop(kind, monkeypatch):
    passes: list[int] = []
    label_correct, reprice = _kernel.label_correct, _GrowingExpansion._reprice_growth
    seen = {"pricings": 0, "chained": 0, "repaired": 0, "infinite": 0}

    def recorded_label_correct(g, seeds):
        passes.append(len(g))
        return label_correct(g, seeds)

    def checked(expansion):
        g, priced = expansion.graph, len(expansion.pi)
        reference = copy.deepcopy(expansion, {id(expansion.form): expansion.form})
        reprice_growth(reference)
        rem = list(g.rem)
        passes.clear()
        reprice(expansion)
        assert passes == [g.n - priced]
        assert expansion.pi == reference.pi
        assert g.rem == reference.graph.rem
        assert expansion.cost == reference.cost
        seen["pricings"] += 1
        seen["chained"] += any(
            g.to[e ^ 1] >= priced <= g.to[e] and g.rem[e] != 0
            for e in range(expansion.priced, len(g.to), 2)
        )
        seen["repaired"] += g.rem != rem
        seen["infinite"] += _kernel.INF in expansion.pi[priced:]

    monkeypatch.setattr(_kernel, "label_correct", recorded_label_correct)
    monkeypatch.setattr(_GrowingExpansion, "_reprice_growth", checked)
    instances, _ = KINDS[kind]
    for net in instances():
        answer = solve_quickest_mincost(net).horizon
        expansion = _GrowingExpansion(net)
        while expansion.routed < net.integral.supply:
            expansion.grow()
            expansion.max_flow()
        for _ in range(expansion.horizon, answer + 4):
            expansion.min_cost()
            expansion.grow()
    pricings, chained, repaired, infinite = COUNTS[kind]
    assert seen["pricings"] == pricings, seen
    assert seen["chained"] >= chained, seen
    assert seen["repaired"] >= repaired, seen
    assert seen["infinite"] == infinite, seen
