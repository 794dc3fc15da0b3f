"""Where text and rationals become integers, pinned by structure, not time.

A document is parsed into one ``Fraction`` per distinct literal.  From
there on only ``Network.integral`` scales values to integers: pair
costs, the transportation problem, its dual and the admissible labels
stay at the network's scales.
"""

from __future__ import annotations

import json
import sys

from qmct.generate import generate
from qmct.io import network_from_doc, network_to_doc
from qmct.pipeline import run_quickest_mincost

# The options of the benchmark's random-wide instances.
RANDOM_WIDE = dict(nodes=60, terminals=8, tau_max=10, cost_max=9, negative_costs=True)


def _random_wide_doc(seed: int) -> dict:
    return json.loads(json.dumps(network_to_doc(generate(seed, **RANDOM_WIDE))))


def test_a_document_holds_one_fraction_per_distinct_literal():
    for seed in range(3):
        doc = _random_wide_doc(seed)
        parsed = network_from_doc(doc)
        assert len(parsed.arcs) > 500
        for field in ("capacity", "transit", "cost"):
            literals = {arc[field] for arc in doc["arcs"]}
            objects = {id(getattr(arc, field)) for arc in parsed.arcs}
            assert len(objects) == len(literals), field
        literals = set(doc["balances"].values())
        objects = {id(parsed.balances[v]) for v in doc["balances"]}
        assert len(objects) == len(literals)


def test_after_parsing_only_the_integer_form_scales(monkeypatch):
    # Patch every qmct module that binds to_integers, so that no import
    # style slips past, and record who calls it during a whole solve.
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "qmct" and hasattr(module, "to_integers")
    ]
    callers = []

    def recording(real):
        def to_integers(values):
            frame = sys._getframe(1)
            callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
            return real(values)

        return to_integers

    for seed in range(3):
        net = network_from_doc(_random_wide_doc(seed))
        with monkeypatch.context() as patch:
            for module in modules:
                patch.setattr(module, "to_integers", recording(module.to_integers))
            callers.clear()
            run = run_quickest_mincost(net)
        assert run.arc_map and run.quickest.horizon > 0
        # Flows, costs and transits, once each; every later stage reads them.
        assert callers == [("qmct.network", "integral")] * 3, callers
