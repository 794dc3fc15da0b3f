"""Where text and rationals become integers, pinned by structure, not time.

A document is parsed into one ``Fraction`` per distinct literal, and the
admissible stage reads the base network's integer costs instead of
scaling its ``Fraction`` costs a second time.
"""

from __future__ import annotations

import json

from qmct import admissible, cheapest, network, transport
from qmct.generate import generate
from qmct.io import network_from_doc, network_to_doc

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


def test_admissible_arcs_scales_only_the_terminal_duals(monkeypatch):
    scaled = []

    def counting(real):
        def to_integers(values):
            values = list(values)
            scaled.append(len(values))
            return real(values)

        return to_integers

    for seed in range(3):
        net = network_from_doc(_random_wide_doc(seed))
        instance = transport.build(net, cheapest.pair_costs(net))
        extended = admissible.extend(net, transport.solve(instance).dual)
        expected = admissible.admissible_arcs(extended)
        with monkeypatch.context() as patch:
            patch.setattr(admissible, "to_integers", counting(admissible.to_integers))
            patch.setattr(network, "to_integers", counting(network.to_integers))
            scaled.clear()
            assert admissible.admissible_arcs(extended) == expected
        terminals = len(net.sources) + len(net.sinks)
        assert len(extended.terminal_arcs) == terminals
        assert scaled == [terminals], (scaled, len(net.arcs))
