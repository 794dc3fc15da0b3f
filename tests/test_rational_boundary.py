"""Where text and rationals become integers, pinned by structure, not time.

A document is parsed straight into a network's integer form: each
distinct string literal once, ints as they are.  From there on nothing
scales again: pair costs, the transportation problem, its dual and the
admissible labels stay at the network's scales, and no solve rebuilds
the ``Fraction`` views ``Network.arcs`` and ``Network.balances``.  Node
names likewise leave at one boundary: a solve keys terminals by node
index and never looks a node up by name.
"""

from __future__ import annotations

import json
import sys

from qmct.generate import generate
from qmct.io import network_from_doc, network_to_doc, report_to_doc
from qmct.network import Network
from qmct.pipeline import run_quickest_mincost, solve_quickest_mincost

# The options of the benchmark's random-wide instances.
RANDOM_WIDE = dict(nodes=60, terminals=8, tau_max=10, cost_max=9, negative_costs=True)


def _random_wide_doc(seed: int) -> dict:
    return json.loads(json.dumps(network_to_doc(generate(seed, **RANDOM_WIDE))))


def _record(patch, name: str) -> list[tuple]:
    """Patch every qmct module that binds ``name``, so that no import
    style slips past; each call appends (caller module, caller, args)."""
    calls = []

    def recording(real):
        def wrapper(*args):
            frame = sys._getframe(1)
            calls.append((frame.f_globals["__name__"], frame.f_code.co_name, args))
            return real(*args)

        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "qmct" and hasattr(module, name):
            patch.setattr(module, name, recording(getattr(module, name)))
    return calls


def test_a_document_parses_each_distinct_string_literal_once(monkeypatch):
    for seed in range(3):
        doc = _random_wide_doc(seed)
        # Every other arc writes its whole values as JSON ints.
        for arc in doc["arcs"][::2]:
            for field in ("capacity", "transit", "cost"):
                if "/" not in arc[field]:
                    arc[field] = int(arc[field])
        literals = [arc[f] for arc in doc["arcs"] for f in ("capacity", "transit", "cost")]
        literals += doc["balances"].values()
        strings = {x for x in literals if isinstance(x, str)}
        assert len(strings) < len(literals) and any(isinstance(x, int) for x in literals)
        with monkeypatch.context() as patch:
            calls = _record(patch, "as_rational")
            parsed = network_from_doc(doc)
        assert len(parsed.integral.tails) > 500
        parsed_values = [args[0] for *_, args in calls]
        assert sorted(parsed_values) == sorted(strings)


def test_after_parsing_no_stage_scales(monkeypatch):
    for seed in range(3):
        net = network_from_doc(_random_wide_doc(seed))
        with monkeypatch.context() as patch:
            callers = _record(patch, "to_integers")
            run = run_quickest_mincost(net)
        assert run.arc_map and run.quickest.horizon > 0
        # The parse built the integer form; every stage reads it.
        assert callers == []


def test_a_solve_builds_no_fraction_views():
    for seed in range(3):
        net = network_from_doc(_random_wide_doc(seed))
        report_to_doc(solve_quickest_mincost(net), include_schedule=True)
        assert "arcs" not in net.__dict__ and "balances" not in net.__dict__


def test_a_solve_looks_up_no_node_by_name(monkeypatch):
    reads = {"sources": 0, "sinks": 0}

    def counted(name: str) -> property:
        real = getattr(Network, name).fget

        def read(self):
            reads[name] += 1
            return real(self)

        return property(read)

    for name in reads:
        monkeypatch.setattr(Network, name, counted(name))
    violated = _record(monkeypatch, "_violated_subset")
    for seed in range(10):
        net = network_from_doc(_random_wide_doc(seed))
        solve_quickest_mincost(net)
        assert "node_index" not in net.__dict__
    assert reads == {"sources": 0, "sinks": 0}
    # Some probes are infeasible, so the search's cut path ran too.
    assert violated
