"""One digest over everything the solver answers, end to end.

For the bundled instances and 200 generated ones with rational
capacities, transits, costs and balances, and negative costs from a
rational node potential folded into the costs, the digest covers the
reports of all three solver modes (timing dropped, schedule included),
the storage traces of both schedules, pair costs, cheapest-path labels from every source and to
every sink, the transportation dual, the admissible arc set, the routed
paths and the oracle's answer.  A rewrite of any stage that changes any
exact value anywhere shows up here.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from qmct import cheapest
from qmct.errors import QmctError
from qmct.generate import generate
from qmct.io import load_instance, report_to_doc
from qmct.network import Arc, Network
from qmct.pipeline import (
    oracle_quickest_mincost,
    routed_paths,
    run_quickest_mincost,
    scale_transits,
    solve_mincost_static,
    solve_quickest,
    solve_quickest_mincost,
)
from qmct.temporal import storage_trace

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

END_TO_END_GOLDEN = "34db02ce24719a080308e5841a4a0fde873e633df6e81f528adba35455ad7443"


def _rational_instances():
    for seed in range(200):
        net = generate(
            seed,
            nodes=3 + seed % 4,
            terminals=3,
            tau_max=seed % 3 + 1,
            half_balance_prob=0.4,
            negative_costs=seed % 2 == 1,
        )
        k = 2 + seed % 3
        # A potential shift keeps every cycle's cost, so no negative
        # cycle appears.
        potential = {
            v: Fraction((5 * i + seed) % 7 - 3, 1 + (i + seed) % 4)
            for i, v in enumerate(net.nodes)
        }
        arcs = tuple(
            Arc(
                a.tail,
                a.head,
                a.capacity / (1 + i % k),
                a.transit / k,
                a.cost / k + potential[a.tail] - potential[a.head],
            )
            for i, a in enumerate(net.arcs)
        )
        yield Network(net.nodes, arcs, {v: b * 2 / 3 for v, b in net.balances.items()})


def _plain(value):
    # Values, not their types: an int 0 and Fraction(0) digest alike.
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, dict):
        return {_key(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, frozenset, set)):
        items = [_plain(v) for v in value]
        return sorted(items) if isinstance(value, (frozenset, set)) else items
    return value


def _key(key) -> str:
    return "->".join(key) if isinstance(key, tuple) else str(key)


def _answers(net: Network) -> dict:
    doc: dict = {}
    scaled, _ = scale_transits(net)
    for solver in (solve_quickest_mincost, solve_quickest, solve_mincost_static):
        report = solver(net)
        out = report_to_doc(report, include_schedule=True)
        del out["timing"]
        if report.schedule is not None:
            out["storage"] = storage_trace(scaled, report.schedule)
        doc[report.mode] = out
    doc["pair_costs"] = cheapest.pair_costs(net)
    doc["from"] = {s: cheapest.cheapest_from(net, s).values for s in net.sources}
    doc["to"] = {t: cheapest.cheapest_to(net, t).values for t in net.sinks}
    run = run_quickest_mincost(net)
    doc["dual"] = run.solution.dual.values
    doc["subnetwork"] = run.subnetwork.arc_indices
    doc["routes"] = routed_paths(run)
    doc["oracle"] = oracle_quickest_mincost(net)
    return doc


def test_end_to_end_answers_match_golden_digest():
    digest = hashlib.sha256()
    bundled = [load_instance(path) for path in sorted(INSTANCES.glob("*.json"))]
    count = 0
    for net in [*bundled, *_rational_instances()]:
        try:
            doc = _answers(net)
        except QmctError as exc:
            doc = {"error": type(exc).__name__, "message": str(exc)}
        digest.update(json.dumps(_plain(doc), sort_keys=True).encode())
        count += 1
    assert count == 203
    assert digest.hexdigest() == END_TO_END_GOLDEN
