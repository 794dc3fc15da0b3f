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

from _brute import routed_paths
from conftest import golden_instances
from qmct import cheapest
from qmct.errors import QmctError
from qmct.io import report_to_doc
from qmct.network import Network
from qmct.pipeline import (
    oracle_quickest_mincost,
    run_quickest_mincost,
    solve_mincost_static,
    solve_quickest,
    solve_quickest_mincost,
)
from qmct.temporal import storage_trace

END_TO_END_GOLDEN = "34db02ce24719a080308e5841a4a0fde873e633df6e81f528adba35455ad7443"


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
    for solver in (solve_quickest_mincost, solve_quickest, solve_mincost_static):
        report = solver(net)
        out = report_to_doc(report, include_schedule=True)
        del out["timing"]
        if report.schedule is not None:
            out["storage"] = storage_trace(net, report.schedule)
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
    count = 0
    for net in golden_instances():
        try:
            doc = _answers(net)
        except QmctError as exc:
            doc = {"error": type(exc).__name__, "message": str(exc)}
        digest.update(json.dumps(_plain(doc), sort_keys=True).encode())
        count += 1
    assert count == 203
    assert digest.hexdigest() == END_TO_END_GOLDEN
