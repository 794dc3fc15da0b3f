"""Two digests over everything the solver answers, end to end.

For the bundled instances and 200 generated ones with rational
capacities, transits, costs and balances, and negative costs from a
rational node potential folded into the costs, the digests cover the
reports of all three solver modes (timing dropped, schedule included),
the storage traces of both schedules, pair costs, cheapest-path labels
from every source and to every sink, the transportation dual, the
admissible arc set, the routed paths and the oracle's answer.  A
rewrite of any stage that changes any exact value anywhere shows up
here.

The values are split between two digests, so that a change meant to
alter only how flow is scheduled re-pins one of them and is held to
the other:

- ``ANSWERS_GOLDEN`` pins what a solve decides: each mode's report
  without ``schedule`` and ``storage`` (cost, horizon, scale, checks,
  transport optimum, subnetwork), pair costs, labels, dual, admissible
  arc set and the oracle's answer;
- ``SCHEDULES_GOLDEN`` pins how the flow moves: each mode's
  ``schedule`` and ``storage``, the routed paths, and the cost of the
  ``quickest`` mode's report, which is that of whichever quickest
  schedule the max flow returns, not a minimum.

An instance whose solve raises contributes its error class and message
to both.
"""

import functools
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

ANSWERS_GOLDEN = "04f858528797c3421532510befccef96dc07338b3dee08ded1b807e2f31fd32a"
SCHEDULES_GOLDEN = "fe3555a7c4b5ad538788bcf01cabe73a3b18bdc454e041e0b6be91f1c328cffa"


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


def _documents(net: Network) -> tuple[dict, dict]:
    """The answers and the schedules of one instance; every value lands in one."""
    answers: dict = {}
    schedules: dict = {}
    for solver in (solve_quickest_mincost, solve_quickest, solve_mincost_static):
        report = solver(net)
        out = report_to_doc(report, include_schedule=True)
        del out["timing"]
        moved = {"schedule": out.pop("schedule")} if "schedule" in out else {}
        if report.mode == "quickest":
            moved["cost"] = out.pop("cost")
        if report.schedule is not None:
            moved["storage"] = storage_trace(net, report.schedule)
        answers[report.mode] = out
        schedules[report.mode] = moved
    # Pair costs, labels and duals are integers at cost_scale; the
    # digests pin the rationals they stand for.
    scale = net.integral.cost_scale

    def rational(values: dict) -> dict:
        return {k: Fraction(v, scale) for k, v in values.items()}

    # Pair costs and duals are keyed by node index; the digests pin names.
    nodes = net.nodes
    pairs = {(nodes[s], nodes[t]): c for (s, t), c in cheapest.pair_costs(net).items()}
    answers["pair_costs"] = rational(pairs)
    answers["from"] = {s: rational(cheapest.cheapest_from(net, s)) for s in net.sources}
    answers["to"] = {t: rational(cheapest.cheapest_to(net, t)) for t in net.sinks}
    run = run_quickest_mincost(net)
    answers["dual"] = rational({nodes[v]: y for v, y in run.solution.dual.items()})
    answers["subnetwork"] = run.subnetwork.arc_indices
    schedules["routes"] = routed_paths(run)
    answers["oracle"] = oracle_quickest_mincost(net)
    return answers, schedules


@functools.cache
def _digests() -> tuple[str, str]:
    """Hex digests of (answers, schedules) over the golden instances."""
    digests = (hashlib.sha256(), hashlib.sha256())
    count = 0
    for net in golden_instances():
        try:
            parts = _documents(net)
        except QmctError as exc:
            error = {"error": type(exc).__name__, "message": str(exc)}
            parts = (error, error)
        for digest, part in zip(digests, parts):
            digest.update(json.dumps(_plain(part), sort_keys=True).encode())
        count += 1
    assert count == 203
    return digests[0].hexdigest(), digests[1].hexdigest()


def test_end_to_end_answers_match_golden_digest():
    assert _digests()[0] == ANSWERS_GOLDEN


def test_end_to_end_schedules_match_golden_digest():
    assert _digests()[1] == SCHEDULES_GOLDEN
