"""The benchmark's traced run still fits the solver.

``perfbench/layers.py`` wraps solver functions by module attribute and
reads attributes off their arguments and results.  A rename in ``src/``
or a changed result type would only show when ``perfbench/run.py
--trace 1`` runs; these tests make it show in the test suite.
"""

import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

from qmct import io, pipeline, staticflow  # noqa: E402


def test_every_traced_target_resolves():
    for module, attr, name, _ in layers.TARGETS:
        assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr}"


def _has_ancestor(spans, span, name):
    while span.parent is not None:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def test_describe_hooks_run_on_a_solve_and_an_oracle_call():
    network = io.load_instance(ROOT / "instances" / "demo.json")
    recorder = SpanRecorder()
    with recorder.installed(layers.TARGETS):
        begin = time.perf_counter()
        report = pipeline.solve_quickest_mincost(network)
        io.report_to_doc(report, include_schedule=True)
        assert pipeline.oracle_quickest_mincost(network) == (report.cost, report.horizon)
        end = time.perf_counter()
    described = {name for _, _, name, describe in layers.TARGETS if describe is not None}
    seen = {span.name for span in recorder.spans}
    # The solve never decomposes a static flow, and the oracle grows its own
    # expansion rather than calling ``mincost_over_time``; every other layer runs.
    skipped = {"staticflow.decompose", "temporal.mincost"}
    assert seen == {name for _, _, name, _ in layers.TARGETS} - skipped
    # The oracle's kernel work is still traced, under the oracle's span.
    spans = recorder.spans
    under_oracle = {s.name for s in spans if _has_ancestor(spans, s, "pipeline.oracle")}
    assert under_oracle >= {"kernel.max_flow", "kernel.min_cost_flow"}
    for span in recorder.spans:
        assert (span.attrs is not None) == (span.name in described), span.name
    metrics = layers.pass_metrics(recorder.spans, begin, end)
    assert set(metrics) >= set(layers.SELF_TIME)
    assert metrics["temporal.probes"] >= 1
    assert layers.largest_search(recorder.spans) == recorder.instance


def test_a_traced_chain_solve_probes_and_names_its_largest_search():
    # One source and one sink, as in the chain-horizon workload.  The traced
    # run picks the search that built the most probe expansion arcs, so a
    # solve that builds none leaves it nothing to pick.
    network = io.network_from_doc(workloads.chain_doc(8, 0))
    recorder = SpanRecorder()
    with recorder.installed(layers.TARGETS):
        begin = time.perf_counter()
        report = pipeline.solve_quickest_mincost(network)
        io.report_to_doc(report, include_schedule=True)
        oracle = pipeline.oracle_quickest_mincost(network, max_nodes=len(network.nodes))
        assert oracle == (report.cost, report.horizon)
        end = time.perf_counter()
    seen = {span.name for span in recorder.spans}
    assert seen == {name for _, _, name, _ in layers.TARGETS} - {
        "staticflow.decompose",
        "temporal.mincost",
    }
    assert layers.pass_metrics(recorder.spans, begin, end)["temporal.probes"] >= 1
    assert layers.largest_search(recorder.spans) == recorder.instance


def test_the_decompose_hook_counts_paths():
    # No solve decomposes a static flow yet, so call it directly: two
    # paths from node 0 to node 2, one through node 1 and one direct.
    graph = SimpleNamespace(num_nodes=3, num_arcs=3, tails=(0, 1, 0), heads=(1, 2, 2))
    recorder = SpanRecorder()
    with recorder.installed(layers.TARGETS):
        paths, cycles = staticflow.decompose(graph, (2, 2, 1))
    assert (paths, cycles) == ([((0, 1), 2), ((2,), 1)], [])
    [span] = recorder.spans
    assert (span.name, span.attrs) == ("staticflow.decompose", {"paths": 2})
