"""Tests of the benchmark's own parts: inputs, references and span arithmetic.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, SpanRecorder, covered, self_times  # noqa: E402

from qmct import io, pipeline  # noqa: E402


def test_per_layer_metrics_match_the_benchmark_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers.UNITS
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["chain-horizon", "oracle-crosscheck"])
def test_inputs_repeat_per_seed_and_differ_across_seeds(name):
    make = workloads.WORKLOADS[name]
    first = [i.doc for i in make(3)]
    assert first == [i.doc for i in make(3)]
    assert first != [i.doc for i in make(4)]


def test_random_wide_inputs_repeat_per_seed_and_differ_across_seeds(monkeypatch):
    monkeypatch.setattr(workloads, "RANDOM_WIDE_STRATA", ((2, 4, 2), (5, 16, 1)))
    first = [i.doc for i in workloads.random_wide(3)]
    assert sorted(workloads.terminal_count(doc) > 4 for doc in first) == [False, False, True]
    assert first == [i.doc for i in workloads.random_wide(3)]
    assert first != [i.doc for i in workloads.random_wide(4)]


def test_generated_sets_fill_every_terminal_band():
    instances = workloads.oracle_crosscheck(3)
    assert len(instances) == sum(count for _, _, count in workloads.ORACLE_STRATA)
    for low, high, count in workloads.ORACLE_STRATA:
        assert sum(low <= i.params["terminals"] <= high for i in instances) == count


def test_reference_reproduces_the_demo_answer():
    doc = json.loads((ROOT / "instances" / "demo.json").read_text())
    ref = reference.static_reference(doc)
    assert ref.cost == 0
    assert reference.horizon_is_quickest(ref, 2)
    assert not reference.horizon_is_quickest(ref, 1)
    assert not reference.horizon_is_quickest(ref, 3)


@pytest.mark.parametrize("supply, phase", [(1, 0), (2, 1), (4, 2)])
def test_chain_closed_form_matches_the_oracle(supply, phase):
    network = io.network_from_doc(workloads.chain_doc(supply, phase))
    expected = reference.chain_answer(supply, workloads.chain_transits(phase))
    assert pipeline.oracle_quickest_mincost(network, max_nodes=workloads.CHAIN_NODES) == expected


def test_chain_closed_form_matches_the_roadmap_figures():
    transits = workloads.chain_transits(0)
    assert reference.chain_answer(50, transits) == (Fraction(0), 71)
    assert reference.chain_answer(200, transits) == (Fraction(0), 221)


def test_reference_static_cost_and_horizon_agree_with_the_oracle():
    for instance in workloads.oracle_crosscheck(5)[:20]:
        network = io.network_from_doc(instance.doc)
        cost, horizon = pipeline.oracle_quickest_mincost(network)
        ref = reference.static_reference(instance.doc)
        assert ref.cost == cost
        assert reference.horizon_is_quickest(ref, horizon)


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, instance=0)


def test_self_time_subtracts_children_on_a_nested_trace():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.x", 1.5, 2.0, parent=1),
        _span("a.y", 3.0, 3.25, parent=1),
        _span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.25, 0.5, 0.25, 4.0])


def test_pace_sizes_the_yardstick_group_to_the_work(monkeypatch):
    calls = []
    monkeypatch.setattr(run, "yardstick", lambda: calls.append(1) or 0.01)
    assert run.pace(0.0) == 0.01 and len(calls) == 1
    calls.clear()
    assert run.pace(10.0) == 0.01 and len(calls) == round(run.YARDSTICK_SHARE * 10.0 / 0.01)


def test_covered_merges_overlaps_and_clips():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(-1.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_recorder_nests_spans_and_restores_attributes():
    class Layer:
        @staticmethod
        def outer(x):
            return Layer.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    originals = (Layer.outer, Layer.inner)
    recorder = SpanRecorder()
    recorder.instance = 7
    targets = [
        (Layer, "outer", "outer", None),
        (Layer, "inner", "inner", lambda args, result: {"result": result}),
    ]
    with recorder.installed(targets):
        assert Layer.outer(3) == 7
    assert (Layer.outer, Layer.inner) == originals
    outer, inner = recorder.spans
    assert (outer.name, outer.parent, outer.instance) == ("outer", None, 7)
    assert (inner.name, inner.parent, inner.attrs) == ("inner", 0, {"result": 6})
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_paced_pass_divides_each_operation_by_the_yardsticks_around_it(monkeypatch):
    yardsticks = iter([0.002, 0.004, 0.008])
    monkeypatch.setattr(run, "pace", lambda seconds: next(yardsticks))

    class Solver:
        QmctError = RuntimeError

    def op(qmct, doc):
        return (Fraction(0), 1), None

    instances = [workloads.Instance({}, {}), workloads.Instance({}, {})]
    done = run.run_pass(Solver, op, instances, paced=True)
    assert done.complete
    assert [r.yardstick for r in done.records] == pytest.approx([0.003, 0.006])
    assert done.seconds == pytest.approx(sum(r.seconds for r in done.records))
    assert done.lengths == pytest.approx(sum(r.seconds / r.yardstick for r in done.records))


def test_pass_stops_at_the_deadline_and_reports_failures():
    class Solver:
        class QmctError(Exception):
            pass

    def op(qmct, doc):
        raise Solver.QmctError("no route")

    instances = [workloads.Instance({}, {})] * 3
    cut = run.run_pass(Solver, op, instances, deadline=0.0)
    assert (cut.records, cut.complete) == ([], False)
    done = run.run_pass(Solver, op, instances)
    assert done.complete
    assert [(r.answer, r.problem) for r in done.records] == [(None, "QmctError: no route")] * 3
