"""Benchmark for the qmct solver: one workload per run, one client, closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload random-wide --seed 1 --seconds 20 --trace 0

The workload seed fixes the instance set (see ``workloads.py``).  One
operation parses an instance document, solves it with
``pipeline.solve_quickest_mincost`` (which runs its own schedule and
routing checks) and serialises the report with its schedule; on
``oracle-crosscheck`` it follows ``qmct verify`` instead and also runs the
brute-force oracle and compares.  The next operation starts only when the
previous one has finished.  Operations cycle through the instance set in
passes until ``--seconds`` have gone by and at least one pass is complete.

The host's speed swings by a third and more over minutes (other tenants
share its cores), and every wall time swings with it.  So each timed
operation sits between two groups of runs of a *yardstick*: a fixed
pure-Python kernel that shares no code with the solver.  The declared
timing metrics are operation time divided by the mean of the two
groups' median yardsticks, in yardstick lengths; a change to the solver moves them exactly as it
moves wall time, a change in host speed mostly cancels.  ``setup_s`` is
measured the same way and scaled back to seconds by a fixed reference
yardstick time.  Raw wall times are printed too.

Every answer is then checked against a reference that does not come from
the solver (see ``reference.py``), outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes for ``--seconds``, then solves the instance
with the largest horizon search once more to record the search's
``tracemalloc`` peak, and prints the per-layer metrics (see
``layers.py``).  Spans of the traced passes are
written to ``perfbench/.work/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
operation succeeded with the reference answer, 1 when any failed, and 2
when the solver cannot be imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100
# Median yardstick on the host the benchmark was tuned on (two vCPUs of a
# shared Intel Xeon); only ``setup_s`` uses it, to be stated in seconds.
YARDSTICK_REFERENCE_S = 0.006
YARDSTICK_SHARE = 0.03


def _yardstick_data():
    rng = random.Random(1)
    arcs = [
        (rng.randrange(200), rng.randrange(200), Fraction(rng.randrange(-5, 20), rng.randrange(1, 4)))
        for _ in range(1500)
    ]
    keys = [(rng.randrange(10**6), rng.randrange(10**6)) for _ in range(10_000)]
    return arcs, keys


YARDSTICK_ARCS, YARDSTICK_KEYS = _yardstick_data()


def yardstick() -> float:
    """Seconds one run of a fixed pure-Python kernel takes (5–8 ms).

    The kernel calls nothing of qmct but does the kind of work the solver
    does: one label-correcting pass over ``Fraction`` arc costs, then a
    dict of tuple keys built and probed.  Its speed follows the host's
    the way the solver's does; a plain integer loop slows less than the
    solver when the host is busy, and cancels only part of the swing.
    """
    begin = time.perf_counter()
    labels = dict.fromkeys(range(200), Fraction(0))
    for tail, head, cost in YARDSTICK_ARCS:
        label = labels[tail] + cost
        if label < labels[head]:
            labels[head] = label
    table = {key: [i, key] for i, key in enumerate(YARDSTICK_KEYS)}
    sum(table[key][0] for key in YARDSTICK_KEYS[::3])
    return time.perf_counter() - begin


def pace(seconds: float) -> float:
    """Median yardstick of a group sized to the work it stands beside.

    The group runs yardsticks until they add up to ``YARDSTICK_SHARE`` of
    ``seconds`` (at least one), so that one interrupted yardstick cannot
    skew a long operation, while a short one costs a single yardstick.
    """
    samples = [yardstick()]
    while sum(samples) < YARDSTICK_SHARE * seconds:
        samples.append(yardstick())
    return statistics.median(samples)


def import_solver():
    """Import qmct from ``src/`` of this checkout, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import qmct

    if not Path(qmct.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qmct was imported from {qmct.__file__}, not from {SRC}")
    return qmct


@dataclass
class Record:
    """One operation: which instance, how long, what it answered.

    ``yardstick`` is the mean of the yardstick groups timed just before and
    just after the operation (0 when the pass ran without them).
    """

    index: int
    seconds: float
    yardstick: float
    answer: tuple[Fraction, int] | None
    problem: str | None

    @property
    def lengths(self) -> float:
        """Operation time in yardstick lengths."""
        return self.seconds / self.yardstick


@dataclass
class Pass:
    seconds: float
    records: list[Record]
    complete: bool

    @property
    def lengths(self) -> float:
        return sum(r.lengths for r in self.records)


# An operation returns the solver's (cost, horizon) and, when one of its
# own checks is false, what failed.


def _failed_checks(report) -> str | None:
    failed = [name for name, ok in report.checks.items() if not ok]
    return f"report checks false: {failed}" if failed else None


def solve_op(qmct, doc: dict) -> tuple[tuple[Fraction, int], str | None]:
    network = qmct.io.network_from_doc(doc)
    report = qmct.pipeline.solve_quickest_mincost(network)
    qmct.io.report_to_doc(report, include_schedule=True)
    return (report.cost, report.horizon), _failed_checks(report)


def verify_op(qmct, doc: dict) -> tuple[tuple[Fraction, int], str | None]:
    network = qmct.io.network_from_doc(doc)
    valid = qmct.pipeline.validate(network).ok
    report = qmct.pipeline.solve_quickest_mincost(network)
    oracle = qmct.pipeline.oracle_quickest_mincost(network)
    qmct.io.report_to_doc(report, include_schedule=True)
    answer = (report.cost, report.horizon)
    if not valid:
        return answer, "validation failed"
    if oracle != answer:
        return answer, f"oracle (cost, horizon) = ({oracle[0]}, {oracle[1]}) differs"
    return answer, _failed_checks(report)


def run_pass(
    qmct, op, instances, deadline: float | None = None, recorder=None, paced: bool = False
) -> Pass:
    """Solve the instances in order; stop early once ``deadline`` has passed.

    With ``paced`` a group of yardsticks (see :func:`pace`) runs before
    the first operation and after each one.  The pass's ``seconds`` count
    the operations only.
    """
    records = []
    before = pace(1.0) if paced else 0.0
    for index, instance in enumerate(instances):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if recorder is not None:
            recorder.instance = index
        begin = time.perf_counter()
        try:
            answer, problem = op(qmct, instance.doc)
        except qmct.QmctError as exc:
            answer, problem = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - begin
        after = pace(seconds) if paced else 0.0
        records.append(Record(index, seconds, (before + after) / 2, answer, problem))
        before = after
    complete = len(records) == len(instances)
    return Pass(sum(r.seconds for r in records), records, complete)


def timed_passes(qmct, op, instances, seconds: float) -> list[Pass]:
    """Passes until ``seconds`` have gone by; the first pass always completes."""
    deadline = time.perf_counter() + seconds
    passes = [run_pass(qmct, op, instances, paced=True)]
    while time.perf_counter() < deadline:
        passes.append(run_pass(qmct, op, instances, deadline, paced=True))
    return passes


def traced_passes(qmct, op, instances, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes; return their times and layer metrics."""
    import layers
    from spans import SpanRecorder

    deadline = time.perf_counter() + seconds
    untraced, traced, per_pass, records = [], [], [], []
    origin = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    with open(spans_path, "w") as out:
        while not traced or time.perf_counter() < deadline:
            plain = run_pass(qmct, op, instances)
            recorder = SpanRecorder()
            with recorder.installed(layers.TARGETS):
                begin = time.perf_counter()
                done = run_pass(qmct, op, instances, recorder=recorder)
                end = time.perf_counter()
            untraced.append(plain.seconds)
            traced.append(done.seconds)
            per_pass.append(layers.pass_metrics(recorder.spans, begin, end))
            records += plain.records + done.records
            recorder.write(out, origin)
    # One more operation measures the search's tracemalloc peak, on the
    # instance whose probes built the most expansion arcs.
    largest = layers.largest_search(recorder.spans)
    with layers.search_peak() as peaks:
        memory = run_pass(qmct, op, [instances[largest]])
    records += [replace(r, index=largest) for r in memory.records]
    metrics = layers.run_metrics(per_pass, traced, untraced, max(peaks))
    return metrics, records, len(traced)


class ReferenceCache:
    """Verified (cost, horizon) answers, keyed by a digest of the instance document."""

    def __init__(self, path: Path):
        self.path = path
        try:
            self.answers = json.loads(path.read_text())
        except (OSError, ValueError):
            self.answers = {}

    @staticmethod
    def key(doc: dict) -> str:
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    def save(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.path.write_text(json.dumps(self.answers, sort_keys=True))


def check_answers(workload: str, seed: int, instances, records: list[Record]) -> set[int]:
    """Indices of instances whose answer differs from the reference."""
    import reference

    answered: dict[int, set] = {}
    for record in records:
        if record.answer is not None:
            answered.setdefault(record.index, set()).add(record.answer)
    wrong = {index for index, answers in answered.items() if len(answers) != 1}
    if workload == "chain-horizon":
        for index, answers in answered.items():
            params = instances[index].params
            transits = workloads.chain_transits(params["phase"])
            if answers != {reference.chain_answer(params["supply"], transits)}:
                wrong.add(index)
        return wrong

    cache = ReferenceCache(WORK / f"reference-{workload}-{seed}.json")
    for index, answers in answered.items():
        if index in wrong:
            continue
        (cost, horizon), = answers
        key = ReferenceCache.key(instances[index].doc)
        if cache.answers.get(key) == [str(cost), horizon]:
            continue
        ref = reference.static_reference(instances[index].doc)
        if ref.cost == cost and reference.horizon_is_quickest(ref, horizon):
            cache.answers[key] = [str(cost), horizon]
        else:
            wrong.add(index)
    cache.save()
    return wrong


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        qmct = import_solver()
    except ImportError as exc:
        print(f"cannot import the solver: {exc}", file=sys.stderr)
        return 2
    imported = time.perf_counter()
    make = workloads.WORKLOADS[args.workload]
    op = verify_op if args.workload == "oracle-crosscheck" else solve_op

    # Set-up: the import plus instance generation and one warm-up
    # operation, several times, each between yardstick groups like a timed
    # operation.  ``setup_s`` is the median in yardstick lengths, scaled
    # back to seconds on a host whose yardstick takes the reference time.
    import_s = imported - STARTED
    setups, setup_lengths = [], []
    before = pace(1.0)
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        instances = make(args.seed)
        run_pass(qmct, op, instances[:1])
        seconds = import_s + time.perf_counter() - begin
        after = pace(seconds)
        setups.append(seconds)
        setup_lengths.append(seconds / ((before + after) / 2))
        before = after
    setup_s = statistics.median(setup_lengths) * YARDSTICK_REFERENCE_S
    # The instance set stays alive for the whole run; keep the collector
    # from rescanning it, as a process that holds one instance would not.
    gc.collect()
    gc.freeze()

    label = f"{args.workload} seed {args.seed}"
    if args.trace:
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        import layers

        metrics, records, traced_count = traced_passes(
            qmct, op, instances, args.seconds, spans_path
        )
        units = layers.UNITS
        print(f"{label}: {traced_count} traced passes; spans in {spans_path.relative_to(ROOT)}")
    else:
        passes = timed_passes(qmct, op, instances, args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        records = [r for p in passes for r in p.records]
        # Operation percentiles come from complete passes only, so that
        # every instance weighs the same whatever the partial pass reached.
        complete = [p for p in passes if p.complete]
        samples = [r for p in complete for r in p.records]
        seconds = [r.seconds for r in samples]
        metrics = {
            "batch_norm": statistics.median(p.lengths for p in complete),
            "peak_rss_mib": peak_rss_mib,
            "setup_s": setup_s,
        }
        units = {"batch_norm": "yardsticks", "peak_rss_mib": "MiB", "setup_s": "s"}
        print(f"{label}: {len(instances)} instances, {len(complete)} complete passes, {len(records)} operations")
        print(f"  yardstick_ms {1000 * statistics.median(r.yardstick for r in records):.6f} ms")
        print(f"  batch_s {statistics.median(p.seconds for p in complete):.6f} s")
        print(f"  solve_s_p50 {statistics.median(seconds):.6f} s")
        print(f"  solve_norm_p50 {statistics.median(r.lengths for r in samples):.6f} yardsticks")
        print(f"  setup_wall_s {statistics.median(setups):.6f} s")
        if len(samples) >= P90_MIN_SAMPLES:
            print(f"  solve_s_p90 {percentile(seconds, 90):.6f} s ({len(samples)} samples)")
        else:
            print(f"  solve_s_p90 not reported: {len(samples)} samples < {P90_MIN_SAMPLES}")

    wrong = check_answers(args.workload, args.seed, instances, records)
    failures: dict[int, str] = {}
    for r in records:
        if r.problem is not None:
            failures.setdefault(r.index, r.problem)
        elif r.index in wrong:
            failures.setdefault(r.index, f"answer ({r.answer[0]}, {r.answer[1]}) differs from the reference")
    failed = sum(1 for r in records if r.index in failures)
    attempted = len(records)
    print(f"  fail_frac {failed / attempted:.6f} ratio ({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"  {name} {value:.6f} {units.get(name, '')}".rstrip())
    for index, problem in sorted(failures.items()):
        print(f"instance {index} {instances[index].params}: {problem}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
