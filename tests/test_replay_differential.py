"""The prefix-sum schedule simulator against the unit-step reference.

:func:`qmct.temporal.verify_schedule` and :func:`qmct.temporal.storage_trace`
must agree with :func:`_brute.step_replay` on the verdict, the cost, the
storage trace and the violations (compared sorted: their order is not
part of the contract).  The schedules are the ones both solver modes
return for the end-to-end golden's instances and the acceptance suite,
and mutations of them that break every rule a schedule can break.
"""

import random
from fractions import Fraction

import pytest

from _brute import step_replay
from conftest import acceptance_suite, golden_instances
from qmct.errors import QmctError
from qmct.network import Network
from qmct.pipeline import solve_quickest, solve_quickest_mincost
from qmct.temporal import (
    ArcIntervals,
    FlowOverTime,
    ScheduleVerification,
    storage_trace,
    verify_schedule,
)

MUTANTS_PER_SCHEDULE = 2


def _solved_schedules():
    for net in [*golden_instances(), *acceptance_suite()]:
        for solver in (solve_quickest_mincost, solve_quickest):
            try:
                yield net, solver(net).schedule
            except QmctError:
                continue


def _assert_same(network: Network, schedule: FlowOverTime) -> None:
    try:
        violations, cost, trace = step_replay(network, schedule)
    except ValueError as bad_horizon:
        assert verify_schedule(network, schedule) == ScheduleVerification((str(bad_horizon),), 0)
        with pytest.raises(ValueError, match=f"^{bad_horizon}$"):
            storage_trace(network, schedule)
        return
    report = verify_schedule(network, schedule)
    assert sorted(report.violations) == sorted(violations), schedule
    assert report.ok == (not violations)
    assert report.cost == cost
    assert storage_trace(network, schedule) == {v: tuple(x) for v, x in trace.items()}


def _rate(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 9), rng.choice([1, 2, 3, 7]))


def _mutate(rng: random.Random, network: Network, schedule: FlowOverTime) -> FlowOverTime:
    """Scale rates by rationals, shift, overlap, empty and negate
    intervals, add intervals on random and unknown arcs, and move the
    horizon by up to two steps either way."""
    m = len(network.arcs)
    entries = []
    for entry in schedule.arc_flows:
        intervals = []
        for start, end, rate in entry.intervals:
            kind = rng.randrange(6)
            if kind == 0:
                rate *= _rate(rng)
            elif kind == 1:
                shift = rng.randint(-2, 2)
                start, end = start + shift, end + shift
            elif kind == 2:
                intervals.append((start + rng.randint(-1, 1), end + rng.randint(0, 2), _rate(rng)))
            elif kind == 3:  # reversed or empty
                start, end = end, rng.choice([start, end])
            elif kind == 4:
                rate = -rate
            intervals.append((start, end, rate))
        entries.append(ArcIntervals(entry.arc, tuple(intervals)))
    for _ in range(rng.randint(0, 3)):
        start = rng.randint(0, schedule.horizon + 2)
        interval = (start, start + rng.randint(1, 4), _rate(rng))
        arc = rng.choice([rng.randrange(m)] * 3 + [m, -1]) if m else m
        entries.insert(rng.randint(0, len(entries)), ArcIntervals(arc, (interval,)))
    return FlowOverTime(schedule.horizon + rng.randint(-2, 2), tuple(entries))


def test_solver_schedules_replay_alike():
    count = 0
    for network, schedule in _solved_schedules():
        _assert_same(network, schedule)
        count += 1
    assert count == 806


def test_mutated_schedules_replay_alike():
    rng = random.Random(8)
    count = 0
    for network, schedule in _solved_schedules():
        for _ in range(MUTANTS_PER_SCHEDULE):
            _assert_same(network, _mutate(rng, network, schedule))
            count += 1
    assert count == 1612
