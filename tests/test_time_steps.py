"""Rational transits read in steps of ``1/time_scale``, against scaled transits.

Every time expansion, bound and schedule check reads a transit ``τ`` as
``τ·time_scale`` steps of :attr:`qmct.network.Network.integral`.  The
reference, :func:`_brute.scale_transits`, builds a second network whose
transits are those step counts.  On the end-to-end golden's 200
generated instances, whose transits are divided by 2, 3 or 4, both must
give the same expansions, quickest horizons and schedules, schedule
verdicts, storage traces, upper bounds and minimum costs over time.
"""

from dataclasses import replace

from _brute import scale_transits
from conftest import golden_instances
from qmct.errors import InfeasibleError
from qmct.network import Network
from qmct.oracle import horizon_upper_bound
from qmct.pipeline import solve_quickest_mincost
from qmct.temporal import (
    FlowOverTime,
    expand,
    mincost_over_time,
    quickest_transshipment,
    storage_trace,
    verify_schedule,
)


def _quickest(network: Network):
    try:
        result = quickest_transshipment(network)
    except InfeasibleError as exc:
        return str(exc), exc.certificate
    return result.horizon, result.schedule


def _replays_alike(net: Network, scaled: Network, schedule: FlowOverTime) -> None:
    report, reference = verify_schedule(net, schedule), verify_schedule(scaled, schedule)
    assert sorted(report.violations) == sorted(reference.violations)
    assert report.cost == reference.cost
    assert storage_trace(net, schedule) == storage_trace(scaled, schedule)


def test_steps_of_the_time_scale_match_scaled_transits():
    instances = golden_instances()[3:]
    assert len(instances) == 200
    rational = checked = 0
    for net in instances:
        scaled, scale = scale_transits(net)
        assert scale == net.integral.time_scale
        rational += scale > 1

        bound = horizon_upper_bound(net)
        assert bound == horizon_upper_bound(scaled)
        assert replace(net.integral, time_scale=1) == scaled.integral
        for horizon in range(bound + 1):
            assert expand(net, horizon) == expand(scaled, horizon)

        quickest = _quickest(net)
        assert quickest == _quickest(scaled), net
        at_bound = mincost_over_time(net, bound)
        assert at_bound == mincost_over_time(scaled, bound)

        schedules = [at_bound.schedule, solve_quickest_mincost(net).schedule]
        if isinstance(quickest[1], FlowOverTime):
            schedules.append(quickest[1])
        for schedule in schedules:
            _replays_alike(net, scaled, schedule)
            # One step short, so that late arrivals and leftovers are reported too.
            if schedule.horizon:
                _replays_alike(net, scaled, replace(schedule, horizon=schedule.horizon - 1))
        checked += 1
    assert checked == 200
    assert rational >= 180, rational
