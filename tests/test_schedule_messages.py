"""Pinned violation messages of :func:`qmct.temporal.verify_schedule`.

Each case lists the exact messages a schedule on one small network
draws, sorted: wording and count are part of the contract, order is
not.  The network is ``s -> m -> t`` (transits 1 and 0, capacities 1
and 1/2) plus a direct ``s -> t`` arc of transit 2, shipping 2 units.
"""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmct.network import Network
from qmct.temporal import ArcIntervals as A
from qmct.temporal import FlowOverTime, storage_trace, verify_schedule

NET = Network.of(
    ["s", "m", "t"],
    [("s", "m", 1, 1, 2), ("m", "t", "1/2", 0, 1), ("s", "t", 3, 2, 0)],
    {"s": 2, "t": -2},
)

NOT_INT_HORIZONS = (F(4), 4.0, None, True)
NEGATIVE_HORIZONS = (-1, -2)

# name: (horizon, entries, cost, sorted violations)
CASES = {
    "clean": (4, [A(2, ((0, 2, F(1)),))], 0, []),
    "every kind": (
        3,
        [
            A(7, ((0, 1, F(1)),)),
            A(-1, ()),
            A(0, ((0, 1, F(-1)), (-1, 1, F(1)), (2, 2, F(1)), (2, 1, F(1)), (2, 3, F(1)))),
            A(1, ((0, 2, F(1)),)),
        ],
        4,
        [
            "arc 0: bad interval [-1,1)",
            "arc 0: bad interval [2,1)",
            "arc 0: bad interval [2,2)",
            "arc 0: inflow during [2,3) cannot arrive by horizon 3",
            "arc 0: negative rate -1",
            "arc 1: rate 1 exceeds capacity 1/2 during [0,1)",
            "arc 1: rate 1 exceeds capacity 1/2 during [1,2)",
            "node 'm': -2 units remain at horizon, expected 0",
            "node 'm': flow deficit -1 during [0,1)",
            "node 'm': flow deficit -2 during [1,2)",
            "node 's': 1 units remain at horizon, expected 0",
            "schedule references unknown arc -1",
            "schedule references unknown arc 7",
        ],
    ),
    "rate 1/7": (
        8,
        [A(0, ((0, 7, F(1, 7)),)), A(1, ((0, 7, F(2, 7)),))],
        4,
        [
            "node 'm': -1 units remain at horizon, expected 0",
            "node 'm': flow deficit -1 during [5,6)",
            "node 'm': flow deficit -1 during [7,8)",
            "node 'm': flow deficit -2/7 during [0,1)",
            "node 'm': flow deficit -3/7 during [1,2)",
            "node 'm': flow deficit -4/7 during [2,3)",
            "node 'm': flow deficit -5/7 during [3,4)",
            "node 'm': flow deficit -6/7 during [4,5)",
            "node 'm': flow deficit -8/7 during [6,7)",
            "node 's': 1 units remain at horizon, expected 0",
        ],
    ),
    "overlapping intervals on one arc": (
        4,
        [
            A(1, ((0, 3, F(1, 3)), (2, 4, F(1, 3)))),
            A(1, ((1, 2, F(1, 4)),)),
            A(0, ((0, 3, F(1, 2)), (0, 3, F(1, 2)))),
        ],
        F(95, 12),
        [
            "arc 1: rate 2/3 exceeds capacity 1/2 during [2,3)",
            "arc 1: rate 7/12 exceeds capacity 1/2 during [1,2)",
            "node 'm': 13/12 units remain at horizon, expected 0",
            "node 'm': flow deficit -1/3 during [0,1)",
            "node 's': -1 units remain at horizon, expected 0",
            "node 's': flow deficit -1 during [2,3)",
            "node 't': 23/12 units remain at horizon, expected 2",
        ],
    ),
    "intervals past the horizon": (
        4,
        [A(0, ((5, 9, F(1)),)), A(2, ((1, 6, F(1)),))],
        8,
        [
            "arc 0: inflow during [5,9) cannot arrive by horizon 4",
            "arc 2: inflow during [1,6) cannot arrive by horizon 4",
            "node 's': -1 units remain at horizon, expected 0",
            "node 's': flow deficit -1 during [3,4)",
            "node 't': 1 units remain at horizon, expected 2",
        ],
    ),
    "horizon 0": (
        0,
        [],
        0,
        [
            "node 's': 2 units remain at horizon, expected 0",
            "node 't': 0 units remain at horizon, expected 2",
        ],
    ),
    "horizon 0 with inflow": (
        0,
        [A(1, ((0, 1, F(1, 2)),))],
        F(1, 2),
        [
            "arc 1: inflow during [0,1) cannot arrive by horizon 0",
            "node 's': 2 units remain at horizon, expected 0",
            "node 't': 0 units remain at horizon, expected 2",
        ],
    ),
    # Only the last entry, at an int rate, is well typed; the others are
    # reported and skipped, so the schedule ships 2 units on s -> t.
    "rates and bounds of other types": (
        4,
        [
            A(
                2,
                ((0, 2, 0.5), (0, 2, "1"), (0, 2, True), (F(1, 2), 2, F(1)), (0, 2.0, 1), (0, 2, 1)),
            )
        ],
        0,
        [
            "arc 2: bad interval [0,2.0)",
            "arc 2: bad interval [1/2,2)",
            "arc 2: rate '1' is not an int or Fraction",
            "arc 2: rate 0.5 is not an int or Fraction",
            "arc 2: rate True is not an int or Fraction",
        ],
    ),
    # Only the int arc 2 ships; arcs of other types, bools too, are unknown.
    "arc indices of other types": (
        4,
        [A(a, ((0, 2, F(1)),)) for a in ("0", F(0), 0.0, None, True)] + [A(2, ((0, 2, 1),))],
        0,
        [
            "schedule references unknown arc '0'",
            "schedule references unknown arc 0.0",
            "schedule references unknown arc Fraction(0, 1)",
            "schedule references unknown arc None",
            "schedule references unknown arc True",
        ],
    ),
    "intervals that are not three values": (
        4,
        [A(2, ((0, 2), (0, 2, 1, 0), None, (), (0, 2, 1)))],
        0,
        [
            "arc 2: bad interval ()",
            "arc 2: bad interval (0, 2)",
            "arc 2: bad interval (0, 2, 1, 0)",
            "arc 2: bad interval None",
        ],
    ),
    **{
        f"horizon {h!r}": (h, [A(2, ((0, 2, 1),))], 0, [f"horizon {h!r} is not an int"])
        for h in NOT_INT_HORIZONS
    },
    **{
        f"horizon {h}": (h, [A(2, ((0, 2, 1),))], 0, [f"horizon {h} is negative"])
        for h in NEGATIVE_HORIZONS
    },
    # m is in deficit from step 0 on.  During [1,3) its inflow and
    # outflow cancel and the deficit is reported again; from step 3 no
    # flow touches m (a zero rate does not count) and it is not.
    "deficit while inflow and outflow cancel": (
        5,
        [A(1, ((0, 3, F(1, 2)), (3, 5, F(0)))), A(0, ((0, 2, F(1, 2)),))],
        F(7, 2),
        [
            "node 'm': -1/2 units remain at horizon, expected 0",
            "node 'm': flow deficit -1/2 during [0,1)",
            "node 'm': flow deficit -1/2 during [1,2)",
            "node 'm': flow deficit -1/2 during [2,3)",
            "node 's': 1 units remain at horizon, expected 0",
            "node 't': 3/2 units remain at horizon, expected 2",
        ],
    ),
}


def test_storage_trace_leaves_out_badly_typed_entries():
    _, entries, _, _ = CASES["rates and bounds of other types"]
    well_typed = [A(2, entries[0].intervals[-1:])]
    assert storage_trace(NET, FlowOverTime(4, tuple(entries))) == storage_trace(
        NET, FlowOverTime(4, tuple(well_typed))
    )


@pytest.mark.parametrize("name", list(CASES))
def test_violation_messages_are_pinned(name):
    horizon, entries, cost, expected = CASES[name]
    report = verify_schedule(NET, FlowOverTime(horizon, tuple(entries)))
    assert sorted(report.violations) == expected
    assert report.cost == cost
    assert report.ok == (not expected)


@pytest.mark.parametrize("horizon", NOT_INT_HORIZONS)
def test_storage_trace_names_a_horizon_that_is_not_an_int(horizon):
    schedule = FlowOverTime(horizon, (A(2, ((0, 2, 1),)),))
    with pytest.raises(ValueError, match=f"^horizon {re.escape(repr(horizon))} is not an int$"):
        storage_trace(NET, schedule)


@pytest.mark.parametrize("horizon", NEGATIVE_HORIZONS)
def test_storage_trace_names_a_negative_horizon(horizon):
    schedule = FlowOverTime(horizon, (A(2, ((0, 2, 1),)),))
    with pytest.raises(ValueError, match=f"^horizon {horizon} is negative$"):
        storage_trace(NET, schedule)


SCALARS = st.one_of(
    st.integers(-3, 12),
    st.booleans(),
    st.text(max_size=3),
    st.fractions(-3, 12, max_denominator=6),
    st.floats(),
    st.none(),
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4).map(tuple))


@given(
    VALUES,
    st.lists(st.builds(A, VALUES, st.lists(VALUES, max_size=4).map(tuple)), max_size=4),
)
def test_verify_schedule_reports_whatever_the_schedule_holds(horizon, entries):
    schedule = FlowOverTime(horizon, tuple(entries))
    report = verify_schedule(NET, schedule)
    assert all(isinstance(v, str) for v in report.violations)
    assert isinstance(report.cost, F)
    if type(horizon) is not int:
        assert report.violations == (f"horizon {horizon!r} is not an int",)
    elif horizon < 0:
        assert report.violations == (f"horizon {horizon} is negative",)
    else:
        storage_trace(NET, schedule)


@pytest.mark.parametrize(
    "entry, message",
    [
        ((2, ((0, 2, 1),)), "schedule entry (2, ((0, 2, 1),)) is not an ArcIntervals"),
        (None, "schedule entry None is not an ArcIntervals"),
        (A(2, None), "arc 2: bad intervals None"),
        (A(2, 5), "arc 2: bad intervals 5"),
    ],
    ids=["tuple entry", "None entry", "None intervals", "int intervals"],
)
def test_verify_schedule_reports_and_skips_an_entry_of_another_shape(entry, message):
    clean = FlowOverTime(4, (A(2, ((0, 2, F(1)),)),))
    schedule = FlowOverTime(4, (entry, *clean.arc_flows))
    report = verify_schedule(NET, schedule)
    assert report.violations == (message,)
    assert report.cost == verify_schedule(NET, clean).cost == 0
    assert storage_trace(NET, schedule) == storage_trace(NET, clean)


@pytest.mark.parametrize("arc_flows", [None, 5], ids=["None", "int"])
def test_verify_schedule_reports_arc_flows_that_are_no_tuple_or_list(arc_flows):
    schedule = FlowOverTime(3, arc_flows)
    message = f"arc_flows {arc_flows!r} is not a tuple or list"
    report = verify_schedule(NET, schedule)
    assert report.violations == (message,)
    assert report.cost == 0
    with pytest.raises(ValueError, match=f"^{message}$"):
        storage_trace(NET, schedule)


@pytest.mark.parametrize(
    "schedule",
    [None, (3, ()), {"horizon": 3, "arc_flows": ()}],
    ids=["None", "tuple", "dict"],
)
def test_verify_schedule_reports_a_schedule_that_is_no_flow_over_time(schedule):
    message = f"schedule {schedule!r} is not a FlowOverTime"
    report = verify_schedule(NET, schedule)
    assert report.violations == (message,)
    assert report.cost == 0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        storage_trace(NET, schedule)
