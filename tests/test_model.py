import datetime as dt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdrevents.model import (
    CalendarRangeError,
    CallRecord,
    ContactGraph,
    DatasetCalendar,
    Direction,
    build_contact_graph,
)
from helpers import IN, OUT, rec

CAL = DatasetCalendar(dt.date(2012, 1, 2), n_weeks=3)
T0 = CAL.start_epoch_seconds


def local_ts(day, hour=0, minute=0, second=0):
    return T0 + day * 86400 + hour * 3600 + minute * 60 + second


# --- records --------------------------------------------------------------


def test_record_rejects_self_call():
    with pytest.raises(ValueError, match="self-call"):
        rec("A", "A", OUT, 5)


def test_record_rejects_empty_fields():
    with pytest.raises(ValueError):
        CallRecord("", "B", OUT, 5, "L1")
    with pytest.raises(ValueError):
        CallRecord("A", "B", OUT, 5, "")


def test_record_rejects_bad_direction():
    with pytest.raises(ValueError):
        CallRecord("A", "B", "out", 5, "L1")


# --- contact graph --------------------------------------------------------


def test_empty_records_empty_graph():
    graph = build_contact_graph([])
    assert graph.n_nodes == 0 and graph.n_edges == 0


def test_repeat_calls_collapse_to_one_edge():
    records = [rec("A", "B", OUT, 1), rec("A", "B", IN, 2), rec("A", "B", OUT, 3)]
    graph = build_contact_graph(records)
    assert graph.nodes == {"A", "B"}
    assert graph.edges == {("A", "B")}


def test_four_user_graph_by_hand():
    # pairs co-occurring on records: A-B, B-C, A-C (via located C), B-D
    records = [
        rec("A", "B", OUT, 1),
        rec("B", "C", OUT, 2),
        rec("C", "A", IN, 3),
        rec("D", "B", IN, 4),
    ]
    graph = build_contact_graph(records)
    assert graph.n_nodes == 4
    assert graph.edges == {("A", "B"), ("B", "C"), ("A", "C"), ("B", "D")}


def test_graph_rejects_self_loop_and_foreign_endpoint():
    with pytest.raises(ValueError):
        ContactGraph({"A"}, [("A", "A")])
    with pytest.raises(ValueError):
        ContactGraph({"A"}, [("A", "B")])


def test_neighbors_of_unknown_user_is_empty():
    graph = build_contact_graph([rec("A", "B", OUT, 1)])
    assert graph.neighbors("Z") == frozenset()


# --- properties ------------------------------------------------------------

users = st.sampled_from("ABCDEF")
directions = st.sampled_from([OUT, IN])


@st.composite
def records_strategy(draw, max_ts=7 * 86400):
    u = draw(users)
    v = draw(users.filter(lambda x: x != u))
    return rec(
        u, v, draw(directions), draw(st.integers(0, max_ts)),
        draw(st.sampled_from(["L1", "L2"])),
    )


@given(st.lists(records_strategy(), max_size=40), st.randoms())
def test_graph_build_is_order_insensitive(records, rnd):
    shuffled = records[:]
    rnd.shuffle(shuffled)
    a = build_contact_graph(records, clients={"A"})
    b = build_contact_graph(shuffled, clients={"A"})
    assert a.nodes == b.nodes and a.edges == b.edges


@given(st.lists(records_strategy(), max_size=40))
def test_edges_bounded_by_distinct_pairs(records):
    graph = build_contact_graph(records)
    pairs = {tuple(sorted((r.located_user, r.other_party))) for r in records}
    assert graph.edges == pairs  # one edge per distinct co-occurring pair


# --- calendar --------------------------------------------------------------


def test_slot_maps_day_boundaries():
    assert CAL.slot(local_ts(0, 23, 59, 59)) == (0, 0, 23)
    assert CAL.slot(local_ts(1, 0, 0, 0)) == (0, 1, 0)
    # week rollover
    assert CAL.slot(local_ts(6, 23, 59, 59)) == (0, 6, 23)
    assert CAL.slot(local_ts(7, 0, 0, 0)) == (1, 0, 0)


def test_slot_rejects_out_of_range():
    with pytest.raises(CalendarRangeError):
        CAL.slot(T0 - 1)
    with pytest.raises(CalendarRangeError):
        CAL.slot(local_ts(21))  # first instant past week 2


def test_offset_shifts_slot():
    utc_midnight = dt.date(2012, 1, 2).toordinal() - dt.date(1970, 1, 1).toordinal()
    utc_midnight *= 86400
    # at UTC midnight, local (-03:00) time is still the previous day 21:00
    with pytest.raises(CalendarRangeError):
        CAL.slot(utc_midnight)
    assert CAL.slot(utc_midnight + 3 * 3600) == (0, 0, 0)


def test_date_round_trip():
    for week in range(CAL.n_weeks):
        for dow in range(7):
            assert CAL.slot_of_date(CAL.date_of(week, dow)) == (week, dow)
    with pytest.raises(CalendarRangeError):
        CAL.date_of(CAL.n_weeks, 0)


def test_window_interval_matches_slots():
    t_lo, t_hi = CAL.window_interval(1, 2, 18, 22)
    assert CAL.slot(t_lo) == (1, 2, 18)
    assert CAL.slot(t_hi - 1) == (1, 2, 21)
    assert t_hi - t_lo == 4 * 3600


def test_from_records_truncates_partial_trailing_week():
    records = [rec("A", "B", OUT, local_ts(d)) for d in (0, 9)]  # spans 10 days
    cal = DatasetCalendar.from_records(records, CAL.utc_offset_minutes)
    assert cal.epoch_start == CAL.epoch_start
    assert cal.n_weeks == 1
    assert not cal.contains(local_ts(9))


def test_from_records_needs_a_whole_week():
    records = [rec("A", "B", OUT, local_ts(0)), rec("A", "B", OUT, local_ts(3))]
    with pytest.raises(ValueError):
        DatasetCalendar.from_records(records, CAL.utc_offset_minutes)


def test_from_records_honors_pinned_start():
    records = [rec("A", "B", OUT, local_ts(d)) for d in (3, 13)]
    cal = DatasetCalendar.from_records(
        records, CAL.utc_offset_minutes, epoch_start=dt.date(2012, 1, 2)
    )
    assert cal.epoch_start == dt.date(2012, 1, 2)
    assert cal.n_weeks == 2
