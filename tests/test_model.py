import datetime as dt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdrevents.model import (
    CalendarRangeError,
    CallRecord,
    CallTable,
    ContactGraph,
    DatasetCalendar,
    Direction,
    HourlyCounts,
    build_contact_graph,
    local_hours,
    parse_iso_date,
)
from helpers import IN, OUT, rec

CAL = DatasetCalendar(dt.date(2012, 1, 2), n_weeks=3)
T0 = CAL.start_epoch_seconds


def local_ts(day, hour=0, minute=0, second=0):
    return T0 + day * 86400 + hour * 3600 + minute * 60 + second


def calendar_hour(week, dow, hour):
    return week * 168 + dow * 24 + hour


def hours_in(cal, timestamps):
    """The calendar hour of an epoch timestamp, or of each one in an int64
    array, as ``HourlyCounts.calendar_hours`` places a cell's local hour."""
    return local_hours(timestamps, cal.utc_offset_minutes) - cal.first_local_hour


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
    assert hours_in(CAL, local_ts(0, 23, 59, 59)) == calendar_hour(0, 0, 23)
    assert hours_in(CAL, local_ts(1, 0, 0, 0)) == calendar_hour(0, 1, 0)
    # week rollover
    assert hours_in(CAL, local_ts(6, 23, 59, 59)) == calendar_hour(0, 6, 23)
    assert hours_in(CAL, local_ts(7, 0, 0, 0)) == calendar_hour(1, 0, 0)


def test_slot_rejects_out_of_range():
    assert not CAL.contains(T0 - 1) and hours_in(CAL, T0 - 1) == -1
    # first instant past week 2
    assert not CAL.contains(local_ts(21)) and hours_in(CAL, local_ts(21)) == CAL.n_hours
    assert CAL.contains(T0) and CAL.contains(local_ts(21) - 1)


def test_offset_shifts_slot():
    utc_midnight = dt.date(2012, 1, 2).toordinal() - dt.date(1970, 1, 1).toordinal()
    utc_midnight *= 86400
    # at UTC midnight, local (-03:00) time is still the previous day 21:00
    assert not CAL.contains(utc_midnight) and hours_in(CAL, utc_midnight) == -3
    assert CAL.contains(utc_midnight + 3 * 3600)
    assert hours_in(CAL, utc_midnight + 3 * 3600) == calendar_hour(0, 0, 0)


def test_date_round_trip():
    for week in range(CAL.n_weeks):
        for dow in range(7):
            day = CAL.epoch_start + dt.timedelta(days=7 * week + dow)
            assert CAL.slot_of_date(day) == (week, dow)
    with pytest.raises(CalendarRangeError, match=r"\(week=3, dow=0\) outside calendar"):
        CAL.window_interval(CAL.n_weeks, 0, 18, 22)
    with pytest.raises(CalendarRangeError):
        CAL.slot_of_date(CAL.epoch_start + dt.timedelta(days=7 * CAL.n_weeks))


@pytest.mark.parametrize("start,end", [(18, 18), (22, 18), (-1, 4), (20, 25)])
def test_window_interval_refuses_a_bad_hour_window(start, end):
    with pytest.raises(ValueError, match=r"bad hour window"):
        CAL.window_interval(1, 2, start, end)


def test_calendar_needs_a_whole_week():
    with pytest.raises(ValueError, match="at least one whole week"):
        DatasetCalendar(dt.date(2012, 1, 2), n_weeks=0)


def hourly_counts(utc_offset_minutes, n_calls=1):
    """HourlyCounts of ``n_calls`` calls at antenna "L1", one in each local
    hour from hour 10 since the Unix epoch."""
    return HourlyCounts(
        ("L1",), np.zeros(n_calls, np.int32), np.arange(10, 10 + n_calls, dtype=np.int64),
        np.ones(n_calls, np.int64), utc_offset_minutes,
    )


def test_hourly_counts_refuse_a_calendar_at_another_offset():
    counts = hourly_counts(-180)
    assert counts.calendar_hours(CAL).tolist() == [10 - CAL.first_local_hour]
    with pytest.raises(ValueError, match="cannot be placed"):
        counts.calendar_hours(DatasetCalendar(CAL.epoch_start, CAL.n_weeks, 0))


@pytest.mark.parametrize(
    "corpus", [[], CallTable.from_records([]), hourly_counts(-180, n_calls=0)],
    ids=["records", "table", "hourly"],
)
def test_calendar_of_an_empty_corpus_is_refused(corpus):
    with pytest.raises(ValueError, match="empty corpus"):
        DatasetCalendar.from_records(corpus)


# Python 3.11's date.fromisoformat takes the first three, 3.10's none of them
@pytest.mark.parametrize(
    "token",
    ["20120128", "2012-W04-6", "2012W041", "2012-01-28T00:00", "2012-01-28 ", "2012-1-28",
     "\u0662012-01-28", ""],
)
def test_parse_iso_date_takes_only_yyyy_mm_dd(token):
    with pytest.raises(ValueError, match="expected YYYY-MM-DD"):
        parse_iso_date(token)


def test_parse_iso_date_reads_yyyy_mm_dd():
    assert parse_iso_date("2012-01-28") == dt.date(2012, 1, 28)
    assert parse_iso_date("0001-01-01") == dt.date.min
    with pytest.raises(ValueError, match="month"):
        parse_iso_date("2012-13-01")


def test_window_interval_matches_slots():
    t_lo, t_hi = CAL.window_interval(1, 2, 18, 22)
    assert hours_in(CAL, t_lo) == calendar_hour(1, 2, 18)
    assert hours_in(CAL, t_hi - 1) == calendar_hour(1, 2, 21)
    assert t_hi - t_lo == 4 * 3600


@given(
    st.integers(-14 * 60, 14 * 60),
    st.dates(dt.date(1900, 1, 1), dt.date(2100, 1, 1)),
    st.integers(0, 3 * 7 * 86400 - 1),
)
def test_hours_count_local_hours_from_week_zero(offset, epoch_start, seconds):
    cal = DatasetCalendar(epoch_start, 3, offset)
    ts = cal.start_epoch_seconds + seconds
    local = dt.datetime.fromtimestamp(ts, dt.timezone(dt.timedelta(minutes=offset)))
    days = (local.date() - epoch_start).days
    assert hours_in(cal, ts) == days * 24 + local.hour
    assert hours_in(cal, np.array([ts], dtype=np.int64)).tolist() == [hours_in(cal, ts)]
    assert cal.contains(ts)


INT64_EXTREMES = (-(2**63), 2**63 - 1)


# a subtraction of week 0's start in seconds would wrap at the top extreme
# with week 0 before 1970, and at the bottom one after 1970
@pytest.mark.parametrize("epoch_start", [dt.date(1960, 1, 4), dt.date(2012, 1, 2)])
def test_int64_extremes_fall_outside_the_calendar(epoch_start):
    cal = DatasetCalendar(epoch_start, 3, -180)
    hours = hours_in(cal, np.array(INT64_EXTREMES, dtype=np.int64))
    assert ((hours < 0) | (hours >= cal.n_hours)).all()
    for ts in INT64_EXTREMES:
        assert not cal.contains(ts)
        assert not 0 <= hours_in(cal, ts) < cal.n_hours
    edges = (cal.start_epoch_seconds, cal.end_epoch_seconds - 1, cal.end_epoch_seconds)
    stamps = np.array(INT64_EXTREMES + edges, dtype=np.int64)
    assert cal.contains(stamps).tolist() == [False, False, True, True, False]


def corpus_forms(stamps):
    """Calls at the timestamps as the three forms ``from_records`` takes: a
    record list, its table and the table's hourly counts."""
    records = [rec("A", "B", OUT, ts) for ts in stamps]
    table = CallTable.from_records(records)
    return records, table, table.hourly(CAL.utc_offset_minutes)


def test_from_records_truncates_partial_trailing_week():
    for corpus in corpus_forms([local_ts(0), local_ts(9)]):  # spans 10 days
        cal = DatasetCalendar.from_records(corpus, CAL.utc_offset_minutes)
        assert cal.epoch_start == CAL.epoch_start
        assert cal.n_weeks == 1
        assert not cal.contains(local_ts(9))


def test_from_records_needs_a_whole_week():
    for corpus in corpus_forms([local_ts(0), local_ts(3)]):
        with pytest.raises(ValueError, match="^corpus spans less than one whole week$"):
            DatasetCalendar.from_records(corpus, CAL.utc_offset_minutes)
    # two weeks of calls, and a start pinned after the last of them
    message = "^corpus spans less than one whole week from the pinned start 2013-01-01$"
    for corpus in corpus_forms([local_ts(0), local_ts(13)]):
        with pytest.raises(ValueError, match=message):
            DatasetCalendar.from_records(
                corpus, CAL.utc_offset_minutes, epoch_start=dt.date(2013, 1, 1)
            )


def test_from_records_honors_pinned_start():
    for corpus in corpus_forms([local_ts(3), local_ts(13)]):
        cal = DatasetCalendar.from_records(
            corpus, CAL.utc_offset_minutes, epoch_start=dt.date(2012, 1, 2)
        )
        assert cal == DatasetCalendar(dt.date(2012, 1, 2), 2, CAL.utc_offset_minutes)
    # counts at UTC+00:00 cannot be placed in a calendar at the default offset
    at_utc = corpus_forms([local_ts(3), local_ts(13)])[1].hourly(0)
    with pytest.raises(ValueError, match="^hours counted at UTC offset 0 min cannot be placed"):
        DatasetCalendar.from_records(
            at_utc, CAL.utc_offset_minutes, epoch_start=dt.date(2012, 1, 2)
        )


YEAR_1_LOCAL = -62135596800 + 3 * 3600  # 0001-01-01 00:00 at -03:00


@pytest.mark.parametrize(
    "stamps", [[-(2**63), local_ts(0)], [YEAR_1_LOCAL - 1, YEAR_1_LOCAL], [2**63 - 1]]
)
def test_from_records_refuses_a_first_day_outside_the_years_1_to_9999(stamps):
    day = (min(stamps) + 60 * CAL.utc_offset_minutes) // 86400
    message = rf"^earliest local day {day} \(days since 1970-01-01\) is outside the years 1-9999$"
    for corpus in corpus_forms(stamps):
        with pytest.raises(ValueError, match=message):
            DatasetCalendar.from_records(corpus, CAL.utc_offset_minutes)


def test_from_records_starts_on_the_first_day_of_year_1():
    for corpus in corpus_forms([YEAR_1_LOCAL, YEAR_1_LOCAL + 7 * 86400]):
        cal = DatasetCalendar.from_records(corpus, CAL.utc_offset_minutes)
        assert cal.epoch_start == dt.date.min and cal.start_epoch_seconds == YEAR_1_LOCAL
