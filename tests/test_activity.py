import datetime as dt
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrevents.activity import (
    ActivityCube,
    EventIndexSeries,
    SilentAntennaError,
    aggregate,
    detect_events,
    event_index,
    _rank,
    percentile_threshold,
)
from cdrevents.model import CalendarRangeError, CallTable, DatasetCalendar
from helpers import OUT, detection_oracle, index_oracle, rec

CAL = DatasetCalendar(dt.date(2012, 1, 2), n_weeks=3)
T0 = CAL.start_epoch_seconds


def local_ts(day, hour=0, minute=0, second=0):
    return T0 + day * 86400 + hour * 3600 + minute * 60 + second


def cube_of(counts, n_weeks=3, antennas=None, offset=-180):
    cal = DatasetCalendar(dt.date(2012, 1, 2), n_weeks, offset)
    if antennas is None:
        antennas = {key[0] for key in counts}
    return ActivityCube(counts, cal, frozenset(antennas))


# --- aggregation -----------------------------------------------------------


def test_empty_records_give_zero_cube():
    cube = aggregate([], CAL)
    assert cube.counts == {} and cube.grid.sum() == 0


def test_counts_per_slot():
    records = [
        rec("A", "B", OUT, local_ts(1, 10, m)) for m in (0, 20, 59)
    ] + [rec("A", "B", OUT, local_ts(1, 11), antenna="L2")]
    cube = aggregate(records, CAL)
    assert cube.counts.get(("L1", 0, 1, 10), 0) == 3
    assert cube.counts.get(("L2", 0, 1, 11), 0) == 1
    assert cube.grid.sum() == len(records)
    assert cube.antennas == {"L1", "L2"}


def test_midnight_boundary_with_utc_offset():
    records = [
        rec("A", "B", OUT, local_ts(0, 23, 59, 59)),
        rec("A", "B", OUT, local_ts(1, 0, 0, 0)),
    ]
    cube = aggregate(records, CAL)
    assert cube.counts.get(("L1", 0, 0, 23), 0) == 1
    assert cube.counts.get(("L1", 0, 1, 0), 0) == 1


def test_out_of_range_record_is_fatal():
    with pytest.raises(CalendarRangeError):
        aggregate([rec("A", "B", OUT, T0 - 1)], CAL)
    with pytest.raises(CalendarRangeError):
        aggregate([rec("A", "B", OUT, CAL.end_epoch_seconds)], CAL)


@pytest.mark.parametrize("epoch_start", [dt.date(1960, 1, 4), dt.date(2012, 1, 2)])
@pytest.mark.parametrize("timestamp", [-(2**63), 2**63 - 1])
def test_int64_extreme_record_is_out_of_range(epoch_start, timestamp):
    with pytest.raises(CalendarRangeError):
        aggregate([rec("A", "B", OUT, timestamp)], DatasetCalendar(epoch_start, 3))


def test_grid_beyond_any_address_space_is_a_memory_error():
    # 10**16 weeks of one antenna: the cell count alone overflows a byte offset
    calendar = DatasetCalendar(dt.date(2012, 1, 2), n_weeks=10**16)
    with pytest.raises(MemoryError, match="cannot be allocated"):
        aggregate([rec("A", "B", OUT, calendar.start_epoch_seconds)], calendar)


def test_extra_antennas_join_the_universe():
    # a cube built with an antenna that has no records lists it, at zero
    cube = aggregate([rec("A", "B", OUT, T0)], CAL)
    wider = ActivityCube(cube.counts, CAL, {"L1", "L9"})
    assert wider.antennas == {"L1", "L9"}
    assert wider.counts.get(("L9", 0, 0, 0), 0) == 0
    assert wider.counts.get(("L1", 0, 0, 0), 0) == cube.counts.get(("L1", 0, 0, 0), 0) == 1


def test_sub_table_aggregates_like_its_records():
    # a sub-table keeps its parent's antenna vocabulary: with every row of
    # the first, a middle and the last code masked away, the codes left in
    # use are not 0..n-1, and each must still find its own grid row
    records = [
        rec("A", "B", OUT, local_ts(i % 21, i % 24), antenna=f"L{i % 5}") for i in range(200)
    ]
    table = CallTable.from_records(records)
    sub = table[~np.isin(table.antenna, [0, 2, 4])]
    got, expected = aggregate(sub, CAL), aggregate(list(sub), CAL)
    assert got.antennas == expected.antennas == {"L1", "L3"}
    assert dict(got.counts) == dict(expected.counts)
    assert np.array_equal(got.grid, expected.grid)


# --- event index -----------------------------------------------------------


def test_constant_counts_index_exactly_one():
    counts = {("L1", week, 2, 10): 10 for week in range(4)}
    series = event_index(cube_of(counts, n_weeks=4))
    for week in range(4):
        assert series.value("L1", week, 2, 10) == 1.0


def test_index_hand_computed():
    counts = {("L1", week, 0, 9): c for week, c in enumerate([5, 10, 15])}
    series = event_index(cube_of(counts))
    assert series.value("L1", 0, 0, 9) == 0.5
    assert series.value("L1", 1, 0, 9) == 1.0
    assert series.value("L1", 2, 0, 9) == 1.5


def test_zero_baseline_slots_are_undefined():
    series = event_index(cube_of({("L1", 0, 0, 0): 1}))
    assert series.value("L1", 0, 3, 12) is None
    assert series.value("L1", 1, 3, 12) is None
    # the only populated family is defined
    assert series.value("L1", 0, 0, 0) == 3.0
    assert series.value("L1", 1, 0, 0) == 0.0


def test_missing_weeks_count_as_zero():
    counts = {("L1", 0, 1, 1): 6}  # weeks 1 and 2 silent in this family
    series = event_index(cube_of(counts))
    assert series.value("L1", 0, 1, 1) == 3.0
    assert series.value("L1", 1, 1, 1) == 0.0


def test_index_matches_exact_oracle_on_random_cube():
    rng = random.Random(42)
    counts = {}
    for _ in range(60):
        key = (
            f"A{rng.randint(0, 3)}",
            rng.randrange(3),
            rng.randrange(7),
            rng.randrange(24),
        )
        counts[key] = rng.randint(0, 50)
    cube = cube_of(counts)
    series = event_index(cube)
    expected = index_oracle(counts, cube.antennas, 3)
    for key, exact in expected.items():
        got = series.values[key]
        if exact is None:
            assert got is None
        else:
            assert got == pytest.approx(float(exact), abs=1e-12)


def test_index_row_of_an_unknown_antenna_is_a_key_error():
    series = event_index(aggregate([rec("A", "B", OUT, T0)], CAL))
    assert series.values.row("L1").shape == (CAL.n_weeks, 168)
    with pytest.raises(KeyError, match="unknown antenna 'L9'"):
        series.values.row("L9")


def test_silent_antenna_listed():
    cube = aggregate([rec("A", "B", OUT, T0)], CAL)
    series = event_index(ActivityCube(cube.counts, CAL, {"L1", "L9"}))
    assert series.silent_antennas() == ["L9"]


# --- percentile ------------------------------------------------------------


def nan_array(values):
    """The float array form of ``values``: NaN where the iterable has None."""
    return np.array([np.nan if v is None else v for v in values], dtype=float)


def threshold(values, p):
    """percentile_threshold of ``values``, None read as NaN."""
    return percentile_threshold(nan_array(values), p)


def test_nearest_rank_on_1_to_100():
    assert threshold(range(1, 101), 0.99) == 99


def test_single_value_any_percentile():
    assert threshold([7.0], 0.5) == 7.0
    assert threshold([7.0], 1.0) == 7.0


def test_constant_values():
    assert threshold([2.0, 2.0, 2.0], 0.99) == 2.0


def test_rank_uses_exact_arithmetic():
    # float 0.99 is just below 99/100, so the rank is 99, not 100
    assert threshold(range(1, 101), 0.99) == 99
    assert threshold(range(1, 11), 0.5) == 5


def test_fractional_rank_rounds_up():
    assert threshold(range(1, 101), 0.995) == 100


@settings(max_examples=500, deadline=None)
@given(
    st.floats(0, 1, exclude_min=True, allow_subnormal=True),
    st.integers(0, 10**9),
)
@example(0.99, 100)
@example(0.99, 10**9)
@example(0.995, 200)
@example(0.995, 10**9)
@example(1.0, 0)
@example(1.0, 10**9)
@example(5e-324, 1)
@example(5e-324, 10**9)
@example(1 - 2**-53, 10**9)
@example(1 - 2**-53, 1)
def test_rank_is_the_exact_ceiling(p, n):
    assert _rank(p, n) == max(math.ceil(Fraction(p) * n), 1)


def test_undefined_entries_excluded():
    assert threshold([None, 3.0, None, 1.0], 1.0) == 3.0


def test_empty_defined_set_raises():
    with pytest.raises(SilentAntennaError):
        threshold([None, None], 0.99)


def test_percentile_bounds_validated():
    with pytest.raises(ValueError):
        threshold([1.0], 0.0)
    with pytest.raises(ValueError):
        threshold([1.0], 1.2)


# --- detection -------------------------------------------------------------


def dense_series(spikes, n_weeks=6, antenna="L1", base=1.0):
    """Series with every slot defined at ``base`` except given spikes."""
    values = {}
    for week in range(n_weeks):
        for dow in range(7):
            for hour in range(24):
                values[(antenna, week, dow, hour)] = base
    values.update({(antenna, *slot): v for slot, v in spikes.items()})
    return EventIndexSeries(values, n_weeks, (antenna,))


def test_constant_series_never_fires():
    events = detect_events(dense_series({}), 0.99)
    assert events == []


def test_exactly_the_ten_spikes_fire():
    rng = random.Random(7)
    values = {}
    for week in range(6):
        for dow in range(7):
            for hour in range(24):
                values[("L1", week, dow, hour)] = 1.0 + rng.random() * 0.01
    spike_slots = [(1, 2, h) for h in range(10, 14)] + [
        (3, 5, 8), (3, 5, 9), (0, 0, 0), (2, 6, 23), (4, 1, 12), (5, 3, 17),
    ]
    for slot in spike_slots:
        values[("L1", *slot)] = 9.0
    series = EventIndexSeries(values, 6, ("L1",))
    events = detect_events(series, 0.99)
    flagged = {slot for ev in events for slot in ev.slots}
    assert flagged == {("L1", *slot) for slot in spike_slots}
    # the four contiguous hours merged into one event
    merged = [ev for ev in events if (ev.week, ev.dow) == (1, 2)]
    assert len(merged) == 1
    assert (merged[0].start_hour, merged[0].end_hour) == (10, 14)
    assert merged[0].peak_index == 9.0


def test_adjacent_days_do_not_merge():
    series = dense_series({(1, 2, 23): 9.0, (1, 3, 0): 9.0})
    events = detect_events(series, 0.99)
    assert len(events) == 2
    assert [(ev.dow, ev.start_hour, ev.end_hour) for ev in events] == [
        (2, 23, 24),
        (3, 0, 1),
    ]


def test_planted_multiplier_spike_flagged():
    # 13 weeks at 100 calls; one week jumps to 1000
    counts = {}
    for week in range(13):
        for dow in range(7):
            for hour in range(24):
                counts[("L1", week, dow, hour)] = 100
    counts[("L1", 6, 2, 20)] = 1000
    series = event_index(cube_of(counts, n_weeks=13))
    spike = series.value("L1", 6, 2, 20)
    assert spike == pytest.approx(float(Fraction(1000 * 13, 2200)), abs=1e-12)
    events = detect_events(series, 0.99)
    assert len(events) == 1
    assert events[0].slots == (("L1", 6, 2, 20),)
    assert events[0].peak_index == spike


def test_events_sorted_and_deterministic():
    spikes = {(5, 3, 17): 9.0, (0, 0, 1): 8.0, (2, 6, 23): 7.5}
    series = dense_series(spikes)
    events = detect_events(series, 0.99)
    keys = [(ev.antenna, ev.week, ev.dow, ev.start_hour) for ev in events]
    assert keys == sorted(keys)
    assert detect_events(series, 0.99) == events


def test_silent_antennas_skipped_without_error():
    values = {("L1", 0, 0, 0): 2.0}
    series = EventIndexSeries(
        {**dense_series({}).values, **values,
         **{("L9", w, d, h): None for w in range(6) for d in range(7) for h in range(24)}},
        6,
        ("L1", "L9"),
    )
    events = detect_events(series, 0.99)
    assert all(ev.antenna == "L1" for ev in events)
    assert series.silent_antennas() == ["L9"]


# --- grid views ---------------------------------------------------------------


def test_values_view_lists_every_cell_in_calendar_order():
    counts = {("L2", 1, 3, 5): 4, ("L1", 0, 0, 0): 2}
    series = event_index(cube_of(counts, n_weeks=2))
    keys = list(series.values)
    assert len(series.values) == len(keys) == 2 * 2 * 168
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert keys[:2] == [("L1", 0, 0, 0), ("L1", 0, 0, 1)]
    assert keys[-1] == ("L2", 1, 6, 23)
    assert series.values[("L2", 1, 3, 5)] == 2.0
    assert series.values[("L2", 0, 3, 5)] == 0.0
    assert series.values[("L1", 1, 3, 5)] is None
    for key in [("L9", 0, 0, 0), ("L1", 2, 0, 0), ("L1", -1, 0, 0), ("L1", 0, 7, 0),
                ("L1", 0, 0, 24)]:
        assert key not in series.values
        with pytest.raises(KeyError):
            series.values[key]


def test_counts_view_lists_only_nonzero_cells():
    counts = {("L2", 1, 3, 5): 4, ("L1", 0, 0, 0): 2, ("L1", 1, 0, 0): 0}
    cube = cube_of(counts, n_weeks=2)
    assert len(cube.counts) == 2
    assert list(cube.counts) == [("L1", 0, 0, 0), ("L2", 1, 3, 5)]
    assert cube.counts == {("L1", 0, 0, 0): 2, ("L2", 1, 3, 5): 4}
    assert cube.counts.get(("L1", 1, 0, 0), 0) == 0 and cube.counts.get(("L9", 0, 0, 0), 0) == 0
    with pytest.raises(KeyError):
        cube.counts[("L1", 1, 0, 0)]


# --- detection against the brute-force oracle --------------------------------

# runs touching both ends of a day, ties at the threshold, a silent antenna
EDGE_RUNS = {
    **{("A0", 0, 2, h): 3 for h in (0, 22, 23)},
    **{("A0", 1, 2, h): 1 for h in (0, 1, 22, 23)},
    ("A0", 0, 2, 1): 4,
    ("A0", 0, 2, 5): 2,
    ("A0", 1, 2, 5): 2,
}


@st.composite
def corpus_counts(draw):
    n_weeks = draw(st.integers(1, 3))
    hours = st.one_of(st.sampled_from([0, 1, 22, 23]), st.integers(0, 23))
    slot = st.tuples(
        st.sampled_from(["A0", "A1", "A2"]),
        st.integers(0, n_weeks - 1),
        st.integers(0, 6),
        hours,
    )
    counts = draw(st.dictionaries(slot, st.integers(1, 4), max_size=40))
    extra = draw(st.lists(st.sampled_from(["A0", "S1", "S2"]), max_size=2))
    return n_weeks, counts, extra


@given(corpus_counts(), st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
@example((1, {}, []), 1.0)
@example((2, EDGE_RUNS, ["S1"]), 0.6)
@settings(max_examples=150)
def test_detection_matches_brute_force_oracle(case, p):
    n_weeks, counts, extra = case
    cal = DatasetCalendar(dt.date(2012, 1, 2), n_weeks)
    records = [
        rec("A", "B", OUT, cal.start_epoch_seconds + ((w * 7 + d) * 24 + h) * 3600 + i,
            antenna=a)
        for (a, w, d, h), c in counts.items()
        for i in range(c)
    ]
    antennas = {key[0] for key in counts} | set(extra)
    cube = ActivityCube(aggregate(records, cal).counts, cal, antennas)
    events = detect_events(event_index(cube), p)
    exact = index_oracle(counts, antennas, n_weeks)
    expected = detection_oracle(exact, antennas, n_weeks, p)
    got = [(e.antenna, e.week, e.dow, e.start_hour, e.end_hour, e.peak_index)
           for e in events]
    assert got == [(*e[:5], float(e[5])) for e in expected]
    for e in events:
        hours = range(e.start_hour, e.end_hour)
        assert e.slots == tuple((e.antenna, e.week, e.dow, h) for h in hours)


def test_edge_runs_example_flags_both_ends_of_the_day():
    cal = DatasetCalendar(dt.date(2012, 1, 2), 2)
    events = detect_events(event_index(ActivityCube(EDGE_RUNS, cal, {"A0", "S1"})), 0.6)
    assert [(e.start_hour, e.end_hour, e.peak_index) for e in events] == [
        (0, 2, 1.6),
        (22, 24, 1.5),
    ]


# --- invariant properties ---------------------------------------------------

slot_counts = st.dictionaries(
    st.tuples(
        st.sampled_from(["A0", "A1"]),
        st.integers(0, 2),
        st.integers(0, 6),
        st.integers(0, 23),
    ),
    st.integers(0, 1000),
    max_size=30,
)


@given(slot_counts, st.integers(2, 9))
@settings(max_examples=60)
def test_scale_invariance_is_bit_exact(counts, factor):
    base = event_index(cube_of(counts))
    scaled = event_index(cube_of({k: v * factor for k, v in counts.items()}))
    assert scaled.values == base.values


@given(slot_counts)
@settings(max_examples=60)
def test_mean_of_defined_index_is_one(counts):
    series = event_index(cube_of(counts))
    for (antenna, _, dow, hour), value in series.values.items():
        if value is None:
            continue
        family = [series.value(antenna, w, dow, hour) for w in range(3)]
        assert sum(family) / 3 == pytest.approx(1.0, abs=1e-12)


@given(slot_counts, st.floats(0.5, 1.0, exclude_min=True))
@settings(max_examples=60)
def test_flag_count_bounded(counts, p):
    series = event_index(cube_of(counts))
    events = detect_events(series, p)
    per_antenna: dict[str, int] = {}
    for ev in events:
        per_antenna[ev.antenna] = per_antenna.get(ev.antenna, 0) + len(ev.slots)
    for antenna, flagged in per_antenna.items():
        defined = int((~np.isnan(series.grid[series.antennas.index(antenna)])).sum())
        assert flagged <= math.floor((1 - Fraction(p)) * defined)
