"""Per-antenna hourly activity cube, the seasonally normalized event index,
and percentile-threshold event detection.

The index divides each (antenna, week, day-of-week, hour) call count by the
mean count of the same (day-of-week, hour) slot across every week of the
dataset, including the current one; a value of 1 means typical traffic.
Slots whose across-week total is zero have no meaningful baseline and carry
an undefined index (NaN in the grid, None through ``values``), which is
excluded from thresholding and can never be flagged.

Both the cube and the index are dense grids of shape
(n_antennas, n_weeks, 168): row i belongs to the i-th antenna and column
``dow * 24 + hour`` to that hour of the week.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .model import DAYS_PER_WEEK, HOURS_PER_DAY
from .model import HOURS_PER_WEEK as SLOTS_PER_WEEK
from .model import CalendarRangeError, CallRecord, CallTable, DatasetCalendar, HourlyCounts

# (antenna, week, day-of-week, hour)
SlotKey = tuple[str, int, int, int]


class SilentAntennaError(ValueError):
    """An antenna has no defined index values at all (zero traffic)."""


class _GridView(Mapping):
    """Read-only SlotKey mapping over an (antenna, week, 168) grid, keys in
    grid order.  A sparse view lists only the non-zero cells; a dense view
    lists every cell and reads NaN as None.

    ``cells`` is the grid itself, or a SlotKey mapping that is densified
    once (absent keys read as zero, or as NaN in a dense view).
    """

    def __init__(self, cells, antennas: tuple[str, ...], n_weeks: int, sparse: bool):
        self._antennas, self._sparse = antennas, sparse
        self._rows = {a: i for i, a in enumerate(antennas)}
        self.grid = cells
        if not isinstance(cells, np.ndarray):
            shape = (len(antennas), n_weeks, SLOTS_PER_WEEK)
            self.grid = np.full(shape, 0 if sparse else np.nan)
            for key, value in cells.items():
                self.grid[self.index(key)] = np.nan if value is None else value
        self.grid.flags.writeable = False
        self._len = int(np.count_nonzero(self.grid)) if sparse else self.grid.size

    def row(self, antenna: str) -> np.ndarray:
        """The (n_weeks, 168) grid of one antenna."""
        if antenna not in self._rows:
            raise KeyError(f"unknown antenna {antenna!r}")
        return self.grid[self._rows[antenna]]

    def index(self, key: SlotKey) -> tuple[int, int, int]:
        antenna, week, dow, hour = key
        if not (
            antenna in self._rows
            and 0 <= week < self.grid.shape[1]
            and 0 <= dow < DAYS_PER_WEEK
            and 0 <= hour < HOURS_PER_DAY
        ):
            raise KeyError(key)
        return self._rows[antenna], week, dow * HOURS_PER_DAY + hour

    def __getitem__(self, key: SlotKey) -> float | None:
        value = self.grid.item(self.index(key))
        if not self._sparse:
            return None if value != value else value
        if not value:
            raise KeyError(key)
        return value

    def __iter__(self) -> Iterator[SlotKey]:
        if not self._sparse:
            weeks = range(self.grid.shape[1])
            days, hours = range(DAYS_PER_WEEK), range(HOURS_PER_DAY)
            yield from itertools.product(self._antennas, weeks, days, hours)
            return
        for row, week, slot in np.argwhere(self.grid).tolist():
            yield self._antennas[row], week, *divmod(slot, HOURS_PER_DAY)

    def __len__(self) -> int:
        return self._len


class ActivityCube:
    """Per-antenna hourly call counts.

    ``counts`` is a SlotKey mapping (absent keys mean zero) or an int64
    (n_antennas, n_weeks, 168) array whose rows follow ``sorted(antennas)``.
    ``grid`` holds the array; ``counts`` becomes a view of its non-zero cells.
    """

    def __init__(
        self,
        counts: Mapping[SlotKey, int] | np.ndarray,
        calendar: DatasetCalendar,
        antennas: Iterable[str],
    ) -> None:
        self.calendar = calendar
        self.antennas = frozenset(antennas)
        rows = tuple(sorted(self.antennas))
        self.counts = _GridView(counts, rows, calendar.n_weeks, sparse=True)
        self.grid = self.counts.grid


def aggregate(
    records: Sequence[CallRecord] | HourlyCounts, calendar: DatasetCalendar
) -> ActivityCube:
    """Count located calls per (antenna, week, day-of-week, hour) slot.

    ``records`` is ``HourlyCounts`` at the calendar's UTC offset, or a record
    sequence, first folded into them (``CallTable.hourly``).  The cube's
    antennas are those of the calls.  Every call must fall inside the
    calendar; an out-of-range one raises CalendarRangeError, as it means a
    misconfigured calendar.  A grid too large to index raises MemoryError.
    """
    if not isinstance(records, HourlyCounts):
        records = CallTable.from_records(records).hourly(calendar.utc_offset_minutes)
    used = np.flatnonzero(np.bincount(records.antenna, minlength=len(records.antennas)))
    n_hours = calendar.n_hours
    n_cells = len(used) * n_hours
    if n_cells > np.iinfo(np.intp).max // 8:  # beyond any address space
        raise MemoryError(f"an activity grid of {n_cells} cells cannot be allocated")
    hours = records.calendar_hours(calendar)
    out_of_range = (hours < 0) | (hours >= n_hours)
    if out_of_range.any():
        raise CalendarRangeError(
            f"a call at calendar hour {int(hours[out_of_range][0])} is outside the calendar "
            f"starting {calendar.epoch_start} ({calendar.n_weeks} weeks)"
        )
    # codes follow string order, so the used codes, in order, are the grid's rows
    first_cell_of_codes = np.zeros(len(records.antennas), dtype=np.int64)
    first_cell_of_codes[used] = np.arange(len(used)) * n_hours
    hours += first_cell_of_codes[records.antenna]
    grid = np.zeros(n_cells, dtype=np.int64)
    np.add.at(grid, hours, records.count)
    grid = grid.reshape(len(used), calendar.n_weeks, SLOTS_PER_WEEK)
    return ActivityCube(grid, calendar, [records.antennas[code] for code in used.tolist()])


class EventIndexSeries:
    """Normalized index per slot for every antenna.

    ``values`` is a SlotKey mapping (absent keys are undefined) or a float64
    (n_antennas, n_weeks, 168) array whose rows follow ``antennas``, NaN
    marking slots whose (day-of-week, hour) family never saw a call.
    ``grid`` holds the array; ``values`` becomes a view of every cell, NaN
    read as None.
    """

    def __init__(
        self,
        values: Mapping[SlotKey, float | None] | np.ndarray,
        n_weeks: int,
        antennas: Sequence[str],
    ) -> None:
        self.n_weeks = n_weeks
        self.antennas = tuple(antennas)
        self.values = _GridView(values, self.antennas, n_weeks, sparse=False)
        self.grid = self.values.grid

    def value(self, antenna: str, week: int, dow: int, hour: int) -> float | None:
        return self.values[(antenna, week, dow, hour)]

    def silent_antennas(self) -> list[str]:
        """Antennas with no defined values anywhere (nothing to threshold)."""
        silent = np.isnan(self.grid).all(axis=(1, 2))
        return [a for a, quiet in zip(self.antennas, silent.tolist()) if quiet]


def event_index(cube: ActivityCube) -> EventIndexSeries:
    """Compute the normalized index for every slot of every antenna.

    For each (antenna, day-of-week, hour) family the baseline is the mean
    count over all weeks, current week included, so the largest attainable
    value is the number of weeks.  Each value is computed as a single
    division count*n_weeks/total, which keeps the result invariant under
    scaling all counts by a common factor.  Both operands are integers below
    2**53, so the float64 quotient is the correctly rounded one Python's
    int/int gives.
    """
    counts = cube.grid
    total = counts.sum(axis=1, keepdims=True)
    # one float64 grid, divided in place; integers below 2**53 convert exactly
    index = np.multiply(counts, cube.calendar.n_weeks, dtype=np.float64)
    np.divide(index, total, out=index, where=total != 0)
    np.copyto(index, np.nan, where=total == 0)
    return EventIndexSeries(index, cube.calendar.n_weeks, sorted(cube.antennas))


def _rank(p: float, n: int) -> int:
    """Nearest rank ceil(p*n), at least 1, for a percentile p in (0, 1].

    Computed exactly on the integer ratio of p so that the number of values
    strictly above the rank-th smallest never exceeds floor((1-p)*n),
    whatever float p is passed.
    """
    if not 0 < p <= 1:
        raise ValueError(f"percentile must be in (0, 1], got {p}")
    numerator, denominator = p.as_integer_ratio()
    return max(-(-numerator * n // denominator), 1)


def percentile_threshold(values: np.ndarray, p: float) -> float:
    """Nearest-rank percentile: the ceil(p*N)-th smallest defined value.

    ``values`` is a float array, NaN marking an undefined entry.  Undefined
    entries are excluded first; an empty defined set raises
    SilentAntennaError.
    """
    defined = values[~np.isnan(values)]
    k = _rank(p, defined.size) - 1
    if not defined.size:
        raise SilentAntennaError("no defined values to take a percentile of")
    return float(np.partition(defined, k)[k])


@dataclass(frozen=True)
class DetectedEvent:
    """A contiguous run of flagged hours at one antenna on one calendar day."""

    antenna: str
    week: int
    dow: int
    start_hour: int
    end_hour: int  # exclusive
    peak_index: float
    slots: tuple[SlotKey, ...]


def detect_events(series: EventIndexSeries, p: float = 0.99) -> list[DetectedEvent]:
    """Flag slots whose index strictly exceeds the per-antenna percentile
    threshold and merge runs of adjacent hours on the same day.

    The threshold is computed per antenna over its whole defined series, so
    antennas with very different traffic volumes are judged against their own
    history.  Antennas with no defined values are skipped (see
    EventIndexSeries.silent_antennas for the list).
    """
    n_antennas = len(series.antennas)
    grid = series.grid.reshape(n_antennas, series.n_weeks, DAYS_PER_WEEK, HOURS_PER_DAY)
    thresholds = np.full((n_antennas, 1, 1, 1), np.nan)  # NaN flags nothing
    for i, row in enumerate(grid):
        if not np.isnan(row).all():
            thresholds[i] = percentile_threshold(row, p)
    flagged = grid > thresholds

    events: list[DetectedEvent] = []
    for i, week, dow in np.argwhere(flagged.any(axis=3)).tolist():
        antenna, values, hour = series.antennas[i], grid[i, week, dow].tolist(), 0
        for on, run in itertools.groupby(flagged[i, week, dow].tolist()):
            end = hour + len(list(run))
            if on:
                slots = tuple((antenna, week, dow, h) for h in range(hour, end))
                peak = max(values[hour:end])
                events.append(DetectedEvent(antenna, week, dow, hour, end, peak, slots))
            hour = end
    events.sort(key=lambda e: (e.antenna, e.week, e.dow, e.start_hour))
    return events
