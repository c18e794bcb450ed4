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
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import (
    DAYS_PER_WEEK,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    CalendarRangeError,
    CallRecord,
    CallTable,
    DatasetCalendar,
)

HOURS_PER_DAY = 24
SLOTS_PER_WEEK = DAYS_PER_WEEK * HOURS_PER_DAY

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

    def count(self, antenna: str, week: int, dow: int, hour: int) -> int:
        return self.counts.get((antenna, week, dow, hour), 0)

    @property
    def total(self) -> int:
        return int(self.grid.sum())


def aggregate(
    records: Sequence[CallRecord],
    calendar: DatasetCalendar,
    extra_antennas: Iterable[str] = (),
) -> ActivityCube:
    """Count located records per (antenna, week, day-of-week, hour) slot.

    Every record must fall inside the calendar; an out-of-range timestamp
    raises CalendarRangeError since it indicates a misconfigured calendar.
    ``extra_antennas`` adds antennas known to exist even if no record ever
    used them (they stay all-zero and are later reported as silent).  A grid
    too large to index raises MemoryError.
    """
    table = CallTable.from_records(records)
    used = np.flatnonzero(np.bincount(table.antenna, minlength=len(table.antennas)))
    names = [table.antennas[code] for code in used.tolist()]
    antennas = set(names).union(extra_antennas)
    row_of = {a: i for i, a in enumerate(sorted(antennas))}
    slots_total = calendar.n_weeks * SLOTS_PER_WEEK
    first_cell_of_codes = np.zeros(len(table.antennas), dtype=np.int64)
    first_cell_of_codes[used] = [row_of[name] * slots_total for name in names]
    # one column rewritten in place: local time, hour of the day, grid cell
    flat = table.timestamp + calendar.utc_offset_minutes * 60
    day = flat // SECONDS_PER_DAY
    day -= calendar._start_day
    out_of_range = (day < 0) | (day >= calendar.n_weeks * DAYS_PER_WEEK)
    if out_of_range.any():
        bad = int(table.timestamp[out_of_range][0])
        raise CalendarRangeError(
            f"record timestamp {bad} outside calendar starting "
            f"{calendar.epoch_start} ({calendar.n_weeks} weeks)"
        )
    cells = len(row_of) * slots_total
    if cells > np.iinfo(np.intp).max // 8:  # beyond any address space
        raise MemoryError(f"an activity grid of {cells} cells cannot be allocated")
    flat %= SECONDS_PER_DAY
    flat //= SECONDS_PER_HOUR
    day *= HOURS_PER_DAY
    flat += day  # hour slot within the calendar
    del day
    flat += first_cell_of_codes[table.antenna]
    binned = np.bincount(flat, minlength=cells)
    grid = binned.reshape(len(row_of), calendar.n_weeks, SLOTS_PER_WEEK)
    return ActivityCube(grid, calendar, antennas)


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

    def defined_values(self, antenna: str) -> list[float]:
        """All defined index values of one antenna over the whole period."""
        row = self.values.row(antenna)
        return row[~np.isnan(row)].tolist()

    def antenna_rows(self, antenna: str) -> Iterator[tuple[int, int, int, float | None]]:
        """(week, dow, hour, value) rows for one antenna, in calendar order."""
        for week, slots in enumerate(self.values.row(antenna).tolist()):
            for slot, value in enumerate(slots):
                dow, hour = divmod(slot, HOURS_PER_DAY)
                yield week, dow, hour, None if value != value else value

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
    index = np.divide(
        counts * cube.calendar.n_weeks,
        total,
        out=np.full(counts.shape, np.nan),
        where=total != 0,
    )
    return EventIndexSeries(index, cube.calendar.n_weeks, sorted(cube.antennas))


def _rank(p: float, n: int) -> int:
    """Nearest rank ceil(p*n), at least 1, for a percentile p in (0, 1].

    Computed in exact rational arithmetic so that the number of values
    strictly above the rank-th smallest never exceeds floor((1-p)*n),
    whatever float p is passed.
    """
    if not 0 < p <= 1:
        raise ValueError(f"percentile must be in (0, 1], got {p}")
    return max(math.ceil(Fraction(p) * n), 1)


def percentile_threshold(values: Iterable[float | None], p: float) -> float:
    """Nearest-rank percentile: the ceil(p*N)-th smallest defined value.

    Undefined entries (None) are excluded first; an empty defined set raises
    SilentAntennaError.
    """
    defined = sorted(v for v in values if v is not None)
    rank = _rank(p, len(defined))
    if not defined:
        raise SilentAntennaError("no defined values to take a percentile of")
    return defined[rank - 1]


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
        defined = row[~np.isnan(row)]
        if defined.size:
            k = _rank(p, defined.size) - 1
            thresholds[i] = np.partition(defined, k)[k]
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
