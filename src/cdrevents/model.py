"""Core domain types: call records and the columnar table that holds a
corpus of them, the contact graph, and the dataset calendar that maps
timestamps to (week, day, hour) slots."""

from __future__ import annotations

import bisect
import datetime as dt
import itertools
import operator
import re
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

SECONDS_PER_HOUR = 3_600
SECONDS_PER_DAY = 86_400
HOURS_PER_DAY = 24
DAYS_PER_WEEK = 7
HOURS_PER_WEEK = DAYS_PER_WEEK * HOURS_PER_DAY
# real UTC offsets run from -12:00 to +14:00
MAX_UTC_OFFSET_MINUTES = 14 * 60

_UNIX_EPOCH = dt.date(1970, 1, 1)


def local_hours(timestamps, utc_offset_minutes: int):
    """Local hours since the Unix epoch, ``(t + offset) // 3600``, of an epoch
    timestamp or of each one in an int64 array.  The offset is added to the
    remainder of the division, so no int64 timestamp overflows."""
    hours, seconds = divmod(timestamps, SECONDS_PER_HOUR)
    seconds += utc_offset_minutes * 60
    seconds //= SECONDS_PER_HOUR
    hours += seconds
    return hours


def parse_iso_date(token: str) -> dt.date:
    """A ``YYYY-MM-DD`` date in ASCII digits.  ``dt.date.fromisoformat``
    alone takes other ISO 8601 forms on Python 3.11 and later."""
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", token):
        raise ValueError(f"bad date {token!r}, expected YYYY-MM-DD")
    return dt.date.fromisoformat(token)


class Direction(Enum):
    """Call direction from the located user's perspective."""

    OUTGOING = "out"
    INCOMING = "in"


class _CallRecordFields(NamedTuple):
    located_user: str
    other_party: str
    direction: Direction
    timestamp: int
    antenna: str


class CallRecord(_CallRecordFields):
    """One located call leg.

    The antenna always belongs to ``located_user``; whether that user placed
    or received the call is carried by ``direction``.  Timestamps are epoch
    seconds (UTC).  A tuple subclass rather than a dataclass: corpora run to
    millions of records and construction cost dominates generation and
    parsing.
    """

    __slots__ = ()

    def __new__(
        cls,
        located_user: str,
        other_party: str,
        direction: Direction,
        timestamp: int,
        antenna: str,
    ) -> "CallRecord":
        if located_user == other_party:
            raise ValueError(f"self-call: {located_user!r}")
        if not located_user or not other_party or not antenna:
            raise ValueError("empty identifier in call record")
        if not isinstance(direction, Direction):
            raise ValueError(f"bad direction: {direction!r}")
        return super().__new__(
            cls, located_user, other_party, direction, timestamp, antenna
        )


_DIRECTION_OF = (Direction.INCOMING, Direction.OUTGOING)  # indexed by outgoing
_ITER_CHUNK = 65_536


@dataclass(frozen=True, eq=False)
class CallTable(Sequence):
    """A corpus of located call legs held as columns.

    Row i is the record ``(users[located[i]], users[other[i]], OUTGOING if
    outgoing[i] else INCOMING, timestamp[i], antennas[antenna[i]])``.  Both
    vocabularies are sorted, so code order is string order; they may hold
    identifiers no row uses (a sub-table keeps its parent's).  The columns
    are read-only.  The parse, the generator and ``from_records`` each
    build their table through ``_Columns.table``.

    The table is a read-only ``Sequence[CallRecord]``: records are built on
    access, ``==`` compares it with any record sequence, and indexing with a
    slice or a bool mask gives a sub-table.
    """

    timestamp: np.ndarray  # int64 epoch seconds
    located: np.ndarray  # int32 codes into users
    other: np.ndarray  # int32 codes into users
    outgoing: np.ndarray  # bool
    antenna: np.ndarray  # int32 codes into antennas
    users: tuple[str, ...]
    antennas: tuple[str, ...]

    def __post_init__(self) -> None:
        for column in (self.timestamp, self.located, self.other, self.outgoing, self.antenna):
            column.flags.writeable = False

    @classmethod
    def from_records(cls, records: Iterable[CallRecord]) -> "CallTable":
        """Encode records (already validated by CallRecord) as a table."""
        if isinstance(records, CallTable):
            return records
        if not isinstance(records, Sequence):
            records = list(records)
        n = len(records)
        field = operator.itemgetter
        users, antennas = _Vocabulary(), _Vocabulary()
        outgoing = map(operator.is_, map(field(2), records), itertools.repeat(Direction.OUTGOING))
        columns = _Columns()
        columns.add(
            np.fromiter(map(field(3), records), np.int64, n),
            users.codes(list(map(field(0), records))),
            users.codes(list(map(field(1), records))),
            np.fromiter(outgoing, bool, n),
            antennas.codes(list(map(field(4), records))),
        )
        return columns.table(list(users), list(antennas))

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            return CallRecord._make((
                self.users[self.located[i]],
                self.users[self.other[i]],
                _DIRECTION_OF[int(self.outgoing[i])],
                int(self.timestamp[i]),
                self.antennas[self.antenna[i]],
            ))
        return CallTable(
            self.timestamp[key],
            self.located[key],
            self.other[key],
            self.outgoing[key],
            self.antenna[key],
            self.users,
            self.antennas,
        )

    def __iter__(self) -> Iterator[CallRecord]:
        users, antennas = self.users.__getitem__, self.antennas.__getitem__
        for start in range(0, len(self), _ITER_CHUNK):
            rows = slice(start, start + _ITER_CHUNK)
            yield from map(CallRecord._make, zip(
                map(users, self.located[rows].tolist()),
                map(users, self.other[rows].tolist()),
                map(_DIRECTION_OF.__getitem__, self.outgoing[rows].tolist()),
                self.timestamp[rows].tolist(),
                map(antennas, self.antenna[rows].tolist()),
            ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"CallTable({len(self)} records, {len(self.users)} users, "
            f"{len(self.antennas)} antennas)"
        )

    def touching(self, users: Iterable[str]) -> "CallTable":
        """Sub-table of the records with one of ``users`` on either side."""
        codes = []
        for name in users:
            i = bisect.bisect_left(self.users, name)
            if i < len(self.users) and self.users[i] == name:
                codes.append(i)
        codes = np.array(codes, dtype=np.int32)
        return self[np.isin(self.located, codes) | np.isin(self.other, codes)]

    def within(self, calendar: "DatasetCalendar") -> "CallTable":
        """Sub-table of the records inside the calendar's weeks."""
        return self[calendar.contains(self.timestamp)]

    def hourly(self, utc_offset_minutes: int) -> "HourlyCounts":
        """The table's calls per (antenna, local hour) at the offset, folded
        in one pass, in the table's antenna vocabulary."""
        cells = _fold(self.antenna, local_hours(self.timestamp, utc_offset_minutes), 1)
        return HourlyCounts(self.antennas, *cells, utc_offset_minutes)


def _joined(pieces: list[np.ndarray]) -> np.ndarray:
    """The pieces concatenated; the list is emptied, so that they are freed."""
    joined = np.concatenate(pieces)
    pieces.clear()
    return joined


class _Vocabulary(dict):
    """Identifiers (``str`` or ``bytes``), each mapped to its code: the
    number of identifiers added before it, so the keys are in code order."""

    def codes(self, names: list) -> np.ndarray:
        """The int32 codes of ``names``, adding those not held yet."""
        return np.fromiter((self.setdefault(name, len(self)) for name in names), np.int32, len(names))


def _ranks(names: list) -> tuple[np.ndarray, tuple]:
    """The int32 rank of each name in string order, and the sorted names.
    The names are sorted as a numpy object array, which makes no Python int
    per name, as ``sorted(range(n), key=...)`` does."""
    names = np.array(names, dtype=object)
    order = names.argsort(kind="stable")
    names = tuple(names[order])
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return rank, names


class _Columns:
    """The five columns of a ``CallTable`` in pieces, added a batch of rows
    at a time, with codes that index vocabularies in any order."""

    def __init__(self) -> None:
        # an empty piece of each column's dtype, so that no rows still give
        # a table of the right dtypes
        self.pieces: tuple[list[np.ndarray], ...] = tuple(
            [np.empty(0, dtype)] for dtype in (np.int64, np.int32, np.int32, bool, np.int32)
        )

    def add(self, timestamp, located, other, outgoing, antenna) -> None:
        """Add a batch: int64 timestamps, int32 codes into the users and
        into the antennas, and bools (``antenna`` may be a broadcast view)."""
        for pieces, piece in zip(self.pieces, (timestamp, located, other, outgoing, antenna)):
            pieces.append(piece)

    def table(self, users: list[str], antennas: list[str], by_time: bool = False) -> CallTable:
        """The rows as a table, the codes recoded by the rank of their names
        in ``users`` and ``antennas``, which are sorted once; with
        ``by_time``, the rows are ordered stably by timestamp.  Each column
        is joined, ordered and recoded before the next, and its pieces and
        each copy are freed once read, so that one column at a time is held
        twice."""
        timestamp = _joined(self.pieces[0])
        order = np.argsort(timestamp, kind="stable") if by_time else slice(None)
        timestamp = timestamp[order]
        # ranked only now, when less is held than while the timestamps were
        # ordered, so that the sort's temporaries stay below that peak
        user_rank, users = _ranks(users)
        antenna_rank, antennas = _ranks(antennas)
        located = user_rank[_joined(self.pieces[1])[order]]
        other = user_rank[_joined(self.pieces[2])[order]]
        outgoing = _joined(self.pieces[3])[order]
        antenna = antenna_rank[_joined(self.pieces[4])[order]]
        return CallTable(timestamp, located, other, outgoing, antenna, users, antennas)


def _fold(
    codes: np.ndarray, hours: np.ndarray, counts: np.ndarray | int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (code, hour) pairs of some cells, ordered by code and
    hour, each with the sum of its cells' ``counts`` (an int64 array, or 1
    for every cell).  The pairs are binned when the codes times the hour
    span are at most four times the cells, and sorted otherwise.  Each
    input is dropped once read, so a caller that passes its only reference
    frees it early."""
    n = len(codes)
    if not n:
        return codes, hours, np.zeros(0, dtype=np.int64)
    low = int(hours.min())
    span = int(hours.max()) - low + 1
    n_bins = (int(codes.max()) + 1) * span
    if n_bins <= 4 * n:
        key = codes.astype(np.int64)
        key *= span
        key += hours
        key -= low
        del codes, hours
        binned = np.zeros(n_bins, dtype=np.int64)
        np.add.at(binned, key, counts)
        del key, counts
        hours = np.flatnonzero(binned != 0)  # faster than on int64
        counts = binned[hours]
        del binned
        codes = (hours // span).astype(np.int32)
        hours %= span
        hours += low
        return codes, hours, counts
    order = np.lexsort((hours, codes))
    codes, hours, counts = codes[order], hours[order], np.broadcast_to(counts, n)[order]
    del order
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    new[1:] |= hours[1:] != hours[:-1]
    firsts = np.flatnonzero(new)
    return codes[firsts], hours[firsts], np.add.reduceat(counts, firsts)


@dataclass(frozen=True, eq=False)
class HourlyCounts:
    """A corpus held as its calls per (antenna, local hour), all that event
    detection reads of it.

    Cell i holds ``count[i]`` calls at ``antennas[antenna[i]]`` in local hour
    ``hour[i]`` since the Unix epoch (see ``local_hours``) at
    ``utc_offset_minutes``.  Cells are distinct, non-zero and ordered by
    antenna and hour; the vocabulary is sorted and may hold antennas no cell
    uses.  The length is the number of calls.  The columns are read-only.

    The calendar and the activity cube read only this form.  The hourly parse
    and ``CallTable.hourly`` build it, both folding calls with ``_fold``.
    """

    antennas: tuple[str, ...]
    antenna: np.ndarray  # int32 codes into antennas
    hour: np.ndarray  # int64 local hours since the Unix epoch
    count: np.ndarray  # int64 calls, at least 1
    utc_offset_minutes: int

    def __post_init__(self) -> None:
        for column in (self.antenna, self.hour, self.count):
            column.flags.writeable = False

    def __len__(self) -> int:
        return int(self.count.sum())

    def calendar_hours(self, calendar: "DatasetCalendar") -> np.ndarray:
        """The calendar hour ``week * 168 + dow * 24 + hour`` of each cell:
        negative or at least ``calendar.n_hours`` outside the calendar."""
        if calendar.utc_offset_minutes != self.utc_offset_minutes:
            raise ValueError(
                f"hours counted at UTC offset {self.utc_offset_minutes} min cannot be placed "
                f"in a calendar at {calendar.utc_offset_minutes} min"
            )
        return self.hour - calendar.first_local_hour

    def within(self, calendar: "DatasetCalendar") -> "HourlyCounts":
        """The cells inside the calendar's weeks."""
        hours = self.calendar_hours(calendar)
        inside = (hours >= 0) & (hours < calendar.n_hours)
        return replace(
            self, antenna=self.antenna[inside], hour=self.hour[inside], count=self.count[inside]
        )


class ContactGraph:
    """Simple undirected graph linking every pair of users that ever
    communicated.  ``clients`` is accepted but not stored.  Only the
    adjacency is stored; ``edges`` is derived from it.

    Immutable after construction; safe to share across workers.
    """

    __slots__ = ("_nodes", "_adj")

    def __init__(
        self,
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str]],
        clients: Iterable[str] = (),
    ) -> None:
        node_set = frozenset(nodes)
        adj: dict[str, set[str]] = defaultdict(set)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge endpoint not in nodes: ({u!r}, {v!r})")
            adj[u].add(v)
            adj[v].add(u)
        self._nodes = node_set
        self._adj = {u: frozenset(vs) for u, vs in adj.items()}

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """Edges as canonical (lexicographically sorted) pairs."""
        return frozenset((u, v) for u, vs in self._adj.items() for v in vs if u < v)

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def neighbors(self, user: str) -> frozenset[str]:
        """Contacts of ``user``; empty for unknown users."""
        return self._adj.get(user, frozenset())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ContactGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


def build_contact_graph(
    records: Iterable[CallRecord], clients: Iterable[str] = ()
) -> ContactGraph:
    """Build the contact graph of every user pair that co-occurs on a record.

    One undirected edge per communicating pair, regardless of how many calls
    they exchanged or who called whom.  ``clients`` is accepted but not
    used: every user on a record is a node, client or not.
    """
    table = CallTable.from_records(records)
    n_users = len(table.users)
    # codes follow string order, so (min, max) is the canonical pair; the
    # pairs are deduplicated by sorting, as np.unique's first call costs an
    # import of numpy.ma
    pairs = np.minimum(table.located, table.other).astype(np.int64) * n_users
    pairs += np.maximum(table.located, table.other)
    pairs.sort()
    low, high = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], n_users)
    low, high = low.tolist(), high.tolist()
    users = table.users
    nodes = [users[i] for i in set(low).union(high)]
    edges = zip(map(users.__getitem__, low), map(users.__getitem__, high))
    return ContactGraph(nodes, edges)


class CalendarRangeError(ValueError):
    """A timestamp or date falls outside the calendar's configured weeks."""


@dataclass(frozen=True)
class DatasetCalendar:
    """Fixed-offset local calendar that tiles the dataset into whole weeks.

    Week 0 starts at local midnight of ``epoch_start`` and weeks are 7-day
    blocks from there, so day-of-week 0 is whatever weekday ``epoch_start``
    falls on.  The UTC offset is applied only when mapping an epoch timestamp
    to a (week, day-of-week, hour) slot; timestamps themselves stay in epoch
    seconds.
    """

    epoch_start: dt.date
    n_weeks: int
    utc_offset_minutes: int = -180

    def __post_init__(self) -> None:
        if self.n_weeks < 1:
            raise ValueError("calendar needs at least one whole week")

    @property
    def n_hours(self) -> int:
        return self.n_weeks * HOURS_PER_WEEK

    @property
    def start_epoch_seconds(self) -> int:
        """First instant of week 0, as an epoch timestamp."""
        return (self.epoch_start - _UNIX_EPOCH).days * SECONDS_PER_DAY - self.utc_offset_minutes * 60

    @property
    def first_local_hour(self) -> int:
        """First hour of week 0, in local hours since the Unix epoch."""
        return (self.epoch_start - _UNIX_EPOCH).days * HOURS_PER_DAY

    @property
    def end_epoch_seconds(self) -> int:
        """First instant after the last week (exclusive bound)."""
        return self.start_epoch_seconds + self.n_hours * SECONDS_PER_HOUR

    def contains(self, timestamps):
        """Whether an epoch timestamp, or each one in an int64 array, falls
        inside the calendar's weeks."""
        return (timestamps >= self.start_epoch_seconds) & (timestamps < self.end_epoch_seconds)

    def slot_of_date(self, day: dt.date) -> tuple[int, int]:
        """(week, day-of-week) of a local calendar date."""
        days = day.toordinal() - self.epoch_start.toordinal()
        if not 0 <= days < self.n_weeks * DAYS_PER_WEEK:
            raise CalendarRangeError(f"date {day} outside calendar")
        return days // DAYS_PER_WEEK, days % DAYS_PER_WEEK

    def window_interval(
        self, week: int, dow: int, start_hour: int, end_hour: int
    ) -> tuple[int, int]:
        """Epoch-second interval [t_lo, t_hi) of local hours [start, end) on
        the given day."""
        if not (0 <= start_hour < end_hour <= 24):
            raise ValueError(f"bad hour window [{start_hour}, {end_hour})")
        if not (0 <= week < self.n_weeks and 0 <= dow < DAYS_PER_WEEK):
            raise CalendarRangeError(f"(week={week}, dow={dow}) outside calendar")
        day = week * HOURS_PER_WEEK + dow * HOURS_PER_DAY
        return (
            self.start_epoch_seconds + (day + start_hour) * SECONDS_PER_HOUR,
            self.start_epoch_seconds + (day + end_hour) * SECONDS_PER_HOUR,
        )

    @classmethod
    def from_records(
        cls,
        records: Sequence[CallRecord] | HourlyCounts,
        utc_offset_minutes: int = -180,
        epoch_start: dt.date | None = None,
    ) -> "DatasetCalendar":
        """Derive a calendar from a corpus's ``HourlyCounts``, folding a
        record sequence into them first (``CallTable.hourly``).

        Anchors week 0 at the local date of the earliest cell unless
        ``epoch_start`` is given, and truncates any trailing partial week so
        every (day-of-week, hour) slot is observed the same number of times.
        Records in the truncated tail fall outside the calendar; callers that
        aggregate must filter them out first (``within``).  Counts at another
        UTC offset are refused (``HourlyCounts.calendar_hours``).
        """
        if not isinstance(records, HourlyCounts):
            records = CallTable.from_records(records).hourly(utc_offset_minutes)
        if not len(records.hour):
            raise ValueError("cannot derive a calendar from an empty corpus")
        pinned = "" if epoch_start is None else f" from the pinned start {epoch_start}"
        if epoch_start is None:
            day = int(records.hour.min()) // HOURS_PER_DAY
            ordinal = _UNIX_EPOCH.toordinal() + day
            if not 1 <= ordinal <= dt.date.max.toordinal():
                raise ValueError(
                    f"earliest local day {day} (days since 1970-01-01) is outside the years 1-9999"
                )
            epoch_start = dt.date.fromordinal(ordinal)
        last = int(records.calendar_hours(cls(epoch_start, 1, utc_offset_minutes)).max())
        n_weeks = (last // HOURS_PER_DAY + 1) // DAYS_PER_WEEK
        if n_weeks < 1:
            raise ValueError(f"corpus spans less than one whole week{pinned}")
        return cls(epoch_start, n_weeks, utc_offset_minutes)
