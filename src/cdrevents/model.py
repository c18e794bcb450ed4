"""Core domain types: call records and the columnar table that holds a
corpus of them, the contact graph, and the dataset calendar that maps
timestamps to (week, day, hour) slots."""

from __future__ import annotations

import bisect
import datetime as dt
import itertools
import operator
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

SECONDS_PER_HOUR = 3_600
SECONDS_PER_DAY = 86_400
DAYS_PER_WEEK = 7

_UNIX_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


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


def _vocabulary_codes(vocabulary: Sequence[str], names: Iterable[str]) -> np.ndarray:
    """Codes of the ``names`` found in a sorted vocabulary; others are skipped."""
    codes = []
    for name in names:
        i = bisect.bisect_left(vocabulary, name)
        if i < len(vocabulary) and vocabulary[i] == name:
            codes.append(i)
    return np.array(codes, dtype=np.int32)


@dataclass(frozen=True, eq=False)
class CallTable(Sequence):
    """A corpus of located call legs held as columns.

    Row i is the record ``(users[located[i]], users[other[i]], OUTGOING if
    outgoing[i] else INCOMING, timestamp[i], antennas[antenna[i]])``.  Both
    vocabularies are sorted, so code order is string order; they may hold
    identifiers no row uses (a sub-table keeps its parent's).  The columns
    are read-only.

    The table is a read-only ``Sequence[CallRecord]``: records are built on
    access, ``==`` compares it with any record sequence, and indexing with a
    slice or a bool mask gives a sub-table.  A table made ``without_users``
    has only its timestamps, directions and antennas, and reading a record
    of it raises IndexError.
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
        users = sorted(set(map(field(0), records)).union(map(field(1), records)))
        antennas = sorted(set(map(field(4), records)))

        def codes(vocabulary: list[str], column: int) -> np.ndarray:
            code_of = {name: i for i, name in enumerate(vocabulary)}.__getitem__
            return np.fromiter(map(code_of, map(field(column), records)), np.int32, n)

        outgoing = map(operator.is_, map(field(2), records), itertools.repeat(Direction.OUTGOING))
        return cls(
            np.fromiter(map(field(3), records), np.int64, n),
            codes(users, 0),
            codes(users, 1),
            np.fromiter(outgoing, bool, n),
            codes(antennas, 4),
            tuple(users),
            tuple(antennas),
        )

    @classmethod
    def without_users(
        cls, timestamp: np.ndarray, outgoing: np.ndarray, antenna: np.ndarray,
        antennas: tuple[str, ...],
    ) -> "CallTable":
        """A table whose users were not read: ``users`` is empty and both user
        columns are a broadcast zero, which holds no per-row memory and stays
        one in sub-tables."""
        no_users = np.broadcast_to(np.int32(0), timestamp.shape)
        return cls(timestamp, no_users, no_users, outgoing, antenna, (), antennas)

    def _check_records(self) -> None:
        if len(self) and not self.users:
            raise IndexError("a table read without users holds no records")

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            self._check_records()
            return CallRecord._make((
                self.users[self.located[i]],
                self.users[self.other[i]],
                _DIRECTION_OF[int(self.outgoing[i])],
                int(self.timestamp[i]),
                self.antennas[self.antenna[i]],
            ))
        if not self.users:
            return CallTable.without_users(
                self.timestamp[key], self.outgoing[key], self.antenna[key], self.antennas
            )
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
        self._check_records()
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

    def antenna_code(self, antenna: str) -> int | None:
        """Code of ``antenna`` in the vocabulary, None if it is absent."""
        codes = _vocabulary_codes(self.antennas, [antenna])
        return int(codes[0]) if codes.size else None

    def touching(self, users: Iterable[str]) -> "CallTable":
        """Sub-table of the records with one of ``users`` on either side."""
        codes = _vocabulary_codes(self.users, users)
        return self[np.isin(self.located, codes) | np.isin(self.other, codes)]


class ContactGraph:
    """Simple undirected graph linking every pair of users that ever
    communicated.  ``clients`` is accepted but not stored.

    Immutable after construction; safe to share across workers.
    """

    __slots__ = ("_nodes", "_adj", "_edges")

    def __init__(
        self,
        nodes: Iterable[str],
        edges: Iterable[tuple[str, str]],
        clients: Iterable[str] = (),
    ) -> None:
        node_set = frozenset(nodes)
        adj: dict[str, set[str]] = defaultdict(set)
        edge_set: set[tuple[str, str]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge endpoint not in nodes: ({u!r}, {v!r})")
            pair = (u, v) if u <= v else (v, u)
            edge_set.add(pair)
            adj[pair[0]].add(pair[1])
            adj[pair[1]].add(pair[0])
        self._nodes = node_set
        self._edges = frozenset(edge_set)
        self._adj = {u: frozenset(vs) for u, vs in adj.items()}

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """Edges as canonical (lexicographically sorted) pairs."""
        return self._edges

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def neighbors(self, user: str) -> frozenset[str]:
        """Contacts of ``user``; empty for unknown users."""
        return self._adj.get(user, frozenset())

    def __contains__(self, user: str) -> bool:
        return user in self._nodes

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
    def _start_day(self) -> int:
        return self.epoch_start.toordinal() - _UNIX_EPOCH_ORDINAL

    @property
    def start_epoch_seconds(self) -> int:
        """First instant of week 0, as an epoch timestamp."""
        return self._start_day * SECONDS_PER_DAY - self.utc_offset_minutes * 60

    @property
    def end_epoch_seconds(self) -> int:
        """First instant after the last week (exclusive bound)."""
        return self.start_epoch_seconds + self.n_weeks * DAYS_PER_WEEK * SECONDS_PER_DAY

    def contains(self, timestamp: int) -> bool:
        return self.start_epoch_seconds <= timestamp < self.end_epoch_seconds

    def slot(self, timestamp: int) -> tuple[int, int, int]:
        """(week, day-of-week, hour) of an epoch timestamp.

        Raises CalendarRangeError outside the configured weeks.
        """
        shifted = timestamp + self.utc_offset_minutes * 60
        day = shifted // SECONDS_PER_DAY - self._start_day
        if not 0 <= day < self.n_weeks * DAYS_PER_WEEK:
            raise CalendarRangeError(
                f"timestamp {timestamp} outside calendar starting {self.epoch_start} "
                f"({self.n_weeks} weeks)"
            )
        week, dow = divmod(day, DAYS_PER_WEEK)
        hour = shifted % SECONDS_PER_DAY // SECONDS_PER_HOUR
        return int(week), int(dow), int(hour)

    def slot_of_date(self, day: dt.date) -> tuple[int, int]:
        """(week, day-of-week) of a local calendar date."""
        days = day.toordinal() - self.epoch_start.toordinal()
        if not 0 <= days < self.n_weeks * DAYS_PER_WEEK:
            raise CalendarRangeError(f"date {day} outside calendar")
        return days // DAYS_PER_WEEK, days % DAYS_PER_WEEK

    def date_of(self, week: int, dow: int) -> dt.date:
        """Local calendar date of (week, day-of-week)."""
        if not (0 <= week < self.n_weeks and 0 <= dow < DAYS_PER_WEEK):
            raise CalendarRangeError(f"(week={week}, dow={dow}) outside calendar")
        return dt.date.fromordinal(
            self.epoch_start.toordinal() + week * DAYS_PER_WEEK + dow
        )

    def window_interval(
        self, week: int, dow: int, start_hour: int, end_hour: int
    ) -> tuple[int, int]:
        """Epoch-second interval [t_lo, t_hi) of local hours [start, end) on
        the given day."""
        if not (0 <= start_hour < end_hour <= 24):
            raise ValueError(f"bad hour window [{start_hour}, {end_hour})")
        self.date_of(week, dow)  # range check
        day_start = (
            self.start_epoch_seconds
            + (week * DAYS_PER_WEEK + dow) * SECONDS_PER_DAY
        )
        return (
            day_start + start_hour * SECONDS_PER_HOUR,
            day_start + end_hour * SECONDS_PER_HOUR,
        )

    @classmethod
    def from_records(
        cls,
        records: Sequence[CallRecord],
        utc_offset_minutes: int = -180,
        epoch_start: dt.date | None = None,
    ) -> "DatasetCalendar":
        """Derive a calendar from a corpus.

        Anchors week 0 at the earliest record's local date unless
        ``epoch_start`` is given, and truncates any trailing partial week so
        every (day-of-week, hour) slot is observed the same number of times.
        Records in the truncated tail fall outside the calendar; callers that
        aggregate must filter them out first.
        """
        stamps = CallTable.from_records(records).timestamp
        if not stamps.size:
            raise ValueError("cannot derive a calendar from an empty corpus")
        offset = utc_offset_minutes * 60
        first_day = (int(stamps.min()) + offset) // SECONDS_PER_DAY
        last_day = (int(stamps.max()) + offset) // SECONDS_PER_DAY
        if epoch_start is not None:
            start_day = epoch_start.toordinal() - _UNIX_EPOCH_ORDINAL
        else:
            start_day = first_day
            epoch_start = dt.date.fromordinal(first_day + _UNIX_EPOCH_ORDINAL)
        n_weeks = (last_day - start_day + 1) // DAYS_PER_WEEK
        if n_weeks < 1:
            raise ValueError("corpus spans less than one whole week")
        return cls(epoch_start, n_weeks, utc_offset_minutes)
