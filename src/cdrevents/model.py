"""Core domain types: call records, time-stamped call edges, the contact
graph, and the dataset calendar that maps timestamps to (week, day, hour)
slots."""

from __future__ import annotations

import datetime as dt
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

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


@dataclass(frozen=True, slots=True)
class TvgEdge:
    """Directed caller-to-callee relation at one instant, tagged with the
    serving antenna.  Both endpoints share the call's timestamp."""

    caller: str
    t_caller: int
    callee: str
    t_callee: int
    antenna: str

    def __post_init__(self) -> None:
        if self.t_caller != self.t_callee:
            raise ValueError("edge endpoints must share the call timestamp")


def to_tvg_edge(record: CallRecord) -> TvgEdge:
    """Rewrite a located call leg as a caller-to-callee edge."""
    if record.direction is Direction.OUTGOING:
        caller, callee = record.located_user, record.other_party
    else:
        caller, callee = record.other_party, record.located_user
    return TvgEdge(caller, record.timestamp, callee, record.timestamp, record.antenna)


class ContactGraph:
    """Simple undirected graph linking every pair of users that ever
    communicated, with a per-user client flag.

    Immutable after construction; safe to share across workers.
    """

    __slots__ = ("_nodes", "_adj", "_edges", "_clients")

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
        self._clients = frozenset(clients) & node_set

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """Edges as canonical (lexicographically sorted) pairs."""
        return self._edges

    @property
    def clients(self) -> frozenset[str]:
        return self._clients

    @property
    def client_flags(self) -> dict[str, bool]:
        return {u: u in self._clients for u in self._nodes}

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def neighbors(self, user: str) -> frozenset[str]:
        """Contacts of ``user``; empty for unknown users."""
        return self._adj.get(user, frozenset())

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adj.get(u, frozenset())

    def is_client(self, user: str) -> bool:
        return user in self._clients

    def __contains__(self, user: str) -> bool:
        return user in self._nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ContactGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


def build_contact_graph(
    records: Iterable[CallRecord], clients: Iterable[str] = ()
) -> ContactGraph:
    """Build the contact graph of every user pair that co-occurs on a record.

    One undirected edge per communicating pair, regardless of how many calls
    they exchanged or who called whom.  Users in ``clients`` that never appear
    on a record are not added as nodes.
    """
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for r in records:
        u, v = r.located_user, r.other_party
        nodes.add(u)
        nodes.add(v)
        edges.add((u, v) if u <= v else (v, u))
    return ContactGraph(nodes, edges, clients)


def tvg_slice(
    records: Iterable[CallRecord], antenna: str, t_lo: int, t_hi: int
) -> list[CallRecord]:
    """Records at ``antenna`` with t_lo <= timestamp < t_hi, in input order."""
    if t_lo >= t_hi:
        raise ValueError(f"empty interval [{t_lo}, {t_hi})")
    return [r for r in records if r.antenna == antenna and t_lo <= r.timestamp < t_hi]


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
        if not records:
            raise ValueError("cannot derive a calendar from an empty corpus")
        offset = utc_offset_minutes * 60
        stamps = [r.timestamp for r in records]
        first_day = (min(stamps) + offset) // SECONDS_PER_DAY
        last_day = (max(stamps) + offset) // SECONDS_PER_DAY
        if epoch_start is not None:
            start_day = epoch_start.toordinal() - _UNIX_EPOCH_ORDINAL
        else:
            start_day = first_day
            epoch_start = dt.date.fromordinal(first_day + _UNIX_EPOCH_ORDINAL)
        n_weeks = (last_day - start_day + 1) // DAYS_PER_WEEK
        if n_weeks < 1:
            raise ValueError("corpus spans less than one whole week")
        return cls(epoch_start, n_weeks, utc_offset_minutes)
