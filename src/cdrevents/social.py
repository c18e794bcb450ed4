"""Social structure of users present at an antenna during a time window.

An attender is a client observed as the located party at the window's
antenna; the induced subgraph keeps only contact-graph edges between
attenders.  Attenders with at least one attending contact are social
attenders, the rest are singlets.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .model import CallRecord, CallTable, ContactGraph, DatasetCalendar

DEFAULT_WINDOW = (18, 22)


@dataclass(frozen=True)
class EventWindow:
    """One antenna, one local calendar day, a half-open range of hours."""

    antenna: str
    week: int
    dow: int
    start_hour: int = DEFAULT_WINDOW[0]
    end_hour: int = DEFAULT_WINDOW[1]

    def __post_init__(self) -> None:
        if not (0 <= self.start_hour < self.end_hour <= 24):
            raise ValueError(
                f"bad hour window [{self.start_hour}, {self.end_hour})"
            )
        if not 0 <= self.dow <= 6:
            raise ValueError(f"bad day-of-week {self.dow}")
        if self.week < 0:
            raise ValueError(f"bad week {self.week}")


def attenders(
    records: Sequence[CallRecord],
    window: EventWindow,
    clients: Iterable[str],
    calendar: DatasetCalendar,
) -> set[str]:
    """Clients observed as the located party at the window's antenna and time.

    Only the located leg establishes presence; the other party of a call is
    never inferred to be there.
    """
    table = CallTable.from_records(records)
    t_lo, t_hi = calendar.window_interval(
        window.week, window.dow, window.start_hour, window.end_hour
    )
    if window.antenna not in table.antennas:
        return set()
    ts = table.timestamp
    inside = (table.antenna == table.antennas.index(window.antenna)) & (ts >= t_lo) & (ts < t_hi)
    present = {table.users[code] for code in set(table.located[inside].tolist())}
    return present.intersection(clients)


@dataclass(frozen=True)
class InducedSubgraph:
    """Contact-graph restriction to an attender set.

    ``degree`` has an entry for every attender (0 for singlets), so the
    social/singlet split is recoverable from this object alone.
    """

    attenders: frozenset[str]
    edges: frozenset[tuple[str, str]]
    degree: Mapping[str, int]

    @property
    def social_attenders(self) -> frozenset[str]:
        return frozenset(u for u, d in self.degree.items() if d >= 1)

    @property
    def singlets(self) -> frozenset[str]:
        return frozenset(u for u, d in self.degree.items() if d == 0)


def induce_subgraph(graph: ContactGraph, users: Iterable[str]) -> InducedSubgraph:
    """Restrict the contact graph to ``users``.

    Users unknown to the graph are kept as isolated attenders: their presence
    is established by the records even if the graph never saw them call.
    """
    members = frozenset(users)
    edges: set[tuple[str, str]] = set()
    for u in members:
        for v in graph.neighbors(u):
            if v in members and u < v:
                edges.add((u, v))
    degree = dict.fromkeys(members, 0)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return InducedSubgraph(members, frozenset(edges), degree)


def component_size_histogram(sub: InducedSubgraph) -> dict[int, int]:
    """Size histogram of connected components among social attenders.

    Every component has size >= 2 by construction; singlets are not part of
    the histogram and are counted separately via ``sub.singlets``.
    """
    adjacency: dict[str, list[str]] = {}
    for u, v in sub.edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    sizes: Counter[int] = Counter()
    seen: set[str] = set()
    for start in adjacency:
        if start in seen:
            continue
        size = 0
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            size += 1
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        sizes[size] += 1
    return dict(sizes)
