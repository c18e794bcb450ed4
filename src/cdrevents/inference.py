"""Attendance-probability inference from contact structure.

Given the contact graph and the set U of users seen at an event, estimate
how likely a user was there given how many of their contacts were, both for
exactly k contacts and for at least K contacts, and fit a line through the
per-k probabilities.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .model import ContactGraph


@dataclass(frozen=True)
class AttendanceRow:
    """numerator = attending users with this contact count, denominator =
    all graph users with it."""

    k: int
    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if not 0 <= self.numerator <= self.denominator:
            raise ValueError(
                f"bad row k={self.k}: {self.numerator}/{self.denominator}"
            )

    @property
    def p(self) -> float:
        return self.numerator / self.denominator


@dataclass(frozen=True)
class AttendanceTable:
    """Per-k rows, k >= 1 only; k values nobody reaches are absent."""

    rows: Mapping[int, AttendanceRow]

    def points(self, min_denominator: int = 1) -> list[tuple[int, float]]:
        """(k, p) pairs for regression, dropping rows whose denominator is
        below ``min_denominator`` (small samples make noisy probabilities)."""
        return [
            (k, row.p)
            for k, row in sorted(self.rows.items())
            if row.denominator >= min_denominator
        ]

    def cumulative(self) -> dict[int, AttendanceRow]:
        """Rows for at least K contacts, K = 1..max k: suffix sums of the
        exact-k rows, so a K without an exact row still gets one."""
        rows: dict[int, AttendanceRow] = {}
        num = den = 0
        for k in range(max(self.rows, default=0), 0, -1):
            if k in self.rows:
                num += self.rows[k].numerator
                den += self.rows[k].denominator
            rows[k] = AttendanceRow(k, num, den)
        return dict(sorted(rows.items()))


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r: float
    degenerate: bool = False


def contact_counts(graph: ContactGraph, attendees: Iterable[str]) -> dict[str, int]:
    """Number of attending contacts per graph user; zero-count users omitted.

    A user never counts as their own contact, so attending users are scored
    only on their neighbors.
    """
    attendee_set = set(attendees)
    counts: Counter[str] = Counter()
    for u in attendee_set:
        for v in graph.neighbors(u):
            counts[v] += 1
    return dict(counts)


def attendance_probability(graph: ContactGraph, attendees: Iterable[str]) -> AttendanceTable:
    """Probability of attending given exactly k attending contacts: row k's
    denominator is every graph user, client or not, with k of them."""
    attendee_set = set(attendees)
    if not attendee_set:
        raise ValueError("attendee set is empty")
    numerators: Counter[int] = Counter()
    denominators: Counter[int] = Counter()
    for user, k in contact_counts(graph, attendee_set).items():
        denominators[k] += 1
        if user in attendee_set:
            numerators[k] += 1
    rows = {
        k: AttendanceRow(k, numerators.get(k, 0), denominators[k])
        for k in sorted(denominators)
    }
    return AttendanceTable(rows)


def cumulative_attendance_probability(
    graph: ContactGraph, attendees: Iterable[str]
) -> dict[int, AttendanceRow]:
    """Probability of attending given at least K attending contacts.

    The population is re-taken for every K: row K counts all users with
    k >= K, so rows equal the suffix sums of the exact-k table.
    """
    return attendance_probability(graph, attendees).cumulative()


def linear_fit(points: Sequence[tuple[float, float]]) -> LinearFit:
    """Ordinary least squares of p on k plus the Pearson correlation.

    A response with zero variance has no meaningful correlation; the fit is
    returned with r = 0 and flagged degenerate instead of raising or lying
    with a perfect score.
    """
    if len(points) < 2 or len({x for x, _ in points}) < 2:
        raise ValueError("need at least 2 points with 2 distinct k values")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    n = len(points)
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    syy = math.fsum((y - y_mean) ** 2 for y in ys)
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    if syy == 0.0:
        return LinearFit(slope, intercept, 0.0, degenerate=True)
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    return LinearFit(slope, intercept, r)
