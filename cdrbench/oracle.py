"""Independent re-derivation of the cdrevents CLI outputs, and the checks
that compare a command's output files against it.

Nothing here imports cdrevents: the expected results are computed from the
CDR file itself, following the file format and the method as the README of
the project states them, so a fault in a program stage cannot hide itself by
also being present in the reference.  Every check raises CheckFailed with a
message that names the file and the first difference.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

CDR_HEADER = "located_user,other_party,direction,timestamp,antenna"
SECONDS_PER_DAY = 86_400
HOURS_PER_WEEK = 168
UNIX_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
# outputs carry 12 significant digits, so a correct value may be off by
# half a unit in the 12th digit
REL_TOL = 1e-11


class CheckFailed(AssertionError):
    """A command's output disagrees with the re-derived result."""


@dataclass
class Calls:
    """Accepted records of a CDR file as columns, plus the derived calendar.

    ``antenna`` and the user columns hold identifier strings in file order;
    ``in_range`` marks the records inside the whole calendar weeks.
    """

    located: list[str]
    other: list[str]
    antenna: list[str]
    ts: np.ndarray
    utc_offset_s: int
    first_day: int
    n_weeks: int
    in_range: np.ndarray

    @property
    def epoch_start(self) -> dt.date:
        return dt.date.fromordinal(self.first_day + UNIX_EPOCH_ORDINAL)

    def week_dow(self, day: dt.date) -> tuple[int, int]:
        return divmod(day.toordinal() - self.epoch_start.toordinal(), 7)


_TIMESTAMP = re.compile(r"[0-9]+")


def read_calls(path: Path, utc_offset_minutes: int = -180) -> Calls:
    """Parse a CDR file strictly by its format and derive its calendar.

    A line is accepted when it has five fields, a direction of ``in`` or
    ``out``, an ASCII-digit timestamp and two different non-empty users at a
    non-empty antenna.  The calendar starts at the local date of the earliest
    record and keeps the whole weeks up to the latest one.
    """
    lines = path.read_bytes().decode("utf-8").splitlines()
    if not lines or lines[0] != CDR_HEADER:
        raise CheckFailed(f"{path}: missing CDR header")
    located: list[str] = []
    other: list[str] = []
    antenna: list[str] = []
    stamps: list[int] = []
    for line in lines[1:]:
        fields = line.split(",")
        if (
            len(fields) != 5
            or fields[2] not in ("in", "out")
            or not _TIMESTAMP.fullmatch(fields[3])
            or not fields[0]
            or not fields[1]
            or not fields[4]
            or fields[0] == fields[1]
        ):
            continue
        located.append(fields[0])
        other.append(fields[1])
        stamps.append(int(fields[3]))
        antenna.append(fields[4])
    ts = np.asarray(stamps, dtype=np.int64)
    offset = utc_offset_minutes * 60
    day = (ts + offset) // SECONDS_PER_DAY
    first_day = int(day.min())
    n_weeks = (int(day.max()) - first_day + 1) // 7
    in_range = day < first_day + 7 * n_weeks
    return Calls(
        located, other, antenna, ts, offset, first_day, n_weeks, in_range
    )


def read_csv(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: header {lines[:1]} != {header!r}")
    return [line.split(",") for line in lines[1:]]


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)


# ---------------------------------------------------------------- detection

EVENTS_HEADER = "antenna,week,dow,start_hour,end_hour,peak_index"


@dataclass(frozen=True)
class Event:
    antenna: str
    week: int
    dow: int
    start_hour: int
    end_hour: int
    peak_index: float


@dataclass
class Detection:
    """Expected events plus the per-antenna count of defined index values."""

    events: list[Event]
    n_defined: dict[str, int]


def expected_detection(calls: Calls, p: float) -> Detection:
    """Events by the method: per-slot counts, index count*n_weeks/family
    total, nearest-rank threshold at rank ceil(p*N) over the defined values,
    strict '>', adjacent hours of one day merged."""
    sel = np.flatnonzero(calls.in_range)
    names = sorted({calls.antenna[i] for i in sel.tolist()})
    code = {name: i for i, name in enumerate(names)}
    codes = np.fromiter((code[calls.antenna[i]] for i in sel.tolist()), np.int64, len(sel))
    shifted = calls.ts[sel] + calls.utc_offset_s
    slot = (shifted // SECONDS_PER_DAY - calls.first_day) * 24 + shifted % SECONDS_PER_DAY // 3600
    n_weeks = calls.n_weeks
    span = n_weeks * HOURS_PER_WEEK
    counts = np.bincount(codes * span + slot, minlength=len(names) * span)
    cube = counts.reshape(len(names), n_weeks, HOURS_PER_WEEK)
    totals = cube.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        index = np.where(totals > 0, (cube * n_weeks) / totals, np.nan)

    events: list[Event] = []
    n_defined: dict[str, int] = {}
    for a, name in enumerate(names):
        values = index[a].ravel()
        defined = np.sort(values[~np.isnan(values)])
        n_defined[name] = len(defined)
        if not len(defined):
            continue
        rank = math.ceil(Fraction(p) * len(defined))
        threshold = defined[max(rank, 1) - 1]
        run: list[int] = []
        for flat in np.flatnonzero(values > threshold).tolist():
            if run and flat == run[-1] + 1 and flat // 24 == run[-1] // 24:
                run.append(flat)
                continue
            if run:
                events.append(_event(name, run, values))
            run = [flat]
        if run:
            events.append(_event(name, run, values))
    return Detection(events, n_defined)


def _event(name: str, run: list[int], values: np.ndarray) -> Event:
    day, hour = divmod(run[0], 24)
    week, dow = divmod(day, 7)
    return Event(name, week, dow, hour, hour + len(run), float(values[run].max()))


def read_events(path: Path) -> list[Event]:
    return [
        Event(a, int(w), int(d), int(s), int(e), float(peak))
        for a, w, d, s, e, peak in read_csv(path, EVENTS_HEADER)
    ]


@dataclass(frozen=True)
class PlantedEvent:
    antenna: str
    date: dt.date
    start_hour: int
    end_hour: int


def check_events(got: list[Event], expected: Detection) -> None:
    """events.csv equals the re-derived events, peaks to REL_TOL."""
    if len(got) != len(expected.events):
        raise CheckFailed(f"events.csv: {len(got)} events, expected {len(expected.events)}")
    for g, e in zip(got, expected.events):
        if (g.antenna, g.week, g.dow, g.start_hour, g.end_hour) != (
            e.antenna, e.week, e.dow, e.start_hour, e.end_hour
        ) or not _close(g.peak_index, e.peak_index):
            raise CheckFailed(f"events.csv: got {g}, expected {e}")


def check_planted(got: list[Event], calls: Calls, planted: list[PlantedEvent]) -> None:
    """Every planted hour lies inside a detected event."""
    for ev in planted:
        week, dow = calls.week_dow(ev.date)
        for hour in range(ev.start_hour, ev.end_hour):
            if not any(
                g.antenna == ev.antenna and g.week == week and g.dow == dow
                and g.start_hour <= hour < g.end_hour
                for g in got
            ):
                raise CheckFailed(
                    f"planted hour {ev.antenna} {ev.date} {hour}:00 not inside a detected event"
                )


def check_flag_budget(got: list[Event], expected: Detection, p: float) -> None:
    """Per antenna, flagged hours <= floor((1-p)*N) of its N defined values."""
    flagged: Counter[str] = Counter()
    for g in got:
        flagged[g.antenna] += g.end_hour - g.start_hour
    for name, n in flagged.items():
        limit = math.floor((1 - Fraction(p)) * expected.n_defined.get(name, 0))
        if n > limit:
            raise CheckFailed(f"{name}: {n} flagged hours > floor((1-p)N) = {limit}")


def check_detect(
    out_dir: Path,
    stderr: str,
    calls: Calls,
    expected: Detection,
    planted: list[PlantedEvent],
    p: float,
    rejected_lines: int,
    dropped_records: int,
) -> None:
    """All checks on one ``detect`` run; raises CheckFailed on the first miss."""
    got = read_events(out_dir / "events.csv")
    check_events(got, expected)
    check_planted(got, calls, planted)
    check_flag_budget(got, expected, p)
    check_stderr_counts(stderr, rejected_lines, dropped_records)


_REJECTED = re.compile(r"rejected (\d+) of (\d+) lines")
_DROPPED = re.compile(r"dropped (\d+) records outside")


def check_stderr_counts(stderr: str, rejected_lines: int, dropped_records: int) -> None:
    """The reported rejected and dropped counts equal what was injected."""
    match = _REJECTED.search(stderr)
    rejected = int(match.group(1)) if match else 0
    if rejected != rejected_lines:
        raise CheckFailed(f"stderr reports {rejected} rejected lines, injected {rejected_lines}")
    match = _DROPPED.search(stderr)
    dropped = int(match.group(1)) if match else 0
    if dropped != dropped_records:
        raise CheckFailed(f"stderr reports {dropped} dropped records, injected {dropped_records}")


# ---------------------------------------------------------------- inference

SUMMARY_HEADER = "attenders,social_attenders,singlets,max_component"
ATTENDANCE_HEADER = "k,numerator,denominator,p"
CUMULATIVE_HEADER = "K,p"
FIT_HEADER = "slope,intercept,r,n_points"


def contact_sets(calls: Calls) -> dict[str, set[str]]:
    """Neighbours of every user over the unique undirected pairs in range."""
    pairs = {
        (u, v) if u <= v else (v, u)
        for u, v, keep in zip(calls.located, calls.other, calls.in_range.tolist())
        if keep
    }
    adjacency: dict[str, set[str]] = defaultdict(set)
    for u, v in pairs:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def attender_set(
    calls: Calls, clients: set[str], event: PlantedEvent
) -> set[str]:
    """Distinct located roster clients at the event antenna in its window."""
    day = event.date.toordinal() - UNIX_EPOCH_ORDINAL
    t_lo = day * SECONDS_PER_DAY - calls.utc_offset_s + event.start_hour * 3600
    t_hi = t_lo + (event.end_hour - event.start_hour) * 3600
    hits = np.flatnonzero(calls.in_range & (calls.ts >= t_lo) & (calls.ts < t_hi))
    return {
        calls.located[i] for i in hits.tolist() if calls.antenna[i] == event.antenna
    } & clients


@dataclass
class Attendance:
    attenders: set[str]
    rows: dict[int, tuple[int, int]]  # k -> (numerator, denominator)


def expected_attendance(adjacency: dict[str, set[str]], present: set[str]) -> Attendance:
    """Per-k tally over every graph user with k >= 1 attending contacts."""
    k_of: Counter[str] = Counter()
    for u in present:
        for v in adjacency.get(u, ()):
            k_of[v] += 1
    rows: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    for user, k in k_of.items():
        rows[k][1] += 1
        rows[k][0] += user in present
    return Attendance(present, {k: (n, d) for k, (n, d) in sorted(rows.items())})


def ols(points: list[tuple[int, float]]) -> tuple[float, float, float]:
    """Slope, intercept and Pearson r of p on k; r is 0 when p is constant."""
    x = np.array([k for k, _ in points], dtype=float)
    y = np.array([p for _, p in points], dtype=float)
    dx, dy = x - x.mean(), y - y.mean()
    sxx, syy, sxy = float(dx @ dx), float(dy @ dy), float(dx @ dy)
    slope = sxy / sxx
    r = 0.0 if syy == 0 else sxy / math.sqrt(sxx * syy)
    return slope, float(y.mean()) - slope * float(x.mean()), r


def read_tally(out_dir: Path) -> dict[int, tuple[int, int]]:
    """attendance.csv as k -> (numerator, denominator); p must be n/d and
    rows must be in increasing k."""
    rows = read_csv(out_dir / "attendance.csv", ATTENDANCE_HEADER)
    tally = {}
    for k, n, d, p in rows:
        tally[int(k)] = (int(n), int(d))
        if not _close(float(p), int(n) / int(d)):
            raise CheckFailed(f"attendance.csv k={k}: p {p} != {n}/{d}")
    if list(tally) != sorted(tally) or len(tally) != len(rows):
        raise CheckFailed(f"attendance.csv: k column {list(tally)[:8]} not increasing")
    return tally


def check_attendance(tally: dict[int, tuple[int, int]], expected: Attendance) -> None:
    """attendance.csv equals the tally over the unique pairs."""
    if tally != expected.rows:
        diff = sorted(k for k in tally.keys() | expected.rows.keys()
                      if tally.get(k) != expected.rows.get(k))
        raise CheckFailed(
            f"attendance.csv differs at k={diff[:5]}: got "
            f"{[tally.get(k) for k in diff[:5]]}, expected {[expected.rows.get(k) for k in diff[:5]]}"
        )


def check_cumulative(out_dir: Path, tally: dict[int, tuple[int, int]]) -> None:
    """cumulative.csv holds K = 1..max k with the suffix sums of the tally."""
    cumulative = [
        (int(k), float(p))
        for k, p in read_csv(out_dir / "cumulative.csv", CUMULATIVE_HEADER)
    ]
    max_k = max(tally)
    if [k for k, _ in cumulative] != list(range(1, max_k + 1)):
        raise CheckFailed(f"cumulative.csv rows {[k for k, _ in cumulative][:8]} != 1..{max_k}")
    for k, p in cumulative:
        num = sum(n for kk, (n, _) in tally.items() if kk >= k)
        den = sum(d for kk, (_, d) in tally.items() if kk >= k)
        if not _close(p, num / den):
            raise CheckFailed(f"cumulative.csv K={k}: p {p} != suffix sum {num}/{den}")


def check_fit(out_dir: Path, tally: dict[int, tuple[int, int]], min_denominator: int) -> None:
    """fit.csv is OLS over the rows with denominator >= min_denominator."""
    points = [(k, n / d) for k, (n, d) in tally.items() if d >= min_denominator]
    (fit,) = read_csv(out_dir / "fit.csv", FIT_HEADER)
    want = ols(points)
    if int(fit[3]) != len(points) or not all(
        math.isclose(float(g), w, rel_tol=1e-9, abs_tol=1e-12)
        for g, w in zip(fit[:3], want)
    ):
        raise CheckFailed(f"fit.csv {fit} != OLS {want} over {len(points)} points")


def check_summary(out_dir: Path, tally: dict[int, tuple[int, int]], expected: Attendance) -> None:
    """Attender count, social + singlets = attenders, and the numerators
    sum to the social attenders."""
    (summary,) = read_csv(out_dir / "subgraph_summary.csv", SUMMARY_HEADER)
    attenders, social, singlets, _ = (int(v) for v in summary)
    if attenders != len(expected.attenders):
        raise CheckFailed(
            f"subgraph_summary.csv: {attenders} attenders, expected {len(expected.attenders)}"
        )
    if social + singlets != attenders:
        raise CheckFailed(
            f"subgraph_summary.csv: {social} social + {singlets} singlets != {attenders}"
        )
    numerators = sum(n for n, _ in tally.values())
    if numerators != social:
        raise CheckFailed(f"sum of numerators {numerators} != {social} social attenders")


def check_infer(out_dir: Path, expected: Attendance, min_denominator: int) -> None:
    """All checks on one ``infer`` run; raises CheckFailed on the first miss."""
    tally = read_tally(out_dir)
    check_attendance(tally, expected)
    check_cumulative(out_dir, tally)
    check_fit(out_dir, tally, min_denominator)
    check_summary(out_dir, tally, expected)
