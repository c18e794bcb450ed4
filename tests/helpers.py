"""Shared scenario builders and independent oracles for the test suite.

Oracles here re-derive expected values from first principles (raw loops,
exact rational arithmetic) and must stay independent of the library code
paths they check.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction

from cdrevents.ingest import (
    CDR_HEADER,
    MAX_REPORTED_ERRORS,
    IngestError,
    IngestReport,
)
from cdrevents.model import CallRecord, ContactGraph, Direction
from cdrevents.synth import PlantedEvent, SynthConfig, flat_profile

OUT = Direction.OUTGOING
IN = Direction.INCOMING


def rec(located, other, direction, ts, antenna="L1"):
    return CallRecord(located, other, direction, ts, antenna)


def social_scenario(seed: int) -> SynthConfig:
    """Default planted-social scenario: one event, half the attendees in
    groups, population large enough that chance contacts stay rare."""
    return SynthConfig(
        seed=seed,
        n_users=50_000,
        client_fraction=0.7,
        n_antennas=4,
        n_weeks=2,
        baseline_profile=flat_profile(25.0),
        events=(
            PlantedEvent(
                antenna=1,
                week=1,
                dow=4,
                start_hour=18,
                end_hour=22,
                intensity_multiplier=5.0,
                n_attendees=500,
                social_fraction=0.5,
            ),
        ),
    )


def compact_social_scenario(seed: int, social_fraction: float = 0.5) -> SynthConfig:
    """Smaller variant for many-seed comparisons of social structure."""
    return SynthConfig(
        seed=seed,
        n_users=20_000,
        client_fraction=0.7,
        n_antennas=3,
        n_weeks=2,
        baseline_profile=flat_profile(10.0),
        events=(
            PlantedEvent(
                antenna=1,
                week=1,
                dow=3,
                start_hour=18,
                end_hour=22,
                intensity_multiplier=5.0,
                n_attendees=250,
                social_fraction=social_fraction,
            ),
        ),
    )


def detection_scenario(seed: int, baseline_mean: float = 50.0) -> SynthConfig:
    """Recall/precision benchmark: 50 antennas, 13 weeks, 10 planted events."""
    events = tuple(
        PlantedEvent(
            antenna=a,
            week=1 + a,
            dow=(2 + a) % 7,
            start_hour=18,
            end_hour=22,
            intensity_multiplier=5.0,
            n_attendees=150,
            social_fraction=0.0,
        )
        for a in range(10)
    )
    return SynthConfig(
        seed=seed,
        n_users=30_000,
        client_fraction=0.7,
        n_antennas=50,
        n_weeks=13,
        baseline_profile=flat_profile(baseline_mean),
        events=events,
    )


def planted_slots(config: SynthConfig) -> set[tuple[str, int, int, int]]:
    from cdrevents.synth import antenna_id

    return {
        (antenna_id(ev.antenna), ev.week, ev.dow, hour)
        for ev in config.events
        for hour in range(ev.start_hour, ev.end_hour)
    }


def index_oracle(counts, antennas, n_weeks):
    """Exact event-index re-evaluation: for every slot, count times n_weeks
    over the across-week total of its (antenna, dow, hour) family, as a
    Fraction; None where the family total is zero."""
    expected = {}
    for antenna in antennas:
        for dow in range(7):
            for hour in range(24):
                weekly = [
                    counts.get((antenna, week, dow, hour), 0)
                    for week in range(n_weeks)
                ]
                total = sum(weekly)
                for week, c in enumerate(weekly):
                    key = (antenna, week, dow, hour)
                    expected[key] = (
                        None if total == 0 else Fraction(c * n_weeks, total)
                    )
    return expected


def detection_oracle(index, antennas, n_weeks, p):
    """Brute-force detection over an exact index (``index_oracle`` output).

    Per antenna: sort the defined values, take the ceil(p*N)-th smallest
    (rank computed on Fractions, at least 1) as the threshold, flag values
    strictly above it, and merge flagged hours that touch on the same day.
    Returns sorted (antenna, week, dow, start_hour, end_hour, peak) tuples.
    """
    events = []
    for antenna in sorted(antennas):
        defined = []
        for week in range(n_weeks):
            for dow in range(7):
                for hour in range(24):
                    value = index[(antenna, week, dow, hour)]
                    if value is not None:
                        defined.append(value)
        if not defined:
            continue
        defined.sort()
        rank = Fraction(p) * len(defined)
        rank = max(int(rank) + (rank.denominator != 1), 1)
        threshold = defined[rank - 1]
        for week in range(n_weeks):
            for dow in range(7):
                start = None
                for hour in range(25):
                    value = index[(antenna, week, dow, hour)] if hour < 24 else None
                    above = value is not None and value > threshold
                    if above and start is None:
                        start = hour
                    if not above and start is not None:
                        peak = max(
                            index[(antenna, week, dow, h)] for h in range(start, hour)
                        )
                        events.append((antenna, week, dow, start, hour, peak))
                        start = None
    return events


def attendance_oracle(nodes, edge_list, attendees):
    """Brute-force per-k attendance tally from a raw edge list.

    Returns ({k: (numerator, denominator)}, {K: (numerator, denominator)}).
    """
    neighbors = {u: set() for u in nodes}
    for u, v in edge_list:
        neighbors[u].add(v)
        neighbors[v].add(u)
    att = set(attendees)
    per_user_k = {}
    for u in nodes:
        k = sum(1 for v in neighbors[u] if v in att)
        if k >= 1:
            per_user_k[u] = k
    exact: dict[int, list[int]] = {}
    for u, k in per_user_k.items():
        entry = exact.setdefault(k, [0, 0])
        entry[1] += 1
        if u in att:
            entry[0] += 1
    cumulative: dict[int, list[int]] = {}
    if per_user_k:
        for big_k in range(1, max(per_user_k.values()) + 1):
            num = sum(1 for u, k in per_user_k.items() if k >= big_k and u in att)
            den = sum(1 for k in per_user_k.values() if k >= big_k)
            cumulative[big_k] = [num, den]
    return (
        {k: tuple(v) for k, v in exact.items()},
        {k: tuple(v) for k, v in cumulative.items()},
    )


def random_graph_and_attendees(rng: random.Random, max_nodes: int = 200):
    """A random simple graph plus a nonempty random attendee set that may
    include users unknown to the graph."""
    n = rng.randint(2, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    p = rng.uniform(0.0, min(1.0, 8.0 / n))
    edge_list = [
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    attendee_count = rng.randint(1, n)
    attendees = set(rng.sample(nodes, attendee_count))
    if rng.random() < 0.3:
        attendees.add("stranger")
    graph = ContactGraph(nodes, edge_list, clients=nodes[: n // 2])
    return graph, edge_list, attendees


def _is_integer_token(token: str) -> bool:
    """An optional "-" followed by ASCII digits."""
    digits = token[1:] if token[:1] == "-" else token
    return digits.isdigit() and digits.isascii()


def reference_parse_cdr(stream) -> tuple[list[CallRecord], IngestReport]:
    """Per-line CDR parser, the reference ``parse_cdr_file`` is checked
    against: split the decoded text into lines, each line into fields, and
    build one CallRecord per accepted line."""
    lines = stream.read().decode("utf-8").splitlines()
    if not lines:
        raise IngestError("empty CDR stream (missing header)")
    if lines[0] != CDR_HEADER:
        raise IngestError(f"bad CDR header: {lines[0]!r}")
    directions = {d.value: d for d in Direction}
    records: list[CallRecord] = []
    report = IngestReport()

    def reject(line_no: int, reason: str) -> None:
        report.rejected += 1
        if len(report.first_errors) < MAX_REPORTED_ERRORS:
            report.first_errors.append((line_no, reason))

    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            reject(line_no, f"expected 5 fields, got {len(parts)}")
            continue
        located, other, direction_token, timestamp_token, antenna = parts
        direction = directions.get(direction_token)
        if direction is None:
            reject(line_no, f"unknown direction {direction_token!r}")
            continue
        try:
            timestamp = int(timestamp_token)
        except ValueError:
            timestamp = None
        if (
            timestamp is None
            or not _is_integer_token(timestamp_token)
            or not -(2**63) <= timestamp <= 2**63 - 1
        ):
            reject(line_no, f"bad timestamp {timestamp_token!r}")
            continue
        try:
            record = CallRecord(located, other, direction, timestamp, antenna)
        except ValueError as exc:
            reject(line_no, str(exc))
            continue
        records.append(record)
        report.accepted += 1
    return records, report


def reference_write_cdr(records, stream) -> None:
    """Per-record CDR writer, the reference ``write_cdr_file`` is checked
    against: one f-string line per record, and a ValueError naming the first
    record with an identifier that holds a comma or a line break."""
    lines = []
    for r in records:
        line = f"{r.located_user},{r.other_party},{r.direction.value},{r.timestamp},{r.antenna}\n"
        if line.count(",") != 4 or line.splitlines() != [line[:-1]]:
            raise ValueError(
                f"cannot write {r!r}: an identifier holds a comma or a line break"
            )
        lines.append(line)
    text = CDR_HEADER + "\n" + "".join(lines)
    binary = isinstance(stream, (io.RawIOBase, io.BufferedIOBase))
    stream.write(text.encode("utf-8") if binary else text)
