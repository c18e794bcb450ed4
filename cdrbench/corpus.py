"""The benchmark's workloads: generator configs drawn from the seed, and the
lines the benchmark adds to a generated corpus.

Each workload fixes the shape of its corpus (antennas, users, traffic, weeks)
and the number of planted events; the seed picks the generator's random
streams and where the events are planted.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import PlantedEvent

EPOCH_START = dt.date(2012, 1, 2)
UTC_OFFSET_MINUTES = -180
N_WEEKS = 13
PERCENTILE = 0.99
MIN_DENOMINATOR = 5

# one line per rejection reason the CDR format defines
MALFORMED_LINES = (
    "u000001,u000002,out,1326000000",
    "u000001,u000002,out,1326000000,A000,extra",
    "u000001,u000002,sideways,1326000000,A000",
    "u000001,u000002,in,13260x0000,A000",
    "u000001,u000001,in,1326000000,A000",
    ",u000002,out,1326000000,A000",
    "u000001,u000002,out,1326000000,",
)


@dataclass(frozen=True)
class Shape:
    """Corpus make-up of one workload."""

    command: str  # "detect" or "infer"
    n_antennas: int
    n_users: int
    baseline_mean: float  # calls per antenna-hour
    n_events: int
    intensity_multiplier: float
    n_attendees: int
    social_fraction: float
    malformed: bool  # append MALFORMED_LINES
    tail_records: int  # records appended after the last whole week
    visitors: int = 0  # non-roster users located in each planted window


WORKLOADS = {
    "detect-dense": Shape(
        "detect", n_antennas=24, n_users=20_000, baseline_mean=5.0, n_events=4,
        intensity_multiplier=8.0, n_attendees=100, social_fraction=0.5,
        malformed=True, tail_records=40,
    ),
    # at 0.46 calls an hour, a (day, hour) family with one or two calls in
    # 13 weeks already reaches an index of 6.5 to 13, so a planted hour needs
    # about 40 calls (160 attendees over 4 hours) to stay above the 99th
    # percentile on every seed
    "detect-wide": Shape(
        "detect", n_antennas=125, n_users=20_000, baseline_mean=0.46, n_events=8,
        intensity_multiplier=20.0, n_attendees=160, social_fraction=0.5,
        malformed=False, tail_records=0,
    ),
    "infer-social": Shape(
        "infer", n_antennas=20, n_users=50_000, baseline_mean=2.85, n_events=3,
        intensity_multiplier=4.0, n_attendees=400, social_fraction=0.6,
        malformed=False, tail_records=0, visitors=20,
    ),
}


def generator_config(shape: Shape, seed: int) -> dict:
    """The JSON config for ``cdrevents generate``; the seed also places the
    planted events, each at its own antenna, in a 4-hour window."""
    rng = np.random.default_rng([seed, 1])
    antennas = rng.choice(shape.n_antennas, size=shape.n_events, replace=False)
    events = [
        {
            "antenna": int(antenna),
            "week": int(rng.integers(1, N_WEEKS - 1)),
            "dow": int(rng.integers(0, 7)),
            "start_hour": (start := int(rng.integers(10, 19))),
            "end_hour": start + 4,
            "intensity_multiplier": shape.intensity_multiplier,
            "n_attendees": shape.n_attendees,
            "social_fraction": shape.social_fraction,
        }
        for antenna in antennas.tolist()
    ]
    return {
        "seed": seed,
        "n_users": shape.n_users,
        "client_fraction": 0.7,
        "n_antennas": shape.n_antennas,
        "n_weeks": N_WEEKS,
        "baseline_mean": shape.baseline_mean,
        "epoch_start": EPOCH_START.isoformat(),
        "utc_offset_minutes": UTC_OFFSET_MINUTES,
        "events": events,
    }


def write_config(shape: Shape, seed: int, path: Path) -> None:
    path.write_text(json.dumps(generator_config(shape, seed), indent=1), encoding="utf-8")


def extra_lines(shape: Shape, seed: int, corpus_dir: Path) -> list[str]:
    """Lines the benchmark appends to a generated corpus.

    - the malformed lines, one per rejection reason;
    - valid records inside the days just after the last whole week (fewer
      than six days, so no new whole week appears), which must be dropped;
    - per planted event, records whose located user is not on the roster,
      at the event antenna inside its window, which must not count as
      attenders.
    """
    rng = np.random.default_rng([seed, 2])
    lines = list(MALFORMED_LINES) if shape.malformed else []
    end_day = EPOCH_START.toordinal() - dt.date(1970, 1, 1).toordinal() + 7 * N_WEEKS
    end_epoch = end_day * 86_400 - UTC_OFFSET_MINUTES * 60
    for _ in range(shape.tail_records):
        located, other = rng.choice(shape.n_users, size=2, replace=False).tolist()
        lines.append(
            f"u{located:06d},u{other:06d},{('out', 'in')[int(rng.integers(2))]},"
            f"{end_epoch + int(rng.integers(0, 4 * 86_400))},"
            f"A{int(rng.integers(shape.n_antennas)):03d}"
        )
    if shape.visitors:
        clients = set((corpus_dir / "clients.txt").read_text(encoding="utf-8").split())
        outsiders = [f"u{i:06d}" for i in range(shape.n_users) if f"u{i:06d}" not in clients]
        for ev in read_truth(corpus_dir / "truth.csv"):
            day = ev.date.toordinal() - dt.date(1970, 1, 1).toordinal()
            t_lo = day * 86_400 - UTC_OFFSET_MINUTES * 60 + ev.start_hour * 3_600
            for _ in range(shape.visitors):
                visitor, other = rng.choice(len(outsiders), size=2, replace=False).tolist()
                lines.append(
                    f"{outsiders[visitor]},{outsiders[other]},out,"
                    f"{t_lo + int(rng.integers(0, (ev.end_hour - ev.start_hour) * 3_600))},"
                    f"{ev.antenna}"
                )
    return lines


def append_lines(cdr_path: Path, lines: list[str]) -> None:
    if lines:
        with open(cdr_path, "a", encoding="utf-8", newline="\n") as stream:
            stream.write("\n".join(lines) + "\n")


def read_truth(path: Path) -> list[PlantedEvent]:
    """Planted events from ``truth.csv``, dated by the generator's calendar."""
    events = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        antenna, week, dow, start, end, _, _ = line.split(",")
        date = EPOCH_START + dt.timedelta(days=7 * int(week) + int(dow))
        events.append(PlantedEvent(antenna, date, int(start), int(end)))
    return events
