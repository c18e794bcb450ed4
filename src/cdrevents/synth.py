"""Synthetic CDR corpus generator with planted ground truth.

Background traffic is Poisson per (antenna, week, day-of-week, hour) slot
around a configurable weekly profile.  Planted events add enough extra
in-window calls from a fixed attendee set to push the slot volume to
``intensity_multiplier`` times the baseline mean, and a configurable
fraction of attendees arrive as social groups whose members are wired into
the contact graph through extra calls placed outside the event window.

Located users are sampled uniformly from clients; the other party of each
call is sampled with Zipf-like popularity weights so the contact graph gets
the broad degree distribution of real call networks (set
``popularity_exponent`` to 0 for a uniform other-party model).  Each planted
group is modeled as the attending part of a social circle of roughly
``social_circle_size`` people: the remaining circle members stay home but
are each wired to all but one of the attendees.  Small groups therefore
leave many contacts at home and large groups few, which keeps the
population of users with k attending contacts from being exhausted by the
attendees themselves and makes the conditional attendance probability grow
roughly linearly in k instead of saturating at 1.

Everything is drawn from numpy Generators seeded through a single
SeedSequence, so a given (config, numpy version) pair always produces the
same corpus byte for byte.  Counts are Poisson; only the mean structure is
modeled, not burstiness or durations.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .ingest import _is_binary
from .model import (
    DAYS_PER_WEEK,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    CallTable,
    DatasetCalendar,
)

DEFAULT_EPOCH_START = dt.date(2012, 1, 2)  # a Monday
DEFAULT_UTC_OFFSET_MINUTES = -180
DEFAULT_GROUP_SIZES: Mapping[int, float] = {2: 0.6, 3: 0.25, 4: 0.1, 7: 0.05}

HOURS_PER_DAY = 24
# numpy's Generator.poisson refuses a larger mean ("lam value too large")
_MAX_POISSON_MEAN = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


class ConfigError(ValueError):
    """Invalid or infeasible generator configuration."""


def user_id(index: int) -> str:
    return f"u{index:06d}"


def antenna_id(index: int) -> str:
    return f"A{index:03d}"


def flat_profile(mean: float) -> tuple[tuple[float, ...], ...]:
    """A weekly profile with the same mean for every (day, hour) slot."""
    return tuple(tuple(float(mean) for _ in range(HOURS_PER_DAY)) for _ in range(7))


@dataclass(frozen=True)
class PlantedEvent:
    """Ground-truth event: one antenna, one local day, a window of hours.

    ``antenna`` is an index below the config's antenna count; the written
    ground-truth file carries the generated antenna identifier instead.
    """

    antenna: int
    week: int
    dow: int
    start_hour: int = 18
    end_hour: int = 22
    intensity_multiplier: float = 8.0
    n_attendees: int = 200
    social_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not (0 <= self.start_hour < self.end_hour <= 24):
            raise ConfigError(
                f"event window [{self.start_hour}, {self.end_hour}) not within 0-24"
            )
        if not 0 <= self.dow <= 6:
            raise ConfigError(f"bad event day-of-week {self.dow}")
        if self.intensity_multiplier <= 1.0:
            raise ConfigError("intensity_multiplier must exceed 1")
        if not 0.0 <= self.social_fraction <= 1.0:
            raise ConfigError("social_fraction must be in [0, 1]")
        if self.n_attendees < 0:
            raise ConfigError("n_attendees must be nonnegative")


@dataclass(frozen=True)
class SynthConfig:
    """Full generator configuration; validated eagerly at construction."""

    seed: int
    n_users: int
    client_fraction: float
    n_antennas: int
    n_weeks: int
    baseline_profile: Sequence[Sequence[float]]
    events: tuple[PlantedEvent, ...] = ()
    group_size_distribution: Mapping[int, float] = field(
        default_factory=lambda: dict(DEFAULT_GROUP_SIZES)
    )
    popularity_exponent: float = 0.5
    social_circle_size: float = 8.0
    epoch_start: dt.date = DEFAULT_EPOCH_START
    utc_offset_minutes: int = DEFAULT_UTC_OFFSET_MINUTES

    def __post_init__(self) -> None:
        for name in ("seed", "n_users", "n_antennas", "n_weeks"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.n_users < 0 or self.n_antennas < 0:
            raise ConfigError("n_users and n_antennas must be nonnegative")
        if self.n_weeks < 2:
            raise ConfigError("n_weeks must be at least 2 (the index needs a baseline)")
        if not 0.0 <= self.client_fraction <= 1.0:
            raise ConfigError(f"client_fraction {self.client_fraction} not in [0, 1]")
        profile = np.asarray(self.baseline_profile, dtype=float)
        if profile.shape != (7, HOURS_PER_DAY):
            raise ConfigError(
                f"baseline_profile must be 7x{HOURS_PER_DAY}, got {profile.shape}"
            )
        if not ((profile >= 0) & (profile <= _MAX_POISSON_MEAN)).all():
            raise ConfigError(f"baseline_profile means must be in [0, {_MAX_POISSON_MEAN:.6g}]")
        object.__setattr__(
            self, "baseline_profile", tuple(tuple(row) for row in profile.tolist())
        )
        dist = dict(self.group_size_distribution)
        if not dist:
            raise ConfigError("group_size_distribution must not be empty")
        for size, prob in dist.items():
            if not isinstance(size, int) or size < 1:
                raise ConfigError(f"bad group size {size!r}")
            if prob < 0:
                raise ConfigError(f"negative probability for group size {size}")
        if abs(sum(dist.values()) - 1.0) > 1e-9:
            raise ConfigError("group_size_distribution must sum to 1")
        object.__setattr__(self, "group_size_distribution", dist)
        if not 0.0 <= self.popularity_exponent <= 3.0:
            raise ConfigError("popularity_exponent must be in [0, 3]")
        if not self.social_circle_size >= 0.0:
            raise ConfigError("social_circle_size must be nonnegative")
        object.__setattr__(self, "events", tuple(self.events))
        for ev in self.events:
            if not 0 <= ev.antenna < self.n_antennas:
                raise ConfigError(f"event antenna {ev.antenna} >= n_antennas")
            if not 0 <= ev.week < self.n_weeks:
                raise ConfigError(f"event week {ev.week} outside calendar")
            if ev.n_attendees > self.n_clients:
                raise ConfigError(
                    f"infeasible event: {ev.n_attendees} attendees but only "
                    f"{self.n_clients} clients"
                )
            if ev.n_attendees > 0 and self.n_users < 2:
                raise ConfigError("events need at least 2 users to form calls")

    @property
    def n_clients(self) -> int:
        return round(self.client_fraction * self.n_users)

    def calendar(self) -> DatasetCalendar:
        return DatasetCalendar(self.epoch_start, self.n_weeks, self.utc_offset_minutes)


@dataclass
class SynthResult:
    """Generated corpus plus the ground truth that produced it.

    ``records`` is a table sorted stably by timestamp whose vocabularies
    hold every generated user and antenna id, used or not.
    """

    records: CallTable
    clients: set[str]
    truth: list[PlantedEvent]
    group_assignments: dict[int, list[frozenset[str]]]
    calendar: DatasetCalendar


class _Columns:
    """Column-oriented record accumulator, built once into a time-sorted table."""

    def __init__(self) -> None:
        self.parts: list[tuple[np.ndarray, ...]] = []

    def add(self, ts, antenna, located, other, direction) -> None:
        self.parts.append(
            tuple(np.asarray(c, dtype=np.int64) for c in (ts, antenna, located, other, direction))
        )

    def build(self, users: list[str], antenna_names: list[str]) -> CallTable:
        """The rows sorted stably by timestamp, direction 0 outgoing, coded in
        the string order of the ids, which is not the order they are numbered
        in once they outgrow their zero padding (``u1000000`` < ``u100001``)."""
        ts, ant, loc, oth, direction = (
            np.concatenate([part[i] for part in self.parts] or [np.empty(0, np.int64)])
            for i in range(5)
        )
        order = np.argsort(ts, kind="stable")
        user_rank, users = _ranks(users)
        antenna_rank, antennas = _ranks(antenna_names)
        return CallTable(
            ts[order], user_rank[loc[order]], user_rank[oth[order]], direction[order] == 0,
            antenna_rank[ant[order]], users, antennas,
        )


def _ranks(names: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """The int32 rank of each name in string order, and the sorted names."""
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int32)
    rank[order] = np.arange(len(names), dtype=np.int32)
    return rank, tuple(names[i] for i in order)


def _popularity_weights(
    rng: np.random.Generator, n_users: int, exponent: float
) -> np.ndarray | None:
    """Per-user other-party probabilities, Zipf-like over a random rank
    permutation; None means uniform."""
    if exponent == 0.0 or n_users < 2:
        return None
    ranks = np.empty(n_users, dtype=np.float64)
    ranks[rng.permutation(n_users)] = np.arange(n_users, dtype=np.float64)
    # the +10 shift caps the most popular user's share
    weights = (ranks + 10.0) ** -exponent
    return weights / weights.sum()


def _draw_other(
    rng: np.random.Generator,
    n_users: int,
    located: np.ndarray,
    popularity: np.ndarray | None,
) -> np.ndarray:
    """Other parties, redrawn wherever they collide with the located user
    (requires n_users >= 2 to terminate)."""

    def draw(size: int) -> np.ndarray:
        if popularity is None:
            return rng.integers(0, n_users, size)
        return rng.choice(n_users, size=size, p=popularity)

    other = draw(len(located))
    collision = other == located
    while collision.any():
        other[collision] = draw(int(collision.sum()))
        collision = other == located
    return other


def _draw_group_sizes(
    rng: np.random.Generator, distribution: Mapping[int, float], target: int
) -> list[int]:
    """Group sizes covering ``target`` attendees.

    Only sizes in the distribution's support are ever produced: a draw larger
    than the remaining headcount is replaced by the largest supported size
    that still fits, and any unfillable remainder stays ungrouped (singlets).
    """
    if target < 2:
        return []
    support = sorted(distribution)
    probs = np.asarray([distribution[s] for s in support], dtype=float)
    probs = probs / probs.sum()
    out: list[int] = []
    remaining = target
    while remaining >= 2:
        size = int(rng.choice(support, p=probs))
        if size > remaining:
            fitting = [s for s in support if s <= remaining]
            if not fitting:
                break
            size = max(fitting)
        if size >= 2:
            out.append(size)
        remaining -= max(size, 1)
    return out


def generate(config: SynthConfig) -> SynthResult:
    """Generate a corpus per the config; identical configs give identical
    output.

    Located users are always clients.  Every planted attendee gets at least
    one in-window call at the event antenna, extra in-window traffic tops the
    slot mean up to multiplier times baseline, and each planted group is made
    a contact-graph clique through one off-window call per member pair, plus
    off-window ties to the stay-home remainder of its social circle.
    """
    calendar = config.calendar()
    users = [user_id(i) for i in range(config.n_users)]
    antenna_names = [antenna_id(i) for i in range(config.n_antennas)]

    seed_seq = np.random.SeedSequence(config.seed)
    setup_seq, event_seq, *antenna_seqs = seed_seq.spawn(2 + config.n_antennas)
    setup_rng = np.random.default_rng(setup_seq)

    n_clients = config.n_clients
    if n_clients:
        client_idx = np.sort(setup_rng.choice(config.n_users, size=n_clients, replace=False))
    else:
        client_idx = np.empty(0, dtype=np.int64)
    clients = {users[i] for i in client_idx.tolist()}
    popularity = _popularity_weights(
        setup_rng, config.n_users, config.popularity_exponent
    )

    lam = np.asarray(config.baseline_profile, dtype=float)
    t0 = calendar.start_epoch_seconds
    columns = _Columns()
    can_call = config.n_users >= 2 and n_clients >= 1

    if can_call and lam.any():
        lam_weeks = np.broadcast_to(lam, (config.n_weeks, 7, HOURS_PER_DAY))
        for antenna, child_seq in enumerate(antenna_seqs):
            rng = np.random.default_rng(child_seq)
            slot_counts = rng.poisson(lam_weeks)
            total = int(slot_counts.sum())
            if total == 0:
                continue
            slot_starts = t0 + np.arange(slot_counts.size, dtype=np.int64) * SECONDS_PER_HOUR
            ts = np.repeat(slot_starts, slot_counts.ravel()) + rng.integers(
                0, SECONDS_PER_HOUR, total
            )
            located = client_idx[rng.integers(0, n_clients, total)]
            columns.add(
                ts,
                np.full(total, antenna, dtype=np.int64),
                located,
                _draw_other(rng, config.n_users, located, popularity),
                rng.integers(0, 2, total),
            )

    event_rng = np.random.default_rng(event_seq)
    group_assignments: dict[int, list[frozenset[str]]] = {}
    corpus_seconds = config.n_weeks * DAYS_PER_WEEK * SECONDS_PER_DAY
    for event_index, ev in enumerate(config.events):
        groups: list[frozenset[str]] = []
        group_assignments[event_index] = groups
        if ev.n_attendees == 0:
            continue
        attendee_idx = client_idx[
            event_rng.choice(n_clients, size=ev.n_attendees, replace=False)
        ]
        window_hours = ev.end_hour - ev.start_hour
        window_start = (
            t0
            + ((ev.week * DAYS_PER_WEEK + ev.dow) * HOURS_PER_DAY + ev.start_hour)
            * SECONDS_PER_HOUR
        )
        window_seconds = window_hours * SECONDS_PER_HOUR

        # guaranteed presence: one in-window call per attendee
        ts_presence = window_start + event_rng.integers(0, window_seconds, ev.n_attendees)
        columns.add(
            ts_presence,
            np.full(ev.n_attendees, ev.antenna, dtype=np.int64),
            attendee_idx,
            _draw_other(event_rng, config.n_users, attendee_idx, popularity),
            event_rng.integers(0, 2, ev.n_attendees),
        )

        # extra in-window volume so the slot mean hits multiplier x baseline
        presence_per_hour = ev.n_attendees / window_hours
        for hour in range(ev.start_hour, ev.end_hour):
            extra_mean = (ev.intensity_multiplier - 1.0) * float(
                lam[ev.dow, hour]
            ) - presence_per_hour
            n_extra = int(event_rng.poisson(max(0.0, extra_mean)))
            if n_extra == 0:
                continue
            hour_start = window_start + (hour - ev.start_hour) * SECONDS_PER_HOUR
            located = attendee_idx[event_rng.integers(0, ev.n_attendees, n_extra)]
            columns.add(
                hour_start + event_rng.integers(0, SECONDS_PER_HOUR, n_extra),
                np.full(n_extra, ev.antenna, dtype=np.int64),
                located,
                _draw_other(event_rng, config.n_users, located, popularity),
                event_rng.integers(0, 2, n_extra),
            )

        # social groups, wired into the contact graph off-window
        sizes = _draw_group_sizes(
            event_rng,
            config.group_size_distribution,
            round(ev.social_fraction * ev.n_attendees),
        )
        pair_u: list[int] = []
        pair_v: list[int] = []
        acq_member: list[int] = []
        acq_other: list[int] = []
        attendee_set = set(attendee_idx.tolist())
        cursor = 0
        for size in sizes:
            member_idx = attendee_idx[cursor : cursor + size]
            cursor += size
            members = member_idx.tolist()
            groups.append(frozenset(users[i] for i in members))
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    pair_u.append(u)
                    pair_v.append(v)
            # the rest of the group's social circle stays home
            stay_home_mean = max(0.0, config.social_circle_size - size)
            for _ in range(int(event_rng.poisson(stay_home_mean))):
                outsider = int(event_rng.integers(0, config.n_users))
                while outsider in attendee_set:
                    outsider = int(event_rng.integers(0, config.n_users))
                for member in members[:-1]:
                    acq_member.append(member)
                    acq_other.append(outsider)

        def wire(located_ids: list[int], other_ids: list[int], swap_sides: bool):
            """Off-window calls placed uniformly over the rest of the corpus."""
            n_pairs = len(located_ids)
            located_arr = np.asarray(located_ids, dtype=np.int64)
            other_arr = np.asarray(other_ids, dtype=np.int64)
            if swap_sides:
                flip = event_rng.integers(0, 2, n_pairs).astype(bool)
                located_arr, other_arr = (
                    np.where(flip, other_arr, located_arr),
                    np.where(flip, located_arr, other_arr),
                )
            ts_wire = t0 + event_rng.integers(
                0, corpus_seconds - window_seconds, n_pairs
            )
            ts_wire = ts_wire + (ts_wire >= window_start) * window_seconds
            columns.add(
                ts_wire,
                event_rng.integers(0, config.n_antennas, n_pairs),
                located_arr,
                other_arr,
                event_rng.integers(0, 2, n_pairs),
            )

        if pair_u:
            wire(pair_u, pair_v, swap_sides=True)
        if acq_member:
            # the member is the located (client) leg; acquaintances may be
            # non-clients and are never located
            wire(acq_member, acq_other, swap_sides=False)

    return SynthResult(
        records=columns.build(users, antenna_names),
        clients=clients,
        truth=list(config.events),
        group_assignments=group_assignments,
        calendar=calendar,
    )


TRUTH_HEADER = "antenna,week,dow,start_hour,end_hour,multiplier,n_attendees"


def write_truth_file(events: Sequence[PlantedEvent], stream) -> None:
    """Write planted events with generated antenna identifiers."""
    lines = [TRUTH_HEADER]
    for ev in events:
        lines.append(
            f"{antenna_id(ev.antenna)},{ev.week},{ev.dow},{ev.start_hour},"
            f"{ev.end_hour},{ev.intensity_multiplier:.12g},{ev.n_attendees}"
        )
    data = "\n".join(lines) + "\n"
    stream.write(data.encode("utf-8") if _is_binary(stream) else data)


def _known_keys(obj: Mapping[str, Any], cls: type, where: str, *extra: str) -> Mapping[str, Any]:
    """``obj``, once each of its keys is checked to name a field of ``cls``
    or one of ``extra``."""
    unknown = set(obj) - {f.name for f in fields(cls)} - set(extra)
    if unknown:
        raise ConfigError(f"unknown {where}: {sorted(unknown)}")
    return obj


# how each optional JSON value becomes a SynthConfig argument, in the order
# they are checked; the other keys are passed as they are
_FROM_JSON: dict[str, Callable[[Any], Any]] = {
    "baseline_mean": flat_profile,
    "events": lambda objs: tuple(
        PlantedEvent(**_known_keys(obj, PlantedEvent, f"keys in events[{i}]"))
        for i, obj in enumerate(objs)
    ),
    "group_size_distribution": lambda sizes: {int(k): float(p) for k, p in sizes.items()},
    "popularity_exponent": float,
    "social_circle_size": float,
    "epoch_start": dt.date.fromisoformat,
    "utc_offset_minutes": int,
}


def config_from_json(obj: Mapping[str, Any]) -> SynthConfig:
    """Build a SynthConfig from a parsed JSON object (strict keys).

    ``baseline_mean`` is a shorthand for a flat profile; otherwise
    ``baseline_profile`` must be a 7x24 nested list.  ``seed`` defaults to 0.
    """
    _known_keys(obj, SynthConfig, "config keys", "baseline_mean")
    missing = {"n_users", "client_fraction", "n_antennas", "n_weeks"} - set(obj)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    if ("baseline_mean" in obj) == ("baseline_profile" in obj):
        raise ConfigError("config needs exactly one of baseline_mean/baseline_profile")
    kwargs = {"seed": 0, **obj}
    for key, convert in _FROM_JSON.items():
        if key in kwargs:
            try:
                kwargs[key] = convert(kwargs[key])
            except ConfigError:
                raise
            except (AttributeError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad {key}: {exc}") from exc
    if "baseline_mean" in kwargs:
        kwargs["baseline_profile"] = kwargs.pop("baseline_mean")
    try:
        return SynthConfig(**kwargs)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def load_config(path) -> SynthConfig:
    """Read a JSON config file from disk."""
    with open(path, "rb") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_json(obj)

