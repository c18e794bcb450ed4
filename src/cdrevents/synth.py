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

Memory: each record is held once, in the dtypes of the finished table (21
bytes a row), as soon as it is drawn; the draws themselves stay int64 one
batch at a time, since a narrower ``rng.integers`` dtype changes the
stream.  Building the table adds the stable timestamp order (8 bytes a row)
and one column being joined and ordered at a time.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import numbers
from dataclasses import dataclass, field, fields
from typing import IO, Any, Callable, Mapping, Sequence

import numpy as np

from .ingest import _joined
from .model import DAYS_PER_WEEK, HOURS_PER_DAY, MAX_UTC_OFFSET_MINUTES, SECONDS_PER_HOUR
from .model import CallTable, DatasetCalendar, parse_iso_date

DEFAULT_EPOCH_START = dt.date(2012, 1, 2)  # a Monday
DEFAULT_UTC_OFFSET_MINUTES = -180
DEFAULT_GROUP_SIZES: Mapping[int, float] = {2: 0.6, 3: 0.25, 4: 0.1, 7: 0.05}

# numpy's Generator.poisson refuses a larger mean ("lam value too large")
_MAX_POISSON_MEAN = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10
# guide-table steps a weighted draw takes before it falls back to a binary
# search: at popularity exponent 0.5 every weight is about 1/(2 n_users) or
# more, at least a bucket's width, so one step always suffices there
_GUIDE_STEPS = 2


class ConfigError(ValueError):
    """Invalid or infeasible generator configuration."""


def _check_integers(obj: Any, *names: str) -> None:
    """Raise ConfigError unless each named field of ``obj`` is an integer
    (a bool is not)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value: Any) -> None:
    """Raise ConfigError unless ``value`` is a real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")


def user_id(index: int) -> str:
    return f"u{index:06d}"


def antenna_id(index: int) -> str:
    return f"A{index:03d}"


def flat_profile(mean: float) -> tuple[tuple[float, ...], ...]:
    """A weekly profile with the same mean for every (day, hour) slot."""
    return tuple(tuple(mean for _ in range(HOURS_PER_DAY)) for _ in range(DAYS_PER_WEEK))


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
        _check_integers(self, "antenna", "week", "dow", "start_hour", "end_hour", "n_attendees")
        for name in ("intensity_multiplier", "social_fraction"):
            _check_real(name, getattr(self, name))
        if not (0 <= self.start_hour < self.end_hour <= 24):
            raise ConfigError(
                f"event window [{self.start_hour}, {self.end_hour}) not within 0-24"
            )
        if not 0 <= self.dow <= 6:
            raise ConfigError(f"bad event day-of-week {self.dow}")
        if not self.intensity_multiplier > 1.0:
            raise ConfigError("intensity_multiplier must exceed 1")
        if not 0.0 <= self.social_fraction <= 1.0:
            raise ConfigError("social_fraction must be in [0, 1]")
        if self.n_attendees < 0:
            raise ConfigError("n_attendees must be nonnegative")

    def extra_means(self, profile: Sequence[Sequence[float]]) -> list[float]:
        """Mean count of extra calls in each window hour that tops the
        hour's profile mean up to ``intensity_multiplier`` times, net of the
        attendees' own presence calls (negative where those suffice)."""
        presence_per_hour = self.n_attendees / (self.end_hour - self.start_hour)
        return [
            (self.intensity_multiplier - 1.0) * float(profile[self.dow][hour])
            - presence_per_hour
            for hour in range(self.start_hour, self.end_hour)
        ]


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
        _check_integers(self, "seed", "n_users", "n_antennas", "n_weeks", "utc_offset_minutes")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.n_users < 0 or self.n_antennas < 0:
            raise ConfigError("n_users and n_antennas must be nonnegative")
        if self.n_weeks < 2:
            raise ConfigError("n_weeks must be at least 2 (the index needs a baseline)")
        if abs(self.utc_offset_minutes) > MAX_UTC_OFFSET_MINUTES:
            raise ConfigError(f"utc_offset_minutes {self.utc_offset_minutes} beyond ±14:00")
        for name in ("client_fraction", "popularity_exponent", "social_circle_size"):
            _check_real(name, getattr(self, name))
        if not 0.0 <= self.client_fraction <= 1.0:
            raise ConfigError(f"client_fraction {self.client_fraction} not in [0, 1]")
        try:
            profile = np.asarray(self.baseline_profile, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad baseline_profile: {exc}") from exc
        if profile.shape != (DAYS_PER_WEEK, HOURS_PER_DAY):
            raise ConfigError(
                f"baseline_profile must be {DAYS_PER_WEEK}x{HOURS_PER_DAY}, got {profile.shape}"
            )
        for mean in itertools.chain.from_iterable(self.baseline_profile):
            _check_real("a baseline_profile mean", mean)
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
            _check_real(f"the probability of group size {size}", prob)
            if not prob >= 0:
                raise ConfigError(f"bad probability {prob!r} for group size {size}")
        if not abs(sum(dist.values()) - 1.0) <= 1e-9:
            raise ConfigError("group_size_distribution must sum to 1")
        object.__setattr__(self, "group_size_distribution", dist)
        if not 0.0 <= self.popularity_exponent <= 3.0:
            raise ConfigError("popularity_exponent must be in [0, 3]")
        if not 0.0 <= self.social_circle_size <= _MAX_POISSON_MEAN:
            raise ConfigError(f"social_circle_size must be in [0, {_MAX_POISSON_MEAN:.6g}]")
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
            if not all(m <= _MAX_POISSON_MEAN for m in ev.extra_means(self.baseline_profile)):
                raise ConfigError(
                    f"event at antenna {ev.antenna}: intensity_multiplier "
                    f"{ev.intensity_multiplier:.6g} asks for more than "
                    f"{_MAX_POISSON_MEAN:.6g} extra calls an hour"
                )

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
    """Record accumulator that holds each record once, in the dtype of the
    finished table, and builds the time-sorted table one column at a time.
    ``popularity`` is the other-party draw of ``add_calls``."""

    def __init__(
        self, users: list[str], antenna_names: list[str], popularity: _WeightedDraw | None
    ) -> None:
        self.popularity = popularity
        self.user_rank, self.users = _ranks(users)
        self.antenna_rank, self.antennas = _ranks(antenna_names)
        # the table's columns: timestamp, located, other, outgoing, antenna
        self.parts: tuple[list[np.ndarray], ...] = tuple(
            [np.empty(0, dtype)] for dtype in (np.int64, np.int32, np.int32, bool, np.int32)
        )

    def add(self, ts, antenna, located, other, direction) -> None:
        """Store a batch of int64 draws (``antenna`` may be one index): users
        and antennas as their int32 codes, which follow the string order of
        the ids, not the order they are numbered in once they outgrow their
        zero padding (``u1000000`` < ``u100001``), and direction 0 as
        outgoing."""
        columns = (ts, self.user_rank[located], self.user_rank[other], direction == 0,
                   np.broadcast_to(self.antenna_rank[antenna], ts.shape))
        for part, column in zip(self.parts, columns):
            part.append(column)

    def add_calls(self, rng: np.random.Generator, ts, antenna, located) -> None:
        """Store a batch of calls by the ``located`` users, drawing from
        ``rng`` their other parties, redrawn wherever they collide with the
        located user (two users or more are needed to end), and then their
        directions."""
        n_users = len(self.user_rank)
        draw = self.popularity or (lambda rng, size: rng.integers(0, n_users, size))
        other = draw(rng, len(located))
        collision = other == located
        while collision.any():
            other[collision] = draw(rng, int(collision.sum()))
            collision = other == located
        self.add(ts, antenna, located, other, rng.integers(0, 2, len(located)))

    def build(self) -> CallTable:
        """The rows sorted stably by timestamp; each column's parts are freed
        once it is joined and ordered."""
        timestamp = _joined(self.parts[0])
        order = np.argsort(timestamp, kind="stable")
        columns = [timestamp[order]]
        del timestamp
        columns += [_joined(part)[order] for part in self.parts[1:]]
        return CallTable(*columns, self.users, self.antennas)


def _ranks(names: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """The int32 rank of each name in string order, and the sorted names."""
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int32)
    rank[order] = np.arange(len(names), dtype=np.int32)
    return rank, tuple(names[i] for i in order)


class _WeightedDraw:
    """``rng.choice(len(p), size, p=p)`` without its per-call checks and
    cumulative sum: the same indices from the same one ``rng.random(size)``
    call, so the Generator ends in the same state.

    The cdf is built once, as numpy builds it, and each draw ``u`` becomes
    ``#(cdf <= u)`` by indexed search (Chen & Asau, 1974): a guide table over
    a power-of-two number of equal buckets, at least two per weight, gives
    the count up to ``u``'s bucket, and a few vectorized steps cover the
    entries inside it.  Draws in a crowded bucket fall back to a binary
    search.
    """

    def __init__(self, p: np.ndarray) -> None:
        self.p = p
        self.cdf = p.cumsum()
        self.cdf /= self.cdf[-1]
        # a power of two, so that u * buckets is exact
        self.buckets = 1 << (2 * len(p) - 1).bit_length()
        self.guide = self.cdf.searchsorted(
            np.arange(self.buckets) / self.buckets, side="right"
        )

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        index = self.guide[(u * self.buckets).astype(np.intp)]
        late = np.flatnonzero(self.cdf[index] <= u)
        for _ in range(_GUIDE_STEPS):
            index[late] += 1
            late = late[self.cdf[index[late]] <= u[late]]
        index[late] = self.cdf.searchsorted(u[late], side="right")
        return index


def _popularity_draw(
    rng: np.random.Generator, n_users: int, exponent: float
) -> _WeightedDraw | None:
    """The other-party draw, Zipf-like over a random rank permutation of the
    users; None means uniform."""
    if exponent == 0.0 or n_users < 2:
        return None
    ranks = np.empty(n_users, dtype=np.float64)
    ranks[rng.permutation(n_users)] = np.arange(n_users, dtype=np.float64)
    # the +10 shift caps the most popular user's share
    weights = (ranks + 10.0) ** -exponent
    return _WeightedDraw(weights / weights.sum())


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
    popularity = _popularity_draw(setup_rng, config.n_users, config.popularity_exponent)

    lam = np.asarray(config.baseline_profile, dtype=float)
    t0 = calendar.start_epoch_seconds
    columns = _Columns(users, antenna_names, popularity)
    can_call = config.n_users >= 2 and n_clients >= 1

    if can_call and lam.any():
        lam_weeks = np.broadcast_to(lam, (config.n_weeks, *lam.shape))
        for antenna, child_seq in enumerate(antenna_seqs):
            rng = np.random.default_rng(child_seq)
            slot_counts = rng.poisson(lam_weeks)
            total = int(slot_counts.sum())
            slot_starts = t0 + np.arange(slot_counts.size, dtype=np.int64) * SECONDS_PER_HOUR
            ts = np.repeat(slot_starts, slot_counts.ravel()) + rng.integers(
                0, SECONDS_PER_HOUR, total
            )
            located = client_idx[rng.integers(0, n_clients, total)]
            columns.add_calls(rng, ts, antenna, located)

    event_rng = np.random.default_rng(event_seq)
    group_assignments: dict[int, list[frozenset[str]]] = {}
    corpus_seconds = calendar.end_epoch_seconds - t0
    for event_index, ev in enumerate(config.events):
        groups: list[frozenset[str]] = []
        group_assignments[event_index] = groups
        if ev.n_attendees == 0:
            continue
        attendee_idx = client_idx[
            event_rng.choice(n_clients, size=ev.n_attendees, replace=False)
        ]
        window_start, window_end = calendar.window_interval(
            ev.week, ev.dow, ev.start_hour, ev.end_hour
        )
        window_seconds = window_end - window_start

        # guaranteed presence: one in-window call per attendee
        ts_presence = window_start + event_rng.integers(0, window_seconds, ev.n_attendees)
        columns.add_calls(event_rng, ts_presence, ev.antenna, attendee_idx)

        # extra in-window volume so the slot mean hits multiplier x baseline
        for hour, extra_mean in enumerate(ev.extra_means(config.baseline_profile)):
            n_extra = int(event_rng.poisson(max(0.0, extra_mean)))
            if n_extra == 0:
                continue
            hour_start = window_start + hour * SECONDS_PER_HOUR
            # located users, then timestamps: the order of the draws fixes the corpus
            located = attendee_idx[event_rng.integers(0, ev.n_attendees, n_extra)]
            ts_extra = hour_start + event_rng.integers(0, SECONDS_PER_HOUR, n_extra)
            columns.add_calls(event_rng, ts_extra, ev.antenna, located)

        # social groups, wired into the contact graph off-window
        sizes = _draw_group_sizes(
            event_rng,
            config.group_size_distribution,
            round(ev.social_fraction * ev.n_attendees),
        )
        clique_pairs: list[tuple[int, int]] = []
        home_ties: list[tuple[int, int]] = []  # (member, outsider)
        attendee_set = set(attendee_idx.tolist())
        cursor = 0
        for size in sizes:
            members = attendee_idx[cursor : cursor + size].tolist()
            cursor += size
            groups.append(frozenset(users[i] for i in members))
            clique_pairs += itertools.combinations(members, 2)
            # the rest of the group's social circle stays home
            stay_home_mean = max(0.0, config.social_circle_size - size)
            n_home = int(event_rng.poisson(stay_home_mean))
            if ev.n_attendees == config.n_users:
                n_home = 0  # everyone attends, so nobody stays home
            for _ in range(n_home):
                outsider = int(event_rng.integers(0, config.n_users))
                while outsider in attendee_set:
                    outsider = int(event_rng.integers(0, config.n_users))
                home_ties += ((member, outsider) for member in members[:-1])

        def wire(pairs: list[tuple[int, int]], swap_sides: bool):
            """Off-window calls between (located, other) pairs, placed
            uniformly over the rest of the corpus."""
            n_pairs = len(pairs)
            located_arr, other_arr = np.array(pairs, dtype=np.int64).T
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

        if clique_pairs:
            wire(clique_pairs, swap_sides=True)
        if home_ties:
            # the member is the located (client) leg; acquaintances may be
            # non-clients and are never located
            wire(home_ties, swap_sides=False)

    return SynthResult(
        records=columns.build(),
        clients=clients,
        truth=list(config.events),
        group_assignments=group_assignments,
        calendar=calendar,
    )


TRUTH_HEADER = "antenna,week,dow,start_hour,end_hour,multiplier,n_attendees"


def write_truth_file(events: Sequence[PlantedEvent], stream: IO[bytes]) -> None:
    """Write planted events, with generated antenna identifiers, to a byte
    stream."""
    lines = [TRUTH_HEADER]
    for ev in events:
        lines.append(
            f"{antenna_id(ev.antenna)},{ev.week},{ev.dow},{ev.start_hour},"
            f"{ev.end_hour},{ev.intensity_multiplier:.12g},{ev.n_attendees}"
        )
    stream.write(("\n".join(lines) + "\n").encode("utf-8"))


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
    "group_size_distribution": lambda sizes: {int(k): p for k, p in sizes.items()},
    "epoch_start": parse_iso_date,
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

