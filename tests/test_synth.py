import io
import math

import numpy as np
import pytest

from cdrevents.model import CallTable, Direction
from cdrevents.social import EventWindow, attenders, induce_subgraph
from cdrevents.model import build_contact_graph
from cdrevents.synth import (
    ConfigError,
    PlantedEvent,
    SynthConfig,
    antenna_id,
    config_from_json,
    flat_profile,
    generate,
    write_truth_file,
)
from helpers import compact_social_scenario


def small_config(**overrides):
    base = dict(
        seed=1,
        n_users=400,
        client_fraction=0.5,
        n_antennas=2,
        n_weeks=2,
        baseline_profile=flat_profile(3.0),
    )
    base.update(overrides)
    return SynthConfig(**base)


def one_event(**overrides):
    base = dict(
        antenna=1,
        week=1,
        dow=2,
        start_hour=18,
        end_hour=22,
        intensity_multiplier=6.0,
        n_attendees=50,
        social_fraction=0.5,
    )
    base.update(overrides)
    return PlantedEvent(**base)


# --- validation ---------------------------------------------------------------


def test_rejects_bad_fractions_and_sizes():
    with pytest.raises(ConfigError):
        small_config(client_fraction=1.5)
    with pytest.raises(ConfigError):
        small_config(n_weeks=1)
    with pytest.raises(ConfigError):
        small_config(baseline_profile=[[1.0] * 24] * 6)
    with pytest.raises(ConfigError):
        small_config(group_size_distribution={2: 0.5, 3: 0.4})


def test_rejects_bad_events():
    with pytest.raises(ConfigError):
        small_config(events=(one_event(antenna=2),))
    with pytest.raises(ConfigError):
        small_config(events=(one_event(week=2),))
    with pytest.raises(ConfigError):
        one_event(start_hour=22, end_hour=18)
    with pytest.raises(ConfigError):
        one_event(intensity_multiplier=1.0)


def test_rejects_infeasible_attendance():
    with pytest.raises(ConfigError, match="infeasible"):
        small_config(events=(one_event(n_attendees=500),))


def test_empty_population_gives_empty_corpus():
    result = generate(small_config(n_users=0, client_fraction=0.0))
    assert result.records == []
    assert result.clients == set()
    assert result.truth == []
    assert result.group_assignments == {}


# --- determinism ----------------------------------------------------------------


def test_same_seed_same_output():
    config = small_config(events=(one_event(),))
    a, b = generate(config), generate(config)
    assert a.records == b.records
    assert a.clients == b.clients
    assert a.group_assignments == b.group_assignments


def test_different_seed_different_output():
    a = generate(small_config(seed=1))
    b = generate(small_config(seed=2))
    assert a.records != b.records


# --- structural invariants --------------------------------------------------------


def test_generated_records_are_valid_and_sorted():
    result = generate(small_config(events=(one_event(),)))
    assert all(r.located_user != r.other_party for r in result.records)
    assert all(r.located_user in result.clients for r in result.records)
    assert all(isinstance(r.direction, Direction) for r in result.records)
    timestamps = [r.timestamp for r in result.records]
    assert timestamps == sorted(timestamps)
    assert all(result.calendar.contains(t) for t in timestamps)


def test_generated_vocabularies_follow_string_order():
    # "A1000" sorts before "A101": codes must follow the ids' string order,
    # not the order the generator numbers them in
    result = generate(small_config(
        n_antennas=1001, baseline_profile=flat_profile(0.02),
        events=(one_event(antenna=1000, n_attendees=30),),
    ))
    table = result.records
    assert list(table.antennas) == sorted(table.antennas)
    assert list(table.users) == sorted(table.users)
    assert list(table) == list(CallTable.from_records(list(table)))
    assert (np.diff(table.timestamp) >= 0).all()
    window = EventWindow("A1000", 1, 2, 18, 22)
    assert len(attenders(table, window, result.clients, result.calendar)) >= 30


def test_every_attendee_appears_in_window():
    config = small_config(events=(one_event(),))
    result = generate(config)
    event = result.truth[0]
    window = EventWindow(
        antenna_id(event.antenna), event.week, event.dow,
        event.start_hour, event.end_hour,
    )
    present = attenders(result.records, window, result.clients, result.calendar)
    # each of the n_attendees distinct attendees placed at least one call there
    assert len(present) >= event.n_attendees
    for group in result.group_assignments[0]:
        assert group <= present


def test_group_sizes_follow_support():
    config = small_config(
        n_users=4000, client_fraction=0.5,
        events=(one_event(n_attendees=300, social_fraction=0.6),),
    )
    result = generate(config)
    groups = result.group_assignments[0]
    sizes = sorted(len(g) for g in groups)
    assert set(sizes) <= {2, 3, 4, 7}
    target = round(0.6 * 300)
    assert target - 1 <= sum(sizes) <= target
    members = [u for g in groups for u in g]
    assert len(members) == len(set(members))  # groups never overlap


def test_social_zero_plants_no_groups():
    result = generate(small_config(events=(one_event(social_fraction=0.0),)))
    assert result.group_assignments[0] == []


def test_truth_echoes_config():
    event = one_event()
    result = generate(small_config(events=(event,)))
    assert result.truth == [event]


# --- volume calibration -----------------------------------------------------------


def test_event_slot_volume_matches_stated_mean():
    """Monte-Carlo: with baseline 100 and multiplier 10, the expected event
    slot count is 1000; the mean over 200 seeds must land within 5%."""
    total = 0
    runs = 200
    for seed in range(runs):
        config = SynthConfig(
            seed=seed,
            n_users=2000,
            client_fraction=0.5,
            n_antennas=1,
            n_weeks=2,
            baseline_profile=flat_profile(100.0),
            events=(
                one_event(
                    antenna=0,
                    intensity_multiplier=10.0,
                    n_attendees=100,
                    social_fraction=0.0,
                ),
            ),
        )
        result = generate(config)
        t_lo, t_hi = result.calendar.window_interval(1, 2, 18, 19)
        total += sum(
            1 for r in result.records if r.antenna == "A000" and t_lo <= r.timestamp < t_hi
        )
    mean = total / runs
    assert abs(mean - 1000.0) / 1000.0 < 0.05


def test_event_free_weeks_are_exchangeable():
    """Without events, week totals for the same (dow, hour) grid differ only
    by sampling noise."""
    diff_sum = 0
    per_week_mean = 5.0 * 168 * 2  # lam * hours * antennas
    runs = 60
    for seed in range(runs):
        result = generate(
            SynthConfig(
                seed=seed, n_users=500, client_fraction=0.5, n_antennas=2,
                n_weeks=2, baseline_profile=flat_profile(5.0),
            )
        )
        boundary = result.calendar.start_epoch_seconds + 7 * 86400
        week0 = sum(1 for r in result.records if r.timestamp < boundary)
        week1 = len(result.records) - week0
        diff_sum += week0 - week1
    sigma = math.sqrt(2 * per_week_mean * runs)
    assert abs(diff_sum) < 4.5 * sigma


def test_planted_groups_raise_social_attender_count():
    """Paired per-seed comparison of social attenders with and without
    planted groups; a sign test must reject symmetry at the 1% level."""
    wins = losses = 0
    runs = 200
    for seed in range(runs):
        socials = []
        for fraction in (0.5, 0.0):
            result = generate(compact_social_scenario(seed, fraction))
            event = result.truth[0]
            window = EventWindow(
                antenna_id(event.antenna), event.week, event.dow,
                event.start_hour, event.end_hour,
            )
            present = attenders(
                result.records, window, result.clients, result.calendar
            )
            graph = build_contact_graph(result.records, result.clients)
            socials.append(len(induce_subgraph(graph, present).social_attenders))
        if socials[0] > socials[1]:
            wins += 1
        elif socials[0] < socials[1]:
            losses += 1
    n = wins + losses
    # exact one-sided binomial tail under p=1/2
    tail = sum(math.comb(n, i) for i in range(wins, n + 1))
    p_value = tail / 2**n
    assert p_value < 0.01, (wins, losses)


# --- config files -----------------------------------------------------------------


def test_config_from_json_roundtrip():
    config = config_from_json(
        {
            "seed": 3,
            "n_users": 100,
            "client_fraction": 0.5,
            "n_antennas": 2,
            "n_weeks": 2,
            "baseline_mean": 4.0,
            "events": [
                {"antenna": 0, "week": 1, "dow": 2, "n_attendees": 10}
            ],
            "group_size_distribution": {"2": 0.5, "3": 0.5},
            "epoch_start": "2012-01-02",
        }
    )
    assert config.seed == 3
    assert config.baseline_profile[0][0] == 4.0
    assert config.events[0].n_attendees == 10
    assert config.group_size_distribution == {2: 0.5, 3: 0.5}


def test_config_json_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_json({"n_users": 1, "client_fraction": 0, "n_antennas": 1,
                          "n_weeks": 2, "baseline_mean": 1, "bogus": 1})
    with pytest.raises(ConfigError, match="missing"):
        config_from_json({"baseline_mean": 1.0})
    with pytest.raises(ConfigError, match="baseline"):
        config_from_json({"n_users": 1, "client_fraction": 0, "n_antennas": 1,
                          "n_weeks": 2})
    with pytest.raises(ConfigError, match="baseline"):
        config_from_json({"n_users": 1, "client_fraction": 0, "n_antennas": 1,
                          "n_weeks": 2, "baseline_mean": 1.0,
                          "baseline_profile": [[0.0] * 24] * 7})


def test_truth_file_is_the_same_text_on_text_and_byte_streams():
    events = [PlantedEvent(1, 2, 3), PlantedEvent(0, 0, 6, 9, 13, 2.5, 40)]
    text, binary = io.StringIO(), io.BytesIO()
    write_truth_file(events, text)
    write_truth_file(events, binary)
    assert binary.getvalue().decode("utf-8") == text.getvalue()
    assert text.getvalue().splitlines()[1].startswith(antenna_id(1) + ",2,3,")
