"""The names the benchmark's tracer wraps to time each layer of a command.

``cdrbench/tracer.py`` replaces these public names with recording wrappers
and reports one span per call, so each name must exist and each command
must still call the ones its layers stand for, or the per-layer figures of
a traced run stop meaning what they say.
"""

import datetime as dt
import json
from collections import Counter

import pytest

from cdrevents import activity, cli, inference, social, synth

WRAPPED = [
    (synth, "generate"),
    (cli, "parse_cdr_file"),
    (cli, "load_client_set"),
    (cli, "build_contact_graph"),
    (cli, "write_cdr_file"),
    (cli, "write_lines"),
    (cli.DatasetCalendar, "from_records"),
    (activity, "aggregate"),
    (activity, "event_index"),
    (activity, "detect_events"),
    (activity.EventIndexSeries, "silent_antennas"),
    (social, "attenders"),
    (social, "induce_subgraph"),
    (social, "component_size_histogram"),
    (inference, "attendance_probability"),
    (inference, "cumulative_attendance_probability"),
    (inference, "linear_fit"),
]

CONFIG = {
    "seed": 3,
    "n_users": 3000,
    "client_fraction": 0.7,
    "n_antennas": 3,
    "n_weeks": 2,
    "baseline_mean": 6.0,
    "events": [
        {"antenna": 1, "week": 1, "dow": 4, "start_hour": 18, "end_hour": 22,
         "intensity_multiplier": 8.0, "n_attendees": 150, "social_fraction": 0.6}
    ],
}


@pytest.fixture
def calls(monkeypatch):
    """Counting wrappers on every wrapped name; maps name to its results."""
    results: dict[str, list] = {}

    def wrap(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            results.setdefault(attr, []).append(result)
            return result

        if isinstance(owner, type) and hasattr(original, "__self__"):
            wrapper = staticmethod(wrapper)
        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in WRAPPED:
        wrap(owner, attr)
    return results


@pytest.fixture
def corpus(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert cli.main(["generate", str(config), "--out", str(tmp_path / "corpus")]) == 0
    return tmp_path / "corpus" / "cdr.csv", tmp_path / "corpus" / "clients.txt"


def check_parse(calls):
    [result] = calls["parse_cdr_file"]
    assert isinstance(result, tuple) and len(result) == 2
    assert result[1].accepted > 0 and result[1].rejected == 0


def test_generate_calls_the_synth_and_writer_layers(calls, corpus):
    [result] = calls["generate"]
    assert len(result.records) > 0
    assert len(calls["write_cdr_file"]) == 1


def test_detect_calls_the_ingest_calendar_and_activity_layers(calls, corpus, tmp_path):
    cdr, roster = corpus
    calls.clear()
    assert cli.main(["detect", str(cdr), str(roster), "--out", str(tmp_path / "d")]) == 0
    check_parse(calls)
    counts = Counter({name: len(results) for name, results in calls.items()})
    for name in ("from_records", "aggregate", "event_index", "detect_events"):
        assert counts[name] == 1, name
    assert counts["write_lines"] >= 1
    # detect checks that its roster is a file but never reads it
    assert counts["load_client_set"] == 0


def test_infer_calls_the_ingest_graph_social_and_inference_layers(calls, corpus, tmp_path):
    cdr, roster = corpus
    calls.clear()
    date = (dt.date(2012, 1, 2) + dt.timedelta(days=7 + 4)).isoformat()
    status = cli.main(
        ["infer", str(cdr), str(roster), "--out", str(tmp_path / "i"),
         "--antenna", "A001", "--date", date, "--min-denominator", "2"]
    )
    assert status == 0
    check_parse(calls)
    counts = Counter({name: len(results) for name, results in calls.items()})
    for name in ("load_client_set", "attenders", "build_contact_graph", "induce_subgraph",
                 "attendance_probability", "linear_fit", "component_size_histogram"):
        assert counts[name] == 1, name
    assert calls["attenders"][0] and calls["build_contact_graph"][0].n_edges > 0
