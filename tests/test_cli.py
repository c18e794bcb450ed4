import datetime as dt
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cdrevents
from cdrevents import CallRecord, DatasetCalendar, Direction, ingest, write_cdr_file
from cdrevents.cli import build_parser, main, parse_utc_offset, parse_window

SOCIAL_CONFIG = {
    "seed": 11,
    "n_users": 8000,
    "client_fraction": 0.7,
    "n_antennas": 3,
    "n_weeks": 2,
    "baseline_mean": 8.0,
    "events": [
        {
            "antenna": 1,
            "week": 1,
            "dow": 4,
            "start_hour": 18,
            "end_hour": 22,
            "intensity_multiplier": 8.0,
            "n_attendees": 250,
            "social_fraction": 0.6,
        }
    ],
}

DETECT_CONFIG = {
    "seed": 5,
    "n_users": 4000,
    "client_fraction": 0.7,
    "n_antennas": 3,
    "n_weeks": 6,
    "baseline_mean": 30.0,
    "events": [
        {
            "antenna": 1,
            "week": 2,
            "dow": 4,
            "start_hour": 18,
            "end_hour": 22,
            "intensity_multiplier": 8.0,
            "n_attendees": 120,
            "social_fraction": 0.0,
        }
    ],
}


def write_config(tmp_path, payload, name="config.json"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def generate_corpus(tmp_path, payload):
    out = tmp_path / "corpus"
    status = main(["generate", str(write_config(tmp_path, payload)), "--out", str(out)])
    assert status == 0
    return out / "cdr.csv", out / "clients.txt", out / "truth.csv"


def checksums(*paths):
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]


# --- generate ----------------------------------------------------------------


def test_generate_writes_three_files(tmp_path, capsys):
    cdr, roster, truth = generate_corpus(tmp_path, DETECT_CONFIG)
    assert cdr.exists() and roster.exists() and truth.exists()
    assert "generated" in capsys.readouterr().out
    header = truth.read_text().splitlines()[0]
    assert header == "antenna,week,dow,start_hour,end_hour,multiplier,n_attendees"
    assert truth.read_text().splitlines()[1].startswith("A001,2,4,18,22,8,")


def test_generate_is_deterministic(tmp_path):
    first = generate_corpus(tmp_path / "a", DETECT_CONFIG)
    second = generate_corpus(tmp_path / "b", DETECT_CONFIG)
    assert checksums(*first) == checksums(*second)


def test_generate_seed_flag_overrides(tmp_path):
    config = write_config(tmp_path, DETECT_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", str(config), "--out", str(out_a), "--seed", "99"]) == 0
    assert main(["generate", str(config), "--out", str(out_b)]) == 0
    assert checksums(out_a / "cdr.csv") != checksums(out_b / "cdr.csv")


def test_generate_invalid_config_fails_without_outputs(tmp_path, capsys):
    bad = dict(DETECT_CONFIG, client_fraction=1.5)
    out = tmp_path / "corpus"
    status = main(["generate", str(write_config(tmp_path, bad)), "--out", str(out)])
    assert status != 0
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_generate_missing_config_path(tmp_path, capsys):
    status = main(["generate", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert status != 0
    assert "does not exist" in capsys.readouterr().err


TINY_CONFIG = {
    "seed": 1,
    "n_users": 100,
    "client_fraction": 0.5,
    "n_antennas": 2,
    "n_weeks": 2,
    "baseline_mean": 1.0,
    "events": [{"antenna": 1, "week": 1, "dow": 2, "n_attendees": 10}],
}
TINY_EVENT = TINY_CONFIG["events"][0]
DROP = object()  # a config change that removes its key


# config changes and flags that each made the generator end in a traceback, or
# exit 0 on a config it should refuse
BAD_GENERATOR_INPUTS = {
    "popularity_exponent not a number": ({"popularity_exponent": "abc"}, []),
    "epoch_start not a date": ({"epoch_start": "2012-13-01"}, []),
    "epoch_start in ISO 8601 basic form": ({"epoch_start": "20120102"}, []),
    "event not an object": ({"events": [1]}, []),
    "event dow not a number": ({"events": [dict(TINY_EVENT, dow="x")]}, []),
    "n_users not an integer": ({"n_users": 100.5}, []),
    "baseline_mean not a number": ({"baseline_mean": "x"}, []),
    "baseline_mean beyond numpy's Poisson mean": ({"baseline_mean": 1e308}, []),
    "utc_offset_minutes not a number": ({"utc_offset_minutes": "x"}, []),
    "seed negative": ({"seed": -5}, []),
    "seed not a number": ({"seed": "x"}, []),
    "group_size_distribution not an object": ({"group_size_distribution": [1]}, []),
    "--seed negative": ({}, ["--seed", "-1"]),
    "event antenna not an integer": ({"events": [dict(TINY_EVENT, antenna=1.5)]}, []),
    "event week a float": ({"events": [dict(TINY_EVENT, week=1.0)]}, []),
    "event n_attendees not an integer": ({"events": [dict(TINY_EVENT, n_attendees=10.5)]}, []),
    "event dow a bool": ({"events": [dict(TINY_EVENT, dow=True)]}, []),
    "intensity_multiplier beyond numpy's Poisson mean": (
        {"events": [dict(TINY_EVENT, intensity_multiplier=1e300)]}, []),
    "intensity_multiplier infinite": (
        {"events": [dict(TINY_EVENT, intensity_multiplier=float("inf"))]}, []),
    "intensity_multiplier infinite on a zero profile": (
        {"baseline_mean": 0.0, "events": [dict(TINY_EVENT, intensity_multiplier=float("inf"))]},
        []),
    "intensity_multiplier NaN": ({"events": [dict(TINY_EVENT, intensity_multiplier=float("nan"))]}, []),
    "baseline_profile holding a string": (
        {"baseline_mean": DROP, "baseline_profile": [[1.0] * 23 + ["x"]] * 7}, []),
    "group size probability NaN": ({"group_size_distribution": {"2": float("nan")}}, []),
    "social_circle_size infinite": ({"social_circle_size": float("inf")}, []),
    "n_weeks too large for memory": ({"n_weeks": 10**13}, []),
    "utc_offset_minutes a float": ({"utc_offset_minutes": 90.7}, []),
    "utc_offset_minutes a bool": ({"utc_offset_minutes": True}, []),
    "utc_offset_minutes far beyond 14:00": ({"utc_offset_minutes": 10**9}, []),
    "utc_offset_minutes just beyond -14:00": ({"utc_offset_minutes": -841}, []),
    "client_fraction a bool": ({"client_fraction": True}, []),
    "popularity_exponent a bool": ({"popularity_exponent": True}, []),
    "social_circle_size a bool": ({"social_circle_size": True}, []),
    "baseline_mean a bool": ({"baseline_mean": True}, []),
    "baseline_profile holding a bool": (
        {"baseline_mean": DROP, "baseline_profile": [[1.0] * 23 + [True]] * 7}, []),
    "group size probability a bool": ({"group_size_distribution": {"2": True}}, []),
    "event social_fraction a bool": ({"events": [dict(TINY_EVENT, social_fraction=True)]}, []),
}


@pytest.mark.parametrize("case", list(BAD_GENERATOR_INPUTS))
def test_a_bad_generator_input_is_one_error_line(tmp_path, case):
    changes, flags = BAD_GENERATOR_INPUTS[case]
    payload = {key: value for key, value in dict(TINY_CONFIG, **changes).items() if value is not DROP}
    config = write_config(tmp_path, payload)
    proc = run_cli("-m", "cdrevents.cli", "generate", str(config), "--out", "out", *flags,
                   cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len([line for line in proc.stderr.splitlines() if line.startswith("error:")]) == 1
    assert not (tmp_path / "out" / "cdr.csv").exists()
    assert not (tmp_path / "out" / "truth.csv").exists()


def test_generate_ends_when_every_user_attends(tmp_path):
    # all ten users attend an event that forms social groups, so nobody is
    # left to stay home: the generator places no stay-home ties instead of
    # searching for an outsider forever (run in a new process, so that a
    # regression fails on the timeout instead of hanging the suite)
    config = write_config(tmp_path, {
        "seed": 1, "n_users": 10, "client_fraction": 1.0, "n_antennas": 1, "n_weeks": 2,
        "baseline_mean": 0.1,
        "events": [{"antenna": 0, "week": 0, "dow": 0, "start_hour": 10, "end_hour": 12,
                    "n_attendees": 10, "social_fraction": 1.0}],
    })
    proc = run_cli("-m", "cdrevents.cli", "generate", str(config), "--out", "out",
                   cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "truth.csv").read_text().splitlines()[1] == "A000,0,0,10,12,8,10"


# --- detect --------------------------------------------------------------------


def test_detect_finds_planted_event(tmp_path, capsys):
    cdr, roster, _ = generate_corpus(tmp_path, DETECT_CONFIG)
    out = tmp_path / "det"
    status = main(["detect", str(cdr), str(roster), "--out", str(out)])
    assert status == 0
    lines = (out / "events.csv").read_text().splitlines()
    assert lines[0] == "antenna,week,dow,start_hour,end_hour,peak_index"
    planted = [l for l in lines[1:] if l.startswith("A001,2,4,")]
    assert len(planted) == 1
    _, _, _, start, end, peak = planted[0].split(",")
    assert (start, end) == ("18", "22")
    assert float(peak) > 2.0


def test_detect_percentile_one_flags_nothing(tmp_path):
    cdr, roster, _ = generate_corpus(tmp_path, DETECT_CONFIG)
    out = tmp_path / "det"
    status = main(
        ["detect", str(cdr), str(roster), "--out", str(out), "--percentile", "1.0"]
    )
    assert status == 0
    assert (out / "events.csv").read_text().splitlines()[1:] == []


def test_detect_event_free_corpus_flags_at_most_one_percent(tmp_path):
    quiet = dict(DETECT_CONFIG, events=[])
    cdr, roster, _ = generate_corpus(tmp_path, quiet)
    out = tmp_path / "det"
    assert main(["detect", str(cdr), str(roster), "--out", str(out)]) == 0
    flagged_per_antenna: dict[str, int] = {}
    for line in (out / "events.csv").read_text().splitlines()[1:]:
        antenna, _, _, start, end, _ = line.split(",")
        flagged_per_antenna[antenna] = (
            flagged_per_antenna.get(antenna, 0) + int(end) - int(start)
        )
    slots = 6 * 168  # weeks * weekly hour slots
    assert all(count <= 0.01 * slots for count in flagged_per_antenna.values())


def test_detect_dump_index_writes_series(tmp_path):
    cdr, roster, _ = generate_corpus(tmp_path, DETECT_CONFIG)
    out = tmp_path / "det"
    status = main(
        ["detect", str(cdr), str(roster), "--out", str(out), "--dump-index", "A001"]
    )
    assert status == 0
    lines = (out / "index_A001.csv").read_text().splitlines()
    assert lines[0] == "week,dow,hour,E"
    assert len(lines) == 1 + 6 * 7 * 24


def test_detect_unknown_dump_antenna_fails(tmp_path, capsys):
    cdr, roster, _ = generate_corpus(tmp_path, DETECT_CONFIG)
    status = main(
        ["detect", str(cdr), str(roster), "--out", str(tmp_path), "--dump-index", "A9"]
    )
    assert status != 0
    assert "unknown antenna" in capsys.readouterr().err


def test_detect_bad_percentile_rejected(tmp_path):
    cdr, roster, _ = generate_corpus(tmp_path, DETECT_CONFIG)
    status = main(
        ["detect", str(cdr), str(roster), "--out", str(tmp_path), "--percentile", "0"]
    )
    assert status != 0


def test_detect_reports_rejected_lines(tmp_path, capsys):
    cdr, roster, _ = generate_corpus(tmp_path, DETECT_CONFIG)
    with open(cdr, "a") as stream:
        stream.write("A,A,out,9,L9\n")
    status = main(["detect", str(cdr), str(roster), "--out", str(tmp_path / "d")])
    assert status == 0
    assert "rejected 1" in capsys.readouterr().err


def test_detect_never_reads_its_roster(tmp_path):
    cdr, roster, _ = generate_corpus(tmp_path, DETECT_CONFIG)
    garbled = tmp_path / "garbled.txt"
    garbled.write_bytes(b"u000001\n\xff\xfe\n")  # not UTF-8
    assert main(["detect", str(cdr), str(roster), "--out", str(tmp_path / "a")]) == 0
    assert main(["detect", str(cdr), str(garbled), "--out", str(tmp_path / "b")]) == 0
    assert checksums(tmp_path / "a" / "events.csv") == checksums(tmp_path / "b" / "events.csv")


def test_detect_rejects_timestamp_beyond_int64(tmp_path, capsys):
    cdr, roster, _ = generate_corpus(tmp_path, DETECT_CONFIG)
    with open(cdr, "a") as stream:
        stream.write("u000001,u000002,out,100000000000000000000000,A000\n")
    status = main(["detect", str(cdr), str(roster), "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert status == 0
    assert "rejected 1" in err and "bad timestamp" in err
    assert "Traceback" not in err


# --- report ---------------------------------------------------------------------


def test_report_dumps_index(tmp_path):
    cdr, _, _ = generate_corpus(tmp_path, DETECT_CONFIG)
    out = tmp_path / "rep"
    status = main(["report", str(cdr), "--antenna", "A000", "--out", str(out)])
    assert status == 0
    lines = (out / "index_A000.csv").read_text().splitlines()
    values = [float(line.split(",")[3]) for line in lines[1:]]
    finite = [v for v in values if v == v]
    assert finite and abs(sum(finite) / len(finite) - 1.0) < 0.05


def test_detect_and_report_read_shuffled_lines_like_sorted_ones(tmp_path, capsys, monkeypatch):
    # blocks of 4 KiB of shuffled lines each span the whole calendar, so the
    # parse folds them by sorting, not binning, and merges cells of one hour
    # read in many blocks; a partial week at the end is dropped either way
    cdr, roster, _ = generate_corpus(tmp_path, DETECT_CONFIG)
    with open(cdr, "a") as stream:
        stream.write(f"u000001,u000002,out,{1325473200 + 6 * 7 * 86400 + 5},A002\n")
    header, *lines = cdr.read_text().splitlines()
    random.Random(3).shuffle(lines)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header, *lines]) + "\n")
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4096)
    capsys.readouterr()
    outputs = []
    for source in (cdr, shuffled):
        out = tmp_path / source.stem
        args = [str(source), "--out", str(out)]
        assert main(["detect", *args, str(roster), "--dump-index", "A001"]) == 0
        assert main(["report", *args, "--antenna", "A002"]) == 0
        files = [(out / name).read_bytes() for name in ("events.csv", "index_A001.csv", "index_A002.csv")]
        outputs.append((files, capsys.readouterr()))
    assert outputs[0] == outputs[1]


# --- subgraph and infer -----------------------------------------------------------


def event_date(start="2012-01-02", week=1, dow=4):
    import datetime as dt

    d = dt.date.fromisoformat(start) + dt.timedelta(days=week * 7 + dow)
    return d.isoformat()


def test_subgraph_outputs(tmp_path):
    cdr, roster, _ = generate_corpus(tmp_path, SOCIAL_CONFIG)
    out = tmp_path / "sub"
    status = main(
        ["subgraph", str(cdr), str(roster), "--out", str(out),
         "--antenna", "A001", "--date", event_date()]
    )
    assert status == 0
    edges = (out / "subgraph_edges.csv").read_text().splitlines()
    assert edges[0] == "u,v"
    assert len(edges) > 20
    header, row = (out / "subgraph_summary.csv").read_text().splitlines()
    assert header == "attenders,social_attenders,singlets,max_component"
    attenders, social, singlets, max_component = map(int, row.split(","))
    assert attenders >= 250
    assert social + singlets == attenders
    assert max_component >= 2


def test_infer_outputs_positive_slope(tmp_path):
    cdr, roster, _ = generate_corpus(tmp_path, SOCIAL_CONFIG)
    out = tmp_path / "inf"
    status = main(
        ["infer", str(cdr), str(roster), "--out", str(out),
         "--antenna", "A001", "--date", event_date()]
    )
    assert status == 0
    fit_header, fit_row = (out / "fit.csv").read_text().splitlines()
    assert fit_header == "slope,intercept,r,n_points"
    slope, intercept, r, n_points = fit_row.split(",")
    assert float(slope) > 0
    assert int(n_points) >= 2
    attendance = (out / "attendance.csv").read_text().splitlines()
    assert attendance[0] == "k,numerator,denominator,p"
    for line in attendance[1:]:
        k, num, den, p = line.split(",")
        assert 0 <= int(num) <= int(den)
        assert abs(float(p) - int(num) / int(den)) < 1e-9
    cumulative = (out / "cumulative.csv").read_text().splitlines()
    assert cumulative[0] == "K,p"
    assert (out / "subgraph_summary.csv").exists()


def test_infer_no_attenders_is_diagnostic_failure(tmp_path, capsys):
    # traffic only at noon, so an early-morning window has nobody
    noon_only = dict(
        SOCIAL_CONFIG,
        events=[],
        baseline_mean=None,
        baseline_profile=[
            [5.0 if hour == 12 else 0.0 for hour in range(24)] for _ in range(7)
        ],
    )
    del noon_only["baseline_mean"]
    cdr, roster, _ = generate_corpus(tmp_path, noon_only)
    status = main(
        ["infer", str(cdr), str(roster), "--out", str(tmp_path / "x"),
         "--antenna", "A001", "--date", event_date(week=0, dow=0),
         "--window", "03:04"]
    )
    assert status == 1
    assert "no attenders" in capsys.readouterr().err


def test_window_validation_is_usage_error(tmp_path):
    cdr, roster, _ = generate_corpus(tmp_path, SOCIAL_CONFIG)
    with pytest.raises(SystemExit) as excinfo:
        main(["infer", str(cdr), str(roster), "--antenna", "A001",
              "--date", event_date(), "--window", "22:18"])
    assert excinfo.value.code == 2


def test_date_outside_calendar_fails(tmp_path, capsys):
    cdr, roster, _ = generate_corpus(tmp_path, SOCIAL_CONFIG)
    status = main(
        ["infer", str(cdr), str(roster), "--out", str(tmp_path / "x"),
         "--antenna", "A001", "--date", "2013-06-01"]
    )
    assert status == 1
    assert "outside calendar" in capsys.readouterr().err


def test_utc_offset_flag_parses(tmp_path):
    cdr, roster, _ = generate_corpus(tmp_path, DETECT_CONFIG)
    out = tmp_path / "det"
    status = main(
        ["detect", str(cdr), str(roster), "--out", str(out),
         "--utc-offset", "-03:00"]
    )
    assert status == 0
    with pytest.raises(SystemExit):
        main(["detect", str(cdr), str(roster), "--utc-offset", "nonsense"])


WINDOW_OUTPUTS = {
    "subgraph": ["subgraph_edges.csv", "subgraph_summary.csv"],
    "infer": ["subgraph_summary.csv", "attendance.csv", "cumulative.csv", "fit.csv"],
}


def library_answers(cdr, roster, antenna, date, window=(18, 22), min_denominator=5):
    """The lines of every window-command output, derived by the library from
    the full parse of the CDR file and the full contact graph; and that
    graph, the attenders and the clients."""
    from cdrevents import (
        EventWindow,
        attendance_probability,
        attenders,
        build_contact_graph,
        component_size_histogram,
        induce_subgraph,
        linear_fit,
        load_client_set,
        parse_cdr_file,
    )

    with open(cdr, "rb") as stream:
        records, _ = parse_cdr_file(stream)
    with open(roster, "rb") as stream:
        clients = load_client_set(stream)
    calendar = DatasetCalendar.from_records(records)
    in_range = [r for r in records if calendar.contains(r.timestamp)]
    week, dow = calendar.slot_of_date(dt.date.fromisoformat(date))
    present = attenders(in_range, EventWindow(antenna, week, dow, *window), clients, calendar)
    graph = build_contact_graph(in_range, clients)

    sub = induce_subgraph(graph, present)
    sizes = component_size_histogram(sub)
    summary = [
        "attenders,social_attenders,singlets,max_component",
        f"{len(present)},{len(sub.social_attenders)},{len(sub.singlets)},"
        f"{max(sizes) if sizes else 0}",
    ]
    edges = ["u,v"] + [f"{u},{v}" for u, v in sorted(sub.edges)]
    table = attendance_probability(graph, present)
    rows = sorted(table.rows.items())
    attendance = ["k,numerator,denominator,p"] + [
        f"{k},{r.numerator},{r.denominator},{r.p:.12g}" for k, r in rows
    ]
    cumulative = ["K,p"]
    for big_k in range(1, rows[-1][0] + 1):
        num = sum(r.numerator for k, r in rows if k >= big_k)
        den = sum(r.denominator for k, r in rows if k >= big_k)
        cumulative.append(f"{big_k},{num / den:.12g}")
    points = table.points(min_denominator)
    fit = linear_fit(points)
    fit_lines = [
        "slope,intercept,r,n_points",
        f"{fit.slope:.12g},{fit.intercept:.12g},{fit.r:.12g},{len(points)}",
    ]
    answers = {
        "subgraph_edges.csv": edges,
        "subgraph_summary.csv": summary,
        "attendance.csv": attendance,
        "cumulative.csv": cumulative,
        "fit.csv": fit_lines,
    }
    return answers, graph, present, clients


def assert_window_commands_give(answers, cdr, roster, out, flags, min_denominator=5):
    """``subgraph`` and ``infer`` with these flags write ``answers``."""
    for command, names in WINDOW_OUTPUTS.items():
        args = [command, str(cdr), str(roster), "--out", str(out / command), *flags]
        if command == "infer":
            args += ["--min-denominator", str(min_denominator)]
        assert main(args) == 0
        for name in names:
            assert (out / command / name).read_text(encoding="utf-8").splitlines() == answers[name]


def test_window_commands_match_full_graph_library_answers(tmp_path):
    # the CLI builds only the attenders' incident edges; every output must
    # equal what the library computes from the full contact graph
    cdr, roster, _ = generate_corpus(tmp_path, SOCIAL_CONFIG)
    date = event_date()
    answers, graph, present, clients = library_answers(cdr, roster, "A001", date)

    # the case is only telling if the full graph holds much the CLI skips
    touching = sum(len(graph.neighbors(u)) for u in present)
    assert touching < graph.n_edges / 2
    assert any(v not in clients for u in present for v in graph.neighbors(u))
    assert len(answers["subgraph_edges.csv"]) > 20

    assert_window_commands_give(answers, cdr, roster, tmp_path, ["--antenna", "A001", "--date", date])


# identifiers whose uint64 words and lengths tell them apart only in part:
# the pairs share their first 8 or 16 bytes, their last 8 or 16, both (and
# so the same first and last word and length), or all but a trailing NUL
PREFIX, SUFFIX = "sixteen-byte-pre", "sixteen-byte-suf"
ATTENDING = ["prefix08-a", PREFIX + "-a", "a-" + SUFFIX, PREFIX + "x" + SUFFIX, "nul", "ñandú", "😀"]
NOT_ATTENDING = ["prefix08-b", PREFIX + "-b", "b-" + SUFFIX, PREFIX + "y" + SUFFIX, "nul\x00",
                 "ñandú\x00", "😀😀"]


def hostile_window_corpus(directory):
    """A one-week CDR file with CRLF breaks whose attenders at W on
    2012-01-06 18:00-22:00 have the identifiers of ``ATTENDING``, and their
    roster.  Every attender calls two other attenders, and the users of
    ``NOT_ATTENDING`` one to four.  Beside them are lines that name an
    attender but are rejected, one per reason, one of them not UTF-8, and an
    attender's call after the last whole week."""
    week = DatasetCalendar(dt.date(2012, 1, 2), 1, -180)
    start, window = week.start_epoch_seconds, week.window_interval(0, 4, 18, 22)[0]
    lines = [f"{u},{v},out,{start + 60 * i},A0" for i, (u, v) in enumerate([
        *zip(ATTENDING, ATTENDING[1:] + ATTENDING[:1]),
        *((v, u) for u, v in zip(NOT_ATTENDING, ATTENDING)),
        *((v, u) for u, v in zip(NOT_ATTENDING, ATTENDING[1:4])),
        *((v, u) for u, v in zip(NOT_ATTENDING, ATTENDING[4:6])),
        *((v, u) for u, v in zip(NOT_ATTENDING[::2], ATTENDING[6:])),
        ("bystander", "walker"), ("walker", NOT_ATTENDING[0]), (NOT_ATTENDING[3], "bystander"),
    ])]
    lines += [f"{u},visitor,in,{window + 60 * i},W" for i, u in enumerate(ATTENDING)]
    lines += [
        f"walker,{ATTENDING[0]},out,{window},W",  # neither is a client
        f"{NOT_ATTENDING[5]},visitor,in,{window},W",
        f"{ATTENDING[1]},late,out,{week.end_epoch_seconds + 3600},A0",  # after the week
        f"{ATTENDING[2]},tail,out,{week.end_epoch_seconds - 1},A1",
        f"{ATTENDING[0]},missing,out,{window}",
        f"{ATTENDING[0]},sideways,up,{window},W",
        f"{ATTENDING[0]},bad-time,out,{window}s,W",
        f"{ATTENDING[0]},{ATTENDING[0]},out,{window},W",
        f"{ATTENDING[0]},empty-antenna,out,{window},",
    ]
    text = "\r\n".join([ingest.CDR_HEADER, *lines]).encode("utf-8")
    text += f"\r\n{ATTENDING[3]},".encode() + b"\xff\xfe" + f",out,{window},W\r\n".encode()
    directory.mkdir(parents=True, exist_ok=True)
    cdr, roster = directory / "cdr.csv", directory / "clients.txt"
    cdr.write_bytes(text)
    roster.write_text("\n".join(ATTENDING + NOT_ATTENDING[::2]) + "\n", encoding="utf-8")
    return cdr, roster


@pytest.mark.parametrize("block_bytes", [None, 64, 333])
def test_window_commands_match_the_library_on_hostile_identifiers(
    tmp_path, monkeypatch, block_bytes
):
    # the second pass picks lines by a key of each user field's first and
    # last word and its length, which some of these identifiers share, then
    # keeps the attenders' records exactly: no line may be lost or added
    if block_bytes is not None:
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
    cdr, roster = hostile_window_corpus(tmp_path / "in")
    answers, graph, present, _ = library_answers(cdr, roster, "W", "2012-01-06", min_denominator=1)
    assert present == set(ATTENDING)
    # the case is only telling if each kind of line is in it
    assert "late" not in graph.nodes and "tail" in graph.nodes
    assert graph.neighbors(NOT_ATTENDING[3]) == {ATTENDING[3], "bystander"}
    flags = ["--antenna", "W", "--date", "2012-01-06"]
    assert_window_commands_give(answers, cdr, roster, tmp_path / "out", flags, min_denominator=1)


def test_calendar_keeps_both_edges_and_drops_the_end_instant(tmp_path, capsys):
    # one derived week: records at its first and last second are kept, a
    # record at the exclusive end is dropped and counted
    import datetime as dt

    from cdrevents import CallRecord, DatasetCalendar, Direction, write_cdr_file

    week = DatasetCalendar(dt.date(2012, 1, 2), 1, -180)
    lo, hi = week.start_epoch_seconds, week.end_epoch_seconds
    cdr = tmp_path / "cdr.csv"
    with open(cdr, "wb") as stream:
        write_cdr_file(
            [CallRecord("a", "b", Direction.OUTGOING, ts, "L1") for ts in (lo, hi - 1, hi)],
            stream,
        )
    out = tmp_path / "rep"
    assert main(["report", str(cdr), "--antenna", "L1", "--out", str(out)]) == 0
    assert "dropped 1 records outside the 1 whole calendar weeks" in capsys.readouterr().err
    rows = (out / "index_L1.csv").read_text().splitlines()[1:]
    assert len(rows) == 7 * 24
    defined = [row for row in rows if not row.endswith(",nan")]
    assert defined == ["0,0,0,1", "0,6,23,1"]


def test_far_future_timestamp_is_one_error_line_not_a_traceback(tmp_path, capsys):
    # one 16-digit timestamp stretches the derived calendar to ~10^10 weeks,
    # whose activity grid cannot be allocated
    cdr, roster, _ = generate_corpus(tmp_path, DETECT_CONFIG)
    with open(cdr, "a") as stream:
        stream.write("u001,u002,out,9000000000000000,A000\n")
    for command in (["detect", str(cdr), str(roster)], ["report", str(cdr), "--antenna", "A000"]):
        status = main([*command, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert status == 1
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert re.search(r"calendar of (\d{11}) weeks and 3 antennas", errors[0])
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--utc-offset", "+ 3:00"),
        ("--utc-offset", "+\u0660\u0663:00"),  # Arabic-Indic digits
        ("--utc-offset", "+03:\u0660\u0660"),
        ("--utc-offset", "+99:00"),
        ("--utc-offset", "+14:01"),
        ("--utc-offset", "-15:00"),
        ("--utc-offset", "+03:60"),
        ("--utc-offset", "+3:00"),
        ("--utc-offset", "03:00"),
        ("--utc-offset", "+03:00 "),
        ("--window", " 18:22"),
        ("--window", "18:2_2"),
        ("--window", "\u0661\u0668:22"),
        ("--window", "18:22\n"),
        ("--window", "+18:22"),
        ("--window", "8:22"),
        ("--window", "18:22:23"),
    ],
)
def test_offset_and_window_flags_accept_only_their_documented_form(flag, value):
    parser = build_parser()
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(
            ["infer", "cdr.csv", "clients.txt", "--antenna", "A001",
             "--date", "2012-01-13", f"{flag}={value}"]
        )
    assert excinfo.value.code == 2


# Python 3.11's date.fromisoformat takes each of these; 3.10's takes none
@pytest.mark.parametrize("value", ["20120128", "2012-W04-6", "2012W041", "20120102"])
@pytest.mark.parametrize("flag", ["--date", "--epoch-start"])
def test_date_flags_accept_only_yyyy_mm_dd(flag, value):
    parser = build_parser()
    command = ["infer", "cdr.csv", "clients.txt", "--antenna", "A001"]
    args = parser.parse_args([*command, "--date", "2012-01-28", "--epoch-start", "2012-01-02"])
    assert (args.date, args.epoch_start) == (dt.date(2012, 1, 28), dt.date(2012, 1, 2))
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args([*command, "--date", "2012-01-13", f"{flag}={value}"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "token,minutes",
    [("+14:00", 840), ("-12:00", -720), ("-03:00", -180), ("+05:45", 345), ("-00:00", 0)],
)
def test_offsets_within_real_range_parse(token, minutes):
    assert parse_utc_offset(token) == minutes


def test_window_parses_two_digit_hours():
    assert parse_window("18:22") == (18, 22)
    assert parse_window("00:24") == (0, 24)


# --- inputs that are not what they should be ----------------------------------


def tiny_corpus(directory):
    """Two weeks of one call an hour at two antennas, and a roster."""
    directory.mkdir(parents=True, exist_ok=True)
    start = DatasetCalendar(dt.date(2012, 1, 2), 2, -180).start_epoch_seconds
    records = [
        CallRecord(f"u{hour % 5}", f"v{hour % 3}", Direction.OUTGOING, start + 3600 * hour, antenna)
        for hour in range(14 * 24) for antenna in ("A0", "A1")
    ]
    with open(directory / "cdr.csv", "wb") as stream:
        write_cdr_file(records, stream)
    (directory / "clients.txt").write_text("u0\nu1\n")
    return directory / "cdr.csv", directory / "clients.txt"


def run_cli(*args, cwd, timeout=None):
    """``python -m cdrevents.cli`` in a new process, on this source tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(cdrevents.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd,
        timeout=timeout,
    )


def tree(root):
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


@pytest.mark.parametrize(
    "case",
    ["cdr is a directory", "roster is a directory", "config is a directory", "out is a file"],
)
def test_an_input_or_output_of_the_wrong_kind_is_one_error_line(tmp_path, case):
    cdr, roster = tiny_corpus(tmp_path / "in")
    folder, existing = tmp_path / "folder", tmp_path / "existing"
    folder.mkdir()
    existing.write_text("kept\n")
    out = str(tmp_path / "out")
    args = {
        "cdr is a directory": ["detect", str(folder), str(roster), "--out", out],
        "roster is a directory": ["detect", str(cdr), str(folder), "--out", out],
        "config is a directory": ["generate", str(folder), "--out", out],
        "out is a file": ["detect", str(cdr), str(roster), "--out", str(existing)],
    }[case]
    before = tree(tmp_path)
    proc = run_cli("-m", "cdrevents.cli", *args, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len([line for line in proc.stderr.splitlines() if line.startswith("error:")]) == 1
    assert tree(tmp_path) == before
    assert existing.read_text() == "kept\n"



def error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("command", ["detect", "report", "infer"])
def test_a_timestamp_before_year_1_is_one_error_line(tmp_path, capsys, command):
    cdr, roster = tiny_corpus(tmp_path / "in")
    with open(cdr, "ab") as stream:
        stream.write(b"u0,v0,out,-9223372036854775808,A0\n")
    args = {
        "detect": ["detect", str(cdr), str(roster)],
        "report": ["report", str(cdr), "--antenna", "A0"],
        "infer": ["infer", str(cdr), str(roster), "--antenna", "A0", "--date", "2012-01-03"],
    }[command]
    assert main([*args, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    day = (-(2**63) - 3 * 3600) // 86400  # local days since 1970-01-01 at -03:00
    assert error_lines(err) == [
        f"error: earliest local day {day} (days since 1970-01-01) is outside the years 1-9999"
    ]
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["detect", "report"])
def test_an_index_dump_never_writes_outside_out(tmp_path, capsys, command):
    antenna = "x/../../escaped"
    start = DatasetCalendar(dt.date(2012, 1, 2), 1, -180).start_epoch_seconds
    cdr, roster = tmp_path / "cdr.csv", tmp_path / "clients.txt"
    records = [
        CallRecord("a", "b", Direction.OUTGOING, start + 3600 * h, antenna) for h in range(168)
    ]
    with open(cdr, "wb") as stream:
        write_cdr_file(records, stream)
    roster.write_text("a\n")
    out = tmp_path / "deep" / "out"
    args = {
        "detect": ["detect", str(cdr), str(roster), "--dump-index", antenna],
        "report": ["report", str(cdr), "--antenna", antenna],
    }[command]
    before = tree(tmp_path)
    assert main([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(error_lines(err)) == 1 and "'/'" in error_lines(err)[0]
    # nothing written at all: no events.csv, no index_x/, no escaped.csv
    assert tree(tmp_path) == before


@pytest.fixture(scope="module")
def generated_tiny_corpus(tmp_path_factory):
    cdr, roster, _ = generate_corpus(tmp_path_factory.mktemp("tiny"), TINY_CONFIG)
    return cdr, roster


def appending(line):
    return lambda cdr, roster: cdr.write_bytes(cdr.read_bytes() + line)


# one mutation of a generated corpus each.  A timestamp between about 10^11
# and 10^14 s is left out: the derived calendar then spans so many weeks that
# its activity grid takes gigabytes, yet can still be allocated (at 10^12 s
# `detect` was killed while it allocated a 6.6 GB grid)
HOSTILE_INPUTS = {
    "int64 minimum": appending(b"u000001,u000002,out,-9223372036854775808,A000\n"),
    "int64 maximum": appending(b"u000001,u000002,out,9223372036854775807,A000\n"),
    "a second before year 1": appending(b"u000001,u000002,out,-62135596801,A000\n"),
    "24-digit timestamp": appending(b"u000001,u000002,out,100000000000000000000000,A000\n"),
    "invalid UTF-8": appending(b"u000001,\xc3\x28\xff,out,1326000000,A000\n"),
    "cut line": appending(b"u000001,u000002,out\n"),
    "CRLF breaks": lambda cdr, roster: cdr.write_bytes(cdr.read_bytes().replace(b"\n", b"\r\n")),
    "empty roster": lambda cdr, roster: roster.write_bytes(b""),
}
TINY_DATE = event_date(week=TINY_EVENT["week"], dow=TINY_EVENT["dow"])


@pytest.mark.parametrize("mutation", list(HOSTILE_INPUTS))
@pytest.mark.parametrize("command", ["detect", "report", "infer"])
def test_a_hostile_input_exits_0_or_1_without_a_traceback(
    tmp_path, capsys, generated_tiny_corpus, command, mutation
):
    cdr, roster = mutated_copy(tmp_path, generated_tiny_corpus, mutation)
    args = {
        "detect": ["detect", str(cdr), str(roster)],
        "report": ["report", str(cdr), "--antenna", "A001"],
        "infer": ["infer", str(cdr), str(roster), "--antenna", "A001", "--date", TINY_DATE],
    }[command]
    status = main([*args, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert status in (0, 1)
    assert "Traceback" not in err
    if status == 1:
        assert err.splitlines()[-1].startswith("error: ")


def mutated_copy(tmp_path, corpus, mutation):
    """A copy of the corpus's CDR file and roster, with the mutation made."""
    cdr, roster = tmp_path / "cdr.csv", tmp_path / "clients.txt"
    for source, copy in zip(corpus, (cdr, roster)):
        copy.write_bytes(source.read_bytes())
    HOSTILE_INPUTS[mutation](cdr, roster)
    return cdr, roster


def detect_outputs(cdr, roster, out):
    """``detect``'s exit status, and every file it wrote, by name."""
    status = main(["detect", str(cdr), str(roster), "--dump-index", "A001", "--out", str(out)])
    return status, {path.name: path.read_bytes() for path in out.glob("*")}


# a far-off timestamp still sets the calendar's span (ROADMAP item 2)
SPAN_DEFECTS = ("int64 minimum", "int64 maximum", "a second before year 1")
SPAN_DEFECT = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: the calendar's span runs to the extreme timestamps"
)


@pytest.mark.parametrize(
    "mutation",
    [pytest.param(m, marks=SPAN_DEFECT) if m in SPAN_DEFECTS else m for m in HOSTILE_INPUTS],
)
def test_a_hostile_input_leaves_every_detect_output_unchanged(
    tmp_path, generated_tiny_corpus, mutation
):
    # the events and the index series (which shows the calendar) of the rest
    status, outputs = detect_outputs(*generated_tiny_corpus, tmp_path / "clean")
    assert status == 0 and set(outputs) == {"events.csv", "index_A001.csv"}
    mutated = detect_outputs(*mutated_copy(tmp_path, generated_tiny_corpus, mutation), tmp_path / "out")
    assert mutated == (0, outputs)


def test_infer_with_fewer_than_two_k_values_left_is_one_error_line(
    tmp_path, capsys, generated_tiny_corpus
):
    cdr, roster = generated_tiny_corpus
    args = ["infer", str(cdr), str(roster), "--antenna", "A001", "--date", TINY_DATE]
    assert main([*args, "--out", str(tmp_path / "all"), "--min-denominator", "1"]) == 0
    rows = (tmp_path / "all" / "attendance.csv").read_text().splitlines()[1:]
    denominators = sorted(int(row.split(",")[2]) for row in rows)
    # only the row with the largest denominator is left
    assert len(denominators) >= 2 and denominators[-2] < denominators[-1]
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([*args, "--out", str(out), "--min-denominator", str(denominators[-1])]) == 1
    err = capsys.readouterr().err
    assert error_lines(err) == [
        "error: cannot fit: need at least 2 points with 2 distinct k values "
        f"(after --min-denominator {denominators[-1]})"
    ]
    assert "Traceback" not in err and not out.exists()


# --- imports ---------------------------------------------------------------------

# modules that only generate, subgraph and infer need
NOT_FOR_DETECT = ["cdrevents.synth", "cdrevents.social", "cdrevents.inference", "fractions", "json"]


@pytest.mark.parametrize("command", ["detect", "report"])
def test_detect_and_report_import_only_their_own_layers(tmp_path, command):
    cdr, roster = tiny_corpus(tmp_path)
    args = {
        "detect": ["detect", str(cdr), str(roster), "--dump-index", "A0"],
        "report": ["report", str(cdr), "--antenna", "A0"],
    }[command]
    # -X importtime lists on stderr each module the process imports
    proc = run_cli("-X", "importtime", "-m", "cdrevents.cli", *args, "--out", "out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    assert "cdrevents.activity" in imported and "cdrevents.ingest" in imported
    assert not imported & set(NOT_FOR_DETECT)
    assert (tmp_path / "out" / "index_A0.csv").exists()


EXPORTS = """
    ActivityCube AttendanceRow AttendanceTable CalendarRangeError CallRecord CallTable
    ConfigError ContactGraph DatasetCalendar DetectedEvent Direction EventIndexSeries
    EventWindow HourlyCounts IngestError IngestReport InducedSubgraph LinearFit PlantedEvent
    SilentAntennaError SynthConfig SynthResult aggregate antenna_id
    attendance_probability attenders build_contact_graph component_size_histogram
    contact_counts cumulative_attendance_probability detect_events event_index
    flat_profile generate induce_subgraph linear_fit load_client_set parse_cdr_file
    percentile_threshold user_id write_cdr_file write_client_roster
""".split()


def test_every_export_imports_by_name():
    assert sorted(cdrevents.__all__) == sorted(EXPORTS)
    for name in cdrevents.__all__:
        namespace: dict = {}
        exec(f"from cdrevents import {name}", namespace)
        assert namespace[name] is getattr(cdrevents, name)
        assert name in dir(cdrevents)
    namespace = {}
    exec("from cdrevents import *", namespace)
    assert set(cdrevents.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        cdrevents.no_such_name
