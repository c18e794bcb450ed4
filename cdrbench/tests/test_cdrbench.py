"""Tests of the benchmark itself: every workload's code path on tiny corpora,
and every output check rejecting a deliberately wrong output.

Run from the root of a checkout: python3 -m pytest -q cdrbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

TINY = {
    "detect-dense": dict(n_antennas=3, n_users=600, baseline_mean=4.0, n_events=2,
                         n_attendees=40),
    "detect-wide": dict(n_antennas=12, n_users=1_000, n_events=2),
    "infer-social": dict(n_antennas=3, n_users=3_000, baseline_mean=2.0, n_events=2,
                         n_attendees=150),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload's corpus and keep results under tmp_path."""
    for name, changes in TINY.items():
        monkeypatch.setitem(
            corpus.WORKLOADS, name, dataclasses.replace(corpus.WORKLOADS[name], **changes)
        )
    monkeypatch.setattr(run, "STATE", tmp_path / "state")
    return tmp_path


@pytest.fixture
def launcher():
    with run.Launcher() as helper:
        yield helper


def benchmark_spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean_on_tiny_corpus(tiny, launcher, name, trace):
    work = tiny / name
    work.mkdir()
    result = run.measure(run.Workload(name, 3, work, launcher), seconds=0, trace=trace)
    shape = corpus.WORKLOADS[name]
    assert result["correct"] is True
    assert result["failed"] == 0
    ops_per_round = shape.n_events if shape.command == "infer" else 1
    assert result["attempted"] == ops_per_round * (2 if trace else 1)
    spec = benchmark_spec()
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == wanted
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["synth.records"] > 0 and metrics["ingest.accepted"] > 0
        if shape.command == "detect":
            assert metrics["activity.slots"] > 0 and metrics["model.graph_edges"] == 0
            assert metrics["ingest.rejected"] == (len(corpus.MALFORMED_LINES) if shape.malformed else 0)
        else:
            assert metrics["model.graph_edges"] > 0 and metrics["activity.slots"] == 0
            assert 0 < metrics["inference.edges_used_ratio"] <= 1
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_names_every_layer_metric():
    spec = benchmark_spec()
    assert [m["name"] for m in spec["per_layer"]] == [*run.LAYER_METRICS, run.OVERHEAD_METRIC]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


def test_speed_probe_scales_by_the_probes_around_each_process():
    probes = iter([0.5, 1.0, 0.25])

    class FakeLauncher:
        def run(self, argv, log_stem):
            assert argv[-1].endswith("reference.py")
            return run.Proc(next(probes), 30.0, 0, "")

    probe = run.SpeedProbe(FakeLauncher(), Path("unused"))
    assert probe.scale(3.0) == pytest.approx(3.0 * run.REFERENCE_S / 0.75)
    assert probe.scale(3.0) == pytest.approx(3.0 * run.REFERENCE_S / 0.625)


# ------------------------------------------------- checks reject wrong output


def _real_run(tiny: Path, name: str):
    """Generate a tiny corpus and run the round's first command; returns the
    workload, the operation and the command's stderr."""
    work = tiny / name
    work.mkdir()
    with run.Launcher() as launcher:
        workload = run.Workload(name, 5, work, launcher)
        workload.set_up(None)
        op = workload.operations()[0]
        tally = run.Tally()
        proc = run.run_operation(launcher, op, None, tally)
    assert tally.failed == 0
    return workload, op, proc.stderr


def _edit(path: Path, row: int, column: int, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[row].split(",")
    fields[column] = change(fields[column])
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def detect_run(tiny):
    return _real_run(tiny, "detect-dense")


@pytest.fixture
def infer_run(tiny):
    return _real_run(tiny, "infer-social")


def _planted_row(events_csv: Path, workload: run.Workload) -> int:
    calls = oracle.read_calls(workload.cdr)
    ev = corpus.read_truth(workload.work / "corpus" / "truth.csv")[0]
    week, dow = calls.week_dow(ev.date)
    for i, line in enumerate(events_csv.read_text().splitlines()):
        a, w, d, s, e, _ = line.split(",")
        if i and (a, int(w), int(d)) == (ev.antenna, week, dow) and int(s) <= ev.start_hour < int(e):
            return i
    raise AssertionError("planted event not detected")


@pytest.mark.parametrize(
    "column, change",
    [
        (3, lambda v: str(int(v) + 1)),  # event start hour shifted
        (4, lambda v: str(int(v) - 1)),  # event end hour shortened
        (5, lambda v: repr(float(v) * (1 + 1e-9))),  # peak index off in the 9th digit
        (0, lambda v: "A999"),  # wrong antenna
    ],
)
def test_detect_check_rejects_wrong_event(detect_run, column, change):
    workload, op, stderr = detect_run
    events_csv = op.out_dir / "events.csv"
    op.check(op.out_dir, stderr)
    _edit(events_csv, _planted_row(events_csv, workload), column, change)
    with pytest.raises(oracle.CheckFailed):
        op.check(op.out_dir, stderr)


def test_detect_check_rejects_missing_and_extra_events(detect_run):
    workload, op, stderr = detect_run
    events_csv = op.out_dir / "events.csv"
    original = events_csv.read_text()
    lines = original.splitlines()
    del lines[_planted_row(events_csv, workload)]
    events_csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(oracle.CheckFailed):
        op.check(op.out_dir, stderr)
    events_csv.write_text(original + original.splitlines()[1] + "\n")
    with pytest.raises(oracle.CheckFailed):
        op.check(op.out_dir, stderr)


def test_planted_check_rejects_undetected_event(detect_run):
    workload, op, _ = detect_run
    events_csv = op.out_dir / "events.csv"
    calls = oracle.read_calls(workload.cdr)
    planted = corpus.read_truth(workload.work / "corpus" / "truth.csv")
    got = oracle.read_events(events_csv)
    oracle.check_planted(got, calls, planted)
    del got[_planted_row(events_csv, workload) - 1]
    with pytest.raises(oracle.CheckFailed, match="not inside a detected event"):
        oracle.check_planted(got, calls, planted)


def test_flag_budget_check_rejects_too_many_flags(detect_run):
    workload, op, _ = detect_run
    calls = oracle.read_calls(workload.cdr)
    expected = oracle.expected_detection(calls, corpus.PERCENTILE)
    got = oracle.read_events(op.out_dir / "events.csv")
    oracle.check_flag_budget(got, expected, corpus.PERCENTILE)
    name = got[0].antenna
    # two whole flagged days exceed the limit of floor(0.01 * N) <= 21 hours
    extra = [oracle.Event(name, 0, dow, 0, 24, 1.0) for dow in range(2)]
    with pytest.raises(oracle.CheckFailed, match="flagged hours"):
        oracle.check_flag_budget(got + extra, expected, corpus.PERCENTILE)


@pytest.mark.parametrize(
    "edit",
    [
        lambda s: s.replace("rejected 7 of", "rejected 6 of"),
        lambda s: s.replace("dropped 40 records", "dropped 41 records"),
        lambda s: "",
    ],
)
def test_detect_check_rejects_wrong_reported_counts(detect_run, edit):
    _, op, stderr = detect_run
    assert "rejected 7 of" in stderr and "dropped 40 records" in stderr
    with pytest.raises(oracle.CheckFailed):
        op.check(op.out_dir, edit(stderr))


@pytest.mark.parametrize(
    "file, row, column, change",
    [
        ("attendance.csv", 1, 1, lambda v: str(int(v) + 1)),  # numerator off by one
        ("attendance.csv", 2, 2, lambda v: str(int(v) - 1)),  # denominator off by one
        ("attendance.csv", 1, 3, lambda v: repr(float(v) * 1.001)),  # p not n/d
        ("cumulative.csv", 2, 1, lambda v: repr(float(v) * 1.001)),  # not a suffix sum
        ("fit.csv", 1, 0, lambda v: repr(float(v) * 1.01)),  # wrong slope
        ("fit.csv", 1, 1, lambda v: repr(float(v) + 0.01)),  # wrong intercept
        ("fit.csv", 1, 2, lambda v: repr(float(v) * 0.99)),  # wrong r
        ("fit.csv", 1, 3, lambda v: str(int(v) + 1)),  # wrong point count
        ("subgraph_summary.csv", 1, 0, lambda v: str(int(v) + 1)),  # attenders
        ("subgraph_summary.csv", 1, 2, lambda v: str(int(v) + 1)),  # singlets
    ],
)
def test_infer_check_rejects_wrong_output(infer_run, file, row, column, change):
    _, op, stderr = infer_run
    op.check(op.out_dir, stderr)
    _edit(op.out_dir / file, row, column, change)
    with pytest.raises(oracle.CheckFailed):
        op.check(op.out_dir, stderr)


@pytest.mark.parametrize("damage", ["delete", "truncate"])
def test_missing_or_unparsable_output_counts_as_wrong(detect_run, launcher, damage):
    _, op, _ = detect_run
    tally = run.Tally()
    check = op.check

    def damaged(out_dir, stderr):
        events_csv = out_dir / "events.csv"
        if damage == "delete":
            events_csv.unlink()
        else:
            events_csv.write_text(events_csv.read_text().splitlines()[0] + "\nA000,1\n")
        check(out_dir, stderr)

    run.run_operation(launcher, run.Operation(op.args, op.out_dir, damaged), None, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)


def test_infer_check_rejects_social_count_not_matching_numerators(infer_run):
    _, op, stderr = infer_run
    _edit(op.out_dir / "subgraph_summary.csv", 1, 1, lambda v: str(int(v) + 1))
    _edit(op.out_dir / "subgraph_summary.csv", 1, 2, lambda v: str(int(v) - 1))
    with pytest.raises(oracle.CheckFailed, match="numerators"):
        op.check(op.out_dir, stderr)


def test_failed_command_is_counted(tmp_path, launcher):
    op = run.Operation(["detect", str(tmp_path / "missing.csv"), str(tmp_path / "none.txt"),
                        "--out", str(tmp_path / "out")], tmp_path / "out", lambda *a: None)
    tally = run.Tally()
    run.run_operation(launcher, op, None, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)


def test_missing_program_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    status = run.main(["--workload", "detect-dense", "--seed", "1", "--seconds", "1"])
    assert status != 0
    assert "correct" not in capsys.readouterr().out
