"""Benchmark of the cdrevents command-line program.

Usage:
  python3 cdrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is run from ``src/``
as ``python3 -m cdrevents.cli``, one command at a time.  Set-up generates
the workload's corpus with ``cdrevents generate`` and appends the
benchmark's own lines; the measured operations are ``detect`` or ``infer``
commands, each checked against an independent re-derivation (oracle.py).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, whose times are scaled by a speed probe
(reference.py) run next to every timed process; with ``--trace 1`` each command also runs under
tracer.py and the JSON object holds the per-layer metrics.  Corpora live
in ``.cdrbench/work`` and are removed when the run ends; the result and the
spans of a traced run are kept in ``.cdrbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpus
import oracle

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".cdrbench"
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 60
# median wall time of reference.py on the machine whose figures are in the
# README (2 cores, 7 GB, shared); a scaled time is in seconds of that machine
REFERENCE_S = 0.40

END_TO_END_UNITS = {"setup_s": "s", "setup_rss_mb": "MB", "query_s": "s", "query_rss_mb": "MB"}

# per-layer metric: (unit, span name, what to read from those spans)
LAYER_METRICS = {
    "cli.startup_s": ("s", "cli.startup", "time"),
    "cli.write_s": ("s", "cli.write", "time"),
    "cli.self_s": ("s", "cli.main", "self"),
    "ingest.parse_s": ("s", "ingest.parse", "time"),
    "ingest.parse_rss_mb": ("MB", "ingest.parse", "rss"),
    "ingest.accepted": ("count", "ingest.parse", "accepted"),
    "ingest.rejected": ("count", "ingest.parse", "rejected"),
    "ingest.roster_s": ("s", "ingest.roster", "time"),
    "ingest.write_s": ("s", "ingest.write", "time"),
    "synth.generate_s": ("s", "synth.generate", "time"),
    "synth.records": ("count", "synth.generate", "records"),
    "model.calendar_s": ("s", "model.calendar", "time"),
    "model.graph_s": ("s", "model.graph", "time"),
    "model.graph_rss_mb": ("MB", "model.graph", "rss"),
    "model.graph_nodes": ("count", "model.graph", "nodes"),
    "model.graph_edges": ("count", "model.graph", "edges"),
    "activity.aggregate_s": ("s", "activity.aggregate", "time"),
    "activity.index_s": ("s", "activity.index", "time"),
    "activity.detect_s": ("s", "activity.detect", "time"),
    "activity.silent_scan_s": ("s", "activity.silent_scan", "time"),
    "activity.slots": ("count", "activity.index", "slots"),
    "activity.events": ("count", "activity.detect", "events"),
    "social.attenders_s": ("s", "social.attenders", "time"),
    "social.induce_s": ("s", "social.induce", "time"),
    "social.components_s": ("s", "social.components", "time"),
    "social.attenders": ("count", "social.attenders", "attenders"),
    "social.subgraph_edges": ("count", "social.induce", "subgraph_edges"),
    "inference.exact_s": ("s", "inference.exact", "time"),
    "inference.cumulative_s": ("s", "inference.cumulative", "time"),
    "inference.fit_s": ("s", "inference.fit", "time"),
    "inference.rows": ("count", "inference.exact", "rows"),
    "inference.edges_used_ratio": ("ratio", "inference.edges", "ratio"),
}
OVERHEAD_METRIC = "trace.overhead_s"


class SetupFailed(RuntimeError):
    """The corpus could not be generated; no result can be reported."""


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    status: int
    stderr: str


class Launcher:
    """The helper process (launcher.py) that runs every command, so that
    each command's peak RSS is its own and not this process's."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def run(self, argv: list[str], log_stem: Path) -> Proc:
        """Run one process to its end from ROOT with the program on the path."""
        out, err = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
        request = {"argv": argv, "stdout": str(out), "stderr": str(err),
                   "env": {"PYTHONPATH": str(SRC)}, "timeout_s": COMMAND_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        reply = json.loads(reply)
        return Proc(
            reply["wall_s"], reply["rss_mb"], reply["status"],
            err.read_text(encoding="utf-8", errors="replace"),
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()


class SpeedProbe:
    """Runs reference.py after every timed process and scales that process's
    wall time by REFERENCE_S over the mean of the probes just before and
    just after it, so that the drift of the host's speed cancels out."""

    def __init__(self, launcher: Launcher, log_stem: Path) -> None:
        self._launcher = launcher
        self._log_stem = log_stem
        self._before = self._probe()

    def _probe(self) -> float:
        proc = self._launcher.run([sys.executable, str(HERE / "reference.py")], self._log_stem)
        if proc.status != 0:
            raise SetupFailed(f"reference.py exited {proc.status}:\n{proc.stderr}")
        return proc.wall_s

    def scale(self, wall_s: float) -> float:
        after = self._probe()
        scaled = wall_s * REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        return scaled


def cli_argv(args: list[str], spans: Path | None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "cdrevents.cli", *args]
    return [sys.executable, str(HERE / "tracer.py"), "{launch_ns}", str(spans), "--", *args]


@dataclass
class Operation:
    """One CLI command of a round and the check of its outputs."""

    args: list[str]
    out_dir: Path
    check: Callable[[Path, str], None]  # (out_dir, stderr); raises oracle.CheckFailed


@dataclass
class Workload:
    """A generated corpus in a work directory and its operations."""

    name: str
    seed: int
    work: Path
    launcher: Launcher

    @property
    def shape(self) -> corpus.Shape:
        return corpus.WORKLOADS[self.name]

    @property
    def cdr(self) -> Path:
        return self.work / "corpus" / "cdr.csv"

    def generate_args(self) -> list[str]:
        config = self.work / "config.json"
        corpus.write_config(self.shape, self.seed, config)
        return ["generate", str(config), "--out", str(self.work / "corpus")]

    def set_up(self, spans: Path | None) -> Proc:
        """Generate the corpus and append the benchmark's lines; the wall
        time covers both."""
        shutil.rmtree(self.work / "corpus", ignore_errors=True)
        proc = self.launcher.run(cli_argv(self.generate_args(), spans), self.work / "generate")
        if proc.status != 0:
            raise SetupFailed(f"generate exited {proc.status}:\n{proc.stderr}")
        start = time.perf_counter()
        corpus.append_lines(self.cdr, corpus.extra_lines(self.shape, self.seed, self.cdr.parent))
        proc.wall_s += time.perf_counter() - start
        return proc

    def operations(self) -> list[Operation]:
        """One round: a single ``detect``, or one ``infer`` per planted event."""
        calls = oracle.read_calls(self.cdr, corpus.UTC_OFFSET_MINUTES)
        planted = corpus.read_truth(self.work / "corpus" / "truth.csv")
        inputs = [str(self.cdr), str(self.work / "corpus" / "clients.txt")]
        shape = self.shape
        if shape.command == "detect":
            expected = oracle.expected_detection(calls, corpus.PERCENTILE)

            def check_detect(out_dir: Path, stderr: str) -> None:
                oracle.check_detect(
                    out_dir, stderr, calls, expected, planted, corpus.PERCENTILE,
                    len(corpus.MALFORMED_LINES) if shape.malformed else 0,
                    shape.tail_records,
                )

            out_dir = self.work / "out-detect"
            args = ["detect", *inputs, "--out", str(out_dir),
                    "--percentile", str(corpus.PERCENTILE)]
            return [Operation(args, out_dir, check_detect)]

        clients = set(
            (self.work / "corpus" / "clients.txt").read_text(encoding="utf-8").split()
        )
        adjacency = oracle.contact_sets(calls)
        ops = []
        for i, event in enumerate(planted):
            expected = oracle.expected_attendance(
                adjacency, oracle.attender_set(calls, clients, event)
            )

            def check_infer(out_dir: Path, stderr: str, expected=expected) -> None:
                oracle.check_stderr_counts(stderr, 0, 0)
                oracle.check_infer(out_dir, expected, corpus.MIN_DENOMINATOR)

            out_dir = self.work / f"out-infer-{i}"
            args = ["infer", *inputs, "--out", str(out_dir),
                    "--antenna", event.antenna, "--date", event.date.isoformat(),
                    "--window", f"{event.start_hour}:{event.end_hour}",
                    "--min-denominator", str(corpus.MIN_DENOMINATOR)]
            ops.append(Operation(args, out_dir, check_infer))
        return ops


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0


def run_operation(launcher: Launcher, op: Operation, spans: Path | None, tally: Tally) -> Proc:
    """Run one command in a fresh output directory and check it.  A
    non-zero exit, a traceback or a failed check counts as failed; a
    failed check also marks the run incorrect."""
    shutil.rmtree(op.out_dir, ignore_errors=True)
    proc = launcher.run(cli_argv(op.args, spans), op.out_dir.with_name(op.out_dir.name + "-log"))
    tally.attempted += 1
    problem = None
    if proc.status != 0:
        problem = f"exit status {proc.status}"
    elif "Traceback (most recent call last)" in proc.stderr:
        problem = "traceback on stderr"
    else:
        try:
            op.check(op.out_dir, proc.stderr)
        # a missing file or a row that does not parse is wrong output too
        except (oracle.CheckFailed, OSError, ValueError) as exc:
            problem = f"wrong output: {exc!r}"
            tally.wrong += 1
    if problem is not None:
        tally.failed += 1
        print(f"FAILED {' '.join(op.args[:1])}: {problem}\n{proc.stderr[-2000:]}", file=sys.stderr)
    return proc


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced command from its spans; a layer the
    command never called reads 0."""
    durations = [(s["end"] - s["start"]) / 1e9 for s in spans]
    out: dict[str, float] = {}
    for metric, (_, name, field) in LAYER_METRICS.items():
        mine = [i for i, s in enumerate(spans) if s["name"] == name]
        if field == "time":
            value = sum(durations[i] for i in mine)
        elif field == "self":
            value = sum(durations[i] for i in mine) - sum(
                durations[j] for j, s in enumerate(spans) if s["parent"] in mine
            )
        elif field == "rss":
            value = max((spans[i]["counts"]["peak_rss_growth_kb"] for i in mine), default=0) / 1024
        elif field == "ratio":
            counts = [spans[i]["counts"] for i in mine]
            value = counts[-1]["edges_used"] / counts[-1]["edges_built"] if counts else 0.0
        else:
            value = sum(spans[i]["counts"][field] for i in mine)
        out[metric] = value
    return out


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    """Set up, then run whole rounds of operations until ``seconds`` have
    passed.  Returns the result object printed as the last line."""
    tally = Tally()
    traces: list[dict] = []

    def traced(argv_run, label: str):
        spans_path = workload.work / f"spans-{len(traces)}.json"
        proc = argv_run(spans_path)
        spans = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path.exists() else []
        traces.append({"command": label, "wall_s": proc.wall_s, "spans": spans})
        return proc, spans

    if trace:
        _, setup_spans = traced(workload.set_up, "generate")
    else:
        probe = SpeedProbe(workload.launcher, workload.work / "reference")
        setups = []
        setup_scaled = []
        for _ in range(SETUP_REPEATS):
            setups.append(workload.set_up(None))
            setup_scaled.append(probe.scale(setups[-1].wall_s))
    ops = workload.operations()
    if not trace:
        # the re-derivation above takes seconds; probe again next to the commands
        probe = SpeedProbe(workload.launcher, workload.work / "reference")

    plain: list[Proc] = []
    scaled: list[float] = []
    layered: list[dict[str, float]] = []
    overheads: list[float] = []
    start = time.perf_counter()
    rounds = 0
    # whole rounds only; stop at the round boundary nearest to ``seconds``
    while rounds == 0 or (time.perf_counter() - start) * (1 + 0.5 / rounds) < seconds:
        for op in ops:
            plain.append(run_operation(workload.launcher, op, None, tally))
            if not trace:
                scaled.append(probe.scale(plain[-1].wall_s))
            if trace:
                proc, spans = traced(
                    lambda p: run_operation(workload.launcher, op, p, tally), op.args[0]
                )
                overheads.append(proc.wall_s - plain[-1].wall_s)
                layered.append(layer_metrics(spans))
        rounds += 1
    measured_s = time.perf_counter() - start

    command = workload.shape.command
    walls = [p.wall_s for p in plain]
    print(f"{workload.name} seed {workload.seed}: {len(plain)} {command} commands "
          f"in {measured_s:.1f} s, {tally.failed} failed")
    if trace:
        setup_layers = layer_metrics(setup_spans)
        metrics = {
            metric: statistics.median(m[metric] for m in layered)
            for metric in LAYER_METRICS
        }
        for metric in ("synth.generate_s", "synth.records", "ingest.write_s"):
            metrics[metric] = setup_layers[metric]
        metrics[OVERHEAD_METRIC] = statistics.median(overheads)
        units = {m: u for m, (u, _, _) in LAYER_METRICS.items()} | {OVERHEAD_METRIC: "s"}
        notes = {m: f"median of {len(layered)} traced {command} commands" for m in metrics}
        for metric in ("synth.generate_s", "synth.records", "ingest.write_s"):
            notes[metric] = "one traced generate"
        notes[OVERHEAD_METRIC] = f"median of {len(overheads)} traced minus untraced pairs"
        save(workload, "trace", {"commands": traces})
    else:
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "setup_rss_mb": max(p.rss_mb for p in setups),
            "query_s": statistics.median(scaled),
            "query_rss_mb": max(p.rss_mb for p in plain),
        }
        units = END_TO_END_UNITS
        notes = {
            "setup_s": f"median of {len(setups)} generate + prepare runs, scaled; "
                       f"unscaled {statistics.median(p.wall_s for p in setups):.3f} s",
            "setup_rss_mb": f"highest of {len(setups)} generate processes",
            "query_s": f"median of {len(walls)} {command} commands, scaled; "
                       f"unscaled {statistics.median(walls):.3f} s",
            "query_rss_mb": f"highest of {len(walls)} {command} processes",
        }
    for metric, value in metrics.items():
        print(f"  {metric} = {value:.6g} {units[metric]} ({notes[metric]})")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    if trace:
        save(workload, "trace-result", result)
    else:
        samples = {"setup_wall_s": [p.wall_s for p in setups], "setup_scaled_s": setup_scaled,
                   "query_wall_s": walls, "query_scaled_s": scaled}
        save(workload, "result", result | {"samples": samples})
    return result


def save(workload: Workload, kind: str, obj: dict) -> None:
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{workload.seed}-{kind}.json"
    path.write_text(json.dumps(obj), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "cdrevents" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'cdrevents'}; run from a checkout",
              file=sys.stderr)
        return 2
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with Launcher() as launcher:
            workload = Workload(args.workload, args.seed, work, launcher)
            result = measure(workload, args.seconds, bool(args.trace))
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
