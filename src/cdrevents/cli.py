"""Command-line entry point for batch runs.

Subcommands:
  generate   synthesize a corpus (CDR, roster, ground truth) from a JSON config
  detect     flag high-index hours per antenna and write the event list,
             and with --dump-index one antenna's full index series
  infer      induced contact subgraph of the attenders at one
             antenna/day/window, attendance-probability tables and linear fit

All outputs are plain delimited text written atomically (temp file + rename),
and every command is deterministic given identical inputs and flags.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import os
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import IO, Iterator

import numpy as np

# synth, activity, social and inference are imported by the commands that
# use them, so that each command loads only its own layers
from .ingest import (
    IngestError,
    IngestReport,
    load_client_set,
    parse_cdr_file,
    parse_touching,
    write_cdr_file,
    write_client_roster,
)
from .model import HOURS_PER_DAY, MAX_UTC_OFFSET_MINUTES, CalendarRangeError, DatasetCalendar
from .model import build_contact_graph, parse_iso_date

CDR_FILENAME = "cdr.csv"
ROSTER_FILENAME = "clients.txt"
TRUTH_FILENAME = "truth.csv"
EVENTS_FILENAME = "events.csv"

EVENTS_HEADER = "antenna,week,dow,start_hour,end_hour,peak_index"
INDEX_HEADER = "week,dow,hour,E"
SUMMARY_HEADER = "attenders,social_attenders,singlets,max_component"
ATTENDANCE_HEADER = "k,numerator,denominator,p"
CUMULATIVE_HEADER = "K,p"
FIT_HEADER = "slope,intercept,r,n_points"


class CliError(Exception):
    """User-facing failure; message printed to stderr, exit status 1."""


def _check_inputs(*paths: Path) -> None:
    for path in paths:
        if not path.exists():
            raise CliError(f"input path does not exist: {path}")
        if not path.is_file():
            raise CliError(f"input path is not a regular file: {path}")


@contextlib.contextmanager
def atomic_output(path: Path) -> Iterator[IO[bytes]]:
    """Write to a temp file in the target directory, rename on success.  An
    OSError (say, a file where a directory should be) becomes a CliError."""
    tmp_name = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(fd, "wb") as stream:
            yield stream
        os.replace(tmp_name, path)
    except BaseException as exc:
        if tmp_name is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
        if isinstance(exc, OSError):
            raise CliError(f"cannot write {path}: {exc}") from exc
        raise


def write_lines(path: Path, lines: Iterator[str] | list[str]) -> None:
    with atomic_output(path) as stream:
        for line in lines:
            stream.write((line + "\n").encode("utf-8"))


def fmt(value: float) -> str:
    return f"{value:.12g}"


def parse_utc_offset(token: str) -> int:
    """'±HH:MM' (ASCII digits, at most 14:00) to signed minutes."""
    match = re.fullmatch(r"([+-])([0-9]{2}):([0-9]{2})", token)
    if match is None or int(match[3]) >= 60:
        raise argparse.ArgumentTypeError(
            f"bad UTC offset {token!r}, expected ±HH:MM"
        )
    minutes = int(match[2]) * 60 + int(match[3])
    if minutes > MAX_UTC_OFFSET_MINUTES:
        raise argparse.ArgumentTypeError(
            f"bad UTC offset {token!r}: beyond ±14:00"
        )
    return minutes if match[1] == "+" else -minutes


def parse_window(token: str) -> tuple[int, int]:
    """'HH:HH' (ASCII digits) to a half-open hour range."""
    match = re.fullmatch(r"([0-9]{2}):([0-9]{2})", token)
    if match is None:
        raise argparse.ArgumentTypeError(
            f"bad window {token!r}, expected HH:HH"
        )
    start, end = int(match[1]), int(match[2])
    if not 0 <= start < end <= 24:
        raise argparse.ArgumentTypeError(
            f"bad window {token!r}: need 0 <= start < end <= 24"
        )
    return start, end


def parse_date(token: str) -> dt.date:
    try:
        return parse_iso_date(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad date {token!r}, expected YYYY-MM-DD"
        ) from None


def _load_corpus(cdr_path: Path, utc_offset_minutes: int, window=None):
    """The corpus's hourly counts at the offset, and with a window also its
    records inside it (see ``parse_cdr_file``)."""
    with open(cdr_path, "rb") as stream:
        corpus, report = parse_cdr_file(
            stream, utc_offset_minutes=utc_offset_minutes, window=window
        )
    _print_rejections(cdr_path, report)
    return corpus


def _print_rejections(path: Path, report: IngestReport) -> None:
    if not report.rejected:
        return
    print(
        f"{path}: rejected {report.rejected} of "
        f"{report.accepted + report.rejected} lines",
        file=sys.stderr,
    )
    for line_no, reason in report.first_errors:
        print(f"  line {line_no}: {reason}", file=sys.stderr)


def _calendar_for(records, args):
    """Calendar derived from the corpus's hourly counts, plus the counts it
    covers."""
    if not records:
        raise CliError("corpus is empty, nothing to analyze")
    try:
        calendar = DatasetCalendar.from_records(records, args.utc_offset, args.epoch_start)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    in_range = records.within(calendar)
    dropped = len(records) - len(in_range)
    if dropped:
        print(
            f"dropped {dropped} records outside the {calendar.n_weeks} whole "
            f"calendar weeks starting {calendar.epoch_start}",
            file=sys.stderr,
        )
    return calendar, in_range


def cmd_generate(args) -> int:
    from . import synth

    _check_inputs(args.config)
    try:
        config = synth.load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        result = synth.generate(config)
    except synth.ConfigError as exc:
        raise CliError(str(exc)) from exc
    except MemoryError:
        raise CliError(f"the corpus that {args.config} asks for is too large for memory") from None

    with atomic_output(args.out / CDR_FILENAME) as stream:
        write_cdr_file(result.records, stream)
    with atomic_output(args.out / ROSTER_FILENAME) as stream:
        write_client_roster(result.clients, stream)
    with atomic_output(args.out / TRUTH_FILENAME) as stream:
        synth.write_truth_file(result.truth, stream)

    print(
        f"generated {len(result.records)} records, {len(result.clients)} clients, "
        f"{config.n_antennas} antennas, planted events: {len(result.truth)}"
    )
    print(
        f"calendar: {config.n_weeks} weeks from {config.epoch_start} "
        f"(utc offset {config.utc_offset_minutes} min)"
    )
    return 0


def cmd_detect(args) -> int:
    from . import activity

    _check_inputs(args.cdr, args.roster)
    if not 0 < args.percentile <= 1:
        raise CliError(f"--percentile must be in (0, 1], got {args.percentile}")
    # the activity layer reads only calls per antenna and hour, and no roster
    calendar, in_range = _calendar_for(_load_corpus(args.cdr, args.utc_offset), args)
    n_antennas = np.count_nonzero(np.bincount(in_range.antenna))
    try:
        cube = activity.aggregate(in_range, calendar)
        del in_range  # the index reads only the cube
        series = activity.event_index(cube)
        del cube  # detection reads only the index
    except MemoryError:
        raise CliError(
            f"the derived calendar of {calendar.n_weeks} weeks and {n_antennas} "
            "antennas gives an activity grid too large for memory"
        ) from None
    events = activity.detect_events(series, args.percentile)

    if args.dump_index is not None:
        _write_index_dump(args.out, series, args.dump_index)

    lines = [EVENTS_HEADER]
    for ev in events:
        lines.append(
            f"{ev.antenna},{ev.week},{ev.dow},{ev.start_hour},{ev.end_hour},"
            f"{fmt(ev.peak_index)}"
        )
    write_lines(args.out / EVENTS_FILENAME, lines)
    print(
        f"detected {len(events)} events across "
        f"{len(series.antennas)} active antennas "
        f"(calendar {calendar.n_weeks} weeks from {calendar.epoch_start})"
    )
    return 0


def _write_index_dump(out_dir: Path, series, antenna: str) -> None:
    if "/" in antenna:
        raise CliError(f"antenna {antenna!r} holds '/', so index_<antenna>.csv is no file name")
    if antenna not in series.antennas:
        raise CliError(f"unknown antenna {antenna!r}")
    lines = [INDEX_HEADER]
    for week, slots in enumerate(series.values.row(antenna).tolist()):
        for slot, value in enumerate(slots):
            dow, hour = divmod(slot, HOURS_PER_DAY)
            lines.append(f"{week},{dow},{hour},{fmt(value)}")
    write_lines(out_dir / f"index_{antenna}.csv", lines)


def _window_analysis(args):
    """``infer``'s contact graph and the attenders' induced subgraph.

    The CDR file is read twice.  The first pass counts its calls per hour,
    for the calendar, and keeps the records inside the window, for the
    attenders; the window's epoch interval depends only on the date, the
    hours and the offset.  The second pass keeps the attenders' records."""
    from . import social

    start_hour, end_hour = args.window
    interval = DatasetCalendar(args.date, 1, args.utc_offset).window_interval(
        0, 0, start_hour, end_hour
    )
    counts, inside = _load_corpus(args.cdr, args.utc_offset, (args.antenna, *interval))
    with open(args.roster, "rb") as stream:
        clients = load_client_set(stream)
    calendar, _ = _calendar_for(counts, args)
    week, dow = calendar.slot_of_date(args.date)
    window = social.EventWindow(args.antenna, week, dow, start_hour, end_hour)
    present = social.attenders(inside, window, clients, calendar)
    del counts, inside, clients  # the second pass holds only its block and rows
    if not present:
        raise CliError(
            f"no attenders at {args.antenna} on {args.date} "
            f"{start_hour:02d}:00-{end_hour:02d}:00"
        )
    # every later step reads only neighbors(u) of attenders u: their edges suffice
    with open(args.cdr, "rb") as stream:
        touching = parse_touching(stream, present)
    graph = build_contact_graph(touching.within(calendar))
    subgraph = social.induce_subgraph(graph, present)
    return graph, subgraph


def cmd_infer(args) -> int:
    from . import inference, social

    _check_inputs(args.cdr, args.roster)
    if args.min_denominator < 1:
        raise CliError(f"--min-denominator must be at least 1, got {args.min_denominator}")
    graph, subgraph = _window_analysis(args)
    # the subgraph files come before the fit, so a window too small to fit
    # still leaves them
    edge_lines = ["u,v"] + [f"{u},{v}" for u, v in sorted(subgraph.edges)]
    write_lines(args.out / "subgraph_edges.csv", edge_lines)
    histogram = social.component_size_histogram(subgraph)
    max_component = max(histogram) if histogram else 0
    summary_lines = [
        SUMMARY_HEADER,
        f"{len(subgraph.attenders)},{len(subgraph.social_attenders)},"
        f"{len(subgraph.singlets)},{max_component}",
    ]
    write_lines(args.out / "subgraph_summary.csv", summary_lines)
    table = inference.attendance_probability(graph, subgraph.attenders)
    cumulative = table.cumulative()
    points = table.points(args.min_denominator)
    try:
        fit = inference.linear_fit(points)
    except ValueError as exc:
        raise CliError(
            f"cannot fit: {exc} (after --min-denominator {args.min_denominator})"
        ) from exc

    attendance_lines = [ATTENDANCE_HEADER] + [
        f"{k},{row.numerator},{row.denominator},{fmt(row.p)}"
        for k, row in sorted(table.rows.items())
    ]
    cumulative_lines = [CUMULATIVE_HEADER] + [
        f"{k},{fmt(row.p)}" for k, row in sorted(cumulative.items())
    ]
    fit_lines = [
        FIT_HEADER,
        f"{fmt(fit.slope)},{fmt(fit.intercept)},{fmt(fit.r)},{len(points)}",
    ]
    write_lines(args.out / "attendance.csv", attendance_lines)
    write_lines(args.out / "cumulative.csv", cumulative_lines)
    write_lines(args.out / "fit.csv", fit_lines)
    degenerate = " (degenerate)" if fit.degenerate else ""
    print(
        f"fit over {len(points)} points: slope {fmt(fit.slope)}, "
        f"intercept {fmt(fit.intercept)}, r {fmt(fit.r)}{degenerate}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdrevents",
        description="Event detection and social analysis over call detail records",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, dated=False):
        p.add_argument("cdr", type=Path, help="CDR file")
        p.add_argument("roster", type=Path, help="client roster file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument(
            "--utc-offset",
            type=parse_utc_offset,
            default="-03:00",
            help="fixed local offset ±HH:MM (default -03:00)",
        )
        p.add_argument(
            "--epoch-start",
            type=parse_date,
            default=None,
            help="pin week 0 to this local date instead of the first record",
        )
        if dated:
            p.add_argument("--antenna", required=True, help="antenna identifier")
            p.add_argument(
                "--date", type=parse_date, required=True, help="local date YYYY-MM-DD"
            )
            p.add_argument(
                "--window",
                type=parse_window,
                default="18:22",
                help="local hour window HH:HH (default 18:22)",
            )

    p_gen = sub.add_parser("generate", help="synthesize a corpus with ground truth")
    p_gen.add_argument("config", type=Path, help="JSON generator config")
    p_gen.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p_gen.add_argument("--seed", type=int, default=None, help="override config seed")
    p_gen.set_defaults(func=cmd_generate)

    p_detect = sub.add_parser("detect", help="flag high-index hours per antenna")
    add_common(p_detect)
    p_detect.add_argument(
        "--percentile",
        type=float,
        default=0.99,
        help="per-antenna detection percentile in (0, 1] (default 0.99)",
    )
    p_detect.add_argument(
        "--dump-index",
        metavar="ANTENNA",
        default=None,
        help="also write the full index series of this antenna",
    )
    p_detect.set_defaults(func=cmd_detect)

    p_infer = sub.add_parser(
        "infer", help="attender subgraph, attendance probability and linear fit for one window"
    )
    add_common(p_infer, dated=True)
    p_infer.add_argument(
        "--min-denominator",
        type=int,
        default=5,
        help="drop table rows below this denominator before fitting (default 5)",
    )
    p_infer.set_defaults(func=cmd_infer)
    return parser


def _join_offset_values(argv: list[str]) -> list[str]:
    """Fold '--utc-offset -03:00' into '--utc-offset=-03:00'.

    argparse treats a leading '-' value as an option string, so the separated
    form would otherwise be rejected.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--utc-offset" and i + 1 < len(argv):
            out.append(f"--utc-offset={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_offset_values(list(argv)))
    try:
        return args.func(args)
    except (CliError, IngestError, CalendarRangeError, OSError) as exc:
        # an OSError here is an input that cannot be opened or read; an
        # output that cannot be written is already a CliError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
