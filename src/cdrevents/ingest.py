"""Strict parsing and writing of the delimited CDR and client-roster files.

Both formats are UTF-8 text.  CDR files carry a fixed header and one located
call leg per line; rosters carry one user identifier per line.  Malformed CDR
lines are rejected individually and reported, never silently dropped.
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass, field
from typing import IO, Iterable

from .model import CallRecord, Direction

CDR_HEADER = "located_user,other_party,direction,timestamp,antenna"
MAX_REPORTED_ERRORS = 20
_WRITE_BATCH = 4096

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

_DIRECTIONS = {d.value: d for d in Direction}


class IngestError(Exception):
    """Fatal input problem: undecodable stream or missing/bad header."""


@dataclass
class IngestReport:
    """Per-file tally of accepted and rejected lines.

    ``first_errors`` holds up to 20 (line number, reason) pairs; line numbers
    are 1-based file positions, so the first data line is line 2.
    """

    accepted: int = 0
    rejected: int = 0
    first_errors: list[tuple[int, str]] = field(default_factory=list)

    def reject(self, line_no: int, reason: str) -> None:
        self.rejected += 1
        if len(self.first_errors) < MAX_REPORTED_ERRORS:
            self.first_errors.append((line_no, reason))


def _read_text(stream: IO) -> str:
    try:
        data = stream.read()
    except OSError as exc:
        raise IngestError(f"unreadable stream: {exc}") from exc
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestError(f"stream is not valid UTF-8: {exc}") from exc
    return data


def _is_integer_token(token: str) -> bool:
    """An optional "-" followed by ASCII digits."""
    digits = token[1:] if token[:1] == "-" else token
    return digits.isdigit() and digits.isascii()


def parse_cdr_file(stream: IO) -> tuple[list[CallRecord], IngestReport]:
    """Parse a CDR stream into records plus a validation report.

    Accepts LF or CRLF line endings.  Every line after the header either
    yields one CallRecord or one rejection entry, so
    accepted + rejected == data lines.  A timestamp is an optional ``-``
    followed by ASCII digits, with a value that fits int64.
    """
    text = _read_text(stream)
    lines = text.splitlines()
    if not lines:
        raise IngestError("empty CDR stream (missing header)")
    if lines[0] != CDR_HEADER:
        raise IngestError(f"bad CDR header: {lines[0]!r}")
    # int() also accepts "_", "+", spaces, tabs and non-ASCII digits, which the
    # format does not; below a header an ASCII text free of them needs no
    # check per token
    body = len(CDR_HEADER)
    int_is_strict = text.isascii() and all(text.find(c, body) < 0 for c in "_+ \t")
    del text  # free it before the records are built
    records: list[CallRecord] = []
    report = IngestReport()
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            report.reject(line_no, f"expected 5 fields, got {len(parts)}")
            continue
        located, other, direction_token, timestamp_token, antenna = parts
        direction = _DIRECTIONS.get(direction_token)
        if direction is None:
            report.reject(line_no, f"unknown direction {direction_token!r}")
            continue
        try:
            timestamp = int(timestamp_token)
        except ValueError:
            timestamp = None
        if (
            timestamp is None
            or not (int_is_strict or _is_integer_token(timestamp_token))
            or not _INT64_MIN <= timestamp <= _INT64_MAX
        ):
            report.reject(line_no, f"bad timestamp {timestamp_token!r}")
            continue
        try:
            record = CallRecord(located, other, direction, timestamp, antenna)
        except ValueError as exc:
            report.reject(line_no, str(exc))
            continue
        records.append(record)
        report.accepted += 1
    return records, report


def _line_writer(stream: IO):
    if isinstance(stream, (io.RawIOBase, io.BufferedIOBase)) or "b" in getattr(
        stream, "mode", ""
    ):
        return lambda line: stream.write(line.encode("utf-8"))
    return stream.write


def write_cdr_file(records: Iterable[CallRecord], stream: IO) -> None:
    """Write records in the CDR format; re-parsing yields the same sequence.

    Raises ValueError, naming the record, when an identifier holds a comma
    or a line break (anything ``str.splitlines`` breaks on), since its line
    would not parse back; the records before it may already be written.
    """
    write = _line_writer(stream)
    write(CDR_HEADER + "\n")
    records = iter(records)
    while batch := list(itertools.islice(records, _WRITE_BATCH)):
        lines = [
            f"{r.located_user},{r.other_party},{r.direction.value},"
            f"{r.timestamp},{r.antenna}\n"
            for r in batch
        ]
        text = "".join(lines)
        # identifiers only add commas and breaks; "\r\n" would hide a "\r"
        if (
            text.count(",") != 4 * len(lines)
            or "\r" in text
            or len(text.splitlines()) != len(lines)
        ):
            for record, line in zip(batch, lines):
                if line.count(",") != 4 or line.splitlines() != [line[:-1]]:
                    raise ValueError(
                        f"cannot write {record!r}: an identifier holds a "
                        "comma or a line break"
                    )
        write(text)


def load_client_set(stream: IO) -> set[str]:
    """Read a roster (one identifier per line) into a deduplicated set.

    Blank lines are ignored; surrounding whitespace is stripped.
    """
    clients: set[str] = set()
    for line in _read_text(stream).splitlines():
        token = line.strip()
        if token:
            clients.add(token)
    return clients


def write_client_roster(clients: Iterable[str], stream: IO) -> None:
    """Write a roster, one identifier per line, sorted for stable output."""
    write = _line_writer(stream)
    for user in sorted(clients):
        write(user + "\n")
