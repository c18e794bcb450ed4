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

import numpy as np

from .model import CallRecord, CallTable

CDR_HEADER = "located_user,other_party,direction,timestamp,antenna"
MAX_REPORTED_ERRORS = 20
_WRITE_BATCH = 4096

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# numbers of up to 18 digits fit int64, so they are read with int64 arithmetic
_FIXED_WIDTH_DIGITS = 18
# the str.splitlines line breaks other than "\n", as UTF-8, the six ASCII ones first
_OTHER_BREAKS = tuple(c.encode() for c in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
# bytes reaching a decode are valid UTF-8, or were encoded from a str that
# may hold lone surrogates
_SURROGATES = "surrogatepass"

# why a line is rejected, in the order the checks apply
_FIELDS, _DIRECTION, _TIMESTAMP, _SELF_CALL, _EMPTY = range(1, 6)


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


def _decode(data: bytes) -> str:
    return data.decode("utf-8", _SURROGATES)


def _read_cdr_bytes(stream: IO) -> bytes:
    """The stream as UTF-8 bytes with every line break rewritten to "\n"."""
    try:
        data = stream.read()
    except OSError as exc:
        raise IngestError(f"unreadable stream: {exc}") from exc
    if isinstance(data, str):
        data = data.encode("utf-8", _SURROGATES)
    elif not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestError(f"stream is not valid UTF-8: {exc}") from exc
    breaks = _OTHER_BREAKS if not data.isascii() else _OTHER_BREAKS[:6]
    if any(brk in data for brk in breaks):
        data = ("\n".join(_decode(data).splitlines()) + "\n").encode("utf-8", _SURROGATES)
    return data


def _timestamps(
    buf: np.ndarray, data: bytes, starts: np.ndarray, lens: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Values of timestamp fields, and whether each field is an optional
    "-" and ASCII digits with a value that fits int64."""
    negative = (lens > 0) & (buf.take(starts, mode="clip") == ord("-"))
    digits_at, n_digits = starts + negative, lens - negative
    valid = n_digits >= 1
    value = np.zeros(len(starts), dtype=np.int64)
    # Horner's rule over the digit columns
    for j in range(min(int(n_digits.max(initial=0)), _FIXED_WIDTH_DIGITS)):
        inside = n_digits > j
        digit = buf.take(digits_at + j, mode="clip") - np.uint8(ord("0"))
        valid &= ~inside | (digit < 10)
        value = np.where(inside, value * 10 + digit, value)
    value = np.where(negative, -value, value)
    for i in np.flatnonzero(n_digits > _FIXED_WIDTH_DIGITS).tolist():
        # still in range with leading zeros, or beyond int64
        token = data[starts[i] : starts[i] + lens[i]]
        number = int(token) if token[int(negative[i]) :].isdigit() else None
        valid[i] = number is not None and _INT64_MIN <= number <= _INT64_MAX
        value[i] = number if valid[i] else 0
    return value, valid


def _encode(
    buf: np.ndarray, data: bytes, starts: np.ndarray, lens: np.ndarray
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Dictionary-encode byte fields: int32 codes into their sorted values.

    Fields are sorted by the big-endian uint64 words of their zero-padded
    bytes, which is the order of their strings.  Padding can only tie a
    field with itself plus trailing NULs, so when the file holds a NUL byte
    the length breaks the tie.  A key matrix larger than the file (a few
    very long identifiers) is avoided by sorting the fields as bytes.
    """
    n = len(starts)
    n_words = max(1, -(-int(lens.max(initial=0)) // 8))
    if n_words > 1 and n_words * 8 * n > len(data):
        fields = [data[s : s + k] for s, k in zip(starts.tolist(), lens.tolist())]
        values = sorted(set(fields))
        code_of = {value: i for i, value in enumerate(values)}.__getitem__
        codes = np.fromiter(map(code_of, fields), dtype=np.int32, count=n)
        return codes, tuple(map(_decode, values))
    words = []
    for word in range(n_words):
        key = np.zeros(n, dtype=np.uint64)
        for j in range(8 * word, 8 * word + 8):
            key <<= np.uint64(8)
            key |= np.where(lens > j, buf.take(starts + j, mode="clip"), 0)
        words.append(key)
    # np.lexsort sorts by its last key first
    keys = ([lens] if b"\0" in data else []) + words[::-1]
    order = np.lexsort(keys) if len(keys) > 1 else np.argsort(keys[0])
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    del words, keys, key, ordered
    ranks = np.cumsum(new, dtype=np.int32)
    ranks -= 1
    codes = np.empty(n, dtype=np.int32)
    codes[order] = ranks
    firsts = order[new]
    return codes, _gather_values(buf, starts[firsts], lens[firsts])


def _gather_values(
    buf: np.ndarray, starts: np.ndarray, lens: np.ndarray
) -> tuple[str, ...]:
    """Decode byte fields in one pass: they hold no line break, so they are
    copied out with "\n" after each, decoded together and split."""
    if not len(starts):
        return ()
    spans = lens.astype(np.int64) + 1
    ends = np.cumsum(spans)
    source = np.arange(ends[-1]) + np.repeat(starts - (ends - spans), spans)
    joined = buf.take(source, mode="clip")
    joined[ends - 1] = ord("\n")
    return tuple(_decode(joined.tobytes()).split("\n")[:-1])


def _reason(code: int, line: str) -> str:
    parts = line.split(",")
    if code == _FIELDS:
        return f"expected 5 fields, got {len(parts)}"
    located, _, direction, timestamp, _ = parts
    if code == _DIRECTION:
        return f"unknown direction {direction!r}"
    if code == _TIMESTAMP:
        return f"bad timestamp {timestamp!r}"
    if code == _SELF_CALL:
        return f"self-call: {located!r}"
    return "empty identifier in call record"


def parse_cdr_file(stream: IO) -> tuple[CallTable, IngestReport]:
    """Parse a CDR stream into a call table plus a validation report.

    Accepts every line break ``str.splitlines`` knows, CRLF included.  Every
    line after the header either yields one record or one rejection entry,
    so accepted + rejected == data lines.  A line is rejected, for the first
    reason that applies, unless it has five fields, the direction ``out`` or
    ``in``, a timestamp that is an optional ``-`` followed by ASCII digits
    with a value that fits int64, two different users and no empty
    identifier.
    """
    data = _read_cdr_bytes(stream)
    if not data:
        raise IngestError("empty CDR stream (missing header)")
    header_end = data.find(b"\n")
    header = data if header_end < 0 else data[:header_end]
    if header != CDR_HEADER.encode():
        raise IngestError(f"bad CDR header: {_decode(header)!r}")
    buf = np.frombuffer(data, dtype=np.uint8)
    offset = np.int32 if len(data) < 2**31 else np.int64
    ends = np.flatnonzero(buf == ord("\n"))[1:].astype(offset)
    if header_end >= 0 and not data.endswith(b"\n"):
        ends = np.append(ends, offset(len(data)))
    starts = np.empty_like(ends)
    starts[:1] = header_end + 1
    starts[1:] = ends[:-1] + 1

    commas = np.flatnonzero(buf == ord(",")).astype(offset)
    first = np.searchsorted(commas, starts)
    five = np.flatnonzero(np.searchsorted(commas, ends) - first == 4)
    bounds = [starts[five] - 1] + [commas[first[five] + k] for k in range(4)]
    bounds.append(ends[five])
    del commas, first
    # located, other, direction, timestamp, antenna
    at = [b + 1 for b in bounds[:-1]]
    lens = [b - a for a, b in zip(at, bounds[1:])]
    del bounds

    def is_token(field: int, token: bytes) -> np.ndarray:
        match = lens[field] == len(token)
        for j, byte in enumerate(token):
            match &= buf.take(at[field] + j, mode="clip") == byte
        return match

    outgoing = is_token(2, b"out")
    direction_ok = outgoing | is_token(2, b"in")
    timestamp, timestamp_ok = _timestamps(buf, data, at[3], lens[3])
    rows = np.flatnonzero(direction_ok & timestamp_ok)
    n = len(rows)
    users, user_values = _encode(
        buf, data, np.concatenate((at[0][rows], at[1][rows])),
        np.concatenate((lens[0][rows], lens[1][rows])),
    )
    located, other = users[:n], users[n:]
    antenna, antenna_values = _encode(buf, data, at[4][rows], lens[4][rows])
    empty = (lens[0][rows] == 0) | (lens[1][rows] == 0) | (lens[4][rows] == 0)
    row_reason = np.select([located == other, empty], [_SELF_CALL, _EMPTY], 0)
    reason = np.full(len(starts), _FIELDS, dtype=np.int8)
    reason[five] = np.select([~direction_ok, ~timestamp_ok], [_DIRECTION, _TIMESTAMP], 0)
    reason[five[rows]] = row_reason

    keep = row_reason == 0
    kept = rows[keep]
    table = CallTable(
        timestamp[kept], located[keep], other[keep], outgoing[kept], antenna[keep],
        user_values, antenna_values,
    )
    rejected = np.flatnonzero(reason)
    report = IngestReport(len(table), len(rejected))
    for i in rejected[:MAX_REPORTED_ERRORS].tolist():
        line = _decode(data[starts[i] : ends[i]])
        report.first_errors.append((i + 2, _reason(int(reason[i]), line)))
    return table, report


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
