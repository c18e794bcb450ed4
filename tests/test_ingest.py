import datetime as dt
import io
import itertools
import os
import re
import tracemalloc
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrevents import cli, ingest
from cdrevents.activity import aggregate
from cdrevents.cli import build_parser
from cdrevents.ingest import (
    CDR_HEADER,
    IngestError,
    IngestReport,
    load_client_set,
    parse_cdr_file,
    parse_touching,
    write_cdr_file,
    write_client_roster,
)
from cdrevents.model import CallRecord, CallTable, DatasetCalendar, Direction, HourlyCounts
from helpers import IN, OUT, rec, reference_parse_cdr, reference_write_cdr


OFFSET = -180  # minutes, the commands' default


def parse_text(text: str):
    return parse_cdr_file(io.BytesIO(text.encode("utf-8")))


def test_header_only_file_is_empty_corpus():
    records, report = parse_text(CDR_HEADER + "\n")
    assert records == []
    assert (report.accepted, report.rejected) == (0, 0)


def test_single_line_parses_to_record():
    records, report = parse_text(CDR_HEADER + "\nA,B,out,1330000000,L1\n")
    assert records == [CallRecord("A", "B", OUT, 1330000000, "L1")]
    assert (report.accepted, report.rejected) == (1, 0)


def test_incoming_direction_token():
    records, _ = parse_text(CDR_HEADER + "\nA,B,in,5,L1\n")
    assert records[0].direction is Direction.INCOMING


def test_self_call_rejected_with_reason_and_line_number():
    records, report = parse_text(
        CDR_HEADER + "\nA,A,out,1330000000,L1\nA,B,out,1,L1\n"
    )
    assert len(records) == 1
    assert (report.accepted, report.rejected) == (1, 1)
    line_no, reason = report.first_errors[0]
    assert line_no == 2
    assert "self-call" in reason


@pytest.mark.parametrize(
    "line,reason_part",
    [
        ("A,B,out,1330000000", "5 fields"),
        ("A,B,sideways,1,L1", "direction"),
        ("A,B,out,noon,L1", "timestamp"),
        ("A,B,out,1.5,L1", "timestamp"),
        ("A,B,out,1_330_000_000,L1", "timestamp"),
        ("A,B,out, 1330000000 ,L1", "timestamp"),
        ("A,B,out,1330000000\t,L1", "timestamp"),
        ("A,B,out,+5,L1", "timestamp"),
        ("A,B,out,--5,L1", "timestamp"),
        ("A,B,out,-,L1", "timestamp"),
        ("A,B,out,,L1", "timestamp"),
        ("A,B,out,\u0661\u0663,L1", "timestamp"),  # Arabic-Indic digits
        ("A,B,out,-\u0663,L1", "timestamp"),
        ("A,B,out,\u00b2,L1", "timestamp"),  # superscript two
        ("A,B,out,100000000000000000000000,L1", "timestamp"),
        ("A,B,out,9223372036854775808,L1", "timestamp"),
        ("A,B,out,-9223372036854775809,L1", "timestamp"),
        (",B,out,1,L1", "empty identifier"),
        ("", "5 fields"),
    ],
)
def test_malformed_lines_rejected(line, reason_part):
    records, report = parse_text(CDR_HEADER + "\n" + line + "\n")
    assert records == []
    assert report.rejected == 1
    assert reason_part in report.first_errors[0][1]


def test_timestamps_fill_the_int64_range():
    # a non-ASCII identifier makes the file non-ASCII, so tokens are checked one by one
    body = "\n".join(
        ["A,B,out,9223372036854775807,L1", "A,B,in,-9223372036854775808,L1",
         "\u00e9,B,out,-0,L1", "A,B,out,007,L1"]
    )
    records, report = parse_text(CDR_HEADER + "\n" + body + "\n")
    assert report.rejected == 0
    assert [r.timestamp for r in records] == [2**63 - 1, -(2**63), 0, 7]


@pytest.mark.parametrize(
    "located,other,antenna",
    [
        ("u1,x", "u2\nu3", "A000"),
        ("u1", "u2", "A000\r"),
        ("u1", "u2\u2028", "A000"),
        ("u1\x0b", "u2", "A000"),
        ("u1", "u2", "A0,00"),
    ],
)
def test_writer_refuses_identifiers_that_cannot_round_trip(located, other, antenna):
    good = rec("A", "B", OUT, 1)
    bad = CallRecord(located, other, OUT, 1325500000, antenna)
    with pytest.raises(ValueError, match="cannot write") as info:
        write_cdr_file([good] * 5000 + [bad], io.BytesIO())
    assert repr(bad) in str(info.value)


def per_entry_unwritable(values) -> list[bool]:
    """The writer's rule, applied to each identifier alone."""
    return ["," in v or v.splitlines() not in ([v], []) for v in values]


# each other line break inside an identifier and ending one, where a "\r"
# runs into the joining "\n"; a comma; a "\n" that adds a line
UNWRITABLE = (
    [f"u{c}1" for c in ingest._OTHER_BREAK_CHARS]
    + [f"u1{c}" for c in ingest._OTHER_BREAK_CHARS]
    + ["u,1", "u1,", "u\n1", "u1\n", "\nu1"]
)


@pytest.mark.parametrize("used", [True, False], ids=["used", "unused"])
@pytest.mark.parametrize("bad", UNWRITABLE)
def test_unwritable_identifiers_are_found_in_the_joined_text(bad, used):
    # as a user and as an antenna, the bad entry is flagged alone, as the
    # per-entry rule flags it; a record that uses it is refused as the
    # reference refuses it, and a table whose rows do not use it is written
    records = [
        rec("A", "B", OUT, 1, "L1"), rec(bad, "B", IN, 2, "L1"),
        rec("A", "B", OUT, 3, bad), rec("B", "A", IN, 4, "L2"),
    ]
    table = CallTable.from_records(records)
    for values in (table.users, table.antennas):
        assert ingest._unwritable(values).tolist() == per_entry_unwritable(values)
        assert per_entry_unwritable(values) == [v == bad for v in values]
    sub = table[np.array([True, used, used, True])]
    written = write_with(write_cdr_file, sub)
    assert written == write_with(reference_write_cdr, list(sub))
    assert isinstance(written, str) == used


@pytest.mark.parametrize("ts", [10**20, -(2**63) - 1])
def test_writer_refuses_timestamps_outside_int64(ts):
    good = rec("A", "B", OUT, 1)
    bad = CallRecord("A", "B", OUT, ts, "L1")
    stream = io.BytesIO()
    with pytest.raises(ValueError, match="cannot write") as info:
        write_cdr_file(iter([good, bad, good]), stream)
    assert repr(bad) in str(info.value)
    assert stream.getvalue() == b""


def test_accepted_plus_rejected_covers_every_data_line():
    body = "\n".join(["A,B,out,1,L1", "bad", "B,C,in,2,L2", "A,A,out,3,L1"])
    records, report = parse_text(CDR_HEADER + "\n" + body + "\n")
    assert report.accepted == len(records) == 2
    assert report.accepted + report.rejected == 4


def test_error_report_caps_at_twenty_entries():
    body = "\n".join("bad" for _ in range(50))
    _, report = parse_text(CDR_HEADER + "\n" + body + "\n")
    assert report.rejected == 50
    assert len(report.first_errors) == 20


def test_missing_header_is_fatal():
    with pytest.raises(IngestError):
        parse_text("A,B,out,1,L1\n")
    with pytest.raises(IngestError):
        parse_text("")


def test_non_utf8_stream_is_fatal():
    # only in the header: a data line that is not UTF-8 is rejected alone
    message = "bad CDR header: " + repr("\\xff\\xfe" + CDR_HEADER)
    with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
        parse_cdr_file(io.BytesIO(b"\xff\xfe" + CDR_HEADER.encode() + b"\nA,B,out,1,L1\n"))


class UnreadableStream(io.RawIOBase):
    """A byte stream whose every read fails, as on a device error."""

    def readable(self):
        return True

    def readinto(self, buffer):
        raise OSError(5, "Input/output error")


@pytest.mark.parametrize("read", [parse_cdr_file, load_client_set], ids=["cdr", "roster"])
def test_a_read_error_is_an_ingest_error(read):
    with pytest.raises(IngestError, match="unreadable stream: .*Input/output error"):
        read(UnreadableStream())


def test_crlf_line_endings_accepted():
    text = CDR_HEADER + "\r\nA,B,out,7,L1\r\n"
    records, report = parse_text(text)
    assert records == [CallRecord("A", "B", OUT, 7, "L1")]
    assert report.rejected == 0


def test_roster_parsing_dedups_and_skips_blanks():
    assert load_client_set(io.BytesIO(b"")) == set()
    assert load_client_set(io.BytesIO(b"A\nB\nA\n")) == {"A", "B"}
    assert load_client_set(io.BytesIO(b"A\n\nB\n")) == {"A", "B"}
    assert load_client_set(io.BytesIO(b"A\r\nB\r\n")) == {"A", "B"}


def test_a_roster_that_is_not_utf8_is_an_ingest_error():
    with pytest.raises(IngestError, match="stream is not valid UTF-8"):
        load_client_set(io.BytesIO(b"A\n\xff\n"))


def test_roster_round_trip():
    buffer = io.BytesIO()
    write_client_roster({"B", "A"}, buffer)
    assert buffer.getvalue() == b"A\nB\n"
    assert load_client_set(io.BytesIO(buffer.getvalue())) == {"A", "B"}


def reads_back(client: str) -> bool:
    """Whether ``load_client_set`` reads a roster line holding ``client``
    back as ``client``."""
    return client == client.strip() and client.splitlines() == [client]


@pytest.mark.parametrize(
    "bad",
    ["a\nb", "u\u2028v", " u1", "u1 ", "u1\r", "", "\tu1", "u1\x1f", "u1\xa0", "\u3000u1", "u1\x85"],
)
def test_roster_writer_refuses_clients_that_would_not_read_back(bad):
    stream = io.BytesIO()
    with pytest.raises(ValueError, match="cannot write") as info:
        write_client_roster({"A", bad, "Z"}, stream)
    assert repr(bad) in str(info.value)
    assert stream.getvalue() == b""


def test_roster_writer_names_the_first_bad_client():
    with pytest.raises(ValueError, match=re.escape(repr(" b"))):
        write_client_roster({"c\n", "a", " b", "d "}, io.BytesIO())


roster_clients = st.one_of(
    st.text(max_size=6),
    st.text("ab \t\n\r\x00\x1f\x85\xa0\u2028\u3000é", max_size=4),
)


@settings(max_examples=300)
@given(st.sets(roster_clients.map(str.strip).filter(reads_back)))
def test_roster_round_trips_every_writable_set(clients):
    stream = io.BytesIO()
    write_client_roster(clients, stream)
    assert load_client_set(io.BytesIO(stream.getvalue())) == clients


@given(st.sets(roster_clients))
def test_roster_writer_refuses_a_set_exactly_when_a_client_would_not_read_back(clients):
    bad = sorted(client for client in clients if not reads_back(client))
    stream = io.BytesIO()
    if not bad:
        write_client_roster(clients, stream)
        assert load_client_set(io.BytesIO(stream.getvalue())) == clients
        return
    with pytest.raises(ValueError, match="cannot write") as info:
        write_client_roster(clients, stream)
    assert str(info.value).startswith(f"cannot write client {bad[0]!r}:")
    assert stream.getvalue() == b""


identifiers = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8
)


@st.composite
def arbitrary_records(draw):
    u = draw(identifiers)
    v = draw(identifiers.filter(lambda x: x != u))
    return rec(
        u,
        v,
        draw(st.sampled_from([OUT, IN])),
        draw(st.integers(-(2**40), 2**40)),
        draw(identifiers),
    )


@given(st.lists(arbitrary_records(), max_size=30))
def test_cdr_round_trip(records):
    buffer = io.BytesIO()
    write_cdr_file(records, buffer)
    reparsed, report = parse_cdr_file(io.BytesIO(buffer.getvalue()))
    assert reparsed == records
    assert report.rejected == 0
    assert report.accepted == len(records)


# --- the columnar parser against the per-line reference ------------------------

BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

field_identifiers = st.one_of(
    st.sampled_from([
        "A", "B", "u001", "u002", "", "\x00", "A\x00", "A\x00\x00", "é", "üé",
        "\U0001f600", "abcdefgh", "abcdefgh\x00", "abcdefgh1", "abcdefgh2",
        "abcdefghijklmnopq", "abcdefghijklmnopr", "abcdefghé", "ab" * 20,
    ]),
    st.text(st.characters(blacklist_characters=",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
                          blacklist_categories=("Cs",)), max_size=12),
)
timestamp_tokens = st.one_of(
    st.sampled_from([
        "0", "-0", "007", "-", "", "+5", "1_000", " 5", "5 ", "\u0663", "-\u0663", "\u00b2",
        "--5", "1.5", "9223372036854775807", "9223372036854775808",
        "-9223372036854775808", "-9223372036854775809", "99999999999999999999",
        "000000000000000000001", "-000000000000000000001", "123456789012345678",
        "-123456789012345678", "1234567890123456789", "100000000000000000000000",
    ]),
    st.integers(-(2**63), 2**63 - 1).map(str),
    st.text("0123456789-+_ \u0663", max_size=21),
)
directions = st.sampled_from(["out", "in", "", "OUT", "ou", "outt", "i", "in ", "ínn"])


@st.composite
def cdr_lines(draw):
    if draw(st.integers(0, 5)) == 0:  # 0-7 commas
        return ",".join(draw(st.lists(field_identifiers, min_size=1, max_size=8)))
    located = draw(field_identifiers)
    other = located if draw(st.integers(0, 6)) == 0 else draw(field_identifiers)
    return ",".join([located, other, draw(directions), draw(timestamp_tokens),
                     draw(field_identifiers)])


@st.composite
def cdr_texts(draw):
    lines = [CDR_HEADER] + draw(st.lists(cdr_lines(), max_size=45))
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return text if draw(st.booleans()) else text[: -len(breaks[-1])]


def read_with(parse, text: str | bytes):
    """A parse of a text in UTF-8 (or of raw bytes), read from a byte
    stream, with an error as its message."""
    stream = io.BytesIO(text if isinstance(text, bytes) else text.encode("utf-8"))
    try:
        return parse(stream)
    except IngestError as exc:
        return str(exc)


def parse_columnar(
    text: str | bytes, block_bytes: int | None = None, utc_offset_minutes: int | None = None,
    window: tuple[str, int, int] | None = None,
):
    """The columnar parse, reading ``block_bytes`` at a time if given, and
    counting calls per hour at ``utc_offset_minutes`` and keeping the
    records of ``window`` if given."""
    with pytest.MonkeyPatch.context() as patch:
        if block_bytes is not None:
            patch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        return read_with(
            lambda stream: parse_cdr_file(
                stream, utc_offset_minutes=utc_offset_minutes, window=window
            ),
            text,
        )


def parse_both(text: str | bytes, block_bytes: int | None = None):
    """The columnar and the reference parse of a text."""
    return parse_columnar(text, block_bytes), read_with(reference_parse_cdr, text)


def assert_same_parse(got, expected):
    if isinstance(expected, str):
        assert got == expected
        return
    (table, report), (records, expected_report) = got, expected
    assert isinstance(table, CallTable)
    assert list(table) == records
    assert (report.accepted, report.rejected) == (expected_report.accepted, expected_report.rejected)
    assert report.first_errors == expected_report.first_errors
    assert list(table.users) == sorted(table.users)
    assert list(table.antennas) == sorted(table.antennas)


def hourly_counts_of(table: CallTable, utc_offset_minutes: int) -> HourlyCounts:
    """The hourly counts of a table, binned with Python integers."""
    stamps = table.timestamp.tolist()
    hours = [(t + 60 * utc_offset_minutes) // 3600 for t in stamps]
    cells = sorted(Counter(zip(table.antenna.tolist(), hours)).items())
    return HourlyCounts(
        table.antennas,
        np.array([antenna for (antenna, _), _ in cells], dtype=np.int32),
        np.array([hour for (_, hour), _ in cells], dtype=np.int64),
        np.array([count for _, count in cells], dtype=np.int64),
        utc_offset_minutes,
    )


def assert_same_hourly(hourly, got, utc_offset_minutes=OFFSET):
    """A parse at ``utc_offset_minutes`` (``hourly``) gives the same error as
    the full parse ``got``, or its report and the hourly counts of its table."""
    if isinstance(got, str):
        assert hourly == got
        return
    (table, report), (counts, hourly_report) = got, hourly
    assert hourly_report == report
    assert_same_counts(counts, hourly_counts_of(table, utc_offset_minutes))
    assert len(counts) == len(table)


def assert_same_counts(counts, expected: HourlyCounts):
    """``counts`` is ``HourlyCounts`` with the cells, dtypes and fields of
    ``expected``."""
    assert isinstance(counts, HourlyCounts)
    for column in ("antenna", "hour", "count"):
        got_column, expected_column = getattr(counts, column), getattr(expected, column)
        assert got_column.dtype == expected_column.dtype, column
        assert np.array_equal(got_column, expected_column), column
    for field in ("antennas", "utc_offset_minutes"):
        assert getattr(counts, field) == getattr(expected, field), field


def assert_same_parses(text: str | bytes, block_bytes: int | None = None):
    got, expected = parse_both(text, block_bytes)
    assert_same_parse(got, expected)
    assert_same_hourly(parse_columnar(text, block_bytes, OFFSET), got)


@settings(max_examples=400, deadline=None)
@given(cdr_texts(), st.data())
def test_columnar_parser_matches_the_per_line_reference(text, data):
    # blocks from one byte up to past the text, or the default
    block_bytes = data.draw(
        st.none() | st.integers(1, len(text.encode("utf-8")) + 2), label="block_bytes"
    )
    assert_same_parses(text, block_bytes)


_ODD_LINES = "\n".join([f"u{i},v{i},out,{i},A{i % 3}" if i % 2 else f"bad,{i}" for i in range(42)])
BLOCK_TEXTS = {
    "other line breaks": CDR_HEADER + "\r\nA,B,out,1,L1\r\nB,C,in,2,L2\rC,D,out,3,L3\u2028D,E,in,4,é\n",
    "no final line break": CDR_HEADER + "\nA,B,out,1,L1\nB,C,in,2,L2",
    "long line": CDR_HEADER + "\n" + "x" * 90 + ",y,out,7," + "z" * 40 + "\nA,B,in,8,L1\n",
    "21 rejected lines": CDR_HEADER + "\n" + _ODD_LINES + "\n",
}


@pytest.mark.parametrize("name", BLOCK_TEXTS)
@pytest.mark.parametrize("users", [True, False])
def test_every_block_size_parses_like_the_whole_text(name, users):
    # with users, the parse matches the reference; without, the hourly
    # parse counts the table of the full parse
    text = BLOCK_TEXTS[name]
    for block_bytes in range(1, len(text.encode("utf-8")) + 2):
        got, expected = parse_both(text, block_bytes)
        if users:
            assert_same_parse(got, expected)
        else:
            assert_same_hourly(parse_columnar(text, block_bytes, OFFSET), got)


class BadLines(NamedTuple):
    """A CDR stream in which some data lines are not UTF-8, the same stream
    with each of those lines replaced by "x", and their line numbers."""

    raw: bytes
    clean: str
    numbers: frozenset[int]


def with_bad_lines(*pieces: str | bytes) -> BadLines:
    """The stream of text pieces (str) and lines that are not UTF-8 (bytes,
    each after a line break and before a text piece that starts with one)."""
    numbers, clean = set(), ""
    for piece in pieces:
        if isinstance(piece, bytes):
            numbers.add(len(clean.splitlines()) + 1)
        clean += "x" if isinstance(piece, bytes) else piece
    raw = b"".join(p if isinstance(p, bytes) else p.encode("utf-8") for p in pieces)
    return BadLines(raw, clean, frozenset(numbers))


def reference_without_bad_lines(stream: BadLines):
    """What the parse of ``stream.raw`` must give: the reference parse of the
    stream without its lines that are not UTF-8, with one "not valid UTF-8"
    rejection at each such line's number.  The reference reads "x" there, a
    line it rejects, so the other lines keep their numbers and the
    rejections their places."""
    expected = read_with(reference_parse_cdr, stream.clean)
    if isinstance(expected, str):
        return expected
    records, report = expected
    report.first_errors = [
        (number, "not valid UTF-8" if number in stream.numbers else reason)
        for number, reason in report.first_errors
    ]
    return records, report


def assert_bad_lines_rejected_alone(stream: BadLines, block_bytes: int | None):
    """Both parses of ``stream.raw`` reject each line that is not UTF-8 alone."""
    got = parse_columnar(stream.raw, block_bytes)
    assert_same_parse(got, reference_without_bad_lines(stream))
    assert_same_hourly(parse_columnar(stream.raw, block_bytes, OFFSET), got)


_LINES = "\nA,B,out,1,L1\n" * 4  # and a blank line between each two
BAD_UTF8 = {
    "invalid byte": with_bad_lines(
        CDR_HEADER + "\nA,B,out,1,L1" * 4 + "\n", b"A,B,out,1,L\xff", "\nC,D,in,2,L2\n"
    ),
    "invalid bytes": with_bad_lines(CDR_HEADER + _LINES, b"A,\xe2\x82,out,1,L1", "\n"),
    "cut at the end": with_bad_lines(CDR_HEADER + _LINES, b"A,B,out,1,\xf0\x90"),
    "bad header too": with_bad_lines("x" + CDR_HEADER + _LINES, b"\xff", "\n"),
    # a lone 0x85 is not U+0085, so it breaks no line, in a block whose
    # other breaks are rewritten
    "among other breaks": with_bad_lines(
        CDR_HEADER + "\r\nA,B,out,1,é\u2028", b"A,B,\x85out,1,L1", "\rB,C,in,2,L2\x85",
        b"\xed\xa0\x80,B,in,3,L1", "\r\nC,D,out,4,L3",
    ),
    "more than 20": with_bad_lines(
        CDR_HEADER + "\n", *itertools.chain.from_iterable(
            (b"u%d,\xc3\x28,out,%d,A0" % (i, i), f"\nv{i},w,in,{i},A1\nbad\n")
            for i in range(12)
        ),
    ),
}


@pytest.mark.parametrize("name", BAD_UTF8)
def test_a_line_that_is_not_utf8_is_rejected_alone(name):
    stream = BAD_UTF8[name]
    for block_bytes in range(1, len(stream.raw) + 2):
        assert_bad_lines_rejected_alone(stream, block_bytes)


# sequences that stay invalid whatever character or line break follows
# them, since none starts with a continuation byte
NOT_UTF8 = [b"\xff", b"\xfe", b"\x80", b"\x85", b"\xc3\x28", b"\xe2\x82", b"\xf0\x90",
            b"\xed\xa0\x80", b"\xc0\xaf"]


@st.composite
def streams_with_bad_lines(draw) -> BadLines:
    pieces: list[str | bytes] = [CDR_HEADER + draw(st.sampled_from(BREAKS))]
    for _ in range(draw(st.integers(0, 30))):
        line = draw(cdr_lines())
        if draw(st.booleans()):
            at = draw(st.integers(0, len(line)))
            pieces.append(line[:at].encode() + draw(st.sampled_from(NOT_UTF8)) + line[at:].encode())
            line = ""
        pieces.append(line + draw(st.sampled_from(BREAKS)))
    if draw(st.booleans()):  # no final line break
        pieces[-1] = pieces[-1].rstrip("".join(BREAKS))
    return with_bad_lines(*pieces)


@settings(max_examples=300, deadline=None)
@given(streams_with_bad_lines(), st.data())
def test_lines_that_are_not_utf8_are_rejected_alone_at_any_block_size(stream, data):
    block_bytes = data.draw(st.none() | st.integers(1, len(stream.raw) + 2), label="block_bytes")
    assert_bad_lines_rejected_alone(stream, block_bytes)


def memory_table(n: int = 150_000, shuffled: bool = False, unused_users: int = 0) -> CallTable:
    """A table of a few MB (150k rows, 20k users, 24 antennas over 90 days,
    sorted by time unless ``shuffled``), whose user vocabulary holds
    ``unused_users`` more users that no row uses."""
    rng = np.random.default_rng(3)
    n_users = 20_000
    located = rng.integers(0, n_users, n).astype(np.int32)
    other = ((located + rng.integers(1, n_users, n)) % n_users).astype(np.int32)
    timestamp = np.sort(rng.integers(1_325_473_200, 1_333_249_200, n))
    if shuffled:
        np.random.default_rng(4).shuffle(timestamp)
    return CallTable(
        timestamp, located, other,
        rng.random(n) < 0.5, rng.integers(0, 24, n).astype(np.int32),
        tuple(f"u{i:06d}" for i in range(n_users + unused_users)),
        tuple(f"A{i:03d}" for i in range(24)),
    )


def memory_corpus(n: int = 150_000, shuffled: bool = False):
    """The table of ``memory_table``, and the bytes of its file."""
    written = memory_table(n, shuffled)
    buffer = io.BytesIO()
    write_cdr_file(written, buffer)
    return written, buffer.getvalue()


def traced_parse(data: bytes, **options):
    """The parse of ``data``, and the peak of traced memory during it."""
    stream = io.BytesIO(data)
    tracemalloc.start()
    try:
        table, report = parse_cdr_file(stream, **options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return table, report, peak


def test_parse_memory_is_the_table_plus_a_few_blocks():
    # a corpus of a few MB, parsed under tracemalloc: the parse holds one
    # block at a time besides the columns it has built
    written, data = memory_corpus()
    n = len(written)
    table, report, peak = traced_parse(data)
    assert report.accepted == n and table == written
    columns = column_bytes(table)
    assert peak < columns + 8 * ingest._BLOCK_BYTES, (peak, columns)


def test_the_reader_holds_one_block_at_a_time():
    # each block is read into its own buffer, finished in place and dropped
    # once yielded (measured: 1.19 blocks, where reading a block and joining
    # it with its last line and its pad held two)
    _, data = memory_corpus()
    assert len(data) > 4 * ingest._BLOCK_BYTES
    stream = io.BytesIO(data)
    tracemalloc.start()
    try:
        for block, _ in ingest._blocks(stream):
            del block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ingest._BLOCK_BYTES, peak


def test_crlf_breaks_cost_the_hourly_parse_under_a_quarter_block():
    # CRLF is rewritten to "\n" as bytes, a copy of the block, where decoding
    # the block and splitting its lines held several times its bytes
    _, data = memory_corpus()
    counts, report, peak = traced_parse(data, utc_offset_minutes=OFFSET)
    crlf = data.replace(b"\n", b"\r\n")
    crlf_counts, crlf_report, crlf_peak = traced_parse(crlf, utc_offset_minutes=OFFSET)
    assert crlf_report == report and report.rejected == 0
    assert_same_counts(crlf_counts, counts)
    assert crlf_peak < peak + ingest._BLOCK_BYTES // 4, (crlf_peak, peak)


def column_bytes(table: CallTable) -> int:
    """The bytes of a table's five columns."""
    return sum(
        column.nbytes
        for column in (table.timestamp, table.located, table.other, table.outgoing, table.antenna)
    )


def test_aggregate_of_a_table_holds_less_than_its_columns():
    # a table is folded into its hourly counts in one pass: the local hours
    # and their bin keys, 16 bytes a row, are the peak (measured: 16.0 MB),
    # under the 21 bytes a row of the table's columns
    table = memory_table(1_000_000)
    calendar = DatasetCalendar(dt.date(2012, 1, 2), 13, OFFSET)  # all 90 days
    tracemalloc.start()
    try:
        cube = aggregate(table, calendar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cube.grid.sum() == len(table)
    assert peak < column_bytes(table), (peak, column_bytes(table))


def test_parse_without_users_holds_no_user_dictionary():
    # the hourly parse encodes no user and keeps no row: its peak stays
    # within 5 blocks of the cells it builds (measured: 3.8 MiB above 0.94 MB
    # of cells), and four times the rows over the same antennas and hours
    # raise it by less than one block, where the parse into a table of
    # timestamps, directions and antennas (13 bytes a row) grew by 6.8 MiB
    written, data = memory_corpus()
    counts, report, peak = traced_parse(data, utc_offset_minutes=OFFSET)
    assert report.accepted == len(written) == len(counts)
    cells = sum(column.nbytes for column in (counts.antenna, counts.hour, counts.count))
    assert peak < cells + 5 * ingest._BLOCK_BYTES, (peak, cells)
    written, data = memory_corpus(4 * len(written))
    counts, report, more_peak = traced_parse(data, utc_offset_minutes=OFFSET)
    assert report.accepted == len(written) == len(counts)
    assert more_peak < peak + ingest._BLOCK_BYTES, (more_peak, peak)
    # in random order each block holds thousands of cells, merged with the
    # others whenever they double (measured: 4.6 MiB above the cells)
    written, data = memory_corpus(len(written), shuffled=True)
    counts, report, peak = traced_parse(data, utc_offset_minutes=OFFSET)
    assert report.accepted == len(written) == len(counts)
    assert peak < cells + 6 * ingest._BLOCK_BYTES, (peak, cells)


def window_corpus(directory, filler: int):
    """``memory_corpus(filler)``, whose rows touch no attender, plus the
    rows of 200 attenders: each located at antenna W on 2012-02-03 between
    18:00 and 22:00, calling five users of the filler and two attenders; and
    the arguments of ``infer`` on that window."""
    _, data = memory_corpus(filler)
    window = DatasetCalendar(dt.date(2012, 2, 3), 1, OFFSET).window_interval(0, 0, 18, 22)[0]
    rng = np.random.default_rng(5)
    attending = [f"a{i:04d}" for i in range(200)]
    lines = [f"{a},u{rng.integers(20_000):06d},out,{window + i},W" for i, a in enumerate(attending)]
    lines += [
        f"{a},{b},in,{rng.integers(1_325_473_200, 1_333_249_200)},A{rng.integers(24):03d}"
        for a in attending
        for b in [*(f"u{i:06d}" for i in rng.integers(20_000, size=5)), *rng.choice(attending, 2)]
        if a != b
    ]
    cdr, roster = directory / "cdr.csv", directory / "clients.txt"
    cdr.write_bytes(data + "\n".join(lines).encode() + b"\n")
    roster.write_text("\n".join(attending) + "\n")
    return build_parser().parse_args(
        ["infer", str(cdr), str(roster), "--antenna", "W", "--date", "2012-02-03"]
    )


def test_window_analysis_holds_the_attenders_rows_not_the_corpus(tmp_path):
    # subgraph and infer read the CDR file twice, holding the hourly cells,
    # the attenders' rows and one block: four times the rows that touch no
    # attender raise their peak by less than one block (measured: 5.74 and
    # 5.76 MiB on files of 5.1 and 20.4 MiB, where the parse into a table
    # peaked at 8.2 and 29.6 MiB)
    peaks, answers = [], []
    for filler in (150_000, 600_000):
        args = window_corpus(tmp_path, filler)
        tracemalloc.start()
        try:
            graph, subgraph = cli._window_analysis(args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        answers.append((subgraph, sorted(graph.edges)))
    assert len(answers[0][0].attenders) == 200 and answers[0] == answers[1]
    assert peaks[1] < peaks[0] + ingest._BLOCK_BYTES, peaks


def traced_write(writer, value) -> int:
    """The peak of traced memory while ``writer`` writes ``value`` to a
    stream that keeps nothing."""
    with open(os.devnull, "wb") as stream:
        tracemalloc.start()
        try:
            writer(value, stream)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_writers_hold_each_vocabulary_once():
    # the CDR writer holds its vocabularies' bytes and one piece of rows:
    # four times the rows raise its peak by less than one gather piece, and
    # users that no row uses cost at most 48 bytes each (measured: 25 bytes,
    # where a bytes object per user cost 124); the roster writer peaks under
    # 32 bytes a client (measured: 24, where a string per line cost 74)
    peak = traced_write(write_cdr_file, memory_table())
    more_rows = traced_write(write_cdr_file, memory_table(4 * 150_000))
    assert more_rows < peak + ingest._WRITE_BYTES, (more_rows, peak)
    unused = 50_000
    more_users = traced_write(write_cdr_file, memory_table(unused_users=unused))
    assert more_users <= peak + 48 * unused, (more_users, peak)
    clients = {f"u{i:06d}" for i in range(35_000)}
    roster_peak = traced_write(write_client_roster, clients)
    assert roster_peak < 32 * len(clients), roster_peak


# --- the hourly parse against the table -------------------------------------

WEEK_0 = 1_325_473_200  # 2012-01-02 00:00 at -03:00


def shuffled_text(n_rows: int, seed: int, extra_lines=()) -> str:
    """A CDR text of calls at 4 antennas over 3 weeks, with the extra lines,
    in shuffled order."""
    rng = np.random.default_rng(seed)
    lines = [
        f"u{located},v{other},{'out' if out else 'in'},{WEEK_0 + int(second)},A{antenna}"
        for located, other, out, second, antenna in zip(
            rng.integers(0, 9, n_rows), rng.integers(0, 9, n_rows), rng.random(n_rows) < 0.5,
            rng.integers(0, 21 * 86400, n_rows), rng.integers(0, 4, n_rows),
        )
    ] + list(extra_lines)
    rng.shuffle(lines)
    return CDR_HEADER + "\n" + "\n".join(lines) + "\n"


def assert_same_analysis(counts: HourlyCounts, table: CallTable, utc_offset_minutes: int):
    """The hourly counts give the table's calendar, dropped calls and cube."""
    try:
        calendar = DatasetCalendar.from_records(table, utc_offset_minutes)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            DatasetCalendar.from_records(counts, utc_offset_minutes)
        return
    assert DatasetCalendar.from_records(counts, utc_offset_minutes) == calendar
    in_table, in_counts = table.within(calendar), counts.within(calendar)
    assert len(in_counts) == len(in_table)
    try:
        expected = aggregate(in_table, calendar)
    except MemoryError:
        with pytest.raises(MemoryError):
            aggregate(in_counts, calendar)
        return
    got = aggregate(in_counts, calendar)
    assert got.antennas == expected.antennas
    assert np.array_equal(got.grid, expected.grid)


@pytest.mark.parametrize("seed", [1, 2])
def test_hourly_parse_of_shuffled_lines_at_every_block_size(seed):
    # 14 calls and 2 rejected lines in random order: blocks of one line up
    # to the whole text, so cells of one hour meet across blocks and merges
    text = shuffled_text(14, seed, ["u1,u1,out,1325500000,A0", "u1,v2,up,1325500000,A0"])
    got = parse_columnar(text)
    for block_bytes in range(1, len(text.encode("utf-8")) + 2):
        assert_same_hourly(parse_columnar(text, block_bytes, OFFSET), got)


MINUTES = {"-03:00": -180, "+05:45": 345, "+00:07": 7}
EXTRA_LINES = {
    "none": [],
    # at any offset the first day is before year 1, or the grid cannot be allocated
    "int64 minimum": ["u1,v1,out,-9223372036854775808,A0"],
    "int64 maximum": ["u1,v1,in,9223372036854775807,A9"],
    "far past": ["u1,v1,out,-62135683201,A1"],
    "rejected lines": ["u1,u1,out,1325500000,A0", "u1,v1,out,noon,A0", "u1,v1,out,1325500000"],
    "a trailing partial week": [
        f"u1,v1,out,{WEEK_0 + 21 * 86400 + k * 7919},A{k % 5}" for k in range(40)
    ],
}


@pytest.mark.parametrize("extra", list(EXTRA_LINES))
@pytest.mark.parametrize("offset", list(MINUTES))
def test_hourly_parse_counts_the_table_at_any_offset(offset, extra):
    # offsets whose minutes do not divide the hour shift every cell's start
    minutes = MINUTES[offset]
    text = shuffled_text(3000, 7, EXTRA_LINES[extra])
    got = parse_columnar(text)
    for block_bytes in (None, 4096):
        counts = parse_columnar(text, block_bytes, minutes)
        assert_same_hourly(counts, got, minutes)
    assert_same_analysis(counts[0], got[0], minutes)


table_timestamps = st.one_of(
    # a span of days, whose cells are binned
    st.integers(WEEK_0 - 86400, WEEK_0 + 2 * 86400),
    # a span too wide to bin, whose cells are sorted
    st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 2**63 - 2, 2**63 - 1]),
    st.integers(-(2**63), 2**63 - 1),
)


@st.composite
def masked_tables(draw):
    """A table of calls at up to 6 antennas, masked to a sub-table whose
    vocabulary may hold codes that no row uses."""
    n_antennas = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(st.integers(0, n_antennas - 1), table_timestamps), max_size=40))
    n = len(rows)
    table = CallTable(
        np.array([timestamp for _, timestamp in rows], dtype=np.int64),
        np.zeros(n, np.int32), np.ones(n, np.int32), np.ones(n, bool),
        np.array([antenna for antenna, _ in rows], dtype=np.int32),
        ("u0", "u1"), tuple(f"A{i}" for i in range(n_antennas)),
    )
    return table[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)]


@settings(max_examples=300, deadline=None)
@given(masked_tables(), st.sampled_from(list(MINUTES.values())))
@example(CallTable.from_records([]), OFFSET)
def test_table_folds_into_the_hourly_counts_of_its_calls(table, utc_offset_minutes):
    counts = table.hourly(utc_offset_minutes)
    assert_same_counts(counts, hourly_counts_of(table, utc_offset_minutes))
    assert len(counts) == len(table)


def self_call_pairs(widths):
    """User pairs of each width, each with whether it is a self-call, and a
    CDR text with one line per pair."""
    pairs = []
    for width in widths:
        word = "x" * (width - 1)
        pairs += [
            (word + "a", word + "a", True),
            (word + "a", word + "b", False),  # differ in the last byte only
            (word + "\x00", word + "\x00", True),
            (word + "a", word + "a\x00", False),  # differ by trailing NULs only
            (word + "\x00", word + "\x00\x00", False),
            ("\x00" * width, "\x00" * (width + 1), False),
        ]
    lines = [f"{u},{v},out,{i},A" for i, (u, v, _) in enumerate(pairs)]
    return pairs, CDR_HEADER + "\n" + "\n".join(lines) + "\n"


# self-call pairs across the word boundaries of the comparison, and one pair
# long enough that the fields are compared as bytes
@pytest.mark.parametrize("widths", [(7,), (8,), (9,), (17,), (262_147,), (7, 8, 9, 17, 262_147)])
def test_self_calls_are_found_by_their_bytes(widths):
    pairs, text = self_call_pairs(widths)
    got, expected = parse_both(text)
    assert_same_parse(got, expected)
    assert_same_hourly(parse_columnar(text, utc_offset_minutes=OFFSET), got)
    _, report = got
    self_calls = [i + 2 for i, (_, _, same) in enumerate(pairs) if same]
    assert [line for line, _ in report.first_errors] == self_calls
    assert all(reason.startswith("self-call") for _, reason in report.first_errors)


def test_a_few_long_identifiers_are_not_sorted_word_by_word(monkeypatch):
    # six lines of 262,147-byte user pairs: each field is 32,769 words long,
    # and no block or merge holds more than 12 user fields, so sorting them
    # word by word would take thousands of sort keys for a dozen fields
    pairs, text = self_call_pairs((262_147,))
    lexsort = np.lexsort

    def refuse_more_words_than_fields(keys):
        # one key beyond the words may be the lengths, which break NUL ties
        assert len(keys) <= len(keys[0]) + 1, (len(keys), len(keys[0]))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", refuse_more_words_than_fields)
    table, report = parse_cdr_file(io.BytesIO(text.encode("utf-8")))
    assert list(table) == [rec(u, v, OUT, i, "A") for i, (u, v, same) in enumerate(pairs) if not same]
    assert report.rejected == sum(same for _, _, same in pairs)


@pytest.mark.parametrize(
    "text",
    ["", "\n", "\r\n", CDR_HEADER, CDR_HEADER + "\r", "x" + CDR_HEADER + "\n", "\ufeff" + CDR_HEADER],
)
def test_header_errors_match_the_reference(text):
    got, expected = parse_both(text)
    assert got == expected


@pytest.mark.parametrize("filler", [0, 300])
@pytest.mark.parametrize("width", [4, 8, 17, 600])
def test_long_and_nul_identifiers_keep_their_own_codes(width, filler):
    # identifiers that share a prefix or differ only in trailing NULs must
    # keep their own codes, whether they are sorted by uint64 words or, when
    # many short lines would make that key matrix outgrow the file, as bytes
    stems = ["x" * width, "x" * (width - 1) + "y", "x" * (width - 1), "x" * (width - 1) + "\x00",
             "x" * width + "\x00", "\x00", "w"]
    lines = [f"{u},{v},out,{i},{v}" for i, (u, v) in enumerate(itertools.permutations(stems, 2))]
    lines += [f"a,b,in,{i},c" for i in range(filler)]
    text = CDR_HEADER + "\n" + "\n".join(lines) + "\n"
    got, expected = parse_both(text)
    table, report = got
    assert report.rejected == 0
    assert list(table) == expected[0]
    assert table.users == tuple(sorted(stems + ["a", "b"] * (filler > 0)))


@settings(max_examples=300, deadline=None)
@given(cdr_texts(), st.lists(field_identifiers | st.just("\ud800"), max_size=6), st.data())
def test_the_rows_touching_some_users_are_those_of_the_full_parse(text, users, data):
    block_bytes = data.draw(
        st.none() | st.integers(1, len(text.encode("utf-8")) + 2), label="block_bytes"
    )
    full = parse_columnar(text, block_bytes)
    with pytest.MonkeyPatch.context() as patch:
        if block_bytes is not None:
            patch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        touching = read_with(lambda stream: parse_touching(stream, users), text)
    if isinstance(full, str):
        assert touching == full
    else:
        assert list(touching) == list(full[0].touching(users))


def test_a_user_key_shared_with_another_user_adds_no_row():
    # the two users share their first and last uint64 words and their
    # length, so their lines are picked by one key and told apart after
    users = [f"sixteen-byte-pre{c}sixteen-byte-suf" for c in "xy"]
    data = "".join(users).encode() + bytes(8)
    keys = ingest._user_keys(data, np.array([0, 33]), np.array([33, 33]))
    assert keys[0] == keys[1]
    text = CDR_HEADER + f"\n{users[0]},a,out,1,L\n{users[1]},b,in,2,L\nc,{users[1]},out,3,L\n"
    table = parse_touching(io.BytesIO(text.encode()), [users[0]])
    assert list(table) == [rec(users[0], "a", OUT, 1, "L")]


# bytes that make or break lines: the single-byte breaks, the bytes of
# U+0085, U+2028 and U+2029, and bytes that are not UTF-8 or start a
# surrogate
READER_BYTES = [
    b"\n", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
    b"\xc2", b"\x85", b"\xe2", b"\x80", b"\xa8", b"\xa9", b"\xff", b"\xed", b"\xa0",
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["\n", "\r\n", "\r", "\u2028"]),
    st.lists(st.sampled_from(READER_BYTES) | st.binary(max_size=3), max_size=30).map(b"".join),
)
def test_the_reader_splits_lines_as_decoding_and_splitlines_would(header_break, body):
    # at every block size, the blocks without their pads are the data lines
    # of the stream decoded with surrogateescape, each followed by "\n", and
    # each block is numbered by the lines before it
    raw = (CDR_HEADER + header_break).encode() + body
    header, *lines = raw.decode("utf-8", "surrogateescape").splitlines()
    assert header == CDR_HEADER
    expected = "".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape")
    for block_bytes in range(1, len(raw) + 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
            blocks = list(ingest._blocks(io.BytesIO(raw)))
        pad = len(ingest._PAD)
        assert all(block[-pad:] == ingest._PAD for block, _ in blocks)
        assert b"".join(block[:-pad] for block, _ in blocks) == expected
        lines_before = itertools.accumulate((block.count(b"\n") for block, _ in blocks), initial=0)
        assert [line_no for _, line_no in blocks] == [2 + n for n in lines_before][:-1]


def test_a_block_parsed_for_some_users_counts_only_their_lines():
    # of six lines, one not UTF-8 and one of two fields, only the two of
    # user "u" with five fields are accepted or rejected
    data = b"u,a,out,1,L\nu,b,up,2,L\nc,d,up,3,L\nc,d,out,4,L\nu,\xff,out,5,L\nx,y\n" + bytes(8)
    key = ingest._user_keys(b"u" + bytes(8), np.array([0]), np.array([1]))
    report = IngestReport()
    block = ingest._parse_lines(data, 2, report, np.append(key, np.uint64(2**64 - 1)))
    assert (report.accepted, report.rejected) == (1, 1)
    assert report.first_errors == [(3, "unknown direction 'up'")]
    assert block.timestamp.tolist() == [1]
    report = IngestReport()
    ingest._parse_lines(data, 2, report)
    assert (report.accepted, report.rejected) == (2, 4)
    # read a line at a time after the header, which fills the first block
    # alone, the six lines are lines 2 to 7
    stream = io.BytesIO(CDR_HEADER.encode() + b"\n" + data[: -len(ingest._PAD)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_BLOCK_BYTES", 1)
        assert [line_no for _, line_no in ingest._blocks(stream)] == [2, *range(2, 8)]


def assert_window_parse(text: str | bytes, block_bytes: int | None, window):
    """The parse of ``window`` counts what the hourly parse counts and
    keeps the full parse's records at the window's antenna with a timestamp
    in ``[t_lo, t_hi)``."""
    got = parse_columnar(text, block_bytes, OFFSET, window)
    hourly, full = parse_columnar(text, block_bytes, OFFSET), parse_columnar(text, block_bytes)
    if isinstance(full, str):
        assert got == hourly == full
        return
    ((counts, table), report), (hourly_counts, hourly_report) = got, hourly
    assert report == hourly_report
    assert_same_counts(counts, hourly_counts)
    antenna, t_lo, t_hi = window
    kept = [r for r in full[0] if r.antenna == antenna and t_lo <= r.timestamp < t_hi]
    assert list(table) == kept


@settings(max_examples=200, deadline=None)
@given(cdr_texts(), st.data())
def test_the_window_parse_counts_the_corpus_and_keeps_the_window(text, data):
    block_bytes = data.draw(
        st.none() | st.integers(1, len(text.encode("utf-8")) + 2), label="block_bytes"
    )
    full = parse_columnar(text, block_bytes)
    table = CallTable.from_records([]) if isinstance(full, str) else full[0]
    # an antenna of the corpus or none, and bounds at or just after a
    # record's timestamp or anywhere in int64
    antenna = st.sampled_from(["absent", "\ud800", *table.antennas])
    edges = [min(t + d, 2**63 - 1) for t in table.timestamp.tolist() for d in (0, 1)]
    bound = st.sampled_from(edges or [0]) | st.integers(-(2**63), 2**63 - 1)
    window = (
        data.draw(antenna, label="antenna"), data.draw(bound, label="t_lo"),
        data.draw(bound, label="t_hi"),
    )
    assert_window_parse(text, block_bytes, window)


@pytest.mark.parametrize("antenna", ["absent", "\ud800"])
def test_a_window_at_no_antenna_of_the_corpus_keeps_no_record(antenna):
    # the lone surrogate's bytes end a line that is not UTF-8, so rejected
    data = (CDR_HEADER + "\nA,B,out,1,L1\nB,C,in,2,L2\n").encode() + b"C,D,out,3,\xed\xa0\x80\n"
    for block_bytes in (None, 7):
        assert_window_parse(data, block_bytes, (antenna, -(2**63), 2**63 - 1))
    (_, table), report = parse_cdr_file(
        io.BytesIO(data), utc_offset_minutes=OFFSET, window=(antenna, -(2**63), 2**63 - 1)
    )
    assert len(table) == 0 and (report.accepted, report.rejected) == (2, 1)


def test_a_window_without_an_offset_is_refused():
    with pytest.raises(ValueError, match="a window is kept only beside hourly counts"):
        parse_cdr_file(io.BytesIO(CDR_HEADER.encode() + b"\n"), window=("L1", 0, 1))


# --- the column writer against the per-record reference ------------------------

# longer than the writer's byte budget per block of rows
LONG = "L" * (2**18 + 3)
writer_identifiers = st.one_of(
    st.sampled_from(["A", "B", "u1", "u2", "\x00", "A\x00", "\x00A", "é", "\U0001f600", LONG]),
    st.text("ABu12\x00é", min_size=1, max_size=6),
    # a comma or a line break: such a record cannot be written
    st.sampled_from(["u,1", "u\n", "\r", "A\u2028", "\x85", "u\x1c1"]),
)
writer_timestamps = st.one_of(
    st.sampled_from([0, 1, -1, 9, -9, 10, -10, 99, 100, -100, 2**63 - 1, -(2**63), 1325473724]),
    st.integers(-(2**63), 2**63 - 1),
)


@st.composite
def writer_records(draw):
    located = draw(writer_identifiers)
    return CallRecord(
        located,
        draw(writer_identifiers.filter(lambda other: other != located)),
        draw(st.sampled_from([OUT, IN])),
        draw(writer_timestamps),
        draw(writer_identifiers),
    )


def write_with(writer, records):
    stream = io.BytesIO()
    try:
        writer(records, stream)
    except ValueError as exc:
        return str(exc)
    return stream.getvalue()


def _bad_row(i):
    return CallRecord(f"u{i}", "v", OUT, i, "A,1") if i % 2 else CallRecord("u\n", "v", IN, -i, "A")


# identifiers, directions and timestamps of every digit count, across blocks
_MANY = [
    rec(f"u{i % 97}", f"v{i % 89}" + "\x00" * (i % 3), OUT if i % 3 else IN,
        (i * 7919 - 10**6) * 10 ** (i % 9), f"A{i % 5}")
    for i in range(20_000)
]


@settings(max_examples=300, deadline=None)
@given(st.lists(writer_records(), max_size=30), st.lists(st.booleans()))
@example([], [])
@example([_bad_row(1), rec("a", "b", OUT, 1)], [])
@example([rec("a", "b", OUT, 1), _bad_row(2), rec("a", "b", OUT, 1)], [])
@example([rec("a", "b", OUT, 1), _bad_row(3)], [])
@example([_bad_row(1), rec("a", "b", OUT, -10), _bad_row(2)], [False, True, False])
@example(_MANY, [])
@example(_MANY[:5000] + [_bad_row(5)], [])
def test_column_writer_matches_the_per_record_reference(records, keep):
    # a record list and its table write the same bytes, or raise the same
    # error, as the reference; a sub-table keeps identifiers no row uses,
    # which are not rejected even when they cannot be written
    expected = write_with(reference_write_cdr, records)
    table = CallTable.from_records(records)
    assert write_with(write_cdr_file, records) == expected
    assert write_with(write_cdr_file, table) == expected
    mask = np.resize(np.array(keep or [True], dtype=bool), len(table))
    sub = table[mask]
    assert write_with(write_cdr_file, sub) == write_with(reference_write_cdr, list(sub))
