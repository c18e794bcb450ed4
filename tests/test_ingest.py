import io
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdrevents import ingest
from cdrevents.ingest import (
    CDR_HEADER,
    IngestError,
    load_client_set,
    parse_cdr_file,
    write_cdr_file,
    write_client_roster,
)
from cdrevents.model import CallRecord, CallTable, Direction
from helpers import IN, OUT, rec, reference_parse_cdr, reference_write_cdr


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
    with pytest.raises(IngestError):
        parse_cdr_file(io.BytesIO(b"\xff\xfe" + CDR_HEADER.encode()))


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


def test_roster_round_trip():
    buffer = io.BytesIO()
    write_client_roster({"B", "A"}, buffer)
    assert buffer.getvalue() == b"A\nB\n"
    assert load_client_set(io.BytesIO(buffer.getvalue())) == {"A", "B"}


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


def test_write_accepts_text_streams_too():
    out = io.StringIO()
    write_cdr_file([rec("A", "B", OUT, 1)], out)
    assert out.getvalue() == CDR_HEADER + "\nA,B,out,1,L1\n"


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


def read_with(parse, text: str | bytes, as_bytes: bool):
    """A parse of a text (or of raw bytes), read from a byte or a text
    stream, with an error as its message."""
    if isinstance(text, bytes):
        stream = io.BytesIO(text)
    else:
        stream = io.BytesIO(text.encode("utf-8")) if as_bytes else io.StringIO(text)
    try:
        return parse(stream)
    except IngestError as exc:
        return str(exc)


def parse_columnar(
    text: str | bytes, as_bytes: bool, block_bytes: int | None = None, users: bool = True
):
    """The columnar parse, reading ``block_bytes`` at a time if given."""
    with pytest.MonkeyPatch.context() as patch:
        if block_bytes is not None:
            patch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        return read_with(lambda stream: parse_cdr_file(stream, users=users), text, as_bytes)


def parse_both(text: str | bytes, as_bytes: bool, block_bytes: int | None = None):
    """The columnar and the reference parse of a text."""
    return parse_columnar(text, as_bytes, block_bytes), read_with(reference_parse_cdr, text, as_bytes)


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


def assert_same_without_users(lean, got):
    """A parse with ``users=False`` (``lean``) keeps everything of the full
    parse ``got`` but the users: the same error, or the same report and
    timestamp, direction and antenna columns, and no record can be read."""
    if isinstance(got, str):
        assert lean == got
        return
    (table, report), (lean_table, lean_report) = got, lean
    assert isinstance(lean_table, CallTable)
    assert lean_report == report
    for column in ("timestamp", "outgoing", "antenna"):
        assert np.array_equal(getattr(lean_table, column), getattr(table, column)), column
    assert lean_table.antennas == table.antennas
    assert lean_table.users == () and len(lean_table) == len(table)
    # the user columns hold no memory per row, in the table and its sub-tables
    for sub in (lean_table, lean_table[::2], lean_table[lean_table.outgoing]):
        assert sub.located.strides == sub.other.strides == (0,)
        assert len(sub.located) == len(sub.other) == len(sub)
    if len(table):
        with pytest.raises(IndexError, match="without users"):
            lean_table[0]
        with pytest.raises(IndexError, match="without users"):
            list(lean_table)
    else:
        assert list(lean_table) == []


def assert_same_parses(text: str | bytes, as_bytes: bool, block_bytes: int | None = None):
    got, expected = parse_both(text, as_bytes, block_bytes)
    assert_same_parse(got, expected)
    assert_same_without_users(parse_columnar(text, as_bytes, block_bytes, users=False), got)


@settings(max_examples=400, deadline=None)
@given(cdr_texts(), st.booleans(), st.data())
def test_columnar_parser_matches_the_per_line_reference(text, as_bytes, data):
    # blocks from one byte up to past the text, or the default
    block_bytes = data.draw(
        st.none() | st.integers(1, len(text.encode("utf-8")) + 2), label="block_bytes"
    )
    assert_same_parses(text, as_bytes, block_bytes)


_ODD_LINES = "\n".join([f"u{i},v{i},out,{i},A{i % 3}" if i % 2 else f"bad,{i}" for i in range(42)])
BLOCK_TEXTS = {
    "other line breaks": CDR_HEADER + "\r\nA,B,out,1,L1\r\nB,C,in,2,L2\rC,D,out,3,L3\u2028D,E,in,4,é\n",
    "no final line break": CDR_HEADER + "\nA,B,out,1,L1\nB,C,in,2,L2",
    "long line": CDR_HEADER + "\n" + "x" * 90 + ",y,out,7," + "z" * 40 + "\nA,B,in,8,L1\n",
    "21 rejected lines": CDR_HEADER + "\n" + _ODD_LINES + "\n",
}
BAD_UTF8 = {
    "invalid byte": (CDR_HEADER + "\nA,B,out,1,L1" * 4 + "\n").encode() + b"A,B,out,1,L\xff\nC,D,in,2,L2\n",
    "invalid bytes": (CDR_HEADER + "\nA,B,out,1,L1\n" * 4).encode() + b"A,\xe2\x82,out,1,L1\n",
    "cut at the end": (CDR_HEADER + "\nA,B,out,1,L1\n" * 4).encode() + b"A,B,out,1,\xf0\x90",
    "bad header too": ("x" + CDR_HEADER + "\nA,B,out,1,L1\n" * 4).encode() + b"\xff\n",
}


@pytest.mark.parametrize("name", BLOCK_TEXTS)
@pytest.mark.parametrize("as_bytes", [True, False])
def test_every_block_size_parses_like_the_whole_text(name, as_bytes):
    text = BLOCK_TEXTS[name]
    for block_bytes in range(1, len(text.encode("utf-8")) + 2):
        assert_same_parses(text, as_bytes, block_bytes)


@pytest.mark.parametrize("name", BAD_UTF8)
def test_invalid_utf8_is_named_at_its_position_in_the_stream(name):
    raw = BAD_UTF8[name]
    for block_bytes in range(1, len(raw) + 2):
        got, expected = parse_both(raw, True, block_bytes)
        assert got == expected
        assert expected.startswith("stream is not valid UTF-8")


def memory_corpus():
    """A corpus of a few MB (150k rows, 20k users, 24 antennas), as the
    table written and as the bytes of its file."""
    rng = np.random.default_rng(3)
    n, n_users = 150_000, 20_000
    located = rng.integers(0, n_users, n).astype(np.int32)
    other = ((located + rng.integers(1, n_users, n)) % n_users).astype(np.int32)
    written = CallTable(
        np.sort(rng.integers(1_325_473_200, 1_333_249_200, n)), located, other,
        rng.random(n) < 0.5, rng.integers(0, 24, n).astype(np.int32),
        tuple(f"u{i:06d}" for i in range(n_users)), tuple(f"A{i:03d}" for i in range(24)),
    )
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
    columns = sum(
        column.nbytes
        for column in (table.timestamp, table.located, table.other, table.outgoing, table.antenna)
    )
    assert peak < columns + 8 * ingest._BLOCK_BYTES, (peak, columns)


def test_parse_without_users_holds_no_user_dictionary():
    # the same corpus read without users: no user codes and no vocabulary
    # merge, so the peak stays within 5 blocks of the three columns it
    # builds (measured: 3.35 MiB above them, against 7.17 MiB for the
    # parse with users)
    written, data = memory_corpus()
    table, report, peak = traced_parse(data, users=False)
    assert report.accepted == len(written) and table.users == ()
    assert np.array_equal(table.timestamp, written.timestamp)
    assert np.array_equal(table.antenna, written.antenna)
    columns = sum(column.nbytes for column in (table.timestamp, table.outgoing, table.antenna))
    assert peak < columns + 5 * ingest._BLOCK_BYTES, (peak, columns)


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
    got, expected = parse_both(text, as_bytes=True)
    assert_same_parse(got, expected)
    assert_same_without_users(parse_columnar(text, True, users=False), got)
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
    got, expected = parse_both(text, as_bytes=True)
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
    got, expected = parse_both(text, as_bytes=True)
    table, report = got
    assert report.rejected == 0
    assert list(table) == expected[0]
    assert table.users == tuple(sorted(stems + ["a", "b"] * (filler > 0)))


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


def write_with(writer, records, as_bytes: bool):
    stream = io.BytesIO() if as_bytes else io.StringIO()
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
@given(st.lists(writer_records(), max_size=30), st.lists(st.booleans()), st.booleans())
@example([], [], True)
@example([_bad_row(1), rec("a", "b", OUT, 1)], [], True)
@example([rec("a", "b", OUT, 1), _bad_row(2), rec("a", "b", OUT, 1)], [], False)
@example([rec("a", "b", OUT, 1), _bad_row(3)], [], True)
@example([_bad_row(1), rec("a", "b", OUT, -10), _bad_row(2)], [False, True, False], False)
@example(_MANY, [], True)
@example(_MANY[:5000] + [_bad_row(5)], [], False)
def test_column_writer_matches_the_per_record_reference(records, keep, as_bytes):
    # a record list and its table write the same bytes, or raise the same
    # error, as the reference; a sub-table keeps identifiers no row uses,
    # which are not rejected even when they cannot be written
    expected = write_with(reference_write_cdr, records, as_bytes)
    table = CallTable.from_records(records)
    assert write_with(write_cdr_file, records, as_bytes) == expected
    assert write_with(write_cdr_file, table, as_bytes) == expected
    mask = np.resize(np.array(keep or [True], dtype=bool), len(table))
    sub = table[mask]
    assert write_with(write_cdr_file, sub, as_bytes) == write_with(
        reference_write_cdr, list(sub), as_bytes
    )
