import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdrevents.ingest import (
    CDR_HEADER,
    IngestError,
    load_client_set,
    parse_cdr_file,
    write_cdr_file,
    write_client_roster,
)
from cdrevents.model import CallRecord, Direction
from helpers import IN, OUT, rec


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
