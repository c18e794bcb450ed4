"""Strict parsing and writing of the delimited CDR and client-roster files.

Both formats are UTF-8 text.  CDR files carry a fixed header and one located
call leg per line; rosters carry one user identifier per line.  Malformed CDR
lines are rejected individually and reported, never silently dropped.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .model import CallRecord, CallTable

CDR_HEADER = "located_user,other_party,direction,timestamp,antenna"
MAX_REPORTED_ERRORS = 20
# bytes read at once; a longer line is read whole
_BLOCK_BYTES = 1 << 20
# a block is padded so that a uint64 word can be read from any of its bytes
_PAD = bytes(8)
# _LENGTH_MASKS[k] keeps the first k bytes of a big-endian word
_LENGTH_MASKS = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], dtype=np.uint64)
# rows formatted at once, and output bytes gathered at once (one longer
# line is gathered alone)
_WRITE_ROWS = 4096
_WRITE_BYTES = 1 << 18
# an int64 in decimal is at most 19 digits and a "-", and a "," follows
_TIMESTAMP_COLUMNS = 21
_POWERS_OF_TEN = np.array([10**k for k in range(20)], dtype=np.uint64)

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


def _utf8_error(exc: UnicodeDecodeError, offset: int) -> IngestError:
    """The error of decoding the whole stream, for ``exc`` raised by a block
    that starts ``offset`` bytes into it."""
    at, last = exc.start + offset, exc.end - 1 + offset
    where = (
        f"byte 0x{exc.object[exc.start]:02x} in position {at}" if at == last
        else f"bytes in position {at}-{last}"
    )
    return IngestError(
        f"stream is not valid UTF-8: 'utf-8' codec can't decode {where}: {exc.reason}"
    )


def _blocks(stream: IO) -> Iterator[bytes]:
    """The stream as UTF-8 bytes, in blocks of whole lines with every line
    break rewritten to "\n", each followed by ``_PAD``.  A block ends after
    the last "\n" of a read of ``_BLOCK_BYTES``, so a longer line is read
    whole, or at the end of the stream.  Bytes are checked to be UTF-8 block
    by block."""
    pending: list[bytes] = []
    offset = 0  # the bytes of the stream before the block
    at_end = False
    while not at_end:
        try:
            piece = stream.read(_BLOCK_BYTES)
        except OSError as exc:
            raise IngestError(f"unreadable stream: {exc}") from exc
        from_text = isinstance(piece, str)
        if from_text:
            piece = piece.encode("utf-8", _SURROGATES)
        at_end = not piece
        cut = piece.rfind(b"\n") + 1
        if not (cut or at_end):
            pending.append(piece)
            continue
        data = b"".join(pending + [memoryview(piece)[:cut]])
        pending = [piece[cut:]]
        del piece
        if not data:
            continue
        is_ascii = data.isascii()
        if not (from_text or is_ascii):
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _utf8_error(exc, offset) from None
        offset += len(data)
        breaks = _OTHER_BREAKS[:6] if is_ascii else _OTHER_BREAKS
        if any(brk in data for brk in breaks):
            data = ("\n".join(_decode(data).splitlines()) + "\n").encode("utf-8", _SURROGATES)
        data += _PAD
        yield data


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


def _words(data: bytes) -> np.ndarray:
    """A view of ``data``, which ends in ``_PAD``, with a big-endian uint64
    word starting at every byte."""
    return np.ndarray((len(data) - 7,), dtype=">u8", buffer=data, strides=(1,))


def _same_fields(
    data: bytes, a: np.ndarray, b: np.ndarray, a_lens: np.ndarray, b_lens: np.ndarray
) -> np.ndarray:
    """Whether each field ``data[a : a + a_lens]`` holds the same bytes as
    ``data[b : b + b_lens]``.  Fields are compared a uint64 word at a time:
    the first word of every pair, then every word of the pairs of one length
    whose first words match, in one gather."""
    at_byte = _words(data)
    first_differs = (at_byte[a] ^ at_byte[b]) & _LENGTH_MASKS.take(a_lens, mode="clip")
    rows = np.flatnonzero((a_lens == b_lens) & (first_differs == 0))
    lens = a_lens[rows]
    n_words = np.maximum(-(-lens // 8), 1)
    firsts = np.cumsum(n_words) - n_words
    offset = np.arange(int(n_words.sum()), dtype=lens.dtype)
    offset -= np.repeat(firsts, n_words)
    offset *= 8
    differ = at_byte[np.repeat(a[rows], n_words) + offset]
    differ ^= at_byte[np.repeat(b[rows], n_words) + offset]
    differ &= _LENGTH_MASKS.take(np.repeat(lens, n_words) - offset, mode="clip")
    same = np.zeros(len(a), dtype=bool)
    same[rows] = ~np.logical_or.reduceat(differ != 0, firsts)
    return same


def _encode(data: bytes, starts: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary-encode byte fields of ``data``, which ends in ``_PAD``:
    int32 codes into their sorted distinct values, and one field of each.

    Fields are sorted by the big-endian uint64 words of their zero-padded
    bytes, which is the order of their strings.  Each word is one gather
    from a view that starts a word at every byte, masked to the field's
    length.  Padding can only tie a field with itself plus trailing NULs,
    so when the data holds a NUL byte the length breaks the tie.  A key
    matrix larger than the data, or with more words per field than fields
    (a few very long identifiers), is avoided by sorting the fields as bytes.
    """
    n = len(starts)
    n_words = max(1, -(-int(lens.max(initial=0)) // 8))
    if n_words > 1 and (n_words * 8 * n > len(data) or n_words > n):
        fields = [data[s : s + k] for s, k in zip(starts.tolist(), lens.tolist())]
        code_of = {value: i for i, value in enumerate(sorted(set(fields)))}
        codes = np.fromiter(map(code_of.__getitem__, fields), dtype=np.int32, count=n)
        firsts = np.empty(len(code_of), dtype=np.int64)
        firsts[codes] = np.arange(n)
        return codes, firsts
    at_byte = _words(data)
    # np.lexsort sorts by its last key first; indexing, unlike take, does
    # not copy the strided view
    keys = [
        at_byte[np.minimum(starts + 8 * word, len(at_byte) - 1)]
        & _LENGTH_MASKS.take(lens - 8 * word, mode="clip")
        for word in reversed(range(n_words))
    ]
    if data.find(b"\0", 0, len(data) - len(_PAD)) >= 0:
        keys.insert(0, lens)
    order = np.lexsort(keys) if len(keys) > 1 else np.argsort(keys[0])
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    del keys, key, ordered
    ranks = np.cumsum(new, dtype=np.int32)
    ranks -= 1
    codes = np.empty(n, dtype=np.int32)
    codes[order] = ranks
    return codes, order[new]


def _spans(buf: np.ndarray, at: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The byte spans ``buf[at : at + lens]``, at least one, concatenated; a
    span past the end of ``buf`` repeats its last byte."""
    ends = np.cumsum(lens, dtype=at.dtype)
    index = np.arange(ends[-1], dtype=at.dtype)
    index += np.repeat(at - (ends - lens), lens)
    return buf.take(index, mode="clip")


def _gather_values(
    buf: np.ndarray, starts: np.ndarray, lens: np.ndarray
) -> tuple[str, ...]:
    """Decode byte fields in one pass: they hold no line break, so they are
    copied out with "\n" after each, decoded together and split."""
    if not len(starts):
        return ()
    spans = lens.astype(np.int64) + 1
    joined = _spans(buf, starts, spans)
    joined[np.cumsum(spans) - 1] = ord("\n")
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


def _joined(pieces: list[np.ndarray]) -> np.ndarray:
    """The pieces concatenated; the list is emptied, so that they are freed."""
    joined = np.concatenate(pieces)
    pieces.clear()
    return joined


class _Vocabulary:
    """Blocks' sorted distinct identifiers, kept as bytes until merged, and
    the code columns of each block's rows into them."""

    def __init__(self, n_columns: int) -> None:
        self.data: list[np.ndarray] = []
        self.lens: list[np.ndarray] = []
        self.columns: list[list[np.ndarray]] = [[] for _ in range(n_columns)]

    def add(self, buf: np.ndarray, starts: np.ndarray, lens: np.ndarray, *codes: np.ndarray) -> None:
        """Add a block's distinct identifiers, ``buf[starts : starts + lens]``
        in sorted order, and its code columns."""
        self.data.append(_spans(buf, starts, lens) if len(lens) else buf[:0])
        self.lens.append(lens)
        for column, block_codes in zip(self.columns, codes):
            column.append(block_codes)

    def merge(self) -> tuple[list[np.ndarray], tuple[str, ...]]:
        """The code columns in the merged vocabulary, and that vocabulary.

        The blocks' identifiers are sorted as one set of fields.  Each
        block's codes are then looked up, in place, among the merged codes
        of its identifiers."""
        blocks = np.cumsum([len(block) for block in self.lens[:-1]])
        lens = _joined(self.lens)
        data = _joined(self.data).tobytes() + _PAD
        starts = np.cumsum(lens) - lens
        merged, firsts = _encode(data, starts, lens)
        values = _gather_values(np.frombuffer(data, dtype=np.uint8), starts[firsts], lens[firsts])
        del data, starts, firsts
        entries = np.split(merged, blocks)
        for column in self.columns:
            for block_entries, codes in zip(entries, column):
                block_entries.take(codes, out=codes)
        return [_joined(column) for column in self.columns], values


def _parse_lines(
    data: bytes,
    line_no: int,
    report: IngestReport,
    users: _Vocabulary | None,
    antennas: _Vocabulary,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Parse a block of whole data lines followed by ``_PAD``, the first
    line being line ``line_no`` of the stream, into ``report`` and the
    vocabularies (users are not encoded when ``users`` is None); returns the
    timestamp and outgoing columns of the accepted lines, and the number of
    lines."""
    buf = np.frombuffer(data, dtype=np.uint8)
    size = len(data) - len(_PAD)
    offset = np.int32 if size < 2**31 else np.int64
    ends = np.flatnonzero(buf == ord("\n")).astype(offset)
    if size and data[size - 1] != ord("\n"):
        ends = np.append(ends, offset(size))
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1

    commas = np.flatnonzero(buf == ord(",")).astype(offset)
    # a line's last comma comes just before the next line's first, so one
    # search bounds both
    first = np.searchsorted(commas, starts)
    five = np.flatnonzero(np.diff(first, append=len(commas)) == 4)
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
    reason = np.full(len(starts), _FIELDS, dtype=np.int8)
    reason[five] = np.select([~direction_ok, ~timestamp_ok], [_DIRECTION, _TIMESTAMP], 0)
    rows = np.flatnonzero(direction_ok & timestamp_ok)
    del direction_ok, timestamp_ok
    # the located user, the other party and the antenna of those lines
    at = [at[field][rows] for field in (0, 1, 4)]
    lens = [lens[field][rows] for field in (0, 1, 4)]
    timestamp, outgoing, five = timestamp[rows], outgoing[rows], five[rows]
    self_call = _same_fields(data, at[0], at[1], lens[0], lens[1])
    empty = (lens[0] == 0) | (lens[1] == 0) | (lens[2] == 0)
    row_reason = np.select([self_call, empty], [_SELF_CALL, _EMPTY], 0)
    reason[five] = row_reason
    keep = row_reason == 0
    if users is not None:
        user_at, user_lens = np.concatenate(at[:2]), np.concatenate(lens[:2])
        user_codes, user_firsts = _encode(data, user_at, user_lens)
        located, other = np.split(user_codes, 2)
        users.add(buf, user_at[user_firsts], user_lens[user_firsts], located[keep], other[keep])
    antenna, antenna_firsts = _encode(data, at[2], lens[2])
    antennas.add(buf, at[2][antenna_firsts], lens[2][antenna_firsts], antenna[keep])
    rejected = np.flatnonzero(reason)
    report.accepted += int(keep.sum())
    report.rejected += len(rejected)
    for i in rejected[: MAX_REPORTED_ERRORS - len(report.first_errors)].tolist():
        line = _decode(data[starts[i] : ends[i]])
        report.first_errors.append((line_no + i, _reason(int(reason[i]), line)))
    return timestamp[keep], outgoing[keep], len(starts)


def parse_cdr_file(stream: IO, *, users: bool = True) -> tuple[CallTable, IngestReport]:
    """Parse a CDR stream into a call table plus a validation report.

    Accepts every line break ``str.splitlines`` knows, CRLF included.  Every
    line after the header either yields one record or one rejection entry,
    so accepted + rejected == data lines.  A line is rejected, for the first
    reason that applies, unless it has five fields, the direction ``out`` or
    ``in``, a timestamp that is an optional ``-`` followed by ASCII digits
    with a value that fits int64, two different users and no empty
    identifier.

    The stream is read in blocks of 1 MiB of whole lines.  Each block is
    parsed into columns and its own vocabularies, which are merged at the
    end, so memory stays about the finished table plus one block.

    With ``users=False`` the user fields are checked but not encoded: lines
    are accepted and rejected as before, and the table's ``users`` is empty
    (see ``CallTable.without_users``), so that a caller that reads only
    timestamps and antennas builds no user dictionary.
    """
    blocks = _blocks(stream)
    data = next(blocks, _PAD)
    if data == _PAD:
        raise IngestError("empty CDR stream (missing header)")
    header_end = data.find(b"\n")
    header = data[: len(data) - len(_PAD) if header_end < 0 else header_end]
    if header != CDR_HEADER.encode():
        for _ in blocks:  # an invalid byte later in the stream is reported first
            pass
        raise IngestError(f"bad CDR header: {_decode(header)!r}")
    report = IngestReport()
    user_vocabulary, antennas = _Vocabulary(2) if users else None, _Vocabulary(1)
    timestamp, outgoing = [], []
    line_no = 2
    data = data[header_end + 1 :] if header_end >= 0 else _PAD
    while data is not None:
        block_timestamp, block_outgoing, n_lines = _parse_lines(
            data, line_no, report, user_vocabulary, antennas
        )
        timestamp.append(block_timestamp)
        outgoing.append(block_outgoing)
        line_no += n_lines
        data = next(blocks, None)
    (antenna,), antenna_values = antennas.merge()
    timestamp, outgoing = _joined(timestamp), _joined(outgoing)
    if user_vocabulary is None:
        return CallTable.without_users(timestamp, outgoing, antenna, antenna_values), report
    (located, other), user_values = user_vocabulary.merge()
    table = CallTable(timestamp, located, other, outgoing, antenna, user_values, antenna_values)
    return table, report


def _is_binary(stream: IO) -> bool:
    return isinstance(stream, (io.RawIOBase, io.BufferedIOBase)) or "b" in getattr(
        stream, "mode", ""
    )


def _unwritable(values: Sequence[str]) -> np.ndarray:
    """Which identifiers hold a comma or a line break (anything
    ``str.splitlines`` breaks on), so that their line would not parse back."""
    text = "\n".join(values) + "\n"
    # a "\r" before a joining "\n" would hide in "\r\n"
    if "," not in text and "\r" not in text and len(text.splitlines()) == len(values):
        return np.zeros(len(values), dtype=bool)
    return np.array(["," in v or v.splitlines() not in ([v], []) for v in values], dtype=bool)


def _packed(
    values: Sequence[str], end: bytes, errors: str
) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The values in UTF-8, each followed by ``end``, joined, with the start
    and the length of each value with its ``end``."""
    encoded = [value.encode("utf-8", errors) + end for value in values]
    lens = np.fromiter(map(len, encoded), np.int64, len(encoded))
    return b"".join(encoded), np.cumsum(lens) - lens, lens


def _decimal(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 values in decimal with a "," after each: a uint8 matrix with one
    value right-aligned in each row, and each length with "-" and ","."""
    negative = values < 0
    magnitude = np.where(negative, -values.astype(np.uint64), values.astype(np.uint64))
    width = len(str(int(magnitude.max(initial=0))))
    n_digits = 1 + np.searchsorted(_POWERS_OF_TEN[1:width], magnitude, side="right")
    columns = [np.full(len(values), ord(","), dtype=np.uint8)]
    for _ in range(width):
        quotient = magnitude // np.uint64(10)
        digit = (magnitude - quotient * np.uint64(10)).astype(np.uint8)
        columns.append(digit + np.uint8(ord("0")))
        magnitude = quotient
    text = np.stack([np.empty_like(columns[0])] + columns[::-1], axis=1)
    text[np.flatnonzero(negative), width - n_digits[negative]] = ord("-")
    return text, n_digits + negative + 1


def write_cdr_file(records: Iterable[CallRecord], stream: IO) -> None:
    """Write records in the CDR format; re-parsing yields the same sequence.

    Records are converted to a table first (a table is taken as it is), so
    one column writer serves every input.  Raises ValueError before writing
    anything, naming the first record with a timestamp outside int64 or,
    failing that, the first record that uses an identifier with a comma or
    a line break (anything ``str.splitlines`` breaks on), since its line
    would not parse back.  Identifiers are checked once per vocabulary
    entry, and an entry that no record uses is not rejected.
    """
    if not isinstance(records, Sequence):
        records = list(records)
    try:
        table = CallTable.from_records(records)
    except OverflowError:
        bad = next(r for r in records if not _INT64_MIN <= r.timestamp <= _INT64_MAX)
        raise ValueError(f"cannot write {bad!r}: its timestamp is outside int64") from None
    bad_user, bad_antenna = _unwritable(table.users), _unwritable(table.antennas)
    if bad_user.any() or bad_antenna.any():
        bad = bad_user[table.located] | bad_user[table.other] | bad_antenna[table.antenna]
        if bad.any():
            raise ValueError(
                f"cannot write {table[int(bad.argmax())]!r}: an identifier holds a "
                "comma or a line break"
            )
    binary = _is_binary(stream)
    errors = "strict" if binary else _SURROGATES
    users, user_at, user_len = _packed(table.users, b",", errors)
    antennas, antenna_at, antenna_len = _packed(table.antennas, b"\n", errors)
    # each field and the separator after it is a span of one buffer: the
    # identifiers, "out," and "in,", then the timestamps of the current rows
    fixed = users + antennas + b"out,in,"
    source = np.empty(len(fixed) + _TIMESTAMP_COLUMNS * _WRITE_ROWS, dtype=np.uint8)
    source[: len(fixed)] = np.frombuffer(fixed, dtype=np.uint8)
    stream.write(CDR_HEADER.encode() + b"\n" if binary else CDR_HEADER + "\n")
    for start in range(0, len(table), _WRITE_ROWS):
        rows = slice(start, start + _WRITE_ROWS)
        text, text_len = _decimal(table.timestamp[rows])
        source[len(fixed) : len(fixed) + text.size] = text.ravel()
        text_end = len(fixed) + text.shape[1] * np.arange(1, len(text) + 1)
        located, other, outgoing = table.located[rows], table.other[rows], table.outgoing[rows]
        at = np.stack([
            user_at[located], user_at[other], np.where(outgoing, len(fixed) - 7, len(fixed) - 3),
            text_end - text_len, len(users) + antenna_at[table.antenna[rows]],
        ], axis=1).ravel()
        lens = np.stack([
            user_len[located], user_len[other], np.where(outgoing, 4, 3), text_len,
            antenna_len[table.antenna[rows]],
        ], axis=1)
        # lines that end within one byte budget are gathered together
        line_ends = np.cumsum(lens.sum(axis=1))
        cuts = np.searchsorted(
            line_ends, np.arange(_WRITE_BYTES, line_ends[-1], _WRITE_BYTES), side="right"
        ).tolist()
        lens = lens.ravel()
        for lo, hi in zip([0] + cuts, cuts + [len(text)]):
            if lo < hi:
                data = _spans(source, at[5 * lo : 5 * hi], lens[5 * lo : 5 * hi]).tobytes()
                stream.write(data if binary else _decode(data))


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
    text = "".join(user + "\n" for user in sorted(clients))
    stream.write(text.encode("utf-8") if _is_binary(stream) else text)
