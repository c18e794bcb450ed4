"""Strict parsing and writing of the delimited CDR and client-roster files.

Both formats are UTF-8 text, read from and written to byte streams.  CDR
files carry a fixed header and one located call leg per line; rosters carry
one user identifier per line.  Malformed CDR lines, lines that are not UTF-8
included, are rejected individually and reported, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Collection, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .model import CallRecord, CallTable, HourlyCounts, _fold, local_hours

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
_WRITE_BYTES = 1 << 16
# an int64 in decimal is at most 19 digits and a "-", and a "," follows
_TIMESTAMP_COLUMNS = 21
_POWERS_OF_TEN = np.array([10**k for k in range(20)], dtype=np.uint64)

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# numbers of up to 18 digits fit int64, so they are read with int64 arithmetic
_FIXED_WIDTH_DIGITS = 18
# the str.splitlines line breaks other than "\n", as text, and in UTF-8
# after CRLF; no break's bytes occur inside another's, so the bytes split
# as the text decoded with surrogateescape does
_OTHER_BREAK_CHARS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_OTHER_BREAKS = (b"\r\n",) + tuple(c.encode() for c in _OTHER_BREAK_CHARS)

# why a line is rejected, in the order the checks apply
_UTF8, _FIELDS, _DIRECTION, _TIMESTAMP, _SELF_CALL, _EMPTY = range(1, 7)


class IngestError(Exception):
    """Fatal input problem: an unreadable stream, an undecodable roster, or a
    missing or bad CDR header."""


@dataclass
class IngestReport:
    """Per-file tally of accepted and rejected lines.

    ``first_errors`` holds up to 20 (line number, reason) pairs; line numbers
    are 1-based file positions, so the first data line is line 2.
    """

    accepted: int = 0
    rejected: int = 0
    first_errors: list[tuple[int, str]] = field(default_factory=list)


def _blocks(stream: IO[bytes]) -> Iterator[tuple[bytearray, int]]:
    """The data lines of a CDR stream in blocks, each with the line number
    of its first line; raises IngestError if the header line is missing or
    not ``CDR_HEADER``.

    A block is one ``stream.readinto`` of ``_BLOCK_BYTES`` into a buffer of
    its own, finished in place by ``stream.readline``, so an unbuffered raw
    stream reads each block's last line a byte at a time.  Every line break
    ``str.splitlines`` knows is rewritten to "\n" as bytes, so bytes that
    are not UTF-8 are kept as they are; every line ends in "\n" and the
    block in ``_PAD``.  The reader drops each block once it is yielded."""
    line_no = 1
    while True:
        data = bytearray(_BLOCK_BYTES)
        try:
            del data[stream.readinto(data) :]
            if data and data[-1] != ord("\n"):
                data += stream.readline()
        except OSError as exc:
            raise IngestError(f"unreadable stream: {exc}") from exc
        if not data:
            break
        for brk in _OTHER_BREAKS:
            if brk[:1] in data:  # a cheap one-byte scan
                data = data.replace(brk, b"\n")
        if data[-1] != ord("\n"):
            data += b"\n"
        if line_no == 1:
            header = data[: data.find(b"\n")]
            if header != CDR_HEADER.encode():
                raise IngestError(f"bad CDR header: {header.decode('utf-8', 'backslashreplace')!r}")
            del data[: len(header) + 1]
            line_no = 2
        data += _PAD
        yield data, line_no
        # counted in numpy a sixteenth at a time, so that the mask stays
        # small: bytearray.count is a byte loop, several times slower
        pieces = np.array_split(np.frombuffer(data, dtype=np.uint8), 16)
        line_no += int(sum(np.count_nonzero(piece == ord("\n")) for piece in pieces))
        del pieces, data
    if line_no == 1:
        raise IngestError("empty CDR stream (missing header)")


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
        fields = [bytes(data[s : s + k]) for s, k in zip(starts.tolist(), lens.tolist())]
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
    return tuple(joined.tobytes().decode().split("\n")[:-1])


def _reason(code: int, line: bytes) -> str:
    if code == _UTF8:
        return "not valid UTF-8"
    parts = line.decode().split(",")
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


def _remapped(entries: list[np.ndarray], pieces: list[np.ndarray]) -> np.ndarray:
    """Code pieces, one per block, looked up in place among their block's
    merged codes (see ``_Vocabulary.compact``), and joined."""
    for block_entries, codes in zip(entries, pieces):
        block_entries.take(codes, out=codes)
    return _joined(pieces)


class _Vocabulary:
    """Blocks' sorted distinct identifiers, kept as bytes until merged, and
    the code columns of each block's rows into them."""

    def __init__(self, n_columns: int) -> None:
        self.data: list[np.ndarray] = []
        self.lens: list[np.ndarray] = []
        self.columns: list[list[np.ndarray]] = [[] for _ in range(n_columns)]

    def add(self, buf: np.ndarray, starts: np.ndarray, lens: np.ndarray, *codes: np.ndarray) -> None:
        """Add a block's distinct identifiers, ``buf[starts : starts + lens]``
        in sorted order, and its code columns.  The bytes are copied, so
        that the block can be freed."""
        self.data.append(_spans(buf, starts, lens) if len(lens) else np.zeros(0, np.uint8))
        self.lens.append(lens)
        for column, block_codes in zip(self.columns, codes):
            column.append(block_codes)

    def compact(self) -> list[np.ndarray]:
        """Sort the identifiers of the blocks added so far as one set of
        fields, which becomes the one block; returns, for each block, the
        merged code of each of its identifiers."""
        blocks = np.cumsum([len(block) for block in self.lens[:-1]])
        lens = _joined(self.lens)
        data = _joined(self.data).tobytes() + _PAD
        starts = np.cumsum(lens) - lens
        merged, firsts = _encode(data, starts, lens)
        self.add(np.frombuffer(data, dtype=np.uint8), starts[firsts], lens[firsts])
        return np.split(merged, blocks)

    def merge(self) -> tuple[list[np.ndarray], tuple[str, ...]]:
        """The code columns in the merged vocabulary, and that vocabulary."""
        entries = self.compact()
        return [_remapped(entries, column) for column in self.columns], self.values()

    def values(self) -> tuple[str, ...]:
        """The identifiers of a compacted vocabulary."""
        [data], [lens] = self.data, self.lens
        # each identifier is copied with the byte after it, which must exist
        return _gather_values(np.append(data, np.uint8(0)), np.cumsum(lens) - lens, lens)


class _Cells:
    """Calls per (antenna, local hour) of the blocks parsed so far: the
    antenna vocabulary, and each block's cells in codes into its own
    identifiers.  The cells are merged again whenever their number doubles,
    so that they stay near the number of distinct cells whatever the order
    of the lines."""

    def __init__(self, utc_offset_minutes: int) -> None:
        self.utc_offset_minutes = utc_offset_minutes
        self.antennas = _Vocabulary(0)
        self.codes: list[np.ndarray] = []
        self.hours: list[np.ndarray] = []
        self.counts: list[np.ndarray] = []
        self.n_held = self.n_merged = 0

    def add(
        self, buf: np.ndarray, starts: np.ndarray, lens: np.ndarray,
        antenna: np.ndarray, timestamp: np.ndarray,
    ) -> None:
        """Add a block's distinct antennas, ``buf[starts : starts + lens]``
        in sorted order, and the antenna codes and timestamps of its calls."""
        codes, hours, counts = _fold(antenna, local_hours(timestamp, self.utc_offset_minutes), 1)
        self.antennas.add(buf, starts, lens)
        self.codes.append(codes)
        self.hours.append(hours)
        self.counts.append(counts)
        self.n_held += len(codes)
        if self.n_held > 2 * self.n_merged:
            self.merge()

    def merge(self) -> None:
        """Fold the cells of every block into the merged vocabulary."""
        codes, hours, counts = _fold(
            _remapped(self.antennas.compact(), self.codes), _joined(self.hours),
            _joined(self.counts),
        )
        self.codes, self.hours, self.counts = [codes], [hours], [counts]
        self.n_held = self.n_merged = len(codes)

    def result(self) -> HourlyCounts:
        """The hourly counts of every block added."""
        if len(self.codes) > 1:
            self.merge()
        return HourlyCounts(
            self.antennas.values(), self.codes[0], self.hours[0], self.counts[0],
            self.utc_offset_minutes,
        )


# the multiplier of a user key's first word; it is even, so a field of at
# most 8 bytes, whose first and last words are one, keeps a key of its own
_KEY_FACTOR = np.uint64(0x9E3779B97F4A7C14)


def _user_keys(data: bytes, at: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """A uint64 key of each byte field ``data[at : at + lens]``, where
    ``data`` ends in ``_PAD``: its first and its last 8-byte word, masked
    to the field, and its length.  Equal fields have equal keys."""
    at_byte = _words(data)
    mask = _LENGTH_MASKS.take(lens, mode="clip")
    keys = at_byte[at] & mask
    keys *= _KEY_FACTOR
    keys += at_byte[at + np.maximum(lens - 8, 0)] & mask
    keys += lens.astype(np.uint64)
    return keys


class _Block(NamedTuple):
    """The accepted lines of a block (see ``_parse_lines``)."""

    data: bytes  # the block, ending in _PAD
    timestamp: np.ndarray
    outgoing: np.ndarray
    antenna: np.ndarray  # codes into the block's distinct antennas
    antennas: tuple[np.ndarray, np.ndarray, np.ndarray]  # (buf, starts, lens), sorted
    user_at: tuple[np.ndarray, np.ndarray]  # located and other fields' starts
    user_lens: tuple[np.ndarray, np.ndarray]  # and their lengths


def _parse_lines(
    data: bytes, line_no: int, report: IngestReport, wanted: np.ndarray | None = None
) -> _Block:
    """Parse a block of lines ending in "\n" and followed by ``_PAD``, the
    first line being line ``line_no`` of the stream, into ``report`` and the
    columns of its accepted lines.  Users are checked but not encoded.

    Given ``wanted``, the sorted ``_user_keys`` of some users closed by the
    largest key, only the UTF-8 lines of five fields whose located or other
    field has one of those keys are parsed and accepted or rejected; the
    other lines go unparsed and unreported."""
    buf = np.frombuffer(data, dtype=np.uint8)
    size = len(data) - len(_PAD)
    offset = np.int32 if size < 2**31 else np.int64
    ends = np.flatnonzero(buf == ord("\n")).astype(offset)
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1

    undecodable = []
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError:
            # each line with a byte above 0x7f is decoded alone; decoding
            # the rest of the block after each bad line would copy it
            lines = np.searchsorted(ends, np.flatnonzero(buf[:size] > 0x7F))
            lines = lines[np.diff(lines, prepend=-1) != 0]
            for i, start, end in zip(lines.tolist(), starts[lines].tolist(), ends[lines].tolist()):
                try:
                    data[start:end].decode()
                except UnicodeDecodeError:
                    undecodable.append(i)
    commas = np.flatnonzero(buf == ord(",")).astype(offset)
    # a line's last comma comes just before the next line's first, so one
    # search bounds both
    first = np.searchsorted(commas, starts)
    has_five = np.diff(first, append=len(commas)) == 4
    has_five[undecodable] = False
    five = np.flatnonzero(has_five)
    bounds = [starts[five] - 1] + [commas[first[five] + k] for k in range(4)]
    bounds.append(ends[five])
    del commas, first, has_five
    if wanted is not None:
        hit = np.zeros(len(five), dtype=bool)
        for field in (0, 1):
            keys = _user_keys(data, bounds[field] + 1, bounds[field + 1] - bounds[field] - 1)
            hit |= wanted[np.searchsorted(wanted, keys)] == keys
        five, bounds = five[hit], [b[hit] for b in bounds]
    # the starts and the lengths of the fields (located, other, direction,
    # timestamp, antenna)
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
    reason = np.full(len(starts), _FIELDS if wanted is None else 0, dtype=np.int8)
    if wanted is None:
        reason[undecodable] = _UTF8
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
    antenna, antenna_firsts = _encode(data, at[2], lens[2])
    antennas = (buf, at[2][antenna_firsts], lens[2][antenna_firsts])
    rejected = np.flatnonzero(reason)
    report.accepted += int(keep.sum())
    report.rejected += len(rejected)
    for i in rejected[: MAX_REPORTED_ERRORS - len(report.first_errors)].tolist():
        line = data[starts[i] : ends[i]]
        report.first_errors.append((line_no + i, _reason(int(reason[i]), line)))
    return _Block(
        data, timestamp[keep], outgoing[keep], antenna[keep], antennas,
        (at[0][keep], at[1][keep]), (lens[0][keep], lens[1][keep]),
    )


class _Rows:
    """Accepted rows of blocks, kept as the columns of a ``CallTable``."""

    def __init__(self) -> None:
        self.users, self.antennas = _Vocabulary(2), _Vocabulary(1)
        self.timestamps: list[np.ndarray] = []
        self.outgoings: list[np.ndarray] = []

    def add(self, block: _Block, rows: np.ndarray | slice = slice(None)) -> None:
        """Add the block's accepted rows, or those that ``rows`` picks."""
        at = np.concatenate([column[rows] for column in block.user_at])
        lens = np.concatenate([column[rows] for column in block.user_lens])
        codes, firsts = _encode(block.data, at, lens)
        buf = np.frombuffer(block.data, dtype=np.uint8)
        self.users.add(buf, at[firsts], lens[firsts], *np.split(codes, 2))
        self.antennas.add(*block.antennas, block.antenna[rows])
        self.timestamps.append(block.timestamp[rows])
        self.outgoings.append(block.outgoing[rows])

    def table(self) -> CallTable:
        """The rows of every block added, at least one, as a table."""
        (antenna,), antennas = self.antennas.merge()
        (located, other), users = self.users.merge()
        timestamp, outgoing = _joined(self.timestamps), _joined(self.outgoings)
        return CallTable(timestamp, located, other, outgoing, antenna, users, antennas)


def _at_window(block: _Block, window: tuple[str, int, int]) -> np.ndarray:
    """Which accepted rows of the block are at antenna ``window[0]`` with a
    timestamp in ``[window[1], window[2])``."""
    antenna, t_lo, t_hi = window
    # an identifier that is not UTF-8 (a lone surrogate) matches no field
    name = antenna.encode("utf-8", "surrogatepass")
    _, starts, lens = block.antennas
    spans = zip(starts.tolist(), lens.tolist())
    code = next((i for i, (s, k) in enumerate(spans) if block.data[s : s + k] == name), -1)
    return (block.antenna == code) & (block.timestamp >= t_lo) & (block.timestamp < t_hi)


def parse_cdr_file(
    stream: IO[bytes],
    *,
    utc_offset_minutes: int | None = None,
    window: tuple[str, int, int] | None = None,
) -> tuple[CallTable | HourlyCounts | tuple[HourlyCounts, CallTable], IngestReport]:
    """Parse a CDR byte stream into a call table plus a validation report.

    Accepts every line break ``str.splitlines`` knows, CRLF included.  Every
    line after the header either yields one record or one rejection entry,
    so accepted + rejected == data lines.  A line is rejected, for the first
    reason that applies, unless it is UTF-8 and has five fields, the
    direction ``out`` or ``in``, a timestamp that is an optional ``-``
    followed by ASCII digits with a value that fits int64, two different
    users and no empty identifier.

    The stream is read in blocks: 1 MiB by ``stream.readinto``, then the
    rest of the last line by ``stream.readline``, so an unbuffered raw
    stream reads that rest a byte at a time (``open(path, "rb")`` is
    buffered).  Each block is
    parsed into columns and its own vocabularies, which are merged at the
    end, so memory stays about the finished table plus one block.

    Given ``utc_offset_minutes``, the records are counted instead: the
    result is the corpus's ``HourlyCounts`` at that offset, lines are
    accepted and rejected as before, user fields are checked but not
    encoded, and each block is folded into cells as it is parsed, so memory
    stays about the antennas times the hours plus one block.  Given also
    ``window``, an ``(antenna, t_lo, t_hi)`` triple, the result is those
    counts and a table of the accepted records at that antenna with a
    timestamp in ``[t_lo, t_hi)``.
    """
    if window is not None and utc_offset_minutes is None:
        raise ValueError("a window is kept only beside hourly counts")
    report = IngestReport()
    cells = None if utc_offset_minutes is None else _Cells(utc_offset_minutes)
    rows = None if cells is not None and window is None else _Rows()
    for data, line_no in _blocks(stream):
        block = _parse_lines(data, line_no, report)
        del data
        if cells is not None:
            cells.add(*block.antennas, block.antenna, block.timestamp)
        if rows is not None:
            rows.add(block, slice(None) if window is None else _at_window(block, window))
        # the block's columns and identifiers go before the next block is read
        del block
    if cells is None:
        return rows.table(), report
    if rows is None:
        return cells.result(), report
    return (cells.result(), rows.table()), report


def parse_touching(stream: IO[bytes], users: Collection[str]) -> CallTable:
    """The accepted records of a CDR byte stream with one of ``users`` on
    either side, as ``parse_cdr_file`` reads them.

    The stream is read in blocks as ``parse_cdr_file`` reads it, with the
    same line numbers, and each block is parsed once.  Only the lines whose located or other field has
    the key (``_user_keys``) of one of ``users`` are parsed; the other lines
    go unparsed and unreported.  The records are then kept by their users,
    so a line whose key is shared with a user is parsed and dropped, and no
    record of the users is lost.  Memory stays about those users' records
    plus one block.
    """
    names = [user.encode("utf-8", "surrogatepass") for user in users]
    lens = np.fromiter(map(len, names), np.int64, len(names))
    wanted = _user_keys(b"".join(names) + _PAD, np.cumsum(lens) - lens, lens)
    # the largest key closes the list, so that every search lands on a key
    wanted = np.append(np.sort(wanted), np.uint64(2**64 - 1))
    del names, lens
    rows = _Rows()
    for data, line_no in _blocks(stream):
        rows.add(_parse_lines(data, line_no, IngestReport(), wanted))
        del data
    return rows.table().touching(users)


def _unwritable(values: Sequence[str]) -> np.ndarray:
    """Which identifiers hold a comma or a line break (anything
    ``str.splitlines`` breaks on), so that their line would not parse back.
    Each identifier is checked alone only when their joined text holds a
    comma, a "\n" inside an identifier or another line break."""
    text = "\n".join(values) + "\n"
    if text.count("\n") == len(values) and not any(c in text for c in "," + _OTHER_BREAK_CHARS):
        return np.zeros(len(values), dtype=bool)
    return np.array(["," in v or v.splitlines() not in ([v], []) for v in values], dtype=bool)


def _packed(values: Sequence[str], end: str) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The values in UTF-8, each followed by ``end``, joined, with the start
    and the length of each value with its ``end``."""
    data = (end.join(values) + end).encode("utf-8")
    # in ASCII a character is a byte; otherwise each value is encoded to be
    # measured, and dropped
    lengths = map(len, values) if data.isascii() else (len(v.encode("utf-8")) for v in values)
    lens = np.fromiter(lengths, np.int64, len(values))
    lens += len(end)
    at = np.cumsum(lens)
    at -= lens
    return data, at, lens


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


def write_cdr_file(records: Iterable[CallRecord], stream: IO[bytes]) -> None:
    """Write records in the CDR format to a byte stream; re-parsing yields
    the same sequence.

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
    users, user_at, user_len = _packed(table.users, ",")
    antennas, antenna_at, antenna_len = _packed(table.antennas, "\n")
    # each field and the separator after it is a span of one buffer: the
    # identifiers, "out," and "in,", then the timestamps of the current rows
    n_users, fixed = len(users), len(users) + len(antennas) + 7
    source = np.concatenate([
        np.frombuffer(part, dtype=np.uint8)
        for part in (users, antennas, b"out,in,", bytes(_TIMESTAMP_COLUMNS * _WRITE_ROWS))
    ])
    del users, antennas
    offset = np.int32 if len(source) < 2**31 else np.int64
    stream.write(CDR_HEADER.encode() + b"\n")
    for start in range(0, len(table), _WRITE_ROWS):
        rows = slice(start, start + _WRITE_ROWS)
        text, text_len = _decimal(table.timestamp[rows])
        source[fixed : fixed + text.size] = text.ravel()
        text_end = fixed + text.shape[1] * np.arange(1, len(text) + 1)
        located, other, outgoing = table.located[rows], table.other[rows], table.outgoing[rows]
        at = np.stack([
            user_at[located], user_at[other], np.where(outgoing, fixed - 7, fixed - 3),
            text_end - text_len, n_users + antenna_at[table.antenna[rows]],
        ], axis=1, dtype=offset).ravel()
        lens = np.stack([
            user_len[located], user_len[other], np.where(outgoing, 4, 3), text_len,
            antenna_len[table.antenna[rows]],
        ], axis=1, dtype=offset)
        # lines that end within one byte budget are gathered together
        line_ends = np.cumsum(lens.sum(axis=1))
        cuts = np.searchsorted(
            line_ends, np.arange(_WRITE_BYTES, line_ends[-1], _WRITE_BYTES), side="right"
        ).tolist()
        lens = lens.ravel()
        for lo, hi in zip([0] + cuts, cuts + [len(text)]):
            if lo < hi:
                stream.write(_spans(source, at[5 * lo : 5 * hi], lens[5 * lo : 5 * hi]).tobytes())


def load_client_set(stream: IO[bytes]) -> set[str]:
    """Read a roster byte stream (one identifier per line) into a
    deduplicated set.

    Blank lines are ignored; surrounding whitespace is stripped.
    """
    try:
        text = stream.read().decode("utf-8")
    except OSError as exc:
        raise IngestError(f"unreadable stream: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"stream is not valid UTF-8: {exc}") from exc
    clients: set[str] = set()
    for line in text.splitlines():
        token = line.strip()
        if token:
            clients.add(token)
    return clients


def write_client_roster(clients: Iterable[str], stream: IO[bytes]) -> None:
    """Write a roster to a byte stream, one identifier per line, sorted for
    stable output.

    Raises ValueError before writing anything, naming the first client that
    ``load_client_set`` would not read back as itself: an empty one, or one
    that holds a line break or starts or ends with whitespace.  Each client
    is checked alone only when their joined text holds a "\n" inside a
    client, an unprintable character, or a space or "\n" next to a "\n" or
    at either end.
    """
    roster = sorted(clients)
    text = "\n".join(roster)
    # str.isprintable is false for every whitespace character but " "
    if not (
        text.count("\n") == len(roster) - 1
        and text.replace("\n", "").isprintable()
        and text[:1].strip() and text[-1:].strip()
        and not any(s in text for s in ("\n\n", "\n ", " \n"))
    ):
        for client in roster:
            if client != client.strip() or client.splitlines() != [client]:
                raise ValueError(
                    f"cannot write client {client!r}: it is empty, holds a line break "
                    "or starts or ends with whitespace"
                )
    del roster
    if text:
        stream.write(text.encode("utf-8") + b"\n")
