"""Dataset parsing for the CLI.

Formats are strict: schema violations raise ParseError naming the field
(and the line for CSV).

A relation file is streamed as bytes, in slices of 32 KiB: one pass decodes
the members other than "pairs" at the cursor and finds where "pairs" starts
and ends, and a second scans its indices, each a plain digit run, with no
Python object per pair, straight into the n x n matrix the relation keeps.
So the parse holds that matrix and one slice, not the file, in any member
order.  Whatever the stream does not recognise is read again whole and goes
through json.loads, which gives the same answer and errors.

Each parser imports the kernel types of its own format when called, so
reading a relation loads neither skylines nor collectives.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import re
from typing import TYPE_CHECKING, BinaryIO, Optional, Sequence, Union

import numpy as np

from .errors import AltisetError, ParseError
from .relation import FiniteRelation, Universe

if TYPE_CHECKING:
    from .collective import SubsetFamily
    from .dependence import PointSet2D
    from .geoalt import SummitField


def _load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer past int's string-conversion digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc


# -- relations ------------------------------------------------------------


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite_number(v) -> bool:
    """A JSON number: not a boolean, and not NaN or an infinity (which
    json.loads reads from NaN, Infinity and -Infinity)."""
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


_CLASSES = bytes.maketrans(b"0123456789\t\n\r", b"0000000000   ")
_DECODER = json.JSONDecoder()
_skip_blanks = re.compile(rb"[ \t\n\r]*").match  # JSON whitespace
_SLICE = 1 << 15  # bytes per read of a relation file
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_MAX_CELLS = np.iinfo(np.intp).max  # numpy raises ValueError, not MemoryError, beyond it


class _Unrecognised(Exception):
    """A relation file the stream does not read; the json.loads route decides it."""


def _scan_slice(raw: bytes, first: bool) -> tuple[np.ndarray, bool]:
    """The indices of one slice of "pairs", which ends just after a ']', and
    whether it closes the list.  The first slice opens the list; the
    closing one holds one ']' more than its pairs need, and may hold no
    pair.  One pass classifies the bytes with blanks in place, so a blank
    inside a number leaves two digit runs and fails the ",[0,0]" shape.
    Raises _Unrecognised unless every index is a run of at most 18 digits
    with no leading zero."""
    cls = np.frombuffer(raw.translate(_CLASSES), np.uint8)  # digits read '0', blanks ' '
    digit = cls == 48
    keep = cls != 32
    keep[1:] &= ~(digit[1:] & digit[:-1])  # no blank, and one '0' per digit run
    kept = cls[keep].tobytes()
    closes = len(kept) % 6 != 0
    shape = b",[0,0]" * (len(kept) // 6)
    shape = (b"[" + shape[1:] if first else shape) + (b"]" if closes else b"")
    if kept != shape:
        raise _Unrecognised
    starts = np.flatnonzero(digit & keep)
    at = np.flatnonzero(digit[:-1] > digit[1:])  # the last digit of each run: raw ends in ']'
    lengths = at - starts + 1
    longest = lengths.max(initial=0)
    chars = np.frombuffer(raw, np.uint8)
    if longest > 18 or ((chars[starts] == 48) & (lengths > 1)).any():
        raise _Unrecognised
    values = np.zeros(starts.size, np.int64)
    for k in range(longest):  # the k-th digit from the right, in the runs that long
        digits = chars.take(at, mode="clip") - np.uint8(48)
        digits *= lengths > k
        values += digits * _POW10[k]
        at -= 1
    return values, closes


class _RelationStream:
    """Two passes over a relation file, held as one byte buffer and a cursor
    and read in slices of _SLICE bytes.  The first decodes the other members
    by raw_decode where they lie and finds where "pairs" starts and ends; the
    second scans "pairs" by _scan_slice into the (size, size) matrix, slice by
    slice.  Consumed bytes are dropped.  Raises _Unrecognised, UnicodeDecodeError
    or MemoryError where json.loads must decide, as for a matrix too large to index."""

    def __init__(self, fh: BinaryIO):
        self.fh = fh
        self.buf, self.i = b"", 0  # bytes not yet consumed, and the cursor in them
        self.doc: dict = {}  # "pairs" holds its (start, end) file offsets until read() pops it

    def read(self) -> tuple[dict, np.ndarray]:
        """The members other than "pairs", and the matrix of the pairs."""
        if self._next() != b"{":
            raise _Unrecognised
        sep = b","
        while sep == b",":
            self.i += 1
            if self._next() != b'"':
                raise _Unrecognised
            key = self._value(b":")
            self.i += 1
            self._next()
            if key in self.doc:  # a repeated key
                raise _Unrecognised
            if key == "pairs":  # where it starts and ends; the second pass reads it
                self.doc[key] = self._at(), self._skip()
            else:
                self.doc[key] = self._value(b",}")
            sep = self._next()
        self.i += 1
        if sep != b"}" or self._next():  # trailing data
            raise _Unrecognised
        return self.doc, self._matrix(self.doc.pop("pairs", None))

    def _at(self) -> int:
        """The file offset of the cursor."""
        return self.fh.tell() - len(self.buf) + self.i

    def _more(self, size: int = 0) -> bool:
        """Append at least a slice of the file to what is left; False at its end."""
        raw = self.fh.read(max(size, _SLICE))
        self.buf = self.buf[self.i :] + raw
        self.i = 0
        return bool(raw)

    def _next(self) -> bytes:
        """The next non-blank byte, b"" at the end of the file; the cursor moves to it."""
        while True:
            self.i = _skip_blanks(self.buf, self.i).end()
            if self.i < len(self.buf) or not self._more():
                return self.buf[self.i : self.i + 1]

    def _value(self, follow: bytes):
        """The JSON value at the cursor, taken once a byte of follow is seen
        after it: a value cut by the window end reads as a shorter one or
        fails.  The window doubles from 64 bytes, so a value costs O(its
        length); it is decoded strictly, so its text encodes back to its bytes."""
        size = 64
        while True:
            text = codecs.utf_8_decode(self.buf[self.i : self.i + size], "strict", False)[0]
            try:
                value, end = _DECODER.raw_decode(text)
                end = end if text.isascii() else len(text[:end].encode())  # in bytes
                end = _skip_blanks(self.buf, self.i + end).end()
                if end < len(self.buf) and self.buf[end] in follow:
                    self.i = end
                    return value
            except ValueError:  # invalid, or cut by the window end
                pass
            if self.i + size >= len(self.buf) and not self._more(size):
                raise _Unrecognised
            size *= 2

    def _slices(self):
        """The slices of "pairs" from the cursor, each just after a ']' so no
        digit run crosses a boundary; the cursor moves past each.  "pairs"
        holds no string, so its last ']' comes before the next '"'."""
        seen = self.i  # buf[self.i:seen] holds no ']' and no '"'
        while True:
            stop = self.buf.find(b'"', seen)
            cut = self.buf.rfind(b"]", seen, len(self.buf) if stop < 0 else stop) + 1
            if cut:
                raw, self.i = self.buf[self.i : cut], cut
                yield raw
            seen = len(self.buf) - self.i
            if stop >= 0 or not self._more():
                return

    def _skip(self) -> int:
        """The file offset just after the last ']' of "pairs", where the cursor
        moves: the buffer keeps only what follows the last ']' seen.  With no
        ']', "pairs" ends where it starts, and no slice can close there."""
        for _ in self._slices():
            pass
        return self._at()

    def _matrix(self, span: Optional[tuple[int, int]]) -> np.ndarray:
        """The matrix of the pairs in span, scanned in a second pass from its
        start; the slice that closes the list must end where "pairs" ends."""
        size = self.doc.get("size")
        if not _is_int(size) or size < 0 or size * size > _MAX_CELLS:
            raise _Unrecognised
        adj = np.zeros((size, size), dtype=bool)
        if span is None:
            return adj
        self.fh.seek(span[0])
        self.buf, self.i = b"", 0
        for k, raw in enumerate(self._slices()):
            values, last = _scan_slice(raw, k == 0)
            if values.max(initial=-1) >= size:  # the json.loads route names the pair
                raise _Unrecognised
            adj[values[0::2], values[1::2]] = True  # the scan reads no negative index
            if last:
                if self._at() != span[1]:  # a ']' more than the list needs
                    raise _Unrecognised
                return adj
        raise _Unrecognised


def utf8_text(raw: bytes, name) -> str:
    """raw as UTF-8 text; a ParseError names the file otherwise."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name} is not UTF-8 text: {exc}") from exc


def _check_pairs(pairs: list, size: int) -> None:
    """A ParseError names the first offending pair in input order."""
    for k, p in enumerate(pairs):
        if not isinstance(p, list) or len(p) != 2 or not all(_is_int(v) for v in p):
            raise ParseError(f'"pairs"[{k}] must be a pair of integers')
        a, b = p
        if not (0 <= a < size and 0 <= b < size):
            raise ParseError(f'"pairs"[{k}] = [{a}, {b}] out of range for size {size}')


def parse_relation(source: Union[str, BinaryIO]) -> FiniteRelation:
    """The relation in a JSON document, given as its text or as a binary
    file that can seek.

    The document is streamed in slices of _SLICE bytes, "pairs" in a second
    pass.  What the stream does not recognise is read again whole and goes
    through json.loads, which gives the same relation or error.
    """
    text = source if isinstance(source, str) else None
    fh = source if text is None else io.BytesIO(text.encode("utf-8", "surrogatepass"))
    start = fh.tell()
    try:
        doc, adj = _RelationStream(fh).read()
    except (_Unrecognised, UnicodeDecodeError, MemoryError):
        doc = None
    if doc is None:  # outside the handler, so its traceback no longer holds the stream
        if text is None:
            fh.seek(start)
            text = utf8_text(fh.read(), getattr(source, "name", "input"))
        doc, adj = _load_json(text), None
    size = doc.get("size")
    if not _is_int(size) or size < 0:
        raise ParseError('"size" must be a non-negative integer')
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise ParseError('"labels" must be a list of strings')
    if adj is None:
        pairs = doc.get("pairs", [])
        if not isinstance(pairs, list):
            raise ParseError('"pairs" must be a list of [a, b] index pairs')
        _check_pairs(pairs, size)
    try:
        universe = Universe(size, tuple(labels) if labels is not None else None)
        if adj is None:
            if size * size > _MAX_CELLS:
                raise MemoryError
            return FiniteRelation.from_pairs(universe, pairs)
        return FiniteRelation.adopt(universe, adj)
    except MemoryError as exc:
        raise ParseError(f'"size" {size} is too large to hold in memory') from exc
    except AltisetError as exc:
        raise ParseError(str(exc)) from exc


# -- CSV helpers ----------------------------------------------------------


def _csv_rows(text: str):
    """(line number, cells) of each CSV row that has a non-blank cell; a
    row whose quoted cell spans lines is numbered by its last line."""
    reader = csv.reader(io.StringIO(text))
    for row in reader:
        if any(c.strip() for c in row):
            yield reader.line_num, row


def _read_numeric_csv(text: str, columns: int, names: Sequence[str]) -> list[tuple[float, ...]]:
    """Rows of exactly `columns` finite numeric cells; one header row tolerated."""
    rows: list[tuple[float, ...]] = []
    for kept, (lineno, row) in enumerate(_csv_rows(text)):
        if len(row) != columns:
            raise ParseError(
                f"line {lineno}: expected {columns} columns ({', '.join(names)}), got {len(row)}"
            )
        try:
            values = tuple(float(c) for c in row)
        except ValueError as exc:
            if kept == 0:
                continue  # header row
            raise ParseError(f"line {lineno}: non-numeric cell in {row}") from exc
        if not all(map(math.isfinite, values)):
            raise ParseError(f"line {lineno}: non-finite cell in {row}")
        rows.append(values)
    return rows


def parse_points_csv(text: str) -> PointSet2D:
    from .dependence import PointSet2D

    rows = _read_numeric_csv(text, 2, ("x", "y"))
    if not rows:
        raise ParseError("no data rows")
    try:
        return PointSet2D(tuple(rows))
    except AltisetError as exc:
        raise ParseError(str(exc)) from exc


def parse_summits_csv(text: str, reference, space: Optional[str] = None) -> SummitField:
    """Columns x,h (real line) or x,y,h (plane); space inferred from width
    unless given."""
    from .geoalt import EUCLIDEAN_2D, REAL_LINE, SummitField

    width = next((len(row) for _, row in _csv_rows(text)), None)
    if width not in (2, 3):
        raise ParseError("expected 2 (x,h) or 3 (x,y,h) columns")
    planar = width == 3
    names = ("x", "y", "h") if planar else ("x", "h")
    if space is not None and (space == EUCLIDEAN_2D) != planar:
        raise ParseError(f"{width} columns ({','.join(names)}) do not fit a {space} space")
    rows = _read_numeric_csv(text, width, names)
    if not rows:
        raise ParseError("no data rows")
    summits = tuple(r[:2] if planar else r[0] for r in rows)
    altitudes = tuple(r[-1] for r in rows)
    kind = EUCLIDEAN_2D if planar else space or REAL_LINE
    try:
        return SummitField(kind, summits, altitudes, reference)
    except AltisetError as exc:
        raise ParseError(str(exc)) from exc


# -- collective families --------------------------------------------------


def parse_family(text: str) -> SubsetFamily:
    from .collective import SubsetFamily, ValuedGroundSet, _finite

    doc = _load_json(text)
    elements = doc.get("elements")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ParseError('"elements" must be a list of strings')
    h = doc.get("h")
    if not isinstance(h, dict):
        raise ParseError('"h" must be an object mapping element -> number')
    valuation = {}
    for e in elements:
        if e not in h:
            raise ParseError(f'"h" is missing element {e!r}')
        if not (_is_finite_number(h[e]) and _finite(h[e])):
            raise ParseError(f'"h"[{e!r}] must be a finite number')
        valuation[e] = h[e]  # as json.loads read it: an integer stays exact
    family = doc.get("family")
    if not isinstance(family, list) or not family:
        raise ParseError('"family" must be a nonempty list of element lists')
    members = []
    for k, m in enumerate(family):
        if not isinstance(m, list) or not all(isinstance(e, str) for e in m):
            raise ParseError(f'"family"[{k}] must be a list of element names')
        stray = set(m) - set(elements)
        if stray:
            raise ParseError(f'"family"[{k}] has unknown elements {sorted(stray)}')
        members.append(frozenset(m))
    try:
        ground = ValuedGroundSet(tuple(elements), valuation)
        return SubsetFamily(ground, tuple(members))
    except AltisetError as exc:
        raise ParseError(str(exc)) from exc
