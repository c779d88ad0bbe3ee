"""The byte stream that reads a relation file for `datasets.parse_relation`.

A relation file is streamed as bytes, in slices of 32 KiB: one pass decodes
the members other than "pairs" at the cursor and finds where "pairs" starts
and ends, and a second scans its indices, each a plain digit run, with no
Python object per pair, straight into the n x n matrix the relation keeps.
So the parse holds that matrix and one slice, not the file, in any member
order.  Whatever the stream does not recognise raises _Unrecognised, and
`parse_relation` reads the file again whole through json.loads, which gives
the same answer and errors.

Only relation jobs run this code, so `parse_relation` imports it when called.
"""

from __future__ import annotations

import codecs
import json
import re
from typing import BinaryIO, Optional

import numpy as np

from .datasets import _is_int

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
