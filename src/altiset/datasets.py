"""Dataset parsing for the CLI.

Formats are strict: schema violations raise ParseError naming the field
(and the line for CSV).

A relation's "pairs" is read in slices of 64 Ki characters into one exactly
sized (m, 2) integer array, with no Python object per pair, when every entry
is a plain digit run; beyond the text and that array, the parse holds one
slice's temporaries.  Any other valid JSON goes through json.loads and gets
the same answer and errors.

Each parser imports the kernel types of its own format when called, so
reading a relation loads neither skylines nor collectives.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import TYPE_CHECKING, Optional, Sequence, Union

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
    except json.JSONDecodeError as exc:
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


def _finite_float(v, name: str) -> float:
    """A finite JSON number as a float; a ParseError names the field otherwise."""
    try:
        if _is_finite_number(v):
            return float(v)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ParseError(f"{name} must be a finite number")


_CLASSES = bytes.maketrans(b"0123456789\t\n\r", b"0000000000   ")
_DECODER = json.JSONDecoder()
_skip_ws = json.decoder.WHITESPACE.match
_CHUNK = 1 << 16  # characters per slice of a "pairs" scan


def _scan_pairs(text: str, i: int) -> tuple[np.ndarray, int]:
    """Like raw_decode, for the array of index pairs at text[i]: an (m, 2)
    int64 array, with no Python object per pair, and the index after it.

    The span is read in slices of about _CHUNK characters into one array
    sized by its count of ']'.  Each slice ends just after a ']', so no
    digit run crosses a boundary, and the slices accept what one pass over
    the whole span would.  Raises ValueError unless every index is a run of
    at most 18 digits with no leading zero.
    """
    stop = text.find('"', i)  # "pairs" holds no string, so it ends before
    end = text.rfind("]", i, len(text) if stop < 0 else stop) + 1
    # m + 1 ']' close a list of m pairs, as the slice shapes check; a span
    # with no ']' asks for a negative size, which raises ValueError
    values = np.empty(2 * (text.count("]", i, end) - 1), np.int64)
    start, done = i, 0
    while start < end:
        cut = text.find("]", min(start + _CHUNK, end) - 1, end) + 1
        done += _scan_slice(text[start:cut].encode("ascii"), start == i, cut == end, values[done:])
        start = cut
    return values.reshape(-1, 2), end


def _scan_slice(raw: bytes, first: bool, last: bool, out: np.ndarray) -> int:
    """Read the indices of one slice, which ends just after a ']', into the
    head of out and return how many there are.  The first slice opens the
    list; the last one closes it and may hold no pair.  One pass classifies
    the bytes with blanks in place, so a blank inside a number leaves two
    digit runs and fails the ",[0,0]" shape."""
    cls = np.frombuffer(raw.translate(_CLASSES), np.uint8)  # digits read '0', blanks ' '
    digit = cls == 48
    keep = cls != 32
    keep[1:] &= ~(digit[1:] & digit[:-1])  # no blank, and one '0' per digit run
    shape = b",[0,0]" * (np.count_nonzero(keep) // 6)
    shape = (b"[" + shape[1:] if first else shape) + (b"]" if last else b"")
    starts = np.flatnonzero(digit & keep)
    lengths = np.flatnonzero(digit[:-1] > digit[1:]) + 1 - starts  # raw ends in ']'
    chars = np.frombuffer(raw, np.uint8)
    if (
        cls[keep].tobytes() != shape
        or lengths.max(initial=0) > 18
        or ((chars[starts] == 48) & (lengths > 1)).any()
    ):
        raise ValueError("not a list of index pairs")
    part = out[: starts.size]
    part[:] = 0
    for k in range(lengths.max(initial=0)):
        np.copyto(part, part * 10 + chars.take(starts + k, mode="clip") - 48, where=lengths > k)
    return starts.size


def _scan_relation(text: str) -> Optional[dict]:
    """The top-level object with "pairs" read by _scan_pairs, one member at
    a time, so a repeated key keeps its last value as in json.loads; None
    where the scan does not recognise the text."""
    doc, i, sep = {}, _skip_ws(text).end(), "{"
    try:
        while text.startswith(sep, i):
            key, i = _DECODER.raw_decode(text, _skip_ws(text, i + 1).end())
            i = _skip_ws(text, i).end()
            if not isinstance(key, str) or not text.startswith(":", i):
                return None
            decode = _scan_pairs if key == "pairs" else _DECODER.raw_decode
            doc[key], i = decode(text, _skip_ws(text, i + 1).end())
            i, sep = _skip_ws(text, i).end(), ","
    except ValueError:  # invalid JSON, or a "pairs" the scan does not recognise
        return None
    if sep == "," and text.startswith("}", i) and _skip_ws(text, i + 1).end() == len(text):
        return doc
    return None


def _index_pairs(pairs: Union[np.ndarray, list], size: int) -> Union[np.ndarray, list]:
    """The pairs checked against size.

    A ParseError names the first offending pair in input order.
    """
    if isinstance(pairs, np.ndarray):
        if pairs.max(initial=-1) < size:  # the scan reads no negative index
            return pairs
        pairs = pairs.tolist()
    for k, p in enumerate(pairs):
        if not isinstance(p, list) or len(p) != 2 or not all(_is_int(v) for v in p):
            raise ParseError(f'"pairs"[{k}] must be a pair of integers')
        a, b = p
        if not (0 <= a < size and 0 <= b < size):
            raise ParseError(f'"pairs"[{k}] = [{a}, {b}] out of range for size {size}')
    return pairs


def parse_relation(text: str) -> FiniteRelation:
    doc = _scan_relation(text) or _load_json(text)
    size = doc.get("size")
    if not _is_int(size) or size < 0:
        raise ParseError('"size" must be a non-negative integer')
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise ParseError('"labels" must be a list of strings')
    pairs = doc.get("pairs", [])
    if not isinstance(pairs, (list, np.ndarray)):
        raise ParseError('"pairs" must be a list of [a, b] index pairs')
    checked = _index_pairs(pairs, size)
    try:
        universe = Universe(size, tuple(labels) if labels is not None else None)
        return FiniteRelation.from_pairs(universe, checked)
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
    from .collective import SubsetFamily, ValuedGroundSet

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
        valuation[e] = _finite_float(h[e], f'"h"[{e!r}]')
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
