"""Dataset parsing for the CLI.

Formats are strict: schema violations raise ParseError naming the field
(and the line for CSV).

A relation file is read by the byte stream of `relstream`, which scans
"pairs" straight into the relation's matrix; whatever the stream does not
recognise is read again whole and goes through json.loads, which gives the
same answer and errors.

A CSV file is read by `np.loadtxt` into one float64 (n, k) array; any
input that route rejects, or reads as non-finite, is read again by
`_read_numeric_csv`, the `csv` reader that names the fault and its line.

A job loads only its own format's path: each parser imports the kernel
types of its format when called, `parse_relation` also imports the stream,
and `csv` is imported only by the CSV fallback.  So reading a relation
loads neither skylines, collectives nor `csv`, and reading a CSV or family
file loads neither the relation model nor the stream.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from typing import TYPE_CHECKING, BinaryIO, Optional, Sequence, Union

from .errors import AltisetError, ParseError

if TYPE_CHECKING:
    import numpy as np

    from .collective import SubsetFamily
    from .dependence import PointSet2D
    from .geoalt import SummitField
    from .relation import FiniteRelation


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


def _size(doc: dict) -> int:
    """The document's "size"; a ParseError unless it is a non-negative integer."""
    size = doc.get("size")
    if not _is_int(size) or size < 0:
        raise ParseError('"size" must be a non-negative integer')
    return size


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

    The document is streamed in slices of `relstream._SLICE` bytes, "pairs"
    in a second pass.  What the stream does not recognise is read again
    whole and goes through json.loads, which gives the same relation or error.
    """
    from .relation import FiniteRelation, Universe
    from .relstream import _MAX_CELLS, _RelationStream, _Unrecognised

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
    size = _size(doc)
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
        universe = Universe(size, labels)
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
    """(line number, cells) of each CSV row that has a non-blank cell, past
    one leading byte-order mark, which would make the first row a header; a
    row whose quoted cell spans lines is numbered by its last line."""
    import csv

    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        for row in reader:
            if any(c.strip() for c in row):
                yield reader.line_num, row
    except csv.Error as exc:  # csv's own words vary across Python versions
        fault = (f"a cell longer than {csv.field_size_limit()} characters" if "limit" in str(exc)
                 else "a NUL character" if "NUL" in str(exc)  # Python 3.10 only
                 else "a carriage return inside a row")
        raise ParseError(f"line {reader.line_num}: {fault}") from exc


def _read_numeric_csv(text: str, columns: int, names: Sequence[str]) -> np.ndarray:
    """At least one row of `columns` finite numeric cells, as one float64
    (n, columns) array; one header row tolerated."""
    import numpy as np

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
    if not rows:
        raise ParseError("no data rows")
    return np.array(rows, dtype=np.float64)


def _loaded(text: str) -> Optional[np.ndarray]:
    """The rows of a CSV file as one float64 (n, k) array read by
    `np.loadtxt`, k the width of the first row with a non-blank cell.  That
    row is a header, skipped as `_read_numeric_csv` skips it, when `float`
    rejects one of its cells.  None where the rows after it are not all k
    finite numbers, or where a line up to it holds a quote, a NUL or a
    carriage return before its end, which `csv` might not split at commas."""
    import numpy as np

    text = text.removeprefix("\ufeff")
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        line = text[start:end].removesuffix("\n").removesuffix("\r")
        if '"' in line or "\0" in line or "\r" in line:
            return None
        cells = line.split(",")
        if any(c.strip() for c in cells):
            break
        start = end
    else:
        return None
    try:
        for c in cells:
            float(c)
    except ValueError:
        start = end  # a header row
    data = io.BytesIO(text.encode("utf-8", "surrogatepass"))
    data.seek(len(text[:start].encode("utf-8", "surrogatepass")))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns of a header with no rows
            rows = np.loadtxt(
                data, dtype=np.float64, delimiter=",", comments=None, ndmin=2, encoding="utf-8"
            )
    except ValueError:  # a cell it cannot read, or rows of two widths
        return None
    if len(rows) and rows.shape[1] == len(cells) and np.isfinite(rows).all():
        return rows
    return None


def _read_array(text: str, columns: int, names: Sequence[str]) -> np.ndarray:
    """`_read_numeric_csv`'s rows, read by `np.loadtxt` where it can."""
    rows = _loaded(text)
    if rows is not None and rows.shape[1] == columns:
        return rows
    return _read_numeric_csv(text, columns, names)


def parse_points_csv(text: str) -> PointSet2D:
    from .dependence import PointSet2D

    xy = _read_array(text, 2, ("x", "y"))
    try:
        return PointSet2D(xy)
    except AltisetError as exc:
        raise ParseError(str(exc)) from exc


def parse_summits_csv(text: str, reference) -> SummitField:
    """Columns x,y,h in the plane, where the reference is a sequence (a ragged one
    too, which SummitField rejects), or x,h on the real line, where it is a number."""
    import numpy as np

    from .geoalt import EUCLIDEAN_2D, REAL_LINE, SummitField

    space = EUCLIDEAN_2D if np.ndim(np.array(reference, dtype=object)) else REAL_LINE
    rows = _loaded(text)
    width = next((len(row) for _, row in _csv_rows(text)), None) if rows is None else rows.shape[1]
    if width not in (2, 3):
        raise ParseError("expected 2 (x,h) or 3 (x,y,h) columns")
    planar = width == 3
    names = ("x", "y", "h") if planar else ("x", "h")
    if (space == EUCLIDEAN_2D) != planar:
        raise ParseError(f"{width} columns ({','.join(names)}) do not fit a {space} space")
    if rows is None:
        rows = _read_numeric_csv(text, width, names)
    try:
        return SummitField(space, rows[:, :2] if planar else rows[:, 0], rows[:, -1], reference)
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
    # as json.loads read them (an integer stays exact); ValuedGroundSet names a missing or non-finite one
    valuation = {e: h[e] for e in elements if e in h}
    for e, v in valuation.items():
        if not (_is_int(v) or isinstance(v, float)):
            raise ParseError(f'"h"[{e!r}] must be a number')
    family = doc.get("family")
    if not isinstance(family, list):
        raise ParseError('"family" must be a list of element lists')
    for k, m in enumerate(family):
        if not isinstance(m, list) or not all(isinstance(e, str) for e in m):
            raise ParseError(f'"family"[{k}] must be a list of element names')
    try:
        return SubsetFamily(ValuedGroundSet(tuple(elements), valuation), family)
    except AltisetError as exc:
        raise ParseError(str(exc)) from exc
