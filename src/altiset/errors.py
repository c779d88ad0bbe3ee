"""Exception types shared across the toolkit, and the checked float and index conversions."""


class AltisetError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(AltisetError):
    """Sizes of universes, key vectors or matrices do not match."""


class SubsetIndexError(AltisetError):
    """An index is not an integer in range of what it indexes (see
    `index_array`), or a subset holds an element outside its ground set."""


class PartitionError(AltisetError):
    """Blocks passed as a partition overlap."""


class CyclicRelationError(AltisetError):
    """The asymmetric interior contains a cycle; layering is undefined.

    Carries a witness cycle as a list of indices (first == last).
    """

    def __init__(self, cycle):
        self.cycle = list(cycle)
        pretty = " -> ".join(str(i) for i in self.cycle)
        super().__init__(f"asymmetric interior contains a cycle: {pretty}")


class NonFiniteError(AltisetError):
    """A value that must be a finite number is NaN or infinite."""


class DegenerateInputError(AltisetError):
    """Input too small or otherwise degenerate for the requested statistic."""


class InjectivityError(AltisetError):
    """Point sets must not contain duplicate points."""


class SpaceKindError(AltisetError):
    """Operation is defined only for a different metric-space kind."""


class GridError(AltisetError):
    """Grid specification is degenerate (empty box or zero resolution)."""


class ParseError(AltisetError):
    """A dataset file violates its schema; message names field/line."""


def finite_array(values, name: str, width: int = 0):
    """`values` as a new read-only float64 array of shape (n,), or (n, width)
    when a width is given, each number converted as float() converts it.
    Another shape, ragged rows included, raises DimensionError, NaN or an
    infinity NonFiniteError naming the first bad row and its value, and a
    cell float() rejects float()'s ValueError.  numpy loads on the call."""
    import numpy as np

    form = f"(n, {width})" if width else "(n,)"
    try:
        a = np.array(values, dtype=np.float64)
    except ValueError:
        try:  # as objects, a row of another length stays one sequence cell
            ragged = any(np.ndim(c) for c in np.array(values, dtype=object).flat)
        except ValueError:  # rows that numpy cannot even hold as objects
            ragged = True
        if not ragged:
            raise
        raise DimensionError(f"{name} must be an {form} array, got rows of unequal length") from None
    if width and a.shape == (0,):
        a = a.reshape(0, width)
    if a.ndim == 0 or a.shape[1:] != ((width,) if width else ()):
        raise DimensionError(f"{name} must be an {form} array, got shape {a.shape}")
    if not np.isfinite(a).all():  # the per-row test is about 15 times slower: only on failure
        row = int(np.isfinite(a.reshape(len(a), -1)).all(axis=1).argmin())
        value = tuple(a[row].tolist()) if width else a[row].item()
        raise NonFiniteError(f"{name} must be finite, got {value} in row {row}")
    a.setflags(write=False)
    return a


def index_array(values, size: int, name: str, width: int = 0):
    """`values` as a new intp array of shape (n,), or (n, width) when a width
    is given, of integers in range(size) as operator.index reads them: bools
    as 0 and 1, floats and strings not at all.  The first row that breaks
    this, one of another width included, raises SubsetIndexError naming it
    and its value.  numpy loads on the call."""
    import operator
    import numpy as np

    rows = values if isinstance(values, np.ndarray) else list(values)
    shape = (len(rows), width) if width else (len(rows),)
    try:  # numpy's loops pass the common case; the rule itself runs row by row below
        a = np.array(rows)
        if a.dtype.kind in "biu" and a.shape == shape and (not a.size or 0 <= a.min() and a.max() < size):
            return a.astype(np.intp, copy=False)
    except (ValueError, Warning):  # rows of unequal length; numpy < 1.24 warns, maybe as an error
        pass
    out = []
    for row, cells in enumerate(rows.tolist() if isinstance(rows, np.ndarray) else rows):
        try:
            ints = [operator.index(c) for c in (cells if width else [cells])]
        except TypeError:  # a float, a string, or a row that is not a sequence
            ints = []
        if len(ints) != (width or 1) or not all(0 <= i < size for i in ints):
            raise SubsetIndexError(f"{name} must be integers in range({size}), got {cells!r} in row {row}")
        out.append(ints)
    return np.array(out, dtype=np.intp).reshape(shape)
