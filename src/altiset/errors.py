"""Exception types shared across the toolkit, and the one checked float conversion."""


class AltisetError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(AltisetError):
    """Sizes of universes, key vectors or matrices do not match."""


class SubsetIndexError(AltisetError):
    """A subset refers to indices outside the universe."""


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
