"""Exception types shared across the toolkit."""


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


class NotAStrictOrderError(AltisetError):
    """Operation requires an irreflexive, asymmetric, transitive relation."""


class OracleSizeError(AltisetError):
    """Instance exceeds the size cap of an exact oracle."""


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
