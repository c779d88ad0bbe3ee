"""Collective comparison of subsets of a valued ground set.

Subsets are compared by their cumulative counts above each valuation
threshold; a subset dominates when it is at least as good at every
threshold and strictly better at one.  The threshold-count key vectors
make the dominance relation a system of linearly induced orders, so the
significant members are the Pareto maxima of the (members x thresholds)
profile matrix; pairwise elimination is a second route, one pass over the
same matrix that keeps an antichain of survivors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from .errors import DimensionError, NonFiniteError, SubsetIndexError, index_array
from .orders import maxima


@dataclass(frozen=True)
class ValuedGroundSet:
    """A finite set with a real gain valuation per element, compared
    exactly; NaN, an infinity or an integer beyond the float range raises
    NonFiniteError."""

    elements: tuple[Hashable, ...]
    valuation: dict

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise DimensionError("ground-set elements must be distinct")
        missing = [e for e in self.elements if e not in self.valuation]
        if missing:
            raise DimensionError(f"valuation missing for {missing}")
        bad = [e for e in self.elements if not _finite(self.valuation[e])]
        if bad:
            raise NonFiniteError(f"valuation of {bad[0]!r} must be finite")

    def thresholds(self) -> list[float]:
        """Distinct valuation values, descending."""
        return sorted({self.valuation[e] for e in self.elements}, reverse=True)


def _finite(v) -> bool:
    """A number within the float range, and not NaN or an infinity."""
    try:
        return math.isfinite(v)
    except (OverflowError, ValueError):  # an integer beyond the float range, or Decimal('sNaN')
        return False


class SubsetFamily:
    """A nonempty family of subsets of a valued ground set.

    Member k is held as the run `index[offsets[k]:offsets[k + 1]]` of
    ascending, distinct positions in `ground.elements`, both arrays
    read-only; `member(k)` and `members` build the members as frozensets
    of elements."""

    def __init__(self, ground: ValuedGroundSet, members):
        position = {e: i for i, e in enumerate(ground.elements)}
        index, offsets = [], [0]
        for k, m in enumerate(members):
            try:
                index.extend(sorted({position[e] for e in m}))
            except KeyError as exc:
                raise SubsetIndexError(
                    f"member {k} has element {exc.args[0]!r} outside the ground set"
                ) from None
            offsets.append(len(index))
        if len(offsets) < 2:
            raise DimensionError("family must be nonempty")
        self.ground = ground
        self.index, self.offsets = np.array(index, np.intp), np.array(offsets, np.intp)
        self.index.setflags(write=False)
        self.offsets.setflags(write=False)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def member(self, k: int) -> frozenset:
        (k,) = index_array([k], len(self), "member index")
        run = self.index[self.offsets[k] : self.offsets[k + 1]].tolist()
        return frozenset(self.ground.elements[i] for i in run)

    @property
    def members(self) -> tuple[frozenset, ...]:
        names = [self.ground.elements[i] for i in self.index.tolist()]
        bounds = self.offsets.tolist()
        return tuple(frozenset(names[a:b]) for a, b in zip(bounds, bounds[1:]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubsetFamily):
            return NotImplemented
        return self.ground == other.ground and bool(
            np.array_equal(self.offsets, other.offsets) and np.array_equal(self.index, other.index)
        )


def threshold_profile(member: Iterable, ground: ValuedGroundSet) -> tuple[int, ...]:
    """Count of member elements valued >= t, for each threshold t descending:
    the `_profiles` row of the one-member family."""
    return tuple(_profiles(SubsetFamily(ground, [member]))[0].tolist())


def _profiles(family: SubsetFamily) -> np.ndarray:
    """(members, thresholds) matrix of threshold profiles: entry (k, r) counts
    member k's elements valued >= the r-th threshold, descending.  One Python
    sort ranks the T distinct valuations, so they compare exactly, as Python
    does: 2**53 + 1 is above 2**53 and float(2**53).  Entry (k, r) of one
    bincount counts member k's elements of rank r, and its running sum along
    the row counts those of rank <= r.  An empty ground set gives (members, 0)
    profiles: everything ties."""
    ground = family.ground
    rank = {v: r for r, v in enumerate(ground.thresholds())}
    ranks = np.array([rank[ground.valuation[e]] for e in ground.elements], dtype=np.intp)
    m, t = len(family), len(rank)
    cell = np.repeat(np.arange(m) * t, np.diff(family.offsets))
    cell += ranks[family.index]
    counts = np.bincount(cell, minlength=m * t).reshape(m, t)
    return np.cumsum(counts, axis=1, out=counts)


def collective_altiset(family: SubsetFamily) -> frozenset[int]:
    """Indices of significant members: the Pareto maxima of their threshold
    profiles."""
    return frozenset(np.flatnonzero(maxima(_profiles(family))).tolist())


def pairwise_elimination(family: SubsetFamily) -> frozenset[int]:
    """Single pass over the members: each joins the survivors unless one of
    them dominates it, and drops the survivors it dominates.  Dominance is
    transitive, so a maximal member, once in, is never dropped and keeps
    out every member it dominates."""
    profiles = _profiles(family)
    survivors: list[int] = []
    for k, row in enumerate(profiles):
        rivals = profiles[survivors]
        geq, leq = (rivals >= row).all(axis=1), (rivals <= row).all(axis=1)
        if not (geq & ~leq).any():
            survivors = [s for s, beaten in zip(survivors, leq & ~geq) if not beaten] + [k]
    return frozenset(survivors)
