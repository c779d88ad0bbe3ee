"""Finite binary relations and the adjustment operators.

A relation is stored as a dense boolean adjacency matrix over an indexed
universe; row = first argument.  All operators are pure and return fresh
relations; one that builds its own matrix keeps it through `adopt`.

The strict part of R -- b strictly dominates a when (a, b) is in R and
(b, a) is not -- is compared out of R's matrix only by `_strict`, which
sets the orientation: it returns the strict rows of given elements, of R
or of R^-1.  `asym_interior` takes every row of R^-1; `_levels` takes
`_ROWS` rows at a time and keeps them packed eight entries to a byte until
it returns; `_cycle` takes one row at a time, and `altiset` takes the
subset's members `_ROWS` at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionError, SubsetIndexError


@dataclass(frozen=True)
class Universe:
    """An indexed finite carrier set, optionally labelled."""

    size: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.size < 0:
            raise DimensionError(f"universe size must be >= 0, got {self.size}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.size:
                raise DimensionError(
                    f"{len(self.labels)} labels for universe of size {self.size}"
                )
            if len(set(self.labels)) != self.size:
                raise DimensionError("labels must be pairwise distinct")

    def check_subset(self, subset: Iterable[int]) -> tuple[int, ...]:
        """Validate indices and return them sorted ascending, deduplicated."""
        idx = sorted(set(subset))
        if idx and (idx[0] < 0 or idx[-1] >= self.size):
            raise SubsetIndexError(f"subset {idx} out of range for size {self.size}")
        return tuple(idx)


@dataclass(frozen=True)
class FiniteRelation:
    """A binary relation on a Universe, as a boolean adjacency matrix."""

    universe: Universe
    adjacency: np.ndarray = field(repr=False)

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        n = self.universe.size
        if adj.shape != (n, n):
            raise DimensionError(
                f"adjacency shape {adj.shape} does not match universe size {n}"
            )
        adj = adj.copy()
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_pairs(cls, universe: Universe, pairs: Iterable[tuple[int, int]]) -> "FiniteRelation":
        """Relation holding exactly the given (a, b) index pairs.

        The pairs are checked and scattered as one (m, 2) array; the error
        names the first out-of-range pair in input order.
        """
        n = universe.size
        adj = np.zeros((n, n), dtype=bool)
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        if len(pairs):
            idx = np.asarray(pairs).reshape(len(pairs), 2)
            if idx.min() < 0 or idx.max() >= n:  # no (m, 2) temporaries on success
                bad = ((idx < 0) | (idx >= n)).any(axis=1)
                a, b = pairs[int(bad.argmax())]
                raise SubsetIndexError(f"pair ({a},{b}) out of range for size {n}")
            adj[idx[:, 0], idx[:, 1]] = True
        return cls.adopt(universe, adj)

    @classmethod
    def adopt(cls, universe: Universe, adj: np.ndarray) -> "FiniteRelation":
        """Relation over adj, an (n, n) bool array that nothing else holds:
        it is made read-only and kept, where the constructor copies."""
        n = universe.size
        if adj.dtype != bool or adj.shape != (n, n):
            raise DimensionError(
                f"adjacency {adj.dtype} {adj.shape} is not a bool matrix of universe size {n}"
            )
        adj.setflags(write=False)
        rel = cls.__new__(cls)
        object.__setattr__(rel, "universe", universe)
        object.__setattr__(rel, "adjacency", adj)
        return rel

    @classmethod
    def empty(cls, universe: Universe) -> "FiniteRelation":
        n = universe.size
        return cls.adopt(universe, np.zeros((n, n), dtype=bool))

    @classmethod
    def full(cls, universe: Universe) -> "FiniteRelation":
        n = universe.size
        return cls.adopt(universe, np.ones((n, n), dtype=bool))

    @classmethod
    def induce(cls, universe: Universe, keys: Sequence) -> "FiniteRelation":
        """Pull the strict linear order back along a key function; the keys
        compare as `key_array` holds them."""
        if len(keys) != universe.size:
            raise DimensionError(f"{len(keys)} keys for universe of size {universe.size}")
        k = key_array(keys)
        return cls.adopt(universe, k[:, None] < k[None, :])

    # -- basic queries ----------------------------------------------------

    def pairs(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(self.adjacency)
        return list(zip(rows.tolist(), cols.tolist()))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, b = pair
        return bool(self.adjacency[a, b])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteRelation):
            return NotImplemented
        return self.universe.size == other.universe.size and bool(
            np.array_equal(self.adjacency, other.adjacency)
        )

    def __hash__(self):
        return hash((self.universe.size, self.adjacency.tobytes()))

    # -- adjustment operators ---------------------------------------------

    def inverse(self) -> "FiniteRelation":
        return FiniteRelation(self.universe, self.adjacency.T)

    def asym_interior(self) -> "FiniteRelation":
        """Strict-domination part: keep (a,b) only when (b,a) is absent."""
        strict = _strict(self.adjacency, slice(None), inverse=True)
        return FiniteRelation.adopt(self.universe, strict)

    def transitive_closure(self) -> "FiniteRelation":
        """Squares in float32, whose path counts are exact while n < 2**24."""
        adj = self.adjacency
        while True:
            a = adj.astype(np.float32)
            step = adj | (a @ a > 0)
            if np.array_equal(step, adj):
                return FiniteRelation.adopt(self.universe, step)
            adj = step

    def complementary_inversion(self) -> "FiniteRelation":
        return FiniteRelation.adopt(self.universe, np.logical_not(self.adjacency.T, order="C"))

    def is_symmetric(self) -> bool:
        return not _strict(self.adjacency, slice(None)).any()

    def find_asym_cycle(self) -> Optional[list[int]]:
        """A cycle of the digraph (A, asym R), or None if acyclic; the
        returned list has first == last index."""
        adj = self.adjacency
        unplaced = _levels(adj) == 0
        return _cycle(adj, unplaced) if unplaced.any() else None

    def has_aa_property(self) -> bool:
        """True iff the asymmetric interior is acyclic as a digraph."""
        return bool(_levels(self.adjacency).all())

    # -- significance ------------------------------------------------------

    def altiset(self, subset: Optional[Iterable[int]] = None) -> frozenset[int]:
        """All significant (non-dominated) elements of the restriction to subset.

        a is significant iff no b in the subset strictly dominates it,
        i.e. (a,b) in R and (b,a) not in R.  The `_strict` rows of the
        members are read `_ROWS` at a time, and each block marks what its
        members dominate, so no copy of the restriction is made.
        """
        if subset is None:
            idx = np.arange(self.universe.size)
        else:
            idx = np.array(self.universe.check_subset(subset), dtype=int)
        dominated = np.zeros(self.universe.size, dtype=bool)
        for s in range(0, idx.size, _ROWS):
            dominated |= _strict(self.adjacency, idx[s : s + _ROWS]).any(axis=0)
        return frozenset(idx[~dominated[idx]].tolist())

    def restrict(self, subset: Iterable[int]) -> tuple["FiniteRelation", tuple[int, ...]]:
        """Relation on a re-indexed sub-universe, plus old-index mapping."""
        idx = self.universe.check_subset(subset)
        ids = np.array(idx, dtype=int)
        labels = None
        if self.universe.labels is not None:
            labels = tuple(self.universe.labels[i] for i in idx)
        sub_universe = Universe(len(idx), labels)
        return FiniteRelation.adopt(sub_universe, self.adjacency[np.ix_(ids, ids)]), idx


_ROWS = 64  # strict rows built, packed or unpacked at once in _levels and altiset


def _strict(adj: np.ndarray, rows, inverse: bool = False) -> np.ndarray:
    """Strict rows of the elements `rows` (an index, slice or index array)
    in R, or in R^-1 if inverse, from R's own matrix adj: row i lists what
    rows[i] strictly dominates.  The one place that sets the orientation."""
    own, cols = adj[rows], adj[:, rows].T
    return np.greater(own, cols) if inverse else np.greater(cols, own)


def _levels(adj: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Kahn's pass by levels over the strict part of R, or of R^-1 if inverse.

    adj is R's own matrix.  The pass reads the strict matrix by rows, row f
    listing the elements f strictly dominates, as `_strict` orients it.  It
    builds that matrix _ROWS rows at a time and keeps it bit-packed: n^2 / 8
    bytes, freed on return.  Level 1 holds the elements with no dominator,
    level k + 1 those whose last dominator left at level k; a row is
    unpacked when its element is placed.  Returns the 1-based level of each
    element; 0 marks the residue that a cycle leaves unplaced.
    """
    n = adj.shape[0]
    packed = np.empty((n, (n + 7) // 8), dtype=np.uint8)
    # strict dominators not yet placed; -1 once the element is placed
    pending = np.zeros(n, dtype=np.int64)
    for s in range(0, n, _ROWS):
        block = _strict(adj, slice(s, s + _ROWS), inverse)
        pending += block.sum(axis=0)
        packed[s : s + _ROWS] = np.packbits(block, axis=1)
    level = np.zeros(n, dtype=np.int64)
    frontier = (pending == 0).nonzero()[0]  # one call where flatnonzero makes two, at every level
    k = 0
    while frontier.size:
        k += 1
        level[frontier] = k
        pending[frontier] = -1
        # unpacked bytes read as bool, so the counts run on the numpy loops
        # the build uses: uint8 ones would page in about 0.1 MB more code
        if frontier.size == 1:  # as at each of a total order's n levels: no sum to make
            pending -= np.unpackbits(packed[frontier[0]], count=n).view(bool)
        else:
            for s in range(0, frontier.size, _ROWS):
                block = np.unpackbits(packed[frontier[s : s + _ROWS]], axis=1, count=n)
                pending -= block.view(bool).sum(axis=0)
        frontier = (pending == 0).nonzero()[0]
    return level


def _cycle(adj: np.ndarray, unplaced: np.ndarray) -> list[int]:
    """A cycle of asym R through the nonempty residue of R's upper pass.

    Each unplaced element has an unplaced strict dominator, so stepping to
    one repeats an element within n steps, and the repeat closes a cycle.
    The strict dominators of v are its `_strict` row of R^-1, computed on
    the fly.  The returned list has first == last index.
    """
    walk: dict[int, int] = {}  # element -> its step on the walk
    v = int(unplaced.argmax())
    while v not in walk:
        walk[v] = len(walk)
        v = int((_strict(adj, v, inverse=True) & unplaced).argmax())
    return list(walk)[walk[v]:] + [v]


def key_array(keys: Sequence) -> np.ndarray:
    """Keys as one 1-D array in the comparison `FiniteRelation.induce` uses:
    numeric keys as numbers (a mix of integers and floats as float64),
    others as Python objects."""
    k = np.asarray(keys)
    if k.ndim != 1 or k.dtype.kind not in "biuf":
        k = np.fromiter(keys, dtype=object, count=len(keys))
    return k


def union(relations: Sequence[FiniteRelation]) -> FiniteRelation:
    """Element-wise OR of a nonempty list of relations on one universe."""
    if not relations:
        raise DimensionError("union of an empty list of relations")
    first = relations[0]
    adj = first.adjacency.copy()
    for r in relations[1:]:
        if r.universe.size != first.universe.size:
            raise DimensionError(
                f"universe sizes differ: {r.universe.size} vs {first.universe.size}"
            )
        adj |= r.adjacency
    return FiniteRelation.adopt(first.universe, adj)
