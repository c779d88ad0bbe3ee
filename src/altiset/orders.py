"""Systems of linearly induced orders and the Pareto-maxima kernel.

Each order is given by a key vector and a direction: "gain" (larger key is
better) or "price" (smaller is better).  A gain order contributes the
reflexive order <=_f, a price order its inverse.  The quotient by
indistinguishability carries a strict characteristic order whose maxima are
exactly the significant classes.  So the altiset of a system is the set of
Pareto maxima of its key columns, and `maxima` computes it for order
systems, collective comparison, geographic skylines and record events,
by one sweep for at most two columns and a block filter for more.
`quotient` reads the class order off the key ranks of one member per
class, and `pareto_layers` peels two columns into successive maxima.

The kernel (`maxima`, `pareto_layers`) needs no relation, and no CLI job
calls the order-system functions that do, so `KeyedOrder.relation`,
`quotient` and `_ranks` import `relation` when called.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionError, NonFiniteError, PartitionError

if TYPE_CHECKING:
    from .relation import FiniteRelation, Universe

GAIN = "gain"
PRICE = "price"

# rows `maxima` filters per pass; its temporaries hold block x maxima booleans
_BLOCK = 256


def _key_matrix(keys, name: str, two: bool = False) -> np.ndarray:
    """keys as an (n, k) array of their own dtype, so integer and object keys
    stay exact, k = 2 where `two` is set; DimensionError otherwise."""
    needs = "two key columns" if two else "an (n, k) array of keys"
    try:
        keys = np.asarray(keys)
    except ValueError:  # rows of unequal length
        raise DimensionError(f"{name} needs {needs}, got rows of unequal length") from None
    if keys.ndim != 2 or (two and keys.shape[1] != 2):
        raise DimensionError(f"{name} needs {needs}, got shape {keys.shape}")
    return keys


def _descending(keys: np.ndarray) -> np.ndarray:
    """The order of the rows of an (n, k) array, k >= 1, in descending
    lexicographic order, which puts every dominator before the rows it
    dominates.  NaN keys raise NonFiniteError, because the sort needs a
    total order."""
    if keys.dtype.kind in "fO" and (keys != keys).any():  # NaN alone is != itself
        raise NonFiniteError("keys must not be NaN")
    return np.lexsort(keys.T[::-1])[::-1]


def _dominated_by(rows: np.ndarray, rivals: np.ndarray) -> np.ndarray:
    """[a, b] is set when rivals[b] dominates rows[a], >= in every column
    and > in one; built a column at a time, with no 3-D temporary."""
    geq = np.ones((len(rows), len(rivals)), dtype=bool)
    same = geq.copy()
    for mine, theirs in zip(rows.T, rivals.T):
        geq &= theirs >= mine[:, None]
        same &= theirs == mine[:, None]
    return geq & ~same


def maxima(keys) -> np.ndarray:
    """Boolean mask of the rows of an (n, k) array that no other row dominates.

    Larger is better in every column.  A row dominates another when it is
    >= in every column and > in one, so equal rows never dominate each
    other and with k = 0 every row is kept.  The rows are sorted in
    descending lexicographic order (Kung, Luccio and Preparata, JACM
    1975).  With k <= 2 one sweep follows: a group of equal rows is
    dominated when the best last column before the group reaches its own,
    O(n log n) time and O(n) memory.  The block filter is the k >= 3
    route: each block of sorted rows is compared, column by column, with
    the maxima found so far and with itself; no (n, n) matrix is built.
    NaN keys raise NonFiniteError, and keys that are not 2-D DimensionError.
    """
    keys = _key_matrix(keys, "maxima")
    n, k = keys.shape
    if n == 0 or k == 0:
        return np.ones(n, dtype=bool)
    order = _descending(keys)
    ranked = keys[order]
    if k <= 2:
        starts = np.flatnonzero(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)])
        tops = ranked[starts, -1]  # a group's rows are equal: one last column each
        del ranked  # keeps the peak at a few index arrays
        rises = np.r_[True, np.maximum.accumulate(tops)[:-1] < tops[1:]]
        kept = np.flatnonzero(np.repeat(rises, np.diff(starts, append=n)))
    else:  # the block filter
        kept = np.empty(0, dtype=np.intp)  # positions in ranked of the maxima so far
        for start in range(0, n, _BLOCK):
            block = ranked[start : start + _BLOCK]
            dominated = _dominated_by(block, np.concatenate([ranked[kept], block])).any(axis=1)
            kept = np.concatenate([kept, start + np.flatnonzero(~dominated)])
    mask = np.zeros(n, dtype=bool)
    mask[order[kept]] = True
    return mask


def pareto_layers(keys) -> np.ndarray:
    """1-based Pareto layer of each row of an (n, 2) array, larger better:
    layer 1 is `maxima(keys)`, layer j + 1 the maxima left once layers
    1..j are removed.  In descending lexicographic order every dominator of
    a row comes before it; patience sorting bisects each row into the best
    column 1 of each layer so far (Fredman, Discrete Math. 1975), and an
    equal row shares the layer of the one before it.  O(n log n) time,
    O(n) memory.  NaN keys raise NonFiniteError, and keys of another
    shape DimensionError.
    """
    keys = _key_matrix(keys, "pareto_layers", two=True)
    order = _descending(keys)
    ranked = keys[order]
    repeat = [False] + (ranked[1:] == ranked[:-1]).all(axis=1).tolist()
    layer, tops = [], []  # tops: minus the best column 1 of each layer so far, ascending
    for value, again in zip(ranked[:, 1].tolist(), repeat):
        if not again:
            j = bisect.bisect_right(tops, -value)
            tops[j : j + 1] = [-value]  # lowers layer j's entry, or opens layer j + 1
        layer.append(j + 1)
    out = np.empty(len(order), dtype=np.int64)
    out[order] = layer
    return out


@dataclass(frozen=True)
class KeyedOrder:
    """A linearly induced order: key per element plus a direction flag."""

    keys: tuple
    direction: str = GAIN

    def __post_init__(self):
        object.__setattr__(self, "keys", tuple(self.keys))
        if self.direction not in (GAIN, PRICE):
            raise DimensionError(f"direction must be gain|price, got {self.direction!r}")
        # NaN would break the order; maxima sorts the keys.  decimal is looked
        # up, not imported: a Decimal key can exist only once it is loaded
        decimal = sys.modules.get("decimal")
        bad = [v for v in self.keys
               if (isinstance(v, (float, np.floating)) and not np.isfinite(v))
               or (decimal is not None and isinstance(v, decimal.Decimal) and not v.is_finite())]
        if bad:
            raise NonFiniteError(f"keys must be finite, got {bad[0]}")

    def relation(self, universe: Universe) -> FiniteRelation:
        """The order this entry contributes: strict induced order + diagonal.

        Equal-keyed distinct elements are incomparable, not mutually
        related; that keeps the order antisymmetric.
        """
        from .relation import FiniteRelation

        less = FiniteRelation.induce(universe, self.keys).adjacency
        eye = np.eye(universe.size, dtype=bool)
        adj = np.logical_or(less if self.direction == GAIN else less.T, eye, order="C")
        return FiniteRelation.adopt(universe, adj)


@dataclass(frozen=True)
class OrderSystem:
    universe: Universe
    orders: tuple[KeyedOrder, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(self.orders))
        if not self.orders:
            raise DimensionError("an OrderSystem needs at least one order")
        for o in self.orders:
            if len(o.keys) != self.universe.size:
                raise DimensionError(
                    f"{len(o.keys)} keys for universe of size {self.universe.size}"
                )


@dataclass(frozen=True)
class QuotientView:
    """Indistinguishability classes with the strict characteristic order."""

    classes: tuple[tuple[int, ...], ...]
    class_order: FiniteRelation
    maximal_classes: frozenset[int]


def indistinguishability(system: OrderSystem) -> tuple[tuple[int, ...], ...]:
    """Partition by equality under every key function, keys compared as
    `_ranks` compares them (mixed integers and floats as float64); keys it
    cannot order raise TypeError, as in `quotient` and `altiset_of_system`.

    Classes are ordered (and indexed) by their smallest member.
    """
    return _classes(_ranks(system), range(system.universe.size))


def _classes(ranks: np.ndarray, idx: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The ascending positions idx grouped by equal rows of ranks, first position first."""
    groups: dict[tuple, list[int]] = {}
    for a, sig in zip(idx, ranks[list(idx)].tolist()):
        groups.setdefault(tuple(sig), []).append(a)
    return tuple(map(tuple, groups.values()))


def quotient(system: OrderSystem, subset: Optional[Iterable[int]] = None) -> QuotientView:
    """Indistinguishability classes + strict characteristic order + maxima,
    over the subset (default: the whole universe).  Read off the key ranks
    of each class's first member: class i lies below class j when j's
    ranks dominate i's, >= in every column and > in one."""
    from .relation import FiniteRelation, Universe

    ranks = _ranks(system)
    idx = range(system.universe.size) if subset is None else system.universe.check_subset(subset)
    classes = _classes(ranks, idx)
    ranks = ranks[[c[0] for c in classes]]
    below = _dominated_by(ranks, ranks)
    maximal = frozenset(np.flatnonzero(~below.any(axis=1)).tolist())
    return QuotientView(classes, FiniteRelation.adopt(Universe(len(classes)), below), maximal)


def _ranks(system: OrderSystem) -> np.ndarray:
    """(elements, orders) dense ranks of the keys, larger better: each key
    column ranked in the order `FiniteRelation.induce` compares it,
    negated for a price order."""
    from .relation import key_array

    cols = []
    for o in system.orders:
        rank = np.unique(key_array(o.keys), return_inverse=True)[1]
        cols.append(rank if o.direction == GAIN else -rank)
    return np.column_stack(cols)


def altiset_of_system(system: OrderSystem, subset: Optional[Iterable[int]] = None) -> frozenset[int]:
    """Union of the maximal indistinguishability classes: the Pareto maxima
    of the key ranks over the subset (default: the whole universe)."""
    idx = range(system.universe.size) if subset is None else system.universe.check_subset(subset)
    return frozenset(np.compress(maxima(_ranks(system)[list(idx)]), idx).tolist())


def decompose_altiset(system: OrderSystem, blocks: Sequence[Iterable[int]]) -> frozenset[int]:
    """Altiset over the union of per-block altisets (one decomposition level),
    each the Pareto maxima of one ranking of the keys."""
    ranks = _ranks(system)
    seen: set[int] = set()
    merged: list[int] = []
    for block in blocks:
        idx = list(system.universe.check_subset(block))
        if seen.intersection(idx):
            raise PartitionError(f"blocks overlap at {sorted(seen.intersection(idx))}")
        seen.update(idx)
        merged += np.compress(maxima(ranks[idx]), idx).tolist()
    return frozenset(np.compress(maxima(ranks[merged]), merged).tolist())
