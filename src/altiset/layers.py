"""Successive altisets, layer indices and the coloring connection.

Repeatedly removing the altiset of R peels a relation with acyclic
asymmetric interior into disjoint layers; the layer count equals the
chromatic number of the comparability digraph and the longest chain
length.  Indices are 1-based.

The layering is computed in one level-wise Kahn pass (Kahn, CACM 1962)
over the asymmetric interior rather than by peeling: an element's upper
index is one more than the largest upper index among the elements that
strictly dominate it.  That costs O(n^2) numpy work for any depth.  Each
pass is `relation._levels` over the relation's own matrix, which builds
the strict matrix of its direction bit-packed and frees it on return, so a
layering holds the relation plus an n^2 / 8 byte work matrix.  The
operator chains and their colorings are read off the two index vectors,
and a cycle witness off the residue the upper pass leaves unplaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CyclicRelationError, DimensionError
from .relation import FiniteRelation, _cycle, _levels

UPPER = "v"  # remove the altiset of R
LOWER = "l"  # remove the altiset of R^-1


@dataclass(frozen=True)
class LayerDecomposition:
    """Per-element upper/lower significance indices and the class count."""

    upper_index: tuple[int, ...]
    lower_index: tuple[int, ...]
    class_count: int

    def upper_layer(self, i: int) -> frozenset[int]:
        return frozenset(x for x, v in enumerate(self.upper_index) if v == i)


def upper_layers(rel: FiniteRelation) -> LayerDecomposition:
    """Both layer index maps and d(R); requires the AA-property, and
    raises a cycle witness off the upper pass's residue otherwise."""
    adj = rel.adjacency
    upper = _levels(adj)
    if not upper.all():
        raise CyclicRelationError(_cycle(adj, upper == 0))
    lower = _levels(adj, inverse=True)
    return LayerDecomposition(
        tuple(upper.tolist()), tuple(lower.tolist()), int(upper.max(initial=0))
    )


def _chain_counts(term: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """How many v and l operators the first i applied (right-to-left) hold."""
    for op in term:
        if op not in (UPPER, LOWER):
            raise DimensionError(f"unknown operator {op!r}; expected {UPPER!r} or {LOWER!r}")
    k = np.cumsum([op == UPPER for op in reversed(term)], dtype=np.int64)
    return k, np.arange(1, len(term) + 1) - k


def eval_chain(term: Sequence[str], rel: FiniteRelation) -> tuple[frozenset[int], list[frozenset[int]]]:
    """Apply a chain of operators (right-to-left) to the whole universe.

    Returns the final set and the intermediate sets X_1 = A, X_2, ...,
    X_{k+1} (one per applied operator).  After k v and m l operators the
    set is {x : upper(x) > k and lower(x) > m}, read off the indices.
    """
    if not term:
        raise DimensionError("chain term must be nonempty")
    d = upper_layers(rel)
    upper, lower = np.array(d.upper_index), np.array(d.lower_index)
    intermediates = [frozenset(range(rel.universe.size))]
    for k, m in zip(*_chain_counts(term)):
        intermediates.append(frozenset(np.flatnonzero((upper > k) & (lower > m)).tolist()))
    return intermediates[-1], intermediates


def chain_coloring(term: Sequence[str], rel: FiniteRelation) -> tuple[int, ...]:
    """Color element x by the step at which the chain removes it.

    The term must have length d(R); the coloring is proper on the
    comparability digraph trans(asym R) and uses exactly d(R) colors.
    Step i removes x first when the v count reaches upper(x) or the l
    count reaches lower(x).
    """
    d = upper_layers(rel)
    if len(term) != d.class_count:
        raise DimensionError(f"chain length {len(term)} != class count {d.class_count}")
    k, m = _chain_counts(term)
    first = np.minimum(np.searchsorted(k, d.upper_index), np.searchsorted(m, d.lower_index))
    return tuple((first + 1).tolist())
