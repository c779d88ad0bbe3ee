"""Successive altisets, layer indices and the coloring connection.

Repeatedly removing the altiset of R peels a relation with acyclic
asymmetric interior into disjoint layers; the layer count equals the
chromatic number of the comparability digraph and the longest chain
length.  Indices are 1-based.

The layering is computed in one level-wise Kahn pass (Kahn, CACM 1962)
over the asymmetric interior rather than by peeling: an element's upper
index is one more than the largest upper index among the elements that
strictly dominate it.  That costs O(n^2) numpy work for any depth; the
cycle DFS runs only when the pass stalls, to extract the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    CyclicRelationError,
    DimensionError,
    NotAStrictOrderError,
    OracleSizeError,
)
from .relation import FiniteRelation

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

    def lower_layer(self, i: int) -> frozenset[int]:
        return frozenset(x for x, v in enumerate(self.lower_index) if v == i)


def _require_aa(rel: FiniteRelation) -> None:
    cycle = rel.find_asym_cycle()
    if cycle is not None:
        raise CyclicRelationError(cycle)


def _levels(strict: np.ndarray) -> Optional[np.ndarray]:
    """Kahn's pass by levels over a strict domination matrix.

    strict[a, b] means b strictly dominates a.  Level 1 holds the elements
    with no dominator, level k + 1 those whose last dominator left at
    level k.  Returns the 1-based level of each element, or None when a
    cycle stops the pass before every element is placed.
    """
    n = strict.shape[0]
    # row f of dominated_by lists the elements that f strictly dominates
    dominated_by = np.ascontiguousarray(strict.T)
    pending = strict.sum(axis=1)  # strict dominators not yet placed
    level = np.zeros(n, dtype=np.int64)
    frontier = np.flatnonzero(pending == 0)
    k = placed = 0
    while frontier.size:
        k += 1
        level[frontier] = k
        placed += frontier.size
        freed = dominated_by[frontier].sum(axis=0)
        pending -= freed
        frontier = np.flatnonzero((pending == 0) & (freed > 0))
    return level if placed == n else None


def upper_layers(rel: FiniteRelation) -> LayerDecomposition:
    """Both layer index maps and d(R); requires the AA-property."""
    adj = rel.adjacency
    strict = adj & ~adj.T
    upper = _levels(strict)
    if upper is None:
        raise CyclicRelationError(rel.find_asym_cycle())
    lower = _levels(strict.T)  # the strict part of R^-1
    return LayerDecomposition(
        tuple(upper.tolist()), tuple(lower.tolist()), int(upper.max(initial=0))
    )


def apply_operator(op: str, rel: FiniteRelation, subset: Iterable[int]) -> frozenset[int]:
    """One step of the remove-the-altiset algebra on a subset."""
    idx = frozenset(rel.universe.check_subset(subset))
    if op == UPPER:
        return idx - rel.altiset(idx)
    if op == LOWER:
        return idx - rel.inverse().altiset(idx)
    raise DimensionError(f"unknown operator {op!r}; expected {UPPER!r} or {LOWER!r}")


def eval_chain(term: Sequence[str], rel: FiniteRelation) -> tuple[frozenset[int], list[frozenset[int]]]:
    """Apply a chain of operators (right-to-left) to the whole universe.

    Returns the final set and the intermediate sets X_1 = A, X_2, ...,
    X_{k+1} (one per applied operator).
    """
    if not term:
        raise DimensionError("chain term must be nonempty")
    _require_aa(rel)
    current = frozenset(range(rel.universe.size))
    intermediates = [current]
    for op in reversed(term):
        current = apply_operator(op, rel, current)
        intermediates.append(current)
    return current, intermediates


def chain_coloring(term: Sequence[str], rel: FiniteRelation) -> tuple[int, ...]:
    """Color element x by the step at which the chain removes it.

    The term must have length d(R); the coloring is proper on the
    comparability digraph trans(asym R) and uses exactly d(R) colors.
    """
    d = upper_layers(rel).class_count
    if len(term) != d:
        raise DimensionError(f"chain length {len(term)} != class count {d}")
    _, steps = eval_chain(term, rel)
    n = rel.universe.size
    colors = [0] * n
    for i in range(len(steps) - 1):
        for x in steps[i] - steps[i + 1]:
            colors[x] = i + 1
    return tuple(colors)


def longest_chain(strict: FiniteRelation) -> int:
    """Vertex count of the longest chain of a strict order."""
    adj = strict.adjacency
    if adj.trace() or (adj & adj.T).any():
        raise NotAStrictOrderError("relation is not irreflexive and asymmetric")
    closure = strict.transitive_closure()
    if not np.array_equal(closure.adjacency, adj):
        raise NotAStrictOrderError("relation is not transitive")
    # a strict order is acyclic, and its level count is its longest chain
    return int(_levels(adj).max(initial=0))


def chromatic_number_oracle(graph: FiniteRelation, cap: int = 12) -> int:
    """Exact chromatic number of the underlying undirected simple graph.

    The digraph is symmetrized and loops dropped; backtracking with a
    greedy clique lower bound and a greedy-coloring upper bound.
    """
    n = graph.universe.size
    if n > cap:
        raise OracleSizeError(f"size {n} exceeds oracle cap {cap}")
    if n == 0:
        return 0
    sym = (graph.adjacency | graph.adjacency.T).copy()
    np.fill_diagonal(sym, False)
    neighbors = [frozenset(np.nonzero(sym[v])[0].tolist()) for v in range(n)]

    # greedy clique (degree-descending) as a lower bound
    clique: list[int] = []
    for v in sorted(range(n), key=lambda v: -len(neighbors[v])):
        if all(v in neighbors[u] for u in clique):
            clique.append(v)
    lower = len(clique)

    # greedy coloring as an upper bound
    greedy = [-1] * n
    for v in sorted(range(n), key=lambda v: -len(neighbors[v])):
        used = {greedy[u] for u in neighbors[v]}
        c = 0
        while c in used:
            c += 1
        greedy[v] = c
    upper = max(greedy) + 1

    def colorable(k: int) -> bool:
        colors = [-1] * n
        order = sorted(range(n), key=lambda v: -len(neighbors[v]))

        def place(i: int, used: int) -> bool:
            if i == n:
                return True
            v = order[i]
            forbidden = {colors[u] for u in neighbors[v] if colors[u] >= 0}
            for c in range(min(used + 1, k)):
                if c in forbidden:
                    continue
                colors[v] = c
                if place(i + 1, max(used, c + 1)):
                    return True
                colors[v] = -1
            return False

        return place(0, 0)

    for k in range(lower, upper):
        if colorable(k):
            return k
    return upper
