"""Definitional references that the tests check the kernels against.

A reference computes its answer from the definition, by double loops,
exhaustive search, the dense union relation or the skyline at one point,
and no subcommand runs it, so no CLI job imports this module.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from altiset.collective import SubsetFamily, ValuedGroundSet
from altiset.dependence import PointSet2D
from altiset.domains import _check_field
from altiset.errors import AltisetError, DegenerateInputError, DimensionError
from altiset.geoalt import EUCLIDEAN_2D, SummitField, geo_altiset_oracle
from altiset.layers import LOWER, UPPER
from altiset.orders import OrderSystem
from altiset.relation import FiniteRelation, _levels, union


class NotAStrictOrderError(AltisetError):
    """Operation requires an irreflexive, asymmetric, transitive relation."""


class OracleSizeError(AltisetError):
    """Instance exceeds the size cap of an exact oracle."""


def altiset_bruteforce(rel: FiniteRelation, subset: Optional[Iterable[int]] = None) -> frozenset[int]:
    """Definitional double-loop significance predicate (test oracle)."""
    if subset is None:
        idx = list(range(rel.universe.size))
    else:
        idx = list(rel.universe.check_subset(subset))
    out = set()
    for a in idx:
        if all((a, b) not in rel or (b, a) in rel for b in idx):
            out.add(a)
    return frozenset(out)


def apply_operator(op: str, rel: FiniteRelation, subset: Iterable[int]) -> frozenset[int]:
    """One step of the remove-the-altiset algebra on a subset."""
    idx = frozenset(rel.universe.check_subset(subset))
    if op == UPPER:
        return idx - rel.altiset(idx)
    if op == LOWER:
        return idx - rel.inverse().altiset(idx)
    raise DimensionError(f"unknown operator {op!r}; expected {UPPER!r} or {LOWER!r}")


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


def longest_chain(strict: FiniteRelation) -> int:
    """Vertex count of the longest chain of a strict order, one that is its
    own asymmetric interior (so no loop and no symmetric pair) and its own
    transitive closure."""
    if strict.asym_interior() != strict:
        raise NotAStrictOrderError("relation is not irreflexive and asymmetric")
    if strict.transitive_closure() != strict:
        raise NotAStrictOrderError("relation is not transitive")
    # a strict order is acyclic, and its level count is its longest chain
    return int(_levels(strict.adjacency).max(initial=0))


def is_increasing_set(points: PointSet2D, indices: Sequence[int]) -> bool:
    """True iff the subset is the plot of a strictly increasing function."""
    chosen = [points.points[i] for i in indices]
    for a in range(len(chosen)):
        for b in range(len(chosen)):
            if a == b:
                continue
            (xa, ya), (xb, yb) = chosen[a], chosen[b]
            if not ((xa < xb and ya < yb) or (xa > xb and ya > yb)):
                return False
    return True


def minimal_increasing_cover_bruteforce(points: PointSet2D, increasing: bool = True) -> int:
    """Exhaustive minimum over all partitions into monotone subsets (oracle).

    Enumerates set partitions with pruning; intended for |S| <= 8.
    """
    n = len(points)
    if n == 0:
        raise DegenerateInputError("point set is empty")
    pts = points.points

    def compatible(i: int, block: list[int]) -> bool:
        xi, yi = pts[i]
        for j in block:
            xj, yj = pts[j]
            if increasing:
                ok = (xi < xj and yi < yj) or (xi > xj and yi > yj)
            else:
                ok = (xi < xj and yi > yj) or (xi > xj and yi < yj)
            if not ok:
                return False
        return True

    best = n

    def search(i: int, blocks: list[list[int]]):
        nonlocal best
        if len(blocks) >= best:
            return
        if i == n:
            best = len(blocks)
            return
        for block in blocks:
            if compatible(i, block):
                block.append(i)
                search(i + 1, blocks)
                block.pop()
        blocks.append([i])
        search(i + 1, blocks)
        blocks.pop()

    search(0, [])
    return best


def threshold_profile_bruteforce(member: Iterable, ground: ValuedGroundSet) -> tuple[int, ...]:
    """Count of member elements valued >= t, for each threshold t descending,
    one threshold at a time."""
    values = [ground.valuation[e] for e in frozenset(member)]
    return tuple(sum(1 for v in values if v >= t) for t in ground.thresholds())


def rh_dominates(m: Iterable, n: Iterable, ground: ValuedGroundSet) -> bool:
    """True iff some threshold count of m lies strictly below n's."""
    pm = threshold_profile_bruteforce(m, ground)
    pn = threshold_profile_bruteforce(n, ground)
    return any(a < b for a, b in zip(pm, pn))


def collective_altiset_bruteforce(family: SubsetFamily) -> frozenset[int]:
    """Definitional double-loop altiset of the pairwise dominance relation."""
    ground, members = family.ground, family.members
    out = set()
    for k, mk in enumerate(members):
        significant = True
        for l, ml in enumerate(members):
            if rh_dominates(mk, ml, ground) and not rh_dominates(ml, mk, ground):
                significant = False
                break
        if significant:
            out.add(k)
    return frozenset(out)


def inverse_altiset_member(
    summits: Sequence[tuple[float, float]],
    altitudes: Sequence[float],
    a: int,
    x: tuple[float, float],
) -> bool:
    """Is summit a significant when the reference point sits at x?

    Read off the skyline of the field referenced at x, so ties follow the
    same exact squared-distance rule as `inverse_altiset_mask`.
    """
    xy, (a,), h = _check_field(summits, [a], altitudes)
    return a in geo_altiset_oracle(SummitField(EUCLIDEAN_2D, xy, h, x))


def system_union(system: OrderSystem) -> FiniteRelation:
    """R = union of the reflexive relations of all orders."""
    return union([o.relation(system.universe) for o in system.orders])


def check_form_equivalences(f_keys: Sequence, g_keys: Sequence, a: int, b: int) -> tuple[bool, bool, bool, bool]:
    """The four implication-pair forms of aligned-orders significance at (a,b)."""
    if len(f_keys) != len(g_keys):
        raise DimensionError("key vectors differ in length")
    fa, fb = f_keys[a], f_keys[b]
    ga, gb = g_keys[a], g_keys[b]

    def imp(p, q):
        return (not p) or q

    form1 = imp(fa < fb, ga < gb) and imp(ga > gb, fa > fb)
    form2 = imp(fa <= fb, ga <= gb) and imp(ga >= gb, fa >= fb)
    form3 = imp(fa < fb, ga < gb) and imp(fa == fb, ga <= gb)
    form4 = imp(ga > gb, fa > fb) and imp(ga == gb, fa >= fb)
    return form1, form2, form3, form4
