"""Collective comparison of subsets of a valued ground set.

Subsets are compared by their cumulative counts above each valuation
threshold; a subset dominates when it is at least as good at every
threshold and strictly better at one.  The threshold-count key vectors
make the dominance relation a system of linearly induced orders, so the
significant members are the Pareto maxima of the (members x thresholds)
profile matrix; a simple pairwise elimination pass is a second route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import DimensionError, NonFiniteError, SubsetIndexError
from .orders import maxima


@dataclass(frozen=True)
class ValuedGroundSet:
    """A finite set with a real gain valuation per element."""

    elements: tuple[Hashable, ...]
    valuation: dict

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise DimensionError("ground-set elements must be distinct")
        missing = [e for e in self.elements if e not in self.valuation]
        if missing:
            raise DimensionError(f"valuation missing for {missing}")
        bad = [e for e in self.elements if not math.isfinite(self.valuation[e])]
        if bad:
            raise NonFiniteError(f"valuation of {bad[0]!r} must be finite")

    def thresholds(self) -> list[float]:
        """Distinct valuation values, descending."""
        return sorted({self.valuation[e] for e in self.elements}, reverse=True)


@dataclass(frozen=True)
class SubsetFamily:
    ground: ValuedGroundSet
    members: tuple[frozenset, ...]

    def __post_init__(self):
        members = tuple(frozenset(m) for m in self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise DimensionError("family must be nonempty")
        ground = set(self.ground.elements)
        for k, m in enumerate(members):
            stray = m - ground
            if stray:
                raise SubsetIndexError(f"member {k} has elements outside X: {sorted(map(str, stray))}")


def threshold_profile(member: Iterable, ground: ValuedGroundSet) -> tuple[int, ...]:
    """Count of member elements valued >= t, for each threshold t descending."""
    member = frozenset(member)
    stray = member - set(ground.elements)
    if stray:
        raise SubsetIndexError(f"elements outside X: {sorted(map(str, stray))}")
    values = sorted((ground.valuation[e] for e in member), reverse=True)
    profile = []
    for t in ground.thresholds():
        profile.append(sum(1 for v in values if v >= t))
    return tuple(profile)


def rh_dominates(m: Iterable, n: Iterable, ground: ValuedGroundSet) -> bool:
    """True iff some threshold count of m lies strictly below n's."""
    pm = threshold_profile(m, ground)
    pn = threshold_profile(n, ground)
    return any(a < b for a, b in zip(pm, pn))


def collective_altiset(family: SubsetFamily) -> frozenset[int]:
    """Indices of significant members: the Pareto maxima of their threshold
    profiles."""
    profiles = [threshold_profile(m, family.ground) for m in family.members]
    # an empty ground set gives (members, 0) profiles: everything ties
    keys = np.array(profiles, dtype=np.int64)
    return frozenset(np.flatnonzero(maxima(keys)).tolist())


def pairwise_elimination(family: SubsetFamily) -> frozenset[int]:
    """Single-pass strict-domination elimination over the member list."""
    ground = family.ground
    profiles = [threshold_profile(m, ground) for m in family.members]

    def strictly_dominates(k: int, l: int) -> bool:
        pk, pl = profiles[k], profiles[l]
        return all(a >= b for a, b in zip(pk, pl)) and any(a > b for a, b in zip(pk, pl))

    survivors = list(range(len(family.members)))
    k = 0
    while k < len(survivors):
        l = k + 1
        advanced = False
        while l < len(survivors):
            a, b = survivors[k], survivors[l]
            if strictly_dominates(a, b):
                survivors.pop(l)
            elif strictly_dominates(b, a):
                survivors.pop(k)
                advanced = True
                break
            else:
                l += 1
        if not advanced:
            k += 1
    return frozenset(survivors)


def collective_altiset_bruteforce(family: SubsetFamily) -> frozenset[int]:
    """Definitional double-loop altiset of the pairwise dominance relation."""
    ground = family.ground
    out = set()
    for k, mk in enumerate(family.members):
        significant = True
        for l, ml in enumerate(family.members):
            if rh_dominates(mk, ml, ground) and not rh_dominates(ml, mk, ground):
                significant = False
                break
        if significant:
            out.add(k)
    return frozenset(out)
