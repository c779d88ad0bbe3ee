"""Dependence direction of a planar point set.

A point set decomposes into a minimal number of strictly increasing (or
decreasing) subsets; the two counts and their log-ratio give a rank-style
correlation direction indicator in [-1, 1].  All monotonicity is strict:
two points sharing an x (or a y) never fit in one increasing block.  The
blocks are the Pareto layers (`orders.pareto_layers`) of the keys (y, -x),
or (y, x) for decreasing ones, found with no n x n relation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, InjectivityError, finite_array
from .orders import pareto_layers


class PointSet2D:
    """Finite planar points, no two equal, held as one read-only (n, 2)
    float64 array `xy`, the `finite_array` copy of the sequence or array
    the constructor is given; `points` builds them as tuples of floats."""

    def __init__(self, points):
        xy = finite_array(points, "points", 2)
        # equal points are adjacent once sorted; lexsort is stable, so a pair's rows ascend
        order = np.lexsort((xy[:, 1], xy[:, 0]))
        ranked = xy[order]
        same = np.flatnonzero((ranked[1:] == ranked[:-1]).all(axis=1))
        if same.size:
            a, b = order[same[0]], order[same[0] + 1]
            point = tuple(xy[a].tolist())
            raise InjectivityError(
                f"duplicate points are not allowed: rows {a} and {b} are both {point}"
            )
        self.xy = xy

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(map(tuple, self.xy.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet2D):
            return NotImplemented
        return bool(np.array_equal(self.xy, other.xy))

    def __hash__(self):
        return hash(self.points)

    def __len__(self) -> int:
        return len(self.xy)


def _layers_for(points: PointSet2D, increasing: bool) -> np.ndarray:
    """Each point's 1-based block: its Pareto layer on (y, -x) for the
    increasing direction, (y, x) for the decreasing one."""
    if len(points) == 0:
        raise DegenerateInputError("point set is empty")
    xy = points.xy
    return pareto_layers(np.column_stack([xy[:, 1], -xy[:, 0] if increasing else xy[:, 0]]))


def increasingness_index(points: PointSet2D) -> int:
    """Minimal number of strictly increasing subsets covering the points."""
    return int(_layers_for(points, increasing=True).max())


def decreasingness_index(points: PointSet2D) -> int:
    """Minimal number of strictly decreasing subsets covering the points."""
    return int(_layers_for(points, increasing=False).max())


def epsilon(points: PointSet2D) -> float:
    """log_n of (decreasingness / increasingness); 1 = direct, -1 = indirect."""
    _require_two(len(points))
    return epsilon_of_indices(
        len(points), increasingness_index(points), decreasingness_index(points)
    )


def epsilon_of_indices(n: int, plus: int, minus: int) -> float:
    """epsilon of n points from their increasingness and decreasingness indices."""
    _require_two(n)
    return math.log(minus / plus) / math.log(n)


def _require_two(n: int) -> None:
    if n <= 1:
        raise DegenerateInputError(f"epsilon needs at least 2 points, got {n}")


def increasing_decomposition(points: PointSet2D) -> list[list[int]]:
    """Partition into exactly increasingness_index strictly increasing blocks.

    Block i is the i-th successive altiset layer; blocks hold point
    indices sorted ascending.
    """
    layer = _layers_for(points, increasing=True)
    by_layer = np.argsort(layer, kind="stable")
    return [b.tolist() for b in np.split(by_layer, np.cumsum(np.bincount(layer)[1:-1]))]
