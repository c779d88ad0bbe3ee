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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InjectivityError, NonFiniteError
from .orders import pareto_layers


@dataclass(frozen=True)
class PointSet2D:
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
            raise NonFiniteError("point coordinates must be finite")
        if len(set(pts)) != len(pts):
            raise InjectivityError("duplicate points are not allowed")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def _layers_for(points: PointSet2D, increasing: bool) -> np.ndarray:
    """Each point's 1-based block: its Pareto layer on (y, -x) for the
    increasing direction, (y, x) for the decreasing one."""
    if len(points) == 0:
        raise DegenerateInputError("point set is empty")
    xy = np.array(points.points)
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
