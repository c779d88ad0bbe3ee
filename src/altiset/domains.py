"""Significance domains and the measure-driven evolution of valuation.

The abstract measure is realized as a fixed deterministic grid of cell
centers: measures are exact multiples of the cell area, so the valuation
evolution has a finite image and its fixed point is detected by exact
equality.  Every function takes its summits through `_check_field`, as
one (n, 2) float64 array, and compares per-cell minima of the
summit-to-cell squared distances; `_nearest` computes each minimum one
summit's row at a time, so no function holds a (summits, cells) matrix.
`evolve` runs each step as one pass of running minima over the summits
in descending valuation order: O(n·cells) per step, not the O(n²·cells)
of calling `voronoi_mu` once per summit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import AltisetError, DimensionError, GridError, finite_array, index_array

DEFAULT_RESOLUTION = 128
DEFAULT_INFLATE = 0.25


@dataclass(frozen=True)
class GridMeasure:
    """A fixed lattice of cell centers over a bounding box."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise GridError("bounding box is degenerate")
        # squared distances inside the box, cell to summit for a grid from `around`, stay finite
        dx, dy = self.xmax - self.xmin, self.ymax - self.ymin
        if not math.isfinite(dx * dx + dy * dy):
            raise GridError("bounding box must have a finite squared diagonal")
        if self.nx < 1 or self.ny < 1:
            raise GridError("resolution must be >= 1 in both axes")

    @property
    def cell_area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin) / (self.nx * self.ny)

    @property
    def box_area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat arrays of cell-center x and y coordinates."""
        dx = (self.xmax - self.xmin) / self.nx
        dy = (self.ymax - self.ymin) / self.ny
        xs = self.xmin + dx * (np.arange(self.nx) + 0.5)
        ys = self.ymin + dy * (np.arange(self.ny) + 0.5)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return gx.ravel(), gy.ravel()

    @classmethod
    def around(
        cls,
        points: Sequence[tuple[float, float]],
        inflate: float = DEFAULT_INFLATE,
        nx: int = DEFAULT_RESOLUTION,
        ny: Optional[int] = None,
    ) -> "GridMeasure":
        """Bounding box of the points inflated per side; degenerate spans
        get a unit pad so single points still produce a box."""
        xy = _check_field(points)[0]
        if len(xy) == 0:
            raise GridError("cannot build a grid around zero points")
        # argmin and argmax pick the first of tied values, as min and max do with 0.0 and -0.0
        xmin, ymin = xy[xy.argmin(axis=0), (0, 1)].tolist()
        xmax, ymax = xy[xy.argmax(axis=0), (0, 1)].tolist()
        spanx = (xmax - xmin) or 1.0
        spany = (ymax - ymin) or 1.0
        return cls(
            xmin - inflate * spanx,
            xmax + inflate * spanx,
            ymin - inflate * spany,
            ymax + inflate * spany,
            nx,
            ny if ny is not None else nx,
        )


def _nearest(gx: np.ndarray, gy: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Least squared distance `(gx - x)**2 + (gy - y)**2` from each cell
    center to the (k, 2) points, inf where there are none.  Each point's
    row is computed in place and folded into one running minimum, so the
    call holds three rows whatever k is, and a float minimum is one of its
    inputs, so comparisons with it are exact."""
    least, row, dy = np.full(gx.size, np.inf), np.empty(gx.size), np.empty(gx.size)
    for x, y in points.tolist():
        np.square(np.subtract(gx, x, out=row), out=row)
        row += np.square(np.subtract(gy, y, out=dy), out=dy)
        np.minimum(least, row, out=least)
    return least


def _check_field(summits, indices=(), heights=None, name: str = "altitudes"):
    """The summits as one (n, 2) `finite_array`, `indices` as an `index_array`
    of them, and `heights` (called `name` in errors) as a `finite_array` of
    one per summit: the sort of heights needs a total order, the running
    minima NaN-free distances (the grid's finite diagonal rules out NaN centers)."""
    xy = finite_array(summits, "summits", 2)
    idx = index_array(indices, len(xy), "summit indices")
    h = finite_array(() if heights is None else heights, name)
    if heights is not None and len(h) != len(xy):
        raise DimensionError(f"{name} length does not match summits")
    return xy, idx, h


def inverse_altiset_mask(
    summits: Sequence[tuple[float, float]],
    altitudes: Sequence[float],
    a: int,
    grid: GridMeasure,
) -> np.ndarray:
    """Boolean mask over grid cells whose reference point keeps a significant:
    its squared distance is below that of every higher summit and no more
    than that of every other summit of its height."""
    xy, (a,), h = _check_field(summits, [a], altitudes)
    gx, gy = grid.centers()
    mine = _nearest(gx, gy, xy[a : a + 1])
    higher = _nearest(gx, gy, xy[h > h[a]])
    level = _nearest(gx, gy, xy[(h == h[a]) & (np.arange(len(h)) != a)])
    return (mine < higher) & (mine <= level)


def inverse_altiset_measure(
    summits: Sequence[tuple[float, float]],
    altitudes: Sequence[float],
    a: int,
    grid: GridMeasure,
) -> float:
    """Grid measure of the significance domain of summit a."""
    return grid.cell_area * int(inverse_altiset_mask(summits, altitudes, a, grid).sum())


def voronoi_mu(
    x: int,
    excluded: Sequence[int],
    summits: Sequence[tuple[float, float]],
    grid: GridMeasure,
) -> float:
    """Measure of the region weakly closer to summit x than to every
    competitor outside the excluded set (ties count for both sides)."""
    xy, idx, _ = _check_field(summits, [x, *excluded])
    if idx[0] in idx[1:]:
        raise AltisetError(f"summit {idx[0]} must not be in the excluded set")
    gx, gy = grid.centers()
    rivals = ~np.isin(np.arange(len(xy)), idx)
    ok = _nearest(gx, gy, xy[idx[:1]]) <= _nearest(gx, gy, xy[rivals])
    return grid.cell_area * int(np.count_nonzero(ok))


@dataclass(frozen=True)
class ValuationTrace:
    """Successive valuations h_0, h_1, ... with the detected stop index."""

    valuations: tuple[tuple[float, ...], ...]
    stop_index: int

    @property
    def final(self) -> tuple[float, ...]:
        return self.valuations[self.stop_index]


def _evolve_step(
    gx: np.ndarray, gy: np.ndarray, xy: np.ndarray, h: np.ndarray, cell_area: float
) -> np.ndarray:
    """h'(x) = voronoi_mu(x, {y: h(y) < h(x)}) for every summit x at once.

    x counts a cell when its squared distance is <= that of every y != x
    with h(y) >= h(x), that is when it is <= their minimum.  Taking x
    itself into that minimum changes nothing, so a tied group needs no
    leave-one-out: visiting the groups of equal h in descending order,
    the running minimum over every summit visited so far, this group
    included, is what each of its members is compared against.
    """
    order = np.argsort(-h, kind="stable")
    ranked = h[order]
    groups = np.split(order, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1)
    running = np.full(gx.size, np.inf)
    counts = np.zeros(len(h), dtype=np.int64)
    for group in groups:
        least = _nearest(gx, gy, xy[group])
        np.minimum(running, least, out=running)
        if group.size == 1:  # the group's row is its one summit's own
            counts[group] = np.count_nonzero(least <= running)
            continue
        del least  # one row at a time
        for x in group.tolist():
            counts[x] = np.count_nonzero(_nearest(gx, gy, xy[x : x + 1]) <= running)
    return cell_area * counts


def evolve(
    summits: Sequence[tuple[float, float]],
    h0: Sequence[float],
    grid: GridMeasure,
    max_steps: int = 1000,
) -> ValuationTrace:
    """Iterate h_{i+1}(x) = mu(x, {y: h_i(y) < h_i(x)}) to its fixed point.

    The fixed point exists because the grid measure has a finite image;
    exceeding max_steps therefore signals an implementation bug.  Each
    step is one running-minimum pass over the summits in descending
    valuation order, O(n·cells) time and O(cells) memory, with results
    equal to calling `voronoi_mu` per summit.  Summit coordinates and h0
    must be finite.
    """
    if max_steps < 1:
        raise DimensionError(f"max_steps must be >= 1, got {max_steps}")
    xy, _, current = _check_field(summits, heights=h0, name="initial valuation")
    gx, gy = grid.centers()
    trace = [tuple(current.tolist())]
    for _ in range(max_steps):
        nxt = _evolve_step(gx, gy, xy, current, grid.cell_area)
        trace.append(tuple(nxt.tolist()))
        if np.array_equal(nxt, current):
            return ValuationTrace(tuple(trace), len(trace) - 2)
        current = nxt
    raise AltisetError(f"valuation evolution did not stop within {max_steps} steps")
