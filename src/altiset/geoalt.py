"""Geometric altisets: summits that are simultaneously high and close.

A summit is significant for a reference point when no other summit is at
least as high and at least as near with one of the two strict.  Nearness
is one float per summit, compared exactly: the squared distance
(x - rx)**2 + (y - ry)**2 in the plane and |s - ref| on the real line, so
ties are transitive and every route sees the same ones.  The oracle is the
Pareto-maxima kernel on (altitude, -distance); the two sweeps (its first
Pareto layer, in either column order) and the block recursion must agree
with it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionError, NonFiniteError, SpaceKindError, finite_array
from .orders import maxima, pareto_layers

EUCLIDEAN_2D = "euclidean-2d"
REAL_LINE = "real-line"
REAL_LINE_LEFT = "real-line-left-restricted"

_SPACES = (EUCLIDEAN_2D, REAL_LINE, REAL_LINE_LEFT)


class SummitField:
    """Finite summits with altitudes in a metric space, plus a reference.

    The summits are held as one read-only float64 array `coords`, (n, 2) in
    the plane and (n,) on the line, and the altitudes as `heights`, the
    `finite_array` copies of the sequences or arrays the constructor is
    given; the reference is one point of the space, checked the same way.
    `summits` and `altitudes` build them as tuples of floats."""

    def __init__(self, space: str, summits, altitudes, reference):
        planar = _check_space(space) == EUCLIDEAN_2D
        coords = finite_array(summits, "summits", 2 * planar)
        heights = finite_array(altitudes, "altitudes")
        ref = finite_array([reference], "reference", 2 * planar)[0].tolist()
        if planar:
            ref = tuple(ref)
        elif space == REAL_LINE_LEFT and (coords > ref).any():
            raise SpaceKindError("left-restricted space requires summits <= reference")
        if len(heights) != len(coords):
            raise DimensionError(f"{len(heights)} altitudes for {len(coords)} summits")
        self.space, self.coords, self.heights, self.reference = space, coords, heights, ref
        # maxima sorts on these values, so they need a total order; a distance
        # that overflows to inf would tie its summits
        with np.errstate(over="ignore"):
            far = np.flatnonzero(np.isinf(self.distance_keys()))
        if far.size:
            raise NonFiniteError(f"distances to the reference must be finite, got inf in row {far[0]}")

    @property
    def summits(self) -> tuple:
        if self.space == EUCLIDEAN_2D:
            return tuple(map(tuple, self.coords.tolist()))
        return tuple(self.coords.tolist())

    @property
    def altitudes(self) -> tuple[float, ...]:
        return tuple(self.heights.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SummitField):
            return NotImplemented
        return (self.space, self.reference) == (other.space, other.reference) and bool(
            np.array_equal(self.coords, other.coords) and np.array_equal(self.heights, other.heights)
        )

    def __hash__(self):
        return hash((self.space, self.summits, self.altitudes, self.reference))

    def __len__(self) -> int:
        return len(self.heights)

    def distance_keys(self) -> np.ndarray:
        """Nearness to the reference, one float per summit, compared exactly:
        (x - rx)**2 + (y - ry)**2 in the plane, |s - ref| on the real line."""
        if self.space == EUCLIDEAN_2D:
            rx, ry = self.reference
            return (self.coords[:, 0] - rx) ** 2 + (self.coords[:, 1] - ry) ** 2
        return np.abs(self.coords - self.reference)


def _check_space(space: str) -> str:
    if space not in _SPACES:
        raise SpaceKindError(f"unknown space kind {space!r}")
    return space


def _keys(field: SummitField) -> np.ndarray:
    """(summits, 2) key matrix, larger better: altitude and -distance key."""
    return np.column_stack([field.heights, -field.distance_keys()])


def geo_altiset_oracle(field: SummitField) -> frozenset[int]:
    """Summits that no other summit dominates: at least as high and at
    least as close, with one of the comparisons strict."""
    return frozenset(np.flatnonzero(maxima(_keys(field))).tolist())


def skyline_circular(field: SummitField) -> frozenset[int]:
    """Distance sweep: nearest first, keeping the best altitude seen nearer."""
    return frozenset(np.flatnonzero(pareto_layers(_keys(field)[:, ::-1]) == 1).tolist())


def skyline_contour(field: SummitField) -> frozenset[int]:
    """Altitude sweep: highest first, keeping the least distance seen higher."""
    return frozenset(np.flatnonzero(pareto_layers(_keys(field)) == 1).tolist())


def skyline_recursive(field: SummitField, block_size: int) -> frozenset[int]:
    """Block decomposition: per-block altisets, merge, repeat.

    Correct for any block partition because the two criteria are linearly
    induced; blocks are cut in input order.
    """
    if block_size < 1:
        raise DimensionError(f"block size must be >= 1, got {block_size}")
    keys = _keys(field)
    current = np.arange(len(field))
    while len(current) > block_size:
        blocks = [current[s : s + block_size] for s in range(0, len(current), block_size)]
        survivors = np.concatenate([b[maxima(keys[b])] for b in blocks])
        if len(survivors) == len(current):
            break
        current = survivors
    return frozenset(current[maxima(keys[current])].tolist())


def record_events(times: Sequence[float], altitudes: Sequence[float]) -> frozenset[int]:
    """Events that were records at their time: no earlier-or-simultaneous
    event is at least as high with time or altitude strict."""
    t, h = finite_array(times, "times"), finite_array(altitudes, "altitudes")
    if len(t) != len(h):
        raise DimensionError(f"{len(t)} times for {len(h)} altitudes")
    return frozenset(np.flatnonzero(maxima(np.column_stack([h, -t]))).tolist())


def record_events_field(field: SummitField) -> frozenset[int]:
    """record_events over a real-line field; summits are event times."""
    if field.space == EUCLIDEAN_2D:
        raise SpaceKindError("record events need a real-line space")
    return record_events(field.coords, field.heights)
