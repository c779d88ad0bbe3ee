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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, NonFiniteError, SpaceKindError
from .orders import maxima, pareto_layers

EUCLIDEAN_2D = "euclidean-2d"
REAL_LINE = "real-line"
REAL_LINE_LEFT = "real-line-left-restricted"

_SPACES = (EUCLIDEAN_2D, REAL_LINE, REAL_LINE_LEFT)


@dataclass(frozen=True)
class SummitField:
    """Finite summits with altitudes in a metric space, plus a reference."""

    space: str
    summits: tuple
    altitudes: tuple[float, ...]
    reference: tuple

    def __post_init__(self):
        if self.space not in _SPACES:
            raise SpaceKindError(f"unknown space kind {self.space!r}")
        if self.space == EUCLIDEAN_2D:
            summits = tuple((float(x), float(y)) for x, y in self.summits)
            ref = (float(self.reference[0]), float(self.reference[1]))
        else:
            summits = tuple(float(x) for x in self.summits)
            ref = float(self.reference)
            if self.space == REAL_LINE_LEFT and any(s > ref for s in summits):
                raise SpaceKindError("left-restricted space requires summits <= reference")
        altitudes = tuple(float(h) for h in self.altitudes)
        if len(altitudes) != len(summits):
            raise DimensionError(f"{len(altitudes)} altitudes for {len(summits)} summits")
        object.__setattr__(self, "space", self.space)
        object.__setattr__(self, "summits", summits)
        object.__setattr__(self, "altitudes", altitudes)
        object.__setattr__(self, "reference", ref)
        with np.errstate(over="ignore", invalid="ignore"):
            nearness = self.distance_keys()
        # maxima sorts on these values, so they need a total order; a distance
        # that overflows to inf would tie its summits
        if not np.isfinite(np.concatenate([altitudes, np.ravel(ref), nearness])).all():
            raise NonFiniteError("altitudes, the reference and the distances to it must be finite")

    def __len__(self) -> int:
        return len(self.summits)

    def distance_keys(self) -> np.ndarray:
        """Nearness to the reference, one float per summit, compared exactly:
        (x - rx)**2 + (y - ry)**2 in the plane, |s - ref| on the real line."""
        s = np.array(self.summits, dtype=float)
        if self.space == EUCLIDEAN_2D:
            rx, ry = self.reference
            s = s.reshape(-1, 2)
            return (s[:, 0] - rx) ** 2 + (s[:, 1] - ry) ** 2
        return np.abs(s - self.reference)


def _keys(field: SummitField) -> np.ndarray:
    """(summits, 2) key matrix, larger better: altitude and -distance key."""
    return np.column_stack([np.array(field.altitudes, dtype=float), -field.distance_keys()])


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
    if len(times) != len(altitudes):
        raise DimensionError(f"{len(times)} times for {len(altitudes)} altitudes")
    keys = np.column_stack([np.array(altitudes, dtype=float), -np.array(times, dtype=float)])
    return frozenset(np.flatnonzero(maxima(keys)).tolist())


def record_events_field(field: SummitField) -> frozenset[int]:
    """record_events over a real-line field; summits are event times."""
    if field.space == EUCLIDEAN_2D:
        raise SpaceKindError("record events need a real-line space")
    return record_events(field.summits, field.altitudes)
