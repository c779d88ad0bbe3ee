import math
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altiset.dependence import (
    PointSet2D,
    decreasingness_index,
    epsilon,
    increasing_decomposition,
    increasingness_index,
)
from altiset.errors import DegenerateInputError, DimensionError, InjectivityError, NonFiniteError
from altiset.layers import upper_layers
from altiset.relation import FiniteRelation, Universe, union

from reference import is_increasing_set, minimal_increasing_cover_bruteforce


def pts(*pairs):
    return PointSet2D(tuple(pairs))


def pts_array(*pairs):
    return PointSet2D(np.array(pairs, dtype=np.float64))


def random_points(rng, n, lattice=None):
    lattice = lattice or max(3, n)
    chosen = set()
    while len(chosen) < n:
        chosen.add((rng.randint(0, lattice), rng.randint(0, lattice)))
    return PointSet2D(tuple((float(x), float(y)) for x, y in chosen))


INC5 = pts((1, 1), (2, 2), (3, 3), (4, 4), (5, 5))
DEC5 = pts((1, 5), (2, 4), (3, 3), (4, 2), (5, 1))
MIXED = pts((1, 1), (2, 3), (3, 2), (4, 4))


class TestIndices:
    def test_increasing_staircase(self):
        assert increasingness_index(INC5) == 1
        assert decreasingness_index(INC5) == 5

    def test_decreasing_staircase(self):
        assert increasingness_index(DEC5) == 5
        assert decreasingness_index(DEC5) == 1

    def test_mixed_example(self):
        assert increasingness_index(MIXED) == 2
        assert decreasingness_index(MIXED) == 3

    @pytest.mark.parametrize("make", [pts, pts_array], ids=["tuples", "array"])
    def test_duplicate_points_rejected(self, make):
        with pytest.raises(InjectivityError):
            make((1, 1), (1, 1))
        # the error names both rows of the least duplicated point; -0.0 == 0.0
        with pytest.raises(InjectivityError, match=r"rows 1 and 3 are both \(1\.0, 1\.0\)$"):
            make((2, 2), (1, 1), (2, 2), (1, 1))
        with pytest.raises(InjectivityError, match=r"rows 0 and 2 are both \(0\.0, 1\.0\)$"):
            make((0.0, 1), (3, 1), (-0.0, 1))

    def test_constructor_copies_an_array(self):
        xy = np.array([[1.0, 2.0], [3.0, 1.0]])
        points = PointSet2D(xy)
        xy[0, 0] = 9.0  # the caller's array stays writable, and the model keeps its copy
        assert not points.xy.flags.writeable
        assert points == pts((1, 2), (3, 1)) and hash(points) == hash(pts((1, 2), (3, 1)))
        assert points.points == ((1.0, 2.0), (3.0, 1.0))

    @pytest.mark.parametrize("points", [(), np.empty((0, 2))], ids=["tuples", "array"])
    def test_empty_point_set(self, points):
        assert PointSet2D(points).xy.shape == (0, 2)

    @pytest.mark.parametrize("shape", [(2, 3), (2,), (2, 2, 1)])
    def test_wrong_shape_is_a_dimension_error(self, shape):
        got = re.escape(str(shape))
        with pytest.raises(DimensionError, match=rf"points must be an \(n, 2\) array, got shape {got}$"):
            PointSet2D(np.zeros(shape))

    def test_ragged_rows_are_a_dimension_error(self):
        # a cell float() rejects is not a shape fault, and keeps float()'s own error
        with pytest.raises(DimensionError, match=r"points must be an \(n, 2\) array, got rows of unequal length$"):
            PointSet2D([(0, 0), (1, 1, 3)])
        with pytest.raises(DimensionError, match="got rows of unequal length$"):  # not even as objects
            PointSet2D([np.zeros((2, 2)), np.zeros((2, 3))])
        with pytest.raises(ValueError, match="could not convert string to float: 'x'") as caught:
            PointSet2D([(0, 0), (1, "x")])
        assert not isinstance(caught.value, DimensionError)

    @pytest.mark.parametrize("value", [
        2**53 + 1, 2**64 + 3, Decimal("0.1"), Fraction(1, 3), " 2 ", "1_000", "\u0661", True,
        np.float32(0.1),
    ])
    def test_coordinates_convert_as_float_does(self, value):
        assert PointSet2D(((value, -1), (0, 0))).points[0] == (float(value), -1.0)

    @pytest.mark.parametrize("make", [pts, pts_array], ids=["tuples", "array"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad, make):
        with pytest.raises(NonFiniteError, match=rf"points must be finite, got \({bad}, 2\.0\) in row 1$"):
            make((1, 1), (bad, 2))
        with pytest.raises(NonFiniteError, match=rf"points must be finite, got \(1\.0, {bad}\) in row 0$"):
            make((1, bad))

    def test_shared_x_splits_increasing_blocks(self):
        # vertical pair can never lie in one increasing set
        assert increasingness_index(pts((1, 1), (1, 2))) == 2

    def test_matches_exhaustive_partition_oracle(self, rng):
        for _ in range(150):
            s = random_points(rng, rng.randint(1, 8))
            assert increasingness_index(s) == minimal_increasing_cover_bruteforce(s, True)
            assert decreasingness_index(s) == minimal_increasing_cover_bruteforce(s, False)

    def test_negating_x_swaps_indices(self, rng):
        for _ in range(100):
            s = random_points(rng, rng.randint(2, 8))
            flipped = PointSet2D(tuple((-x, y) for x, y in s.points))
            assert increasingness_index(s) == decreasingness_index(flipped)
            assert decreasingness_index(s) == increasingness_index(flipped)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([60, 2000]))
    def test_negating_x_swaps_indices_at_scale(self, seed, span):
        # 3,000 distinct lattice points; on the 60-wide lattice columns tie
        cells = np.random.default_rng(seed).choice(span * span, 3000, replace=False)
        xy = np.column_stack(np.divmod(cells, span)).astype(float)
        s, flipped = PointSet2D(xy), PointSet2D(xy * [-1.0, 1.0])
        assert increasingness_index(s) == decreasingness_index(flipped)
        assert decreasingness_index(s) == increasingness_index(flipped)

    def test_monotone_transform_invariance(self, rng):
        for _ in range(100):
            s = random_points(rng, rng.randint(2, 8))
            warped = PointSet2D(
                tuple((math.exp(x / 3.0), y**3 + 2 * y) for x, y in s.points)
            )
            assert increasingness_index(s) == increasingness_index(warped)
            assert decreasingness_index(s) == decreasingness_index(warped)

    def test_index_one_iff_strictly_monotone_plot(self, rng):
        for _ in range(100):
            s = random_points(rng, rng.randint(2, 7))
            whole = list(range(len(s)))
            assert (increasingness_index(s) == 1) == is_increasing_set(s, whole)


class TestEpsilon:
    def test_strictly_monotone_staircases(self):
        for n in range(2, 11):
            inc = pts(*((i, i) for i in range(n)))
            dec = pts(*((i, n - i) for i in range(n)))
            assert epsilon(inc) == pytest.approx(1.0, abs=1e-12)
            assert epsilon(dec) == pytest.approx(-1.0, abs=1e-12)

    def test_mixed_example(self):
        assert epsilon(MIXED) == pytest.approx(math.log(3 / 2) / math.log(4), abs=1e-12)

    def test_balanced_indices_give_zero(self):
        # 2x2 grid is symmetric under the diagonal flip: both indices are 3
        square = pts((0, 0), (0, 1), (1, 0), (1, 1))
        assert increasingness_index(square) == decreasingness_index(square) == 3
        assert epsilon(square) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(DegenerateInputError):
            epsilon(pts((1, 1)))
        with pytest.raises(DegenerateInputError, match="point set is empty$"):
            increasingness_index(pts())

    def test_negating_x_negates_epsilon(self, rng):
        for _ in range(50):
            s = random_points(rng, rng.randint(2, 8))
            flipped = PointSet2D(tuple((-x, y) for x, y in s.points))
            assert epsilon(flipped) == pytest.approx(-epsilon(s), abs=1e-12)

    def test_bounds(self, rng):
        for _ in range(100):
            s = random_points(rng, rng.randint(2, 9))
            assert -1.0 - 1e-12 <= epsilon(s) <= 1.0 + 1e-12


class TestDecomposition:
    def test_increasing_staircase_is_one_block(self):
        assert increasing_decomposition(INC5) == [[0, 1, 2, 3, 4]]

    def test_decreasing_staircase_is_singletons(self):
        s = pts((1, 3), (2, 2), (3, 1))
        blocks = increasing_decomposition(s)
        assert sorted(map(len, blocks)) == [1, 1, 1]

    def test_block_count_and_monotonicity(self, rng):
        for _ in range(150):
            s = random_points(rng, rng.randint(1, 8))
            blocks = increasing_decomposition(s)
            assert len(blocks) == increasingness_index(s)
            covered = sorted(i for b in blocks for i in b)
            assert covered == list(range(len(s)))
            for block in blocks:
                assert is_increasing_set(s, block)

    def test_two_point_blocks_match_incomparability(self, rng):
        # a 2-point set is increasing iff neither point dominates the
        # other in the (x descending, y ascending) strict order
        for _ in range(100):
            s = random_points(rng, rng.randint(2, 7))
            n = len(s)
            for i in range(n):
                for j in range(i + 1, n):
                    (xi, yi), (xj, yj) = s.points[i], s.points[j]
                    dom_ij = xi >= xj and yi <= yj and (xi, yi) != (xj, yj)
                    dom_ji = xj >= xi and yj <= yi and (xi, yi) != (xj, yj)
                    incomparable = not (dom_ij or dom_ji)
                    assert incomparable == is_increasing_set(s, [i, j])


def matrix_layers(s: PointSet2D, increasing: bool):
    """Upper layers of <_y union >_x (increasing) or <_y union <_x
    (decreasing), built as explicit n x n relations."""
    universe = Universe(len(s))
    by_x = FiniteRelation.induce(universe, [x for x, _ in s.points])
    by_y = FiniteRelation.induce(universe, [y for _, y in s.points])
    return upper_layers(union([by_y, by_x.inverse() if increasing else by_x]))


class TestAgainstMatrixRoute:
    def test_shared_coordinates_match_the_relation_layers(self, rng):
        for _ in range(300):
            # a small lattice, so that many points share an x or a y
            lattice = rng.randint(1, 6)
            s = random_points(rng, rng.randint(1, min(30, (lattice + 1) ** 2)), lattice)
            inc, dec = matrix_layers(s, True), matrix_layers(s, False)
            assert increasingness_index(s) == inc.class_count
            assert decreasingness_index(s) == dec.class_count
            expected = [sorted(inc.upper_layer(i)) for i in range(1, inc.class_count + 1)]
            assert increasing_decomposition(s) == expected

    def test_memory_stays_below_the_pairwise_matrix(self):
        n = 4000
        xy = np.random.default_rng(3).random((n, 2))
        s = PointSet2D(tuple(map(tuple, xy.tolist())))
        tracemalloc.start()
        try:
            blocks = increasing_decomposition(s)
            minus = decreasingness_index(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(map(len, blocks)) == n and minus >= 1
        assert peak < n * n  # one (n, n) boolean matrix would take n*n bytes
