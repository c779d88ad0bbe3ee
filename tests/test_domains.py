import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altiset.errors import AltisetError, DimensionError, GridError, NonFiniteError, SubsetIndexError
from altiset.domains import (
    GridMeasure,
    ValuationTrace,
    evolve,
    inverse_altiset_mask,
    inverse_altiset_measure,
    voronoi_mu,
)

from conftest import peak_bytes
from reference import inverse_altiset_member


def grid(box=4.0, n=32):
    return GridMeasure(-box, box, -box, box, n, n)


def evolve_oracle(summits, h0, g, max_steps=1000):
    """The definitional iteration: one voronoi_mu call per summit per step,
    excluding exactly the strictly lower summits."""
    n = len(summits)
    current = tuple(float(v) for v in h0)
    trace = [current]
    for _ in range(max_steps):
        nxt = tuple(
            voronoi_mu(x, [y for y in range(n) if current[y] < current[x]], summits, g)
            for x in range(n)
        )
        trace.append(nxt)
        if nxt == current:
            return ValuationTrace(tuple(trace), len(trace) - 2)
        current = nxt
    raise AssertionError(f"oracle did not stop within {max_steps} steps")


def assert_matches_oracle(summits, h0, g):
    trace = evolve(summits, h0, g)
    expected = evolve_oracle(summits, h0, g)
    assert trace.valuations == expected.valuations
    assert trace.stop_index == expected.stop_index
    assert evolve(np.array(summits), np.array(h0), g) == trace  # the array form


def random_field(rng):
    """Summits on a small lattice, some shifted off it, with tie-heavy
    altitudes, and a grid around them."""
    summits = [(x + rng.choice((0.0, rng.random())), y) for x, y in random_summits(rng, rng.randint(1, 9))]
    alts = [float(rng.randint(0, 3)) for _ in summits]
    return summits, alts, GridMeasure.around(summits, nx=rng.randint(1, 20), ny=rng.randint(1, 20))


def sq_dists(g, summits):
    """The whole (summits, cells) matrix of squared distances, with the
    kernels' float operations: the reference the row-at-a-time minima
    must equal."""
    gx, gy = g.centers()
    return np.array([(gx - x) ** 2 + (gy - y) ** 2 for x, y in summits])


def row_bytes(g, rows):
    return rows * g.nx * g.ny * 8


def random_summits(rng, n, span=3):
    chosen = set()
    while len(chosen) < n:
        chosen.add((rng.randint(-span, span), rng.randint(-span, span)))
    return tuple((float(x), float(y)) for x, y in chosen)


class TestGridMeasure:
    def test_cell_area(self):
        g = GridMeasure(0, 1, 0, 2, 10, 10)
        assert g.cell_area == pytest.approx(0.02)
        assert g.box_area == pytest.approx(2.0)

    def test_degenerate_box_rejected(self):
        with pytest.raises(GridError):
            GridMeasure(0, 0, 0, 1, 4, 4)
        with pytest.raises(GridError):
            GridMeasure(0, 1, 0, 1, 0, 4)

    @pytest.mark.parametrize("box", [
        (-math.inf, 1, 0, 1),
        (0, 1, 0, math.inf),
        (-1e308, 1e308, 0, 1),  # finite ends, but the side overflows
        (0, 1e155, 0, 1e155),  # finite sides, but a squared distance overflows
    ])
    def test_infinite_side_rejected(self, box):
        with pytest.raises(GridError, match="finite"):
            GridMeasure(*box, 4, 4)

    def test_around_inflates(self):
        g = GridMeasure.around([(0, 0), (4, 2)], inflate=0.25, nx=8)
        assert (g.xmin, g.xmax) == (-1.0, 5.0)
        assert (g.ymin, g.ymax) == (-0.5, 2.5)

    def test_around_single_point_is_nondegenerate(self):
        g = GridMeasure.around([(3, 3)], nx=4)
        assert g.xmax > g.xmin and g.ymax > g.ymin

    def test_around_takes_an_array(self):
        points = [(0.0, 0.0), (1.0, 1.0)]
        assert GridMeasure.around(np.array(points), nx=4) == GridMeasure.around(points, nx=4)

    @pytest.mark.parametrize("points", [[], np.zeros((0, 2))])
    def test_around_zero_points_is_rejected(self, points):
        with pytest.raises(GridError, match="zero points"):
            GridMeasure.around(points)

    @pytest.mark.parametrize("points,bad", [([(1.0, 1.0), (math.nan, 0.0)], 1),
                                            ([(math.nan, 0.0), (1.0, 1.0)], 0)])
    def test_around_non_finite_point_is_rejected_in_any_order(self, points, bad):
        # Python's min and max skip a NaN that follows a number, and keep a leading one
        with pytest.raises(NonFiniteError, match=rf"summits must be finite, got \(nan, 0\.0\) in row {bad}$"):
            GridMeasure.around(points)

    def test_centers_are_deterministic(self):
        g = grid(n=4)
        gx1, gy1 = g.centers()
        gx2, gy2 = g.centers()
        assert (gx1 == gx2).all() and (gy1 == gy2).all()
        assert len(gx1) == 16


class TestInverseAltiset:
    def test_highest_summit_is_significant_at_its_location(self):
        summits = [(0.0, 0.0), (2.0, 0.0)]
        assert inverse_altiset_member(summits, [5.0, 1.0], 0, (0.0, 0.0))

    def test_lower_and_farther_is_out(self):
        summits = [(3.0, 0.0), (1.0, 0.0)]
        assert not inverse_altiset_member(summits, [1.0, 5.0], 0, (0.0, 0.0))

    def test_matches_pointwise_oracle(self, rng):
        # integer summits and half-integer centers: exact distance ties occur
        g = grid(n=8)
        gx, gy = g.centers()
        for _ in range(30):
            summits = random_summits(rng, rng.randint(1, 5))
            alts = [float(rng.randint(0, 2)) for _ in summits]
            for a in range(len(summits)):
                mask = inverse_altiset_mask(summits, alts, a, g)
                members = [
                    inverse_altiset_member(summits, alts, a, (x, y))
                    for x, y in zip(gx.tolist(), gy.tolist())
                ]
                assert members == mask.tolist()

    def test_single_summit_measures_full_box(self):
        g = grid()
        assert inverse_altiset_measure([(0.0, 0.0)], [1.0], 0, g) == pytest.approx(g.box_area)

    def test_symmetric_equal_twins_split_the_box(self):
        g = GridMeasure(-2, 2, -1, 1, 8, 4)
        summits = [(-1.0, 0.0), (1.0, 0.0)]
        m0 = inverse_altiset_measure(summits, [3.0, 3.0], 0, g)
        m1 = inverse_altiset_measure(summits, [3.0, 3.0], 1, g)
        assert m0 == m1
        assert m0 >= g.box_area / 2 - g.cell_area * g.ny
        assert m0 + m1 <= g.box_area + 2 * g.cell_area * g.ny

    def test_dominated_summit_measures_zero(self):
        # same direction from everywhere, strictly farther and lower
        g = GridMeasure(-1, 1, -1, 1, 16, 16)
        summits = [(5.0, 5.0), (4.0, 4.0)]
        assert inverse_altiset_measure(summits, [1.0, 2.0], 0, g) == 0.0

    def test_matches_the_distance_matrix(self, rng):
        # the two minima taken over row selections of the whole matrix
        for _ in range(60):
            summits, alts, g = random_field(rng)
            sq, h = sq_dists(g, summits), np.array(alts)
            for a in range(len(summits)):
                higher = sq[h > h[a]].min(axis=0, initial=np.inf)
                level = sq[(h == h[a]) & (np.arange(len(h)) != a)].min(axis=0, initial=np.inf)
                expected = (sq[a] < higher) & (sq[a] <= level)
                assert np.array_equal(inverse_altiset_mask(summits, alts, a, g), expected)
                assert np.array_equal(inverse_altiset_mask(np.array(summits), h, a, g), expected)

    @pytest.mark.parametrize("alts", [[1.0], [1.0, 2.0, 3.0]])
    def test_altitudes_must_match_summits(self, alts):
        with pytest.raises(DimensionError):
            inverse_altiset_mask([(0.0, 0.0), (1.0, 0.0)], alts, 0, grid())

    def test_mask_peaks_at_a_few_rows(self, rng):
        # 36 summits of one height: every other summit is a competitor
        summits = random_summits(rng, 36, span=20)
        g = GridMeasure.around(summits, nx=128)
        # the cell centers, the summit's row, a scratch row and the two minima
        assert peak_bytes(inverse_altiset_mask, summits, [1.0] * 36, 0, g) < row_bytes(g, 12)

    def test_membership_monotone_towards_own_summit(self, rng):
        # convexity: significant at x implies significant on sampled
        # points of the segment from x to the summit
        for _ in range(50):
            summits = random_summits(rng, rng.randint(2, 5))
            alts = [float(rng.randint(0, 4)) for _ in summits]
            a = rng.randrange(len(summits))
            x = (rng.uniform(-4, 4), rng.uniform(-4, 4))
            if not inverse_altiset_member(summits, alts, a, x):
                continue
            ax, ay = summits[a]
            for t in (0.25, 0.5, 0.75, 1.0):
                point = (x[0] + t * (ax - x[0]), x[1] + t * (ay - x[1]))
                assert inverse_altiset_member(summits, alts, a, point)


class TestVoronoiMu:
    def test_no_competitors_gives_full_box(self):
        g = grid()
        summits = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
        assert voronoi_mu(0, [1, 2], summits, g) == pytest.approx(g.box_area)

    def test_two_summits_split_halves(self):
        g = GridMeasure(-2, 2, -1, 1, 8, 4)
        summits = [(-1.0, 0.0), (1.0, 0.0)]
        m0 = voronoi_mu(0, [], summits, g)
        m1 = voronoi_mu(1, [], summits, g)
        assert m0 == m1 == pytest.approx(g.box_area / 2)

    def test_x_in_excluded_rejected(self):
        with pytest.raises(AltisetError):
            voronoi_mu(0, [0], [(0.0, 0.0)], grid())

    @pytest.mark.parametrize("excluded,bad,row", [([99, -5], 99, 1), ([1, -5], -5, 2), ([2], 2, 1)])
    def test_excluded_index_out_of_range(self, excluded, bad, row):
        # row 0 is x, the excluded summits follow it
        message = rf"^summit indices must be integers in range\(2\), got {bad} in row {row}$"
        with pytest.raises(SubsetIndexError, match=message):
            voronoi_mu(0, excluded, [(0.0, 0.0), (1.0, 0.0)], GridMeasure(-1, 2, -1, 1, 3, 2))

    def test_monotone_in_excluded_set(self, rng):
        g = grid(n=24)
        for _ in range(200):
            summits = random_summits(rng, rng.randint(2, 6))
            n = len(summits)
            x = rng.randrange(n)
            others = [i for i in range(n) if i != x]
            small = [i for i in others if rng.random() < 0.5]
            extra = [i for i in others if i not in small and rng.random() < 0.5]
            large = small + extra
            assert voronoi_mu(x, small, summits, g) <= voronoi_mu(x, large, summits, g)

    def test_matches_the_distance_matrix(self, rng):
        for _ in range(60):
            summits, _, g = random_field(rng)
            sq = sq_dists(g, summits)
            for x in range(len(summits)):
                excluded = [b for b in range(len(summits)) if b != x and rng.random() < 0.4]
                others = [b for b in range(len(summits)) if b != x and b not in excluded]
                expected = g.cell_area * int(np.all(sq[others] >= sq[x], axis=0).sum())
                assert voronoi_mu(x, excluded, summits, g) == expected
                assert voronoi_mu(x, np.array(excluded, dtype=int), np.array(summits), g) == expected

    def test_peaks_at_a_few_rows(self, rng):
        summits = random_summits(rng, 36, span=20)
        g = GridMeasure.around(summits, nx=128)
        assert peak_bytes(voronoi_mu, 0, [], summits, g) < row_bytes(g, 12)

    def test_tie_cells_count_for_both(self):
        # centers on the bisector are weakly closer to both summits
        g = GridMeasure(-1, 1, -1, 1, 3, 1)
        summits = [(-1.0, 0.0), (1.0, 0.0)]
        m0 = voronoi_mu(0, [], summits, g)
        m1 = voronoi_mu(1, [], summits, g)
        assert m0 + m1 > g.box_area  # middle cell counted twice


class TestEvolve:
    def test_single_summit_stops_at_one(self):
        g = grid()
        trace = evolve([(0.0, 0.0)], [7.0], g)
        assert trace.stop_index == 1
        assert trace.final == (pytest.approx(g.box_area),)

    def test_symmetric_pair_with_equal_start(self):
        g = GridMeasure(-2, 2, -1, 1, 8, 4)
        trace = evolve([(-1.0, 0.0), (1.0, 0.0)], [1.0, 1.0], g)
        assert trace.stop_index == 1
        assert trace.final[0] == trace.final[1] == pytest.approx(g.box_area / 2)

    def test_already_fixed_point_stops_at_zero(self):
        g = grid()
        first = evolve([(0.0, 0.0)], [5.0], g)
        again = evolve([(0.0, 0.0)], list(first.final), g)
        assert again.stop_index == 0

    def test_random_fields_stop_and_stay(self, rng):
        g = GridMeasure(-4, 4, -4, 4, 64, 64)
        for _ in range(15):
            summits = random_summits(rng, rng.randint(2, 4))
            h0 = [float(rng.randint(0, 5)) for _ in summits]
            trace = evolve(summits, h0, g, max_steps=1000)
            k = trace.stop_index
            assert trace.valuations[k] == trace.valuations[k + 1]
            rerun = evolve(summits, list(trace.final), g)
            assert rerun.stop_index == 0
            assert rerun.final == trace.final

    def test_constant_start_mu_sum_covers_box(self, rng):
        g = grid(n=24)
        for _ in range(30):
            summits = random_summits(rng, rng.randint(1, 5))
            total = sum(voronoi_mu(x, [], summits, g) for x in range(len(summits)))
            assert total >= g.box_area - 1e-9

    def test_peaks_at_a_few_rows(self, rng):
        summits = random_summits(rng, 36, span=20)
        h0 = [float(rng.randint(0, 5)) for _ in summits]
        g = GridMeasure.around(summits, nx=128)
        # the cell centers, the running minimum and one `_nearest` call's three rows
        assert peak_bytes(evolve, summits, h0, g) < row_bytes(g, 12)

    def test_step_limit_raises(self):
        # h0 (1, 1, 2) needs two steps: one to move, one to confirm
        g = GridMeasure(-1.5, 1.5, -0.25, 1.25, 16, 16)
        summits = [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        assert evolve(summits, [1.0, 1.0, 2.0], g).stop_index == 1
        with pytest.raises(AltisetError, match="did not stop within 1 steps"):
            evolve(summits, [1.0, 1.0, 2.0], g, max_steps=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_valuation_rejected(self, bad):
        with pytest.raises(NonFiniteError, match=rf"initial valuation must be finite, got {bad} in row 1$"):
            evolve([(0.0, 0.0), (1.0, 0.0)], [1.0, bad], grid())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_summit_rejected(self, bad):
        with pytest.raises(NonFiniteError, match=rf"summits must be finite, got \({bad}, 0\.0\) in row 1$"):
            evolve([(0.0, 0.0), (bad, 0.0)], [1.0, 2.0], grid())


class TestInputChecks:
    """The domain functions check their inputs in one way."""

    KERNELS = {
        "mask": lambda summits, alts, a: inverse_altiset_mask(summits, alts, a, grid()),
        "member": lambda summits, alts, a: inverse_altiset_member(summits, alts, a, (0.5, 0.5)),
        "voronoi_mu": lambda summits, alts, a: voronoi_mu(a, [], summits, grid()),
    }

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("a", [-1, 2])
    def test_summit_index_out_of_range(self, kernel, a):
        with pytest.raises(SubsetIndexError, match=rf"^summit indices must be integers in range\(2\), got {a} in row 0$"):
            self.KERNELS[kernel]([(0.0, 0.0), (1.0, 0.0)], [1.0, 2.0], a)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("summit,coordinate", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("form", [list, np.array])
    def test_non_finite_coordinate(self, kernel, bad, summit, coordinate, form):
        summits = [[0.0, 0.0], [1.0, 0.0]]
        summits[summit][coordinate] = bad
        got = re.escape(str(tuple(summits[summit])))
        with pytest.raises(NonFiniteError, match=rf"summits must be finite, got {got} in row {summit}$"):
            self.KERNELS[kernel](form(summits), [1.0, 2.0], 0)

    @pytest.mark.parametrize("summits,message", [
        ([(0, 0, 5), (1, 1, 9)], r"summits must be an \(n, 2\) array, got shape \(2, 3\)$"),
        (np.zeros((2, 1, 2)), r"summits must be an \(n, 2\) array, got shape \(2, 1, 2\)$"),
        ([0.0, 1.0], r"summits must be an \(n, 2\) array, got shape \(2,\)$"),
        ([(0, 0), (1, 1, 3)], r"summits must be an \(n, 2\) array, got rows of unequal length$"),
    ], ids=["three-columns", "three-axes", "flat", "ragged"])
    @pytest.mark.parametrize("kernel", [*KERNELS, "around", "evolve"])
    def test_summits_must_be_an_n_by_2_array(self, kernel, summits, message):
        run = {
            **{k: lambda f=f: f(summits, [1.0, 2.0], 0) for k, f in self.KERNELS.items()},
            "around": lambda: GridMeasure.around(summits),
            "evolve": lambda: evolve(summits, [1.0, 2.0], grid()),
        }[kernel]
        with pytest.raises(DimensionError, match=message):
            run()

    @pytest.mark.parametrize("kernel", ["mask", "member"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_altitude(self, kernel, bad):
        with pytest.raises(NonFiniteError, match=rf"altitudes must be finite, got {bad} in row 1$"):
            self.KERNELS[kernel]([(0.0, 0.0), (1.0, 0.0)], [1.0, bad], 0)

    @pytest.mark.parametrize("x,shape", [("00", r"\(1,\)"), ((0, 0, 5), r"\(1, 3\)"), ((5,), r"\(1, 1\)")],
                             ids=["string", "three-coordinates", "one-coordinate"])
    def test_reference_must_be_one_planar_point(self, x, shape):
        with pytest.raises(DimensionError, match=rf"reference must be an \(n, 2\) array, got shape {shape}$"):
            inverse_altiset_member([(0.0, 0.0), (1.0, 0.0)], [1.0, 2.0], 0, x)


class TestEvolveMatchesOracle:
    """The running-minimum evolve against one voronoi_mu call per summit."""

    @pytest.mark.parametrize("nx,ny", [(16, 16), (24, 16), (32, 32)])
    def test_tie_heavy_fields(self, nx, ny):
        rng = random.Random(nx * 100 + ny)
        for n in (1, 2, 5, 13, 30, 60):
            span = max(2, n // 6)  # a small lattice, so some summits coincide
            summits = tuple(
                (float(rng.randint(-span, span)), float(rng.randint(-span, span)))
                for _ in range(n)
            )
            h0 = [float(rng.randint(0, 3)) for _ in range(n)]
            assert_matches_oracle(summits, h0, GridMeasure.around(summits, nx=nx, ny=ny))

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_all_equal_start(self, n):
        rng = random.Random(n)
        summits = tuple((rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n))
        assert_matches_oracle(summits, [1.0] * n, GridMeasure.around(summits, nx=24, ny=16))

    def test_duplicate_summits(self):
        rng = random.Random(3)
        base = [(float(rng.randint(-3, 3)), float(rng.randint(-3, 3))) for _ in range(8)]
        summits = tuple(base + base[:5] + base[:2])
        h0 = [float(rng.randint(0, 2)) for _ in summits]
        assert_matches_oracle(summits, h0, GridMeasure.around(summits, nx=16, ny=16))
        assert_matches_oracle(summits, [0.0] * len(summits), GridMeasure.around(summits, nx=16))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 3)),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([(8, 8), (16, 8), (12, 12)]),
    )
    def test_property(self, rows, shape):
        summits = tuple((float(x), float(y)) for x, y, _ in rows)
        h0 = [float(h) for _, _, h in rows]
        assert_matches_oracle(summits, h0, GridMeasure.around(summits, nx=shape[0], ny=shape[1]))


class TestEvolvePermutation:
    """Relabelling the summits relabels the evolution: no oracle needed."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3)),
            min_size=1,
            max_size=16,
        ).flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(range(len(rows))))),
        st.tuples(st.integers(1, 32), st.integers(1, 32)),
    )
    def test_permuting_summits_permutes_valuations(self, drawn, shape):
        rows, perm = drawn
        summits = [(float(x), float(y)) for x, y, _ in rows]
        h0 = [float(h) for _, _, h in rows]
        g = GridMeasure.around(summits, nx=shape[0], ny=shape[1])
        trace = evolve(summits, h0, g)
        moved = evolve([summits[i] for i in perm], [h0[i] for i in perm], g)
        assert moved.stop_index == trace.stop_index
        assert moved.valuations == tuple(tuple(h[i] for i in perm) for h in trace.valuations)
