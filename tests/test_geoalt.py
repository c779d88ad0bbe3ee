import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altiset.errors import DimensionError, NonFiniteError, SpaceKindError
from altiset.geoalt import (
    EUCLIDEAN_2D,
    REAL_LINE,
    REAL_LINE_LEFT,
    SummitField,
    geo_altiset_oracle,
    record_events,
    record_events_field,
    skyline_circular,
    skyline_contour,
    skyline_recursive,
)

from altiset.orders import GAIN, PRICE, KeyedOrder, OrderSystem
from altiset.relation import Universe

from conftest import random_field
from reference import altiset_bruteforce, inverse_altiset_member, system_union


def float_array(values):
    return np.array(values, dtype=np.float64)


def definitional(altitudes, nearness) -> frozenset:
    """Altiset of the union of the altitude (gain) and nearness (price) orders."""
    orders = (KeyedOrder(tuple(altitudes), GAIN), KeyedOrder(tuple(nearness), PRICE))
    return altiset_bruteforce(system_union(OrderSystem(Universe(len(altitudes)), orders)))


def field_altiset(f: SummitField) -> frozenset:
    """The definitional altiset under the exact tie rule, nearness computed
    here: the squared distance in the plane, |s - ref| on the real line."""
    if f.space == EUCLIDEAN_2D:
        rx, ry = f.reference
        nearness = [(x - rx) ** 2 + (y - ry) ** 2 for x, y in f.summits]
    else:
        nearness = [abs(s - f.reference) for s in f.summits]
    return definitional(f.altitudes, nearness)


def assert_every_route(f: SummitField) -> None:
    expected = field_altiset(f)
    assert geo_altiset_oracle(f) == expected
    assert skyline_circular(f) == expected
    assert skyline_contour(f) == expected
    for block_size in range(1, len(f) + 2):
        assert skyline_recursive(f, block_size) == expected
    if f.space == EUCLIDEAN_2D:
        for a in range(len(f)):
            assert inverse_altiset_member(f.summits, f.altitudes, a, f.reference) == (a in expected)


# near-ties 0.6e-9 apart (inside the old 1e-9 tolerance) and repeated values
NEAR = st.sampled_from([-1.0, 0.0, 1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9, 2.0])
HEIGHT = st.sampled_from([0.0, 1.0, 2.0, 3.0])


@st.composite
def tie_fields(draw):
    n = draw(st.integers(0, 9))
    altitudes = draw(st.lists(HEIGHT, min_size=n, max_size=n))
    if draw(st.booleans()):
        summits = draw(st.lists(st.tuples(NEAR, NEAR), min_size=n, max_size=n))
        return SummitField(EUCLIDEAN_2D, summits, altitudes, draw(st.tuples(NEAR, NEAR)))
    summits = draw(st.lists(NEAR, min_size=n, max_size=n))
    return SummitField(REAL_LINE, summits, altitudes, draw(NEAR))


class TestExactTies:
    def test_near_tie_reproducer(self):
        # 0.6e-9 apart: a 1e-9 tolerance tied 0~1 and 1~2 but not 0~2
        f = line_field([1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9], [1.0, 2.0, 3.0])
        assert field_altiset(f) == {0, 1, 2}
        assert_every_route(f)
        assert record_events(f.summits, f.altitudes) == {0, 1, 2}
        planar = SummitField(EUCLIDEAN_2D, [(s, 0.0) for s in f.summits], f.altitudes, (0.0, 0.0))
        assert_every_route(planar)

    @settings(max_examples=300, deadline=None)
    @given(tie_fields())
    def test_every_route_matches_definitional_altiset(self, f):
        assert_every_route(f)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(NEAR, HEIGHT), max_size=10))
    def test_records_match_definitional_altiset(self, events):
        times = [t for t, _ in events]
        alts = [h for _, h in events]
        assert record_events(times, alts) == definitional(alts, times)

    @pytest.mark.parametrize("form", [list, float_array], ids=["lists", "arrays"])
    @pytest.mark.parametrize("summits,altitudes,ref", [
        ([(0.0, math.nan)], [1.0], (0.0, 0.0)),
        ([(0.0, 0.0)], [math.inf], (0.0, 0.0)),
        ([(0.0, 0.0)], [1.0], (-math.inf, 0.0)),
    ])
    def test_non_finite_field_is_rejected(self, summits, altitudes, ref, form):
        with pytest.raises(NonFiniteError):
            SummitField(EUCLIDEAN_2D, form(summits), form(altitudes), ref)
        with pytest.raises(NonFiniteError):
            SummitField(REAL_LINE, form([s[1] for s in summits]), form(altitudes), ref[0])

    @pytest.mark.parametrize("form", [list, float_array], ids=["lists", "arrays"])
    def test_overflowing_distance_is_rejected(self, form):
        # the squared distances would both be inf, a false tie
        # the error names the first summit whose distance overflows
        summits = [(1.0, 0.0), (1e200, 0.0), (2e200, 0.0)]
        with pytest.raises(NonFiniteError, match="distances to the reference must be finite, got inf in row 1$"):
            SummitField(EUCLIDEAN_2D, form(summits), form([1.0, 1.0, 1.0]), (0.0, 0.0))
        with pytest.raises(NonFiniteError, match="distances to the reference must be finite, got inf in row 0$"):
            line_field(form([1e308]), form([1.0]), ref=-1e308)

    def test_constructor_copies_the_arrays(self):
        coords, heights = np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([3.0, 4.0])
        field = SummitField(EUCLIDEAN_2D, coords, heights, (0, 0))
        coords[1], heights[1] = (5.0, 5.0), 9.0  # the caller's arrays stay writable
        assert not (field.coords.flags.writeable or field.heights.flags.writeable)
        assert field.summits == ((0.0, 0.0), (1.0, 2.0)) and field.altitudes == (3.0, 4.0)
        assert field == SummitField(EUCLIDEAN_2D, [(0, 0), (1, 2)], [3, 4], (0, 0))
        assert hash(field) == hash(SummitField(EUCLIDEAN_2D, [(0, 0), (1, 2)], [3, 4], (0, 0)))

    @pytest.mark.parametrize("space", [EUCLIDEAN_2D, REAL_LINE])
    @pytest.mark.parametrize("form", [list, float_array], ids=["lists", "arrays"])
    def test_empty_field(self, space, form):
        field = SummitField(space, form([]), form([]), (0.0, 0.0) if space == EUCLIDEAN_2D else 0.0)
        assert len(field) == 0 and field.coords.shape == ((0, 2) if space == EUCLIDEAN_2D else (0,))

    @pytest.mark.parametrize("space,coords,heights,message", [
        (EUCLIDEAN_2D, np.zeros((2, 3)), np.zeros(2), r"summits must be an \(n, 2\) array, got shape \(2, 3\)$"),
        (REAL_LINE, np.zeros((2, 2)), np.zeros(2), r"summits must be an \(n,\) array, got shape \(2, 2\)$"),
        (REAL_LINE, np.zeros(2), np.zeros((2, 1)), r"altitudes must be an \(n,\) array, got shape \(2, 1\)$"),
        (EUCLIDEAN_2D, [(0, 0), (1, 1, 3)], np.zeros(2),
         r"summits must be an \(n, 2\) array, got rows of unequal length$"),
        (EUCLIDEAN_2D, np.zeros((2, 2)), np.zeros(3), r"3 altitudes for 2 summits$"),
    ], ids=["plane-summits-n-by-3", "line-summits-n-by-2", "altitudes-2d", "plane-summits-ragged",
            "three-altitudes-for-two-summits"])
    def test_wrong_shape_is_a_dimension_error(self, space, coords, heights, message):
        with pytest.raises(DimensionError, match=message):
            SummitField(space, coords, heights, (0.0, 0.0) if space == EUCLIDEAN_2D else 0.0)

    @pytest.mark.parametrize("space,ref,message", [
        (EUCLIDEAN_2D, "00", r"\(n, 2\) array, got shape \(1,\)$"),
        (EUCLIDEAN_2D, (0, 0, 5), r"\(n, 2\) array, got shape \(1, 3\)$"),
        (EUCLIDEAN_2D, (5,), r"\(n, 2\) array, got shape \(1, 1\)$"),
        (REAL_LINE, (0, 0), r"\(n,\) array, got shape \(1, 2\)$"),
    ], ids=["plane-string", "plane-three-coordinates", "plane-one-coordinate", "line-pair"])
    def test_reference_is_one_point_of_the_space(self, space, ref, message):
        summits = [(0.0, 0.0)] if space == EUCLIDEAN_2D else [0.0]
        with pytest.raises(DimensionError, match="reference must be an " + message):
            SummitField(space, summits, [1.0], ref)

    def test_unknown_space_kind(self):
        with pytest.raises(SpaceKindError, match="unknown space kind 'sphere'$"):
            SummitField("sphere", [0.0], [1.0], 0.0)

    def test_nan_event_is_rejected(self):
        with pytest.raises(NonFiniteError, match="times must be finite, got nan in row 1$"):
            record_events([1.0, math.nan], [1.0, 2.0])

    @pytest.mark.parametrize("times,altitudes,error,message", [
        ([1.0, 2.0], [math.inf, 2.0], NonFiniteError, r"altitudes must be finite, got inf in row 0$"),
        ([[1, 2], [3, 4]], [1, 2], DimensionError, r"times must be an \(n,\) array, got shape \(2, 2\)$"),
        ([1, [2, 3]], [1, 2], DimensionError, r"times must be an \(n,\) array, got rows of unequal length$"),
        ([1, 2, 3], [1, 2], DimensionError, r"3 times for 2 altitudes$"),
    ], ids=["infinite-altitude", "2-d-times", "ragged-times", "three-times-for-two-altitudes"])
    def test_bad_events_are_rejected(self, times, altitudes, error, message):
        with pytest.raises(error, match=message):
            record_events(times, altitudes)


def line_field(positions, altitudes, ref=0.0):
    return SummitField(REAL_LINE, positions, altitudes, ref)


class TestOracle:
    def test_single_summit(self):
        assert geo_altiset_oracle(line_field([3.0], [7.0])) == {0}

    def test_strict_domination(self):
        f = line_field([2.0, 1.0], [5.0, 9.0])  # summit 1 higher and closer
        assert geo_altiset_oracle(f) == {1}

    def test_three_summits(self):
        f = line_field([1.0, 2.0, 3.0], [10.0, 30.0, 20.0])
        assert geo_altiset_oracle(f) == {0, 1}

    def test_equal_twins_survive_together(self):
        f = line_field([1.0, 1.0, 2.0], [5.0, 5.0, 9.0])
        chosen = geo_altiset_oracle(f)
        assert (0 in chosen) == (1 in chosen)

    def test_rescaling_invariance(self, rng):
        for _ in range(50):
            f = random_field(rng, rng.randint(1, 30))
            base = geo_altiset_oracle(f)
            warped = SummitField(
                f.space,
                f.summits,
                tuple(math.atan(h) for h in f.altitudes),
                f.reference,
            )
            assert geo_altiset_oracle(warped) == base

    def test_overcharge(self, rng):
        for _ in range(50):
            f = random_field(rng, rng.randint(1, 30))
            d = f.distance_keys()
            h = f.altitudes
            chosen = geo_altiset_oracle(f)
            assert chosen
            for a in set(range(len(f))) - chosen:
                assert any(
                    h[v] >= h[a] and d[v] <= d[a] and (h[v] > h[a] or d[v] < d[a])
                    for v in chosen
                )


class TestSweeps:
    def test_equal_distance_field_is_argmax_altitude(self):
        f = line_field([2.0, -2.0, 2.0], [4.0, 9.0, 9.0])
        expected = {1, 2}
        assert skyline_circular(f) == expected
        assert skyline_contour(f) == expected
        assert geo_altiset_oracle(f) == expected

    def test_chain_field_keeps_everything(self):
        f = line_field([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert skyline_circular(f) == {0, 1, 2}
        assert skyline_contour(f) == {0, 1, 2}

    def test_sweeps_match_oracle(self, rng):
        for _ in range(300):
            f = random_field(rng, rng.randint(1, 40))
            expected = geo_altiset_oracle(f)
            assert skyline_circular(f) == expected
            assert skyline_contour(f) == expected

    def test_sweeps_match_oracle_without_ties(self, rng):
        for _ in range(100):
            f = random_field(rng, rng.randint(1, 40), with_ties=False)
            expected = geo_altiset_oracle(f)
            assert skyline_circular(f) == expected
            assert skyline_contour(f) == expected


class TestRecursive:
    def test_single_block(self, rng):
        f = random_field(rng, 20)
        assert skyline_recursive(f, 100) == geo_altiset_oracle(f)

    def test_singleton_blocks(self, rng):
        f = random_field(rng, 20)
        assert skyline_recursive(f, 1) == geo_altiset_oracle(f)

    def test_random_block_sizes(self, rng):
        for _ in range(200):
            f = random_field(rng, rng.randint(1, 40))
            bs = rng.randint(1, 12)
            assert skyline_recursive(f, bs) == geo_altiset_oracle(f)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.booleans())
    def test_every_block_size_on_lattice_fields(self, seed, n, steep):
        # integer lattice summits tie in distance; steep fields rise in altitude
        # with distance, in steps, so the nearest of each step is on the skyline
        r, span = np.random.default_rng(seed), max(3, n // 4)
        xy = r.integers(-span, span + 1, (n, 2)).astype(float)
        if steep:
            heights = np.floor((xy**2).sum(axis=1) / span)
        else:
            heights = r.integers(0, span + 1, n).astype(float)
        f = SummitField(EUCLIDEAN_2D, xy, heights, (0.0, 0.0))
        expected = geo_altiset_oracle(f)
        for block_size in range(1, n + 2):
            assert skyline_recursive(f, block_size) == expected

    def test_bad_block_size(self, rng):
        with pytest.raises(DimensionError):
            skyline_recursive(random_field(rng, 3), 0)


class TestRecordEvents:
    def test_increasing_history_is_all_records(self):
        assert record_events([1, 2, 3], [1, 2, 3]) == {0, 1, 2}

    def test_decreasing_history_keeps_first(self):
        assert record_events([1, 2, 3], [3, 2, 1]) == {0}

    def test_mixed_history(self):
        assert record_events([0, 1, 2, 3], [1, 3, 2, 5]) == {0, 1, 3}

    def test_matches_definitional_altiset(self, rng):
        for _ in range(200):
            n = rng.randint(1, 25)
            times = [float(rng.randint(0, n)) for _ in range(n)]
            alts = [float(rng.randint(0, 5)) for _ in range(n)]
            got = record_events(times, alts)
            expected = set()
            for a in range(n):
                if not any(
                    b != a
                    and alts[b] >= alts[a]
                    and times[b] <= times[a]
                    and (alts[b] > alts[a] or times[b] < times[a])
                    for b in range(n)
                ):
                    expected.add(a)
            assert got == expected

    def test_field_wrapper_requires_real_line(self, rng):
        with pytest.raises(SpaceKindError):
            record_events_field(random_field(rng, 3))

    def test_left_restricted_space_checks_reference(self):
        with pytest.raises(SpaceKindError):
            SummitField(REAL_LINE_LEFT, [1.0, 5.0], [1.0, 2.0], 3.0)
        f = SummitField(REAL_LINE_LEFT, [1.0, 2.0], [1.0, 2.0], 3.0)
        assert record_events_field(f) == {0, 1}
