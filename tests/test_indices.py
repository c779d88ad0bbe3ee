"""The index rule: every array of element indices goes through `errors.index_array`."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altiset.collective import SubsetFamily, ValuedGroundSet
from altiset.domains import GridMeasure, inverse_altiset_measure, inverse_altiset_mask, voronoi_mu
from altiset.errors import AltisetError, SubsetIndexError, index_array
from altiset.orders import GAIN, KeyedOrder, OrderSystem, altiset_of_system, decompose_altiset, quotient
from altiset.relation import FiniteRelation, Universe


def python_rule(values, size, width):
    """The rule cell by cell: each cell as operator.index reads it, below
    size, in rows of `width` cells; the index of the first bad row, or the
    rows themselves."""
    out = []
    for row, cells in enumerate(values):
        try:
            ints = [operator.index(c) for c in (cells if width else [cells])]
        except TypeError:
            return row
        if len(ints) != (width or 1) or not all(0 <= i < size for i in ints):
            return row
        out.append(ints if width else ints[0])
    return out


CELLS = st.one_of(
    st.integers(-3, 8),
    st.integers(-3, 8).map(np.int64),
    st.integers(0, 8).map(np.uint8),
    st.booleans(),
    st.floats(-3, 8),
    st.sampled_from(["1", "x", ""]),
    st.sampled_from([2**63, 2**64, -(2**70)]),
)


class TestIndexArray:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 8), st.sampled_from([0, 2]), st.data())
    def test_matches_the_python_rule(self, size, width, data):
        row = st.tuples(CELLS, CELLS) if width else CELLS
        values = data.draw(st.lists(row, max_size=6))
        expected = python_rule(values, size, width)
        if isinstance(expected, int):
            with pytest.raises(SubsetIndexError, match=rf"^cells must be integers in range\({size}\), got .* in row {expected}$"):
                index_array(values, size, "cells", width)
        else:
            got = index_array(values, size, "cells", width)
            assert got.dtype == np.intp and got.shape == ((len(values), width) if width else (len(values),))
            assert got.tolist() == expected

    @pytest.mark.parametrize("values,expected", [
        ([0, 2, 1], [0, 2, 1]), ((0, 2, 1), [0, 2, 1]), (iter([0, 2, 1]), [0, 2, 1]),
        (np.array([0, 2, 1]), [0, 2, 1]), (np.array([0, 2, 1], dtype=np.uint8), [0, 2, 1]),
        (range(0, 3), [0, 1, 2]), ([], []),
    ])
    def test_any_iterable_of_integers(self, values, expected):
        got = index_array(values, 3, "subset")
        assert got.dtype == np.intp and got.tolist() == expected

    def test_returns_a_new_array(self):
        a = np.array([0, 1], dtype=np.intp)
        index_array(a, 2, "subset")[0] = 1
        assert a.tolist() == [0, 1]

    @pytest.mark.parametrize("values,width,shown,row", [
        ([0, 5], 0, "5", 1),
        ([0.5, 2], 0, "0.5", 0),
        ([2, "1"], 0, "'1'", 1),
        ([2**70], 0, "1180591620717411303424", 0),
        ([[0, 1]], 0, r"\[0, 1\]", 0),
        ([(0, 1), (0.5, 1)], 2, r"\(0.5, 1\)", 1),
        ([(0, 1, 2)], 2, r"\(0, 1, 2\)", 0),
        ([(0, 1), (2,)], 2, r"\(2,\)", 1),
        ([5], 2, "5", 0),
        (np.array([[0, 1], [1, -1], [5, 5]]), 2, r"\[1, -1\]", 1),
    ])
    def test_names_the_first_bad_row(self, values, width, shown, row):
        with pytest.raises(SubsetIndexError, match=rf"^xs must be integers in range\(3\), got {shown} in row {row}$"):
            index_array(values, 3, "xs", width)


def family():
    ground = ValuedGroundSet(("a", "b", "c"), {"a": 1, "b": 2, "c": 3})
    return SubsetFamily(ground, [["a"], ["b"], ["a", "c"]])


def system():
    return OrderSystem(Universe(3), (KeyedOrder((3, 1, 2), GAIN),))


GRID = GridMeasure(-1, 2, -1, 1, 3, 2)
SUMMITS = [(0.0, 0.0), (1.0, 0.0)]
REL = FiniteRelation.from_pairs(Universe(3), [(0, 1), (1, 2)])


class TestCallers:
    """Each call gave an answer or a bare numpy error before it took the rule."""

    @pytest.mark.parametrize("call,shown", [
        (lambda: REL.altiset([0.5, 2]), "0.5"),
        (lambda: REL.restrict([0.5, 2]), "0.5"),
        (lambda: REL.altiset(["1"]), "'1'"),
        (lambda: REL.altiset([np.float64(2.0)]), r"np.float64\(2.0\)"),
        (lambda: quotient(system(), [0.5, 2]), "0.5"),
        (lambda: altiset_of_system(system(), [0.5, 2]), "0.5"),
        (lambda: decompose_altiset(system(), [[0.5], [2]]), "0.5"),
        (lambda: FiniteRelation.from_pairs(Universe(3), [(0.5, 1)]), r"\(0.5, 1\)"),
        (lambda: FiniteRelation.from_pairs(Universe(3), [(0, "1")]), r"\(0, '1'\)"),
        (lambda: voronoi_mu(0, [5], SUMMITS, GRID), "5"),
        (lambda: inverse_altiset_measure(SUMMITS, [1.0, 2.0], 1.5, GRID), "1.5"),
        (lambda: family().member(-1), "-1"),
        (lambda: family().member(3), "3"),
        (lambda: family().member(1.0), "1.0"),
    ])
    def test_a_bad_index_is_an_error(self, call, shown):
        with pytest.raises(SubsetIndexError, match=rf"must be integers in range\(\d\), got {shown} in row \d$"):
            call()

    def test_domains_raise_an_altiset_error(self):
        with pytest.raises(AltisetError):
            inverse_altiset_mask(SUMMITS, [1.0, 2.0], 2, GRID)

    @pytest.mark.parametrize("make", [lambda: [2, 0, 2], lambda: {0, 2}, lambda: range(0, 3, 2),
                                      lambda: iter([2, 0]), lambda: np.array([2, 0]),
                                      lambda: np.array([0, 2], dtype=np.uint64), lambda: [np.int64(0), 2]])
    def test_integer_subsets_keep_their_answers(self, make):
        assert REL.universe.check_subset(make()) == (0, 2)
        assert REL.altiset(make()) == {0, 2}
        assert REL.restrict(make())[1] == (0, 2)

    def test_bools_read_as_zero_and_one(self):
        assert REL.altiset([True, 2]) == REL.altiset([1, 2]) == {2}
        assert family().member(True) == family().member(1) == {"b"}
        assert voronoi_mu(True, [], SUMMITS, GRID) == voronoi_mu(1, [], SUMMITS, GRID)
        assert np.array_equal(inverse_altiset_mask(SUMMITS, [1.0, 2.0], True, GRID),
                              inverse_altiset_mask(SUMMITS, [1.0, 2.0], 1, GRID))

    def test_empty_subset(self):
        assert REL.altiset([]) == frozenset()
        assert REL.universe.check_subset(np.array([], dtype=float)) == ()
