import itertools
import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altiset import orders
from altiset.errors import DimensionError, NonFiniteError, PartitionError
from altiset.orders import (
    GAIN,
    PRICE,
    KeyedOrder,
    OrderSystem,
    altiset_of_system,
    decompose_altiset,
    indistinguishability,
    maxima,
    pareto_layers,
    quotient,
)
from altiset.relation import FiniteRelation, Universe, _levels, union

from conftest import peak_bytes, random_system
from reference import altiset_bruteforce, check_form_equivalences, system_union


def system(size, *orders):
    return OrderSystem(Universe(size), tuple(KeyedOrder(k, d) for k, d in orders))


def pareto_system(keys, directions) -> OrderSystem:
    """The order system whose altiset is the Pareto maxima of the columns."""
    return OrderSystem(
        Universe(len(keys)),
        tuple(KeyedOrder(tuple(r[c] for r in keys), d) for c, d in enumerate(directions)),
    )


# few distinct values, signed zeros and near-equal floats, so rows tie often
TIE_VALUES = st.sampled_from([-2.0, -0.0, 0.0, 1.0, 1.0 + 2**-52, 3.0])


@st.composite
def key_matrices(draw):
    n = draw(st.integers(0, 12))
    k = draw(st.integers(1, 4))
    values = st.one_of(st.integers(0, 3), TIE_VALUES) if draw(st.booleans()) else st.integers(0, 2)
    rows = draw(st.lists(st.lists(values, min_size=k, max_size=k), min_size=n, max_size=n))
    directions = draw(st.lists(st.sampled_from([GAIN, PRICE]), min_size=k, max_size=k))
    return rows, directions


class TestMaxima:
    @settings(max_examples=300, deadline=None)
    @given(key_matrices())
    def test_matches_definitional_altiset(self, case):
        rows, directions = case
        system = pareto_system(rows, directions)
        expected = altiset_bruteforce(system_union(system))
        signs = [1 if d == GAIN else -1 for d in directions]
        signed = np.array([[s * v for s, v in zip(signs, r)] for r in rows], dtype=float)
        got = maxima(signed.reshape(len(rows), len(directions)))
        assert set(np.flatnonzero(got).tolist()) == expected
        assert altiset_of_system(system) == expected

    @pytest.mark.parametrize("shape,expected", [
        ((0, 2), []),
        ((1, 3), [True]),
        ((3, 0), [True, True, True]),
        ((0, 0), []),
    ])
    def test_degenerate_shapes(self, shape, expected):
        assert maxima(np.zeros(shape)).tolist() == expected

    @pytest.mark.parametrize("keys", [[1, 2, 3], [[[1]]], [], 5, [(0, 0), (1, 1, 3)]])
    def test_needs_a_key_matrix(self, keys):
        with pytest.raises(DimensionError, match=r"maxima needs an \(n, k\) array"):
            maxima(keys)

    def test_nan_is_rejected(self):
        with pytest.raises(NonFiniteError):
            maxima(np.array([[1.0, math.nan], [0.0, 0.0]]))

    @pytest.mark.parametrize("kernel", [maxima, pareto_layers])
    def test_nan_among_objects_is_rejected(self, kernel):
        # neither dominates the other, but a NaN leaves the sort no total order
        with pytest.raises(NonFiniteError):
            kernel(np.array([[1, math.nan], [0, 0]], dtype=object))

    @pytest.mark.parametrize("kernel", [maxima, pareto_layers], ids=["maxima", "pareto_layers"])
    def test_ragged_rows_are_a_dimension_error(self, kernel):
        # numpy < 1.24 holds ragged rows as one 1-D object array, the wrong shape
        with pytest.raises(DimensionError, match=r"got (rows of unequal length|shape \(2,\))$"):
            kernel([(0, 0), (1, 1, 3)])

    @pytest.mark.parametrize("n,orders,span", [
        (300, 3, 20),   # tie-heavy, few maxima
        (400, 2, 400),  # two random columns
        (600, 5, 4),    # many duplicate rows
    ])
    def test_matches_relation_altiset_at_scale(self, n, orders, span):
        rng = random.Random(n)
        keys = [[rng.randint(0, span) for _ in range(orders)] for _ in range(n)]
        system = pareto_system(keys, [rng.choice([GAIN, PRICE]) for _ in range(orders)])
        assert altiset_of_system(system) == system_union(system).altiset()

    def test_antichain_wider_than_a_block(self):
        # every element is maximal, so the maxima found so far outgrow a block
        n = 700
        sys_ = system(n, (list(range(n)), GAIN), (list(range(n)), PRICE))
        assert altiset_of_system(sys_) == set(range(n)) == system_union(sys_).altiset()

    def test_chain_behind_a_wide_antichain(self):
        # the chain sorts after the antichain and only its head is maximal:
        # each link is dominated by the link before it, not by the antichain
        antichain = [(1000 + i, -1000 - i) for i in range(700)]
        chain = [(500 - i, 10_000 - i) for i in range(60)]
        got = maxima(np.array(chain[::-1] + antichain))
        assert np.flatnonzero(got).tolist() == [59] + list(range(60, 760))

    def test_memory_stays_below_the_pairwise_matrix(self):
        n = 4000
        # the constant third column keeps this on the block filter
        keys = np.column_stack([np.arange(n), -np.arange(n), np.zeros(n, dtype=int)])
        tracemalloc.start()
        try:
            assert maxima(keys).all()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n // 2  # one (n, n) boolean matrix would take n*n bytes


# neighbours 1 ulp apart, signed zeros and small integers, so rows tie often
ULP_VALUES = st.sampled_from(
    [-1.0, -0.0, 0.0, float(np.nextafter(0.0, 1.0)), float(np.nextafter(1.0, 0.0)), 1.0,
     float(np.nextafter(1.0, 2.0)), 2.0]
)
DTYPE_VALUES = {
    np.int64: st.integers(-2, 2),
    np.float64: ULP_VALUES,
    bool: st.booleans(),
    object: st.one_of(st.integers(-2, 2), ULP_VALUES),
}


@st.composite
def narrow_keys(draw):
    """(n, k) keys with k <= 2 of one dtype: int, float, bool or object."""
    n = draw(st.integers(0, 14))
    k = draw(st.integers(0, 2))
    dtype = draw(st.sampled_from(list(DTYPE_VALUES)))
    rows = draw(st.lists(st.lists(DTYPE_VALUES[dtype], min_size=k, max_size=k), min_size=n, max_size=n))
    return np.array(rows, dtype=dtype).reshape(n, k)


def beats_relation(keys) -> FiniteRelation:
    """a R b when b is larger than a in some column, compared as Python
    values: its asymmetric interior is Pareto dominance."""
    rows = keys.tolist()
    beats = [[any(q > p for p, q in zip(a, b)) for b in rows] for a in rows]
    return FiniteRelation(Universe(len(rows)), np.array(beats, dtype=bool).reshape(len(rows), len(rows)))


class TestTwoColumnSweep:
    @settings(max_examples=500, deadline=None)
    @given(narrow_keys())
    def test_matches_definitional_altiset(self, keys):
        got = maxima(keys)
        assert set(np.flatnonzero(got).tolist()) == altiset_bruteforce(beats_relation(keys))

    @pytest.mark.parametrize("shape", ["all maximal", "random", "duplicates"])
    def test_matches_block_filter_at_scale(self, shape):
        n = 10_000
        rng = np.random.default_rng(len(shape))
        if shape == "all maximal":
            a = rng.permutation(n)
            keys = np.column_stack([a, -a])
        elif shape == "random":
            keys = rng.random((n, 2))
        else:
            keys = rng.integers(0, 30, (n, 2))
        for k in (1, 2):
            # a constant third column changes no dominance but takes the block filter
            padded = np.column_stack([keys[:, :k], np.zeros((n, 3 - k), dtype=keys.dtype)])
            assert maxima(keys[:, :k]).tolist() == maxima(padded).tolist()

    def test_all_maximal_peak_is_linear(self):
        n = 100_000
        keys = np.column_stack([np.arange(n), -np.arange(n)])
        assert peak_bytes(maxima, keys) < 64 * n


@st.composite
def two_column_keys(draw):
    """(n, 2) keys, n = 0..14, from few values so that rows and columns tie."""
    n = draw(st.integers(0, 14))
    values = TIE_VALUES if draw(st.booleans()) else st.integers(-2, 2)
    rows = draw(st.lists(st.tuples(values, values), min_size=n, max_size=n))
    return np.array(rows).reshape(n, 2)


class TestParetoLayers:
    @settings(max_examples=500, deadline=None)
    @given(two_column_keys(), st.booleans())
    def test_matches_levels_of_the_dominance_matrix(self, keys, swap):
        if swap:
            keys = keys[:, ::-1]
        # dominates[a, b]: row b is >= row a in both columns and > in one
        dominates = (keys[None, :] >= keys[:, None]).all(axis=2) & (keys[None, :] > keys[:, None]).any(axis=2)
        layers = pareto_layers(keys)
        assert layers.tolist() == _levels(dominates).tolist()  # a relation whose strict part it is
        assert (layers == 1).tolist() == maxima(keys).tolist()

    def test_equal_rows_share_a_layer(self):
        keys = np.array([[1, 1], [1, 1], [0, 0], [0.0, -0.0], [-0.0, 0.0]])
        assert pareto_layers(keys).tolist() == [1, 1, 2, 2, 2]

    def test_empty(self):
        assert pareto_layers(np.zeros((0, 2))).tolist() == []

    def test_nan_is_rejected(self):
        with pytest.raises(NonFiniteError):
            pareto_layers(np.array([[1.0, math.nan], [0.0, 0.0]]))

    @pytest.mark.parametrize("keys", [[[1, 1, 5], [1, 1, 0]], [[1], [0]], [1, 0], np.zeros((0, 3))])
    def test_needs_two_columns(self, keys):
        # three columns would be layered on the first two only
        with pytest.raises(DimensionError, match="two key columns"):
            pareto_layers(np.array(keys))


class TestKeyedOrder:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_key(self, bad):
        with pytest.raises(NonFiniteError):
            KeyedOrder((1.0, bad))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numpy_float_key(self, dtype, bad):
        # a NaN key of any float type leaves maxima no total order
        keys = np.array([1, bad, 2], dtype=dtype)
        with pytest.raises(NonFiniteError, match=rf"keys must be finite, got {bad}$"):
            OrderSystem(Universe(3), (KeyedOrder(keys),))

    @pytest.mark.parametrize("bad", ["NaN", "sNaN", "Infinity"])
    def test_non_finite_decimal_key(self, bad):
        # a NaN has no place in the sort, and an infinity is no key value
        with pytest.raises(NonFiniteError, match=rf"keys must be finite, got {bad}$"):
            KeyedOrder((Decimal(1), Decimal(bad), Decimal(2)))

    @pytest.mark.parametrize("build,message", [
        (lambda: KeyedOrder((1, 2), "up"), r"direction must be gain\|price, got 'up'$"),
        (lambda: OrderSystem(Universe(2), ()), "an OrderSystem needs at least one order$"),
        (lambda: OrderSystem(Universe(3), (KeyedOrder((1, 2)),)), "2 keys for universe of size 3$"),
    ], ids=["direction", "no-orders", "key-count"])
    def test_malformed_order_or_system(self, build, message):
        with pytest.raises(DimensionError, match=message):
            build()

    def test_integer_and_string_keys_are_accepted(self):
        big = 10**400  # beyond float range, still exact as a Python int
        r = KeyedOrder((big, 1)).relation(Universe(2))
        assert set(r.pairs()) == {(0, 0), (1, 1), (1, 0)}
        assert altiset_of_system(system(2, ((big, 1), GAIN))) == {0}
        assert altiset_of_system(system(3, (("b", "a", "b"), PRICE))) == {1}
        assert altiset_of_system(system(3, ((Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)), GAIN))) == {1}
        assert altiset_of_system(system(2, ((Decimal("1e400"), Decimal(1)), GAIN))) == {0}


class TestSystemUnion:
    def test_single_gain_order(self):
        r = system_union(system(2, ([1, 2], GAIN)))
        assert set(r.pairs()) == {(0, 0), (1, 1), (0, 1)}

    def test_gain_plus_price_symmetrizes(self):
        r = system_union(system(2, ([1, 2], GAIN), ([1, 2], PRICE)))
        assert set(r.pairs()) == {(0, 0), (1, 1), (0, 1), (1, 0)}

    def test_duplicate_orders_are_idempotent(self):
        one = system_union(system(3, ([3, 1, 2], GAIN)))
        two = system_union(system(3, ([3, 1, 2], GAIN), ([3, 1, 2], GAIN)))
        assert one == two

    def test_reflexive_by_construction(self, rng):
        for _ in range(30):
            r = system_union(random_system(rng, 5))
            assert all((a, a) in r for a in range(5))


class TestIndistinguishability:
    def test_equal_keys_merge(self):
        assert indistinguishability(system(3, ([1, 1, 2], GAIN))) == ((0, 1), (2,))

    def test_intersection_of_equivalences(self):
        classes = indistinguishability(system(2, ([1, 1], GAIN), ([2, 3], GAIN)))
        assert classes == ((0,), (1,))

    def test_all_constant(self):
        assert indistinguishability(system(3, ([7, 7, 7], GAIN), ([1, 1, 1], PRICE))) == ((0, 1, 2),)

    def test_matches_union_relation_formula(self, rng):
        # ~_R computed as (R u R^-1)' u Delta must give the same classes; in
        # the last system 2**53 + 1 and 2**53 are equal, as the orders compare them
        systems = [random_system(rng, rng.randint(1, 7)) for _ in range(100)]
        systems.append(system(3, ([2**53 + 1, 2**53, 0.5], GAIN)))
        for sys_ in systems:
            n = sys_.universe.size
            r = system_union(sys_)
            incomparable = ~(r.adjacency | r.adjacency.T)
            classes = {}
            for a in range(n):
                sig = tuple(
                    bool(incomparable[a][b]) or a == b for b in range(n)
                )
                classes.setdefault(sig, []).append(a)
            by_union = sorted(sorted(c) for c in classes.values())
            by_keys = sorted(sorted(c) for c in indistinguishability(sys_))
            assert by_union == by_keys


class TestQuotient:
    def test_chain(self):
        view = quotient(system(3, ([1, 2, 3], GAIN)))
        assert view.classes == ((0,), (1,), (2,))
        assert view.maximal_classes == {2}

    def test_opposing_orders_make_all_classes_maximal(self):
        view = quotient(system(2, ([1, 2], GAIN), ([1, 2], PRICE)))
        assert len(view.classes) == 2
        assert view.maximal_classes == {0, 1}
        assert not view.class_order.adjacency.any()

    def test_single_class(self):
        view = quotient(system(2, ([1, 1], GAIN)))
        assert view.classes == ((0, 1),)
        assert view.maximal_classes == {0}

    def test_subset_orders_classes_by_their_kept_members(self, monkeypatch):
        # 0 and 2 tie, 1 is above them; without 0 the class {2} comes after {1}.
        # The keys are ranked once, not again for the classes
        ranks = mock.Mock(wraps=orders._ranks)
        monkeypatch.setattr(orders, "_ranks", ranks)
        view = quotient(system(3, ([1, 2, 1], GAIN)), [2, 1])
        assert view.classes == ((1,), (2,))
        assert view.maximal_classes == {0}
        assert ranks.call_count == 1

    def test_class_order_is_strict_order(self, rng):
        for _ in range(200):
            view = quotient(random_system(rng, rng.randint(1, 8)))
            adj = view.class_order.adjacency
            assert not adj.trace()
            assert not (adj & adj.T).any()
            assert view.class_order.transitive_closure() == view.class_order


    def test_subset_matches_restricted_system(self, rng):
        for _ in range(100):
            n = rng.randint(1, 8)
            sys_ = random_system(rng, n)
            idx = [i for i in range(n) if rng.random() < 0.6]
            view = quotient(sys_, idx)
            restricted = OrderSystem(Universe(len(idx)), tuple(
                KeyedOrder(tuple(o.keys[i] for i in idx), o.direction) for o in sys_.orders
            ))
            whole = quotient(restricted)
            assert view.classes == tuple(tuple(idx[i] for i in c) for c in whole.classes)
            assert view.class_order == whole.class_order
            assert view.maximal_classes == whole.maximal_classes
            chosen = {a for k in view.maximal_classes for a in view.classes[k]}
            assert chosen == altiset_bruteforce(system_union(sys_), idx)

    def test_matches_dense_union_route(self, rng):
        for _ in range(6):
            n = rng.randint(200, 400)
            sys_ = OrderSystem(Universe(n), tuple(
                KeyedOrder(tuple(rng.randint(0, 5) for _ in range(n)), rng.choice([GAIN, PRICE]))
                for _ in range(rng.randint(1, 3))
            ))
            idx = [i for i in range(n) if rng.random() < 0.7]
            view = quotient(sys_, idx)
            reps = [c[0] for c in view.classes]
            dense = FiniteRelation(
                Universe(len(reps)), system_union(sys_).adjacency[np.ix_(reps, reps)]
            ).asym_interior()
            assert view.class_order == dense
            assert view.maximal_classes == set(np.flatnonzero(~dense.adjacency.any(axis=1)).tolist())

    def test_memory_stays_below_one_boolean_matrix(self):
        n = 3000
        keys = np.random.default_rng(3).integers(0, 4, size=(3, n)).tolist()
        sys_ = OrderSystem(Universe(n), tuple(KeyedOrder(k, GAIN) for k in keys))
        assert peak_bytes(quotient, sys_) < n * n  # the union relation alone takes n*n bytes


class TestAltisetOfSystem:
    def test_single_gain_order_is_argmax(self):
        assert altiset_of_system(system(4, ([3, 1, 3, 2], GAIN))) == {0, 2}

    def test_gain_and_price(self):
        assert altiset_of_system(system(3, ([1, 2, 2], GAIN), ([3, 1, 1], PRICE))) == {1, 2}

    def test_triangle_sample_keeps_equilateral(self):
        # five triangles by side lengths; gain = area, price = circumference
        import math

        sides = [(3, 4, 5), (2, 3, 4), (4, 4, 4), (1, 4, 4), (2, 2, 3)]
        def area(a, b, c):
            s = (a + b + c) / 2
            return math.sqrt(s * (s - a) * (s - b) * (s - c))
        areas = [area(*t) for t in sides]
        circs = [sum(t) for t in sides]
        sys_ = system(5, (areas, GAIN), (circs, PRICE))
        chosen = altiset_of_system(sys_)
        assert 2 in chosen  # the equilateral triangle
        assert chosen == altiset_bruteforce(system_union(sys_))

    def test_matches_definitional_altiset(self, rng):
        for _ in range(300):
            sys_ = random_system(rng, rng.randint(1, 8))
            assert altiset_of_system(sys_) == altiset_bruteforce(system_union(sys_))

    def test_subset_restriction(self, rng):
        for _ in range(100):
            n = rng.randint(2, 8)
            sys_ = random_system(rng, n)
            subset = [i for i in range(n) if rng.random() < 0.6]
            assert altiset_of_system(sys_, subset) == altiset_bruteforce(
                system_union(sys_), subset
            )

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_strictly_increasing_maps_keep_the_altiset_at_scale(self, seed):
        # thousands of elements with integer keys in range(40), so keys tie
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1000, 4000)), int(rng.integers(1, 4))
        keys = rng.integers(0, 40, size=(k, n)).tolist()
        directions = rng.choice([GAIN, PRICE], size=k).tolist()
        subset = np.flatnonzero(rng.random(n) < 0.5)

        def mapped(f):
            return system(n, *((tuple(map(f, row)), d) for row, d in zip(keys, directions)))

        expected = altiset_of_system(mapped(int)), altiset_of_system(mapped(int), subset)
        # 2**70 + v: exact integers that float64 would merge
        for f in (lambda v: 3 * v - 7, lambda v: v**3, lambda v: v / 7 + 0.5, lambda v: 2**70 + v):
            assert (altiset_of_system(mapped(f)), altiset_of_system(mapped(f), subset)) == expected

    def test_overcharge(self, rng):
        for _ in range(200):
            n = rng.randint(1, 8)
            sys_ = random_system(rng, n)
            r = system_union(sys_)
            chosen = altiset_of_system(sys_)
            assert chosen
            for a in set(range(n)) - chosen:
                assert any((a, v) in r or (v, a) in r for v in chosen)


class TestDecompose:
    def test_single_block(self, rng):
        for _ in range(20):
            sys_ = random_system(rng, 6)
            assert decompose_altiset(sys_, [range(6)]) == altiset_of_system(sys_)

    def test_partition_invariance(self, rng):
        for _ in range(200):
            n = rng.randint(1, 8)
            sys_ = random_system(rng, n)
            blocks = {}
            for i in range(n):
                blocks.setdefault(rng.randint(0, 2), []).append(i)
            got = decompose_altiset(sys_, list(blocks.values()))
            assert got == altiset_of_system(sys_)

    def test_keys_are_ranked_once(self, rng, monkeypatch):
        calls, ranks = [], orders._ranks
        monkeypatch.setattr(orders, "_ranks", lambda s: calls.append(s) or ranks(s))
        sys_ = random_system(rng, 12)
        got = decompose_altiset(sys_, [range(0, 12, 3), range(1, 12, 3), range(2, 12, 3)])
        assert calls == [sys_]
        assert got == altiset_of_system(sys_)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([10, 2000]), st.integers(1, 50))
    def test_random_partitions_at_scale(self, seed, span, k):
        # three orders take maxima's block filter in every block and the merge
        n, r = 2000, np.random.default_rng(seed)
        sys_ = OrderSystem(Universe(n), tuple(
            KeyedOrder(tuple(r.integers(0, span, n).tolist()), d) for d in (GAIN, PRICE, GAIN)
        ))
        label = r.integers(0, k, n)
        blocks = [np.flatnonzero(label == b).tolist() for b in range(k)]
        assert decompose_altiset(sys_, blocks) == altiset_of_system(sys_)

    def test_partial_cover_decomposes_its_union(self, rng):
        sys_ = random_system(rng, 6)
        got = decompose_altiset(sys_, [[0, 1], [4, 5]])
        assert got == altiset_of_system(sys_, [0, 1, 4, 5])

    def test_overlapping_blocks_rejected(self, rng):
        with pytest.raises(PartitionError):
            decompose_altiset(random_system(rng, 4), [[0, 1], [1, 2]])

    def test_non_induced_counterexample(self):
        # orders <=1 and <=2 are NOT both linearly induced; the principle
        # fails for the raw union relation: V_{a,c} = {a,c} != V_A = {c}
        a, b, c = 0, 1, 2
        universe = Universe(3, ("a", "b", "c"))
        r1 = FiniteRelation.from_pairs(universe, [(a, b), (a, c), (b, c), (a, a), (b, b), (c, c)])
        r2 = FiniteRelation.from_pairs(universe, [(c, a), (a, a), (b, b), (c, c)])
        r = union([r1, r2])
        assert r.altiset({a}) == {a}
        assert r.altiset({b, c}) == {c}
        assert r.altiset({a, c}) == {a, c}
        assert r.altiset() == {c}
        merged = r.altiset({a}) | r.altiset({b, c})
        assert r.altiset(merged) == {a, c} != r.altiset()


class TestFormEquivalences:
    def test_aligned_orders(self):
        assert check_form_equivalences([1, 2], [1, 2], 0, 1) == (True,) * 4

    def test_opposed_orders(self):
        assert check_form_equivalences([1, 2], [2, 1], 0, 1) == (False,) * 4

    def test_reflexive_pair(self):
        assert check_form_equivalences([1, 2], [2, 1], 1, 1) == (True,) * 4

    def test_all_four_agree_exhaustively(self):
        values = [0, 1, 2]
        for f in itertools.product(values, repeat=3):
            for g in itertools.product(values, repeat=3):
                for a in range(3):
                    for b in range(3):
                        forms = check_form_equivalences(f, g, a, b)
                        assert len(set(forms)) == 1
