import random

import numpy as np
import pytest

from altiset.errors import CyclicRelationError, DimensionError, SubsetIndexError
from altiset.layers import upper_layers
from altiset.relation import FiniteRelation, Universe, union

from conftest import aa_matrix, peak_bytes, random_aa_relation, random_relation
from reference import altiset_bruteforce


def rel(size, pairs):
    return FiniteRelation.from_pairs(Universe(size), pairs)


class TestInduce:
    def test_distinct_keys_give_total_strict_order(self):
        r = FiniteRelation.induce(Universe(3), [1, 2, 3])
        assert set(r.pairs()) == {(0, 1), (0, 2), (1, 2)}

    def test_constant_keys_give_empty_strict_relation(self):
        r = FiniteRelation.induce(Universe(3), [5, 5, 5])
        assert r.pairs() == []

    def test_mixed_keys(self):
        r = FiniteRelation.induce(Universe(3), [2, 1, 2])
        assert set(r.pairs()) == {(1, 0), (1, 2)}

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            FiniteRelation.induce(Universe(3), [1, 2])

    @pytest.mark.parametrize("build,message", [
        (lambda: Universe(-1), r"^universe size must be >= 0, got -1$"),
        (lambda: FiniteRelation(Universe(2), np.zeros((3, 3))),
         r"^adjacency shape \(3, 3\) does not match universe size 2$"),
        (lambda: FiniteRelation.adopt(Universe(2), np.zeros((2, 2), dtype=np.int8)),
         r"^adjacency int8 \(2, 2\) is not a bool matrix of universe size 2$"),
    ], ids=["negative-size", "constructor-shape", "adopt-dtype"])
    def test_malformed_universe_or_matrix(self, build, message):
        with pytest.raises(DimensionError, match=message):
            build()

    def test_matches_pairwise_definition(self, rng):
        for _ in range(200):
            n = rng.randint(0, 9)
            pool = [0, 1, 2, 1.0, 1.5, -2, -0.5, 2.0]
            keys = [rng.choice(pool) for _ in range(n)]
            if rng.random() < 0.5:
                keys = [int(k) for k in keys]
            r = FiniteRelation.induce(Universe(n), keys)
            expected = {(a, b) for a in range(n) for b in range(n) if keys[a] < keys[b]}
            assert set(r.pairs()) == expected

    def test_non_numeric_keys_compare_as_python_objects(self):
        r = FiniteRelation.induce(Universe(3), [(1, 2), (1, 1), (0, 5)])
        assert set(r.pairs()) == {(1, 0), (2, 0), (2, 1)}

    def test_strict_induction_is_strict_order(self, rng):
        for _ in range(50):
            keys = [rng.randint(0, 4) for _ in range(6)]
            r = FiniteRelation.induce(Universe(6), keys)
            adj = r.adjacency
            assert not adj.trace()
            assert not (adj & adj.T).any()
            assert r.transitive_closure() == r


class TestFromPairs:
    def test_pairs_array_and_iterator_agree(self):
        pairs = [(0, 1), (2, 2), (0, 1)]
        expected = rel(3, pairs)
        assert FiniteRelation.from_pairs(Universe(3), iter(pairs)) == expected
        assert FiniteRelation.from_pairs(Universe(3), np.array(pairs)) == expected
        assert set(expected.pairs()) == {(0, 1), (2, 2)}

    def test_names_first_out_of_range_pair(self):
        with pytest.raises(SubsetIndexError, match=r"pair \(3,0\) out of range for size 3"):
            rel(3, [(0, 1), (3, 0), (-1, 0), (0, 2**70)])
        with pytest.raises(SubsetIndexError, match=r"pair \(1,-1\) out of range"):
            FiniteRelation.from_pairs(Universe(3), np.array([[0, 1], [1, -1], [5, 5]]))


class TestUnion:
    def test_disjoint(self):
        assert union([rel(3, [(0, 1)]), rel(3, [(1, 2)])]) == rel(3, [(0, 1), (1, 2)])

    def test_idempotent(self):
        r = rel(3, [(0, 1), (2, 1)])
        assert union([r, r]) == r

    def test_symmetric_completion(self):
        assert union([rel(2, [(0, 1)]), rel(2, [(1, 0)])]) == rel(2, [(0, 1), (1, 0)])

    def test_universe_mismatch(self):
        with pytest.raises(DimensionError):
            union([rel(2, []), rel(3, [])])

    def test_empty_list(self):
        with pytest.raises(DimensionError):
            union([])


class TestAdjustments:
    @pytest.mark.parametrize("op", [
        FiniteRelation.asym_interior,
        FiniteRelation.complementary_inversion,
        lambda r: union([r, r]),
        lambda r: r.restrict(range(r.universe.size))[0],
    ], ids=["asym_interior", "complementary_inversion", "union", "restrict"])
    def test_fresh_matrix_is_kept_not_copied(self, op):
        n = 2000
        r = FiniteRelation.adopt(Universe(n), np.triu(np.ones((n, n), dtype=bool)))
        assert peak_bytes(op, r) <= 1.1 * n * n
        assert op(r).adjacency.flags.c_contiguous

    def test_asym_interior(self):
        assert rel(3, [(0, 1), (1, 0), (1, 2)]).asym_interior() == rel(3, [(1, 2)])

    def test_asym_of_symmetric_is_empty(self):
        assert rel(2, [(0, 1), (1, 0)]).asym_interior() == rel(2, [])

    def test_asym_fixes_asymmetric(self):
        r = rel(3, [(0, 1), (1, 2)])
        assert r.asym_interior() == r

    def test_transitive_closure_chain(self):
        assert rel(3, [(0, 1), (1, 2)]).transitive_closure() == rel(
            3, [(0, 1), (1, 2), (0, 2)]
        )

    def test_transitive_closure_fixes_transitive(self):
        r = rel(3, [(0, 1), (1, 2), (0, 2)])
        assert r.transitive_closure() == r

    def test_transitive_closure_of_cycle_is_full(self):
        r = rel(3, [(0, 1), (1, 2), (2, 0)]).transitive_closure()
        assert r == FiniteRelation.full(Universe(3))

    @pytest.mark.parametrize("shape", ["aa", "total", "cyclic"])
    def test_transitive_closure_matches_bool_squaring(self, shape):
        rng = random.Random(shape)
        n = 300
        perm = rng.sample(range(n), n)
        if shape == "aa":
            r = random_aa_relation(rng, n, density=0.005)
        elif shape == "total":  # the covering chain: its closure is the total order
            r = rel(n, list(zip(perm, perm[1:])))
        else:  # a ring with a few chords
            chords = [(rng.randrange(n), rng.randrange(n)) for _ in range(5)]
            r = rel(n, list(zip(perm, perm[1:] + perm[:1])) + chords)
        expected = r.adjacency
        while True:
            step = expected | (expected @ expected)
            if np.array_equal(step, expected):
                break
            expected = step
        assert np.array_equal(r.transitive_closure().adjacency, expected)

    def test_complementary_inversion_of_full_is_empty(self):
        assert FiniteRelation.full(Universe(3)).complementary_inversion() == rel(3, [])

    def test_complementary_inversion_of_empty_is_full(self):
        assert FiniteRelation.empty(Universe(2)).complementary_inversion() == FiniteRelation.full(Universe(2))

    def test_complementary_inversion_example(self):
        assert rel(2, [(0, 1)]).complementary_inversion() == rel(
            2, [(0, 0), (1, 1), (0, 1)]
        )

    def test_complementary_inversion_involution(self, rng):
        for _ in range(100):
            r = random_relation(rng, rng.randint(0, 6))
            assert r.complementary_inversion().complementary_inversion() == r


class TestPredicates:
    def test_cycle_violates_aa(self):
        assert not rel(3, [(0, 1), (1, 2), (2, 0)]).has_aa_property()

    def test_symmetric_satisfies_aa(self):
        assert rel(3, [(0, 1), (1, 0), (2, 2)]).has_aa_property()

    def test_strict_order_satisfies_aa(self):
        assert rel(3, [(0, 1), (1, 2), (0, 2)]).has_aa_property()

    def test_cycle_witness_is_a_cycle(self, rng):
        n = 2000
        ring = rel(n, [(i, (i + 1) % n) for i in range(n)])
        cases = [random_relation(rng, rng.randint(2, 7)) for _ in range(200)]
        cases += [random_relation(rng, 300, density) for density in (0.005, 0.02, 0.4)]
        found = 0
        for r in [ring] + cases:
            cycle = r.find_asym_cycle()
            assert r.has_aa_property() == (cycle is None)
            if cycle is None:
                continue
            found += 1
            with pytest.raises(CyclicRelationError) as err:  # the same witness
                upper_layers(r)
            assert err.value.cycle == cycle
            q = r.asym_interior()
            assert cycle[0] == cycle[-1] and len(cycle) >= 3
            for a, b in zip(cycle, cycle[1:]):
                assert (a, b) in q
        assert len(ring.find_asym_cycle()) == n + 1
        assert found > 30 and all(r.find_asym_cycle() for r in cases[-3:])

    def test_cycle_search_peak_memory(self):
        # one packed strict matrix for the Kahn pass; the walk computes its rows
        n = 2000
        ring = rel(n, [(i, (i + 1) % n) for i in range(n)])
        assert peak_bytes(FiniteRelation.find_asym_cycle, ring) <= 0.25 * n * n

    def test_aa_check_peak_memory(self):
        n = 2000
        r = FiniteRelation.adopt(Universe(n), aa_matrix(np.random.default_rng(0), n))
        assert peak_bytes(FiniteRelation.has_aa_property, r) <= 0.25 * n * n

    def test_is_symmetric(self):
        assert rel(2, [(0, 1), (1, 0)]).is_symmetric()
        assert not rel(2, [(0, 1)]).is_symmetric()
        assert rel(2, []).is_symmetric()


class TestAltiset:
    def test_poset_maxima(self):
        r = rel(3, [(0, 1), (1, 2), (0, 2), (0, 0), (1, 1), (2, 2)])
        assert r.altiset() == {2}

    def test_cycle_has_empty_altiset(self):
        assert rel(3, [(0, 1), (1, 2), (2, 0)]).altiset() == frozenset()

    def test_symmetric_altiset_is_everything(self):
        r = rel(3, [(0, 1), (1, 0), (2, 2)])
        assert r.altiset() == {0, 1, 2}

    def test_subset_restriction(self):
        r = rel(3, [(0, 1), (1, 2), (0, 2)])
        assert r.altiset({0, 1}) == {1}

    def test_bad_subset(self):
        with pytest.raises(SubsetIndexError):
            rel(2, []).altiset({5})

    @pytest.mark.parametrize("subset", [None, range(1, 2000), range(0, 2000, 2)])
    def test_peak_memory_is_a_block_of_rows(self, subset):
        n = 2000
        r = FiniteRelation.adopt(Universe(n), np.triu(np.ones((n, n), dtype=bool)))
        assert peak_bytes(r.altiset, subset) <= 0.15 * n * n

    def test_empty_universe(self):
        assert FiniteRelation.empty(Universe(0)).altiset() == frozenset()

    def test_matches_bruteforce(self, rng):
        for _ in range(300):
            r = random_relation(rng, rng.randint(0, 8))
            assert r.altiset() == altiset_bruteforce(r)

    def test_invariant_under_adjustments(self, rng):
        for _ in range(200):
            r = random_relation(rng, rng.randint(1, 8))
            v = r.altiset()
            assert v == r.complementary_inversion().altiset()
            assert v == r.asym_interior().altiset()

    def test_invariant_under_symmetric_union_and_difference(self, rng):
        # Holds for symmetric S that avoids the strict-domination part of R
        # (and its inverse); S touching it can rescue dominated elements,
        # see test below.
        for _ in range(100):
            n = rng.randint(1, 7)
            r = random_relation(rng, n)
            s_half = random_relation(rng, n)
            s = union([s_half, s_half.inverse()])
            strict = r.asym_interior()
            blocked = strict.adjacency | strict.adjacency.T
            s = FiniteRelation(r.universe, s.adjacency & ~blocked)
            assert r.altiset() == union([r, s]).altiset()
            minus = FiniteRelation(r.universe, r.adjacency & ~s.adjacency)
            assert r.altiset() == minus.altiset()

    def test_unrestricted_symmetric_adjustment_can_change_altiset(self):
        # completing an asymmetric pair symmetrically rescues the dominated
        # element, so the invariant needs the restriction above
        r = rel(2, [(0, 1)])
        s = rel(2, [(0, 1), (1, 0)])
        assert r.altiset() == {1}
        assert union([r, s]).altiset() == {0, 1}

    def test_altiset_full_iff_symmetric(self, rng):
        for _ in range(200):
            n = rng.randint(1, 7)
            r = random_relation(rng, n)
            assert (r.altiset() == frozenset(range(n))) == r.is_symmetric()

    def test_aa_makes_trans_asym_a_strict_order_with_same_altiset(self, rng):
        checked = 0
        while checked < 60:
            r = random_relation(rng, rng.randint(1, 7))
            if not r.has_aa_property():
                continue
            checked += 1
            t = r.asym_interior().transitive_closure()
            adj = t.adjacency
            assert not adj.trace()
            assert not (adj & adj.T).any()
            assert t.transitive_closure() == t
            assert t.altiset() == r.altiset()


class TestRestrict:
    def test_restrict_full_to_singleton(self):
        sub, idx = FiniteRelation.full(Universe(2)).restrict({0})
        assert idx == (0,)
        assert sub == rel(1, [(0, 0)])

    def test_restrict_to_all_is_identity(self, rng):
        r = random_relation(rng, 5)
        sub, idx = r.restrict(range(5))
        assert sub == r and idx == (0, 1, 2, 3, 4)

    def test_reindexing(self):
        sub, idx = rel(3, [(0, 2)]).restrict({0, 2})
        assert idx == (0, 2)
        assert sub == rel(2, [(0, 1)])

    def test_invalid_subset(self):
        with pytest.raises(SubsetIndexError):
            rel(2, []).restrict({0, 3})

    def test_operators_allocate_fresh_relations(self):
        r = rel(2, [(0, 1)])
        q = r.asym_interior()
        assert q.adjacency is not r.adjacency
        with pytest.raises(ValueError):
            q.adjacency[0, 0] = True
