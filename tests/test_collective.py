import itertools
import math

import pytest

from altiset.collective import (
    SubsetFamily,
    ValuedGroundSet,
    collective_altiset,
    pairwise_elimination,
    threshold_profile,
    _profiles,
)
from altiset.errors import NonFiniteError, SubsetIndexError
from altiset.oracles import collective_altiset_bruteforce, rh_dominates

from conftest import random_family


def ground(values: dict) -> ValuedGroundSet:
    return ValuedGroundSet(tuple(values), {k: float(v) for k, v in values.items()})


ABC = ground({"a": 3, "b": 2, "c": 2})


class TestThresholdProfile:
    def test_empty_member(self):
        assert threshold_profile(set(), ABC) == (0, 0)

    def test_full_member(self):
        assert threshold_profile({"a", "b", "c"}, ABC) == (1, 3)

    def test_mixed_member(self):
        assert threshold_profile({"a", "c"}, ABC) == (1, 2)

    def test_stray_element(self):
        with pytest.raises(SubsetIndexError):
            threshold_profile({"z"}, ABC)


class TestRhDominates:
    def test_proper_subset_is_dominated(self):
        assert rh_dominates({"b"}, {"a", "b"}, ABC)

    def test_equal_profiles_never_dominate(self):
        assert not rh_dominates({"b"}, {"c"}, ABC)
        assert not rh_dominates({"a"}, {"a"}, ABC)

    def test_one_way_with_higher_values(self):
        g = ground({"a": 2, "b": 1})
        assert rh_dominates({"b"}, {"a"}, g)
        assert not rh_dominates({"a"}, {"b"}, g)


class TestCollectiveAltiset:
    def test_full_powerset_keeps_only_x(self):
        g = ground({"a": 2, "b": 1})
        members = tuple(
            frozenset(c) for r in range(3) for c in itertools.combinations("ab", r)
        )
        family = SubsetFamily(g, members)
        chosen = collective_altiset(family)
        assert chosen == {members.index(frozenset("ab"))}

    def test_single_member(self):
        family = SubsetFamily(ABC, (frozenset("a"),))
        assert collective_altiset(family) == {0}

    def test_three_member_example(self):
        g = ground({"a": 3, "b": 2, "c": 1})
        family = SubsetFamily(g, (frozenset("a"), frozenset("bc"), frozenset("ac")))
        assert collective_altiset(family) == {2}

    def test_duplicate_members_both_survive(self):
        family = SubsetFamily(ABC, (frozenset("ab"), frozenset("ab")))
        assert collective_altiset(family) == {0, 1}
        assert pairwise_elimination(family) == {0, 1}

    def test_never_empty(self, rng):
        for _ in range(200):
            family = random_family(rng, rng.randint(1, 5))
            assert collective_altiset(family)

    def test_three_routes_agree(self, rng):
        for _ in range(300):
            family = random_family(rng, rng.randint(1, 5))
            oracle = collective_altiset_bruteforce(family)
            assert collective_altiset(family) == oracle
            assert pairwise_elimination(family) == oracle

    def test_monotone_valuation_transform_invariance(self, rng):
        for _ in range(100):
            family = random_family(rng, rng.randint(1, 5))
            g = family.ground
            warped = ValuedGroundSet(
                g.elements, {e: g.valuation[e] ** 3 + 2 * g.valuation[e] for e in g.elements}
            )
            assert collective_altiset(family) == collective_altiset(
                SubsetFamily(warped, family.members)
            )

    def test_adding_indistinguishable_twin_extends_altiset(self, rng):
        for _ in range(100):
            family = random_family(rng, rng.randint(1, 5))
            chosen = collective_altiset(family)
            pick = min(chosen)
            extended = SubsetFamily(
                family.ground, family.members + (family.members[pick],)
            )
            assert collective_altiset(extended) == chosen | {len(family.members)}

    def test_empty_ground_set_keeps_every_member(self):
        # no thresholds: every profile is the empty tuple and all members tie
        family = SubsetFamily(ValuedGroundSet((), {}), (frozenset(), frozenset()))
        assert collective_altiset(family) == collective_altiset_bruteforce(family) == {0, 1}
        assert pairwise_elimination(family) == {0, 1}

    @pytest.mark.parametrize("low", [2**53, float(2**53)], ids=["int", "mixed"])
    def test_valuations_compare_exactly(self, low):
        # as floats the two valuations tie and both members would survive
        g = ValuedGroundSet(("a", "b"), {"a": 2**53 + 1, "b": low})
        family = SubsetFamily(g, (frozenset("a"), frozenset("b")))
        assert _profiles(family).tolist() == [[1, 1], [0, 1]]
        assert collective_altiset(family) == {0}
        assert pairwise_elimination(family) == {0}
        assert collective_altiset_bruteforce(family) == {0}

    def test_matches_pairwise_elimination_at_scale(self, rng):
        elements = tuple(f"e{i}" for i in range(40))
        g = ValuedGroundSet(elements, {e: float(rng.randint(0, 9)) for e in elements})
        members = tuple(
            frozenset(e for e in elements if rng.random() < 0.5) for _ in range(300)
        )
        family = SubsetFamily(g, members)
        assert collective_altiset(family) == pairwise_elimination(family)


class TestValuedGroundSet:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_valuation(self, bad):
        with pytest.raises(NonFiniteError):
            ValuedGroundSet(("a", "b"), {"a": 1.0, "b": bad})

    def test_integer_beyond_float_range(self):
        with pytest.raises(NonFiniteError, match="valuation of 'a' must be finite"):
            ValuedGroundSet(("a",), {"a": 10**400})
