import itertools
import json
import math
import random
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from altiset import collective
from altiset.collective import (
    SubsetFamily,
    ValuedGroundSet,
    collective_altiset,
    pairwise_elimination,
    threshold_profile,
    _profiles,
)
from altiset.datasets import parse_family
from altiset.errors import DimensionError, NonFiniteError, SubsetIndexError

from conftest import peak_bytes, random_family
from reference import collective_altiset_bruteforce, rh_dominates, threshold_profile_bruteforce


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
        with pytest.raises(SubsetIndexError, match="^member 0 has element 'z' outside the ground set$"):
            threshold_profile({"z"}, ABC)

    @pytest.mark.parametrize("member,stray", [(["y", "a", "z"], "y"), (iter(["a", "z", "y"]), "z")])
    def test_first_stray_in_the_callers_order(self, member, stray):
        with pytest.raises(SubsetIndexError, match=f"^member 0 has element '{stray}' outside"):
            threshold_profile(member, ABC)


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


class TestSubsetFamily:
    def test_members_are_sorted_distinct_positions(self):
        family = SubsetFamily(ABC, (["c", "a", "c"], iter("b"), ()))
        assert family.index.tolist() == [0, 2, 1] and family.offsets.tolist() == [0, 2, 3, 3]
        assert not (family.index.flags.writeable or family.offsets.flags.writeable)
        assert family.members == (frozenset("ac"), frozenset("b"), frozenset())

    def test_members_are_built_without_checking_each_index(self, monkeypatch):
        family = random_family(random.Random(3), 5, 40)
        expected = tuple(family.member(k) for k in range(len(family)))
        # member(k) checks its k; members reads the runs it already holds
        monkeypatch.setattr(collective, "index_array", mock.Mock(side_effect=AssertionError))
        assert family.members == expected
        with pytest.raises(AssertionError):
            family.member(0)

    @pytest.mark.parametrize("form", [list, iter], ids=["list", "iterator"])
    def test_unknown_element_names_member_and_element(self, form):
        with pytest.raises(SubsetIndexError, match="^member 1 has element 'z' outside the ground set$"):
            SubsetFamily(ABC, (form("ab"), form("azc")))

    def test_empty_family(self):
        with pytest.raises(DimensionError, match="family must be nonempty"):
            SubsetFamily(ABC, ())


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


# tie-heavy valuations next to 2**53, where float64 would merge distinct ints
NEAR_2_53 = [2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2, 0, -1]
VALUATIONS = {
    "int": st.sampled_from(NEAR_2_53),
    "float": st.sampled_from([float(v) for v in NEAR_2_53] + [0.5, -0.0]),
    "mixed": st.sampled_from(NEAR_2_53 + [float(2**53), float(2**53 + 2), 0.5]),
}


@st.composite
def families(draw, kind):
    """A family over up to six elements valued from VALUATIONS[kind]; a
    member may be empty and may name an element twice."""
    elements = [f"e{i}" for i in range(draw(st.integers(0, 6)))]
    h = {e: draw(VALUATIONS[kind]) for e in elements}
    member = st.lists(st.sampled_from(elements), max_size=8) if elements else st.just([])
    members = draw(st.lists(member, min_size=1, max_size=7))
    return {"elements": elements, "h": h, "family": members}


class TestProfiles:
    """_profiles in one bincount, and threshold_profile, its row for one
    member, against the definitional count per member."""

    @pytest.mark.parametrize("kind", VALUATIONS)
    def test_rows_are_threshold_profiles(self, kind):
        @settings(max_examples=150, deadline=None)
        @given(doc=families(kind))
        def check(doc):
            ground = ValuedGroundSet(tuple(doc["elements"]), doc["h"])
            built = SubsetFamily(ground, doc["family"])
            # the parser keeps JSON integers exact and drops a repeated name
            parsed = parse_family(json.dumps(doc))
            expected = [list(threshold_profile_bruteforce(m, ground)) for m in doc["family"]]
            assert [list(threshold_profile(m, ground)) for m in doc["family"]] == expected
            for family in (built, parsed):
                profiles = _profiles(family)
                assert profiles.shape == (len(doc["family"]), len(ground.thresholds()))
                assert profiles.tolist() == expected
            assert parsed == built

        check()

    @pytest.mark.parametrize("kind", VALUATIONS)
    def test_routes_match_the_bruteforce_oracle(self, kind):
        @settings(max_examples=100, deadline=None)
        @given(doc=families(kind))
        def check(doc):
            family = parse_family(json.dumps(doc))
            oracle = collective_altiset_bruteforce(family)
            assert collective_altiset(family) == pairwise_elimination(family) == oracle

        check()

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_increasing_map_keeps_the_altiset_at_scale(self, seed):
        # 2,000 members over 400 elements, valued 0..40: the cube keeps ints
        # exact and exp(v / 7) makes floats; neither may change the answer
        rng = random.Random(seed)
        elements = tuple(f"e{i}" for i in range(400))
        values = {e: rng.randint(0, 40) for e in elements}
        members = [[e for e in elements if rng.random() < 0.5] for _ in range(2000)]
        chosen = collective_altiset(SubsetFamily(ValuedGroundSet(elements, values), members))
        for warp in (lambda v: v**3 + 2 * v, lambda v: math.exp(v / 7)):
            warped = ValuedGroundSet(elements, {e: warp(v) for e, v in values.items()})
            assert collective_altiset(SubsetFamily(warped, members)) == chosen

    def test_parse_and_profiles_peak(self):
        # 2,000 members over 400 elements; one frozenset per member and a
        # generator per threshold peaked at 42.8 MB
        rng = random.Random(7)
        elements = [f"e{i}" for i in range(400)]
        text = json.dumps({
            "elements": elements,
            "h": {e: rng.randint(0, 50) for e in elements},
            "family": [[e for e in elements if rng.random() < 0.5] for _ in range(2000)],
        })
        assert peak_bytes(lambda: _profiles(parse_family(text))) < 35_000_000


class TestValuedGroundSet:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity")])
    def test_non_finite_valuation(self, bad):
        with pytest.raises(NonFiniteError, match="valuation of 'b' must be finite"):
            ValuedGroundSet(("a", "b"), {"a": 1.0, "b": bad})

    def test_missing_valuation(self):
        with pytest.raises(DimensionError, match=r"^valuation missing for \['b'\]$"):
            ValuedGroundSet(("a", "b"), {"a": 1.0})

    def test_integer_beyond_float_range(self):
        with pytest.raises(NonFiniteError, match="valuation of 'a' must be finite"):
            ValuedGroundSet(("a",), {"a": 10**400})
