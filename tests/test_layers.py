import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altiset.errors import CyclicRelationError, DimensionError
from altiset.layers import (
    LOWER,
    UPPER,
    chain_coloring,
    eval_chain,
    upper_layers,
)
from altiset import relation
from altiset.relation import FiniteRelation, Universe

from conftest import aa_matrix, peak_bytes, random_aa_relation, random_relation
import reference
from reference import NotAStrictOrderError, OracleSizeError, apply_operator, chromatic_number_oracle, longest_chain


def rel(size, pairs):
    return FiniteRelation.from_pairs(Universe(size), pairs)


CHAIN3 = rel(3, [(0, 1), (1, 2), (0, 2)])
ANTICHAIN_EDGE = rel(3, [(0, 1)])  # antichain plus one edge
CYCLE3 = rel(3, [(0, 1), (1, 2), (2, 0)])


class TestUpperLayers:
    def test_antichain_peak_memory(self):
        # one packed strict matrix per Kahn pass, freed before the next; the
        # frontier of all n elements is unpacked in blocks, never whole
        n = 2000
        assert peak_bytes(upper_layers, FiniteRelation.empty(Universe(n))) <= 0.25 * n * n

    @pytest.mark.parametrize("shape", ["total-order", "aa"])
    def test_peak_memory_is_one_work_matrix(self, shape):
        n = 2000
        if shape == "total-order":  # d = n one-element frontiers
            r = FiniteRelation.induce(Universe(n), list(range(n)))
        else:
            r = FiniteRelation.adopt(Universe(n), aa_matrix(np.random.default_rng(0), n))
        assert peak_bytes(upper_layers, r) <= 0.25 * n * n

    def test_chain(self):
        d = upper_layers(CHAIN3)
        assert d.upper_index == (3, 2, 1)
        assert d.lower_index == (1, 2, 3)
        assert d.class_count == 3

    def test_symmetric_is_single_layer(self):
        d = upper_layers(rel(3, [(0, 1), (1, 0)]))
        assert d.class_count == 1
        assert d.upper_index == (1, 1, 1)

    def test_antichain_with_edge(self):
        d = upper_layers(ANTICHAIN_EDGE)
        assert d.upper_layer(1) == {1, 2}
        assert d.upper_layer(2) == {0}
        assert d.class_count == 2

    def test_cycle_raises_with_witness(self, rng):
        with pytest.raises(CyclicRelationError) as err:
            upper_layers(CYCLE3)
        assert len(err.value.cycle) >= 3
        cases = [random_relation(rng, rng.randint(3, 10)) for _ in range(200)]
        cases += [random_relation(rng, n, density=0.02) for n in (150, 300)]
        cyclic = [r for r in cases if not r.has_aa_property()]
        assert len(cyclic) > 50 and cyclic[-1].universe.size == 300
        for r in cyclic:
            with pytest.raises(CyclicRelationError) as err:
                upper_layers(r)
            cycle = err.value.cycle
            strict = r.asym_interior()
            assert len(cycle) >= 4 and cycle[0] == cycle[-1]
            assert all((a, b) in strict for a, b in zip(cycle, cycle[1:]))

    def test_cycle_runs_one_upper_pass(self, monkeypatch):
        # patched where each module looks it up: the witness comes off the
        # upper pass's own residue, with no second pass
        calls, levels = [], relation._levels

        def counted(adj, inverse=False):
            calls.append(inverse)
            return levels(adj, inverse)

        monkeypatch.setattr(relation, "_levels", counted)
        monkeypatch.setattr("altiset.layers._levels", counted)
        with pytest.raises(CyclicRelationError) as err:
            upper_layers(CYCLE3)
        assert calls == [False]
        assert err.value.cycle == [0, 1, 2, 0]

    def test_empty_universe(self):
        d = upper_layers(FiniteRelation.empty(Universe(0)))
        assert d.class_count == 0

    def test_upper_and_lower_counts_agree(self, rng):
        for _ in range(200):
            r = random_aa_relation(rng, rng.randint(1, 8))
            d = upper_layers(r)
            assert max(d.upper_index) == max(d.lower_index) == d.class_count

    def test_layers_cover_universe_iff_aa(self, rng):
        # the AA direction is upper_layers terminating at all; test the
        # converse with cyclic relations through raw peeling
        for _ in range(100):
            r = random_relation(rng, rng.randint(1, 7))
            remaining = set(range(r.universe.size))
            while remaining:
                layer = r.altiset(remaining)
                if not layer:
                    break
                remaining -= layer
            assert (not remaining) == r.has_aa_property()

    def test_layers_recomputable_from_upper_index_order(self, rng):
        # pi = >_{v*}: the strict order induced by the upper index
        # reproduces the same layers
        for _ in range(100):
            n = rng.randint(1, 8)
            r = random_aa_relation(rng, n)
            d = upper_layers(r)
            pi = FiniteRelation.induce(Universe(n), [-v for v in d.upper_index])
            assert upper_layers(pi).upper_index == d.upper_index

    def test_layers_carry_no_comparability_edge(self, rng):
        for _ in range(100):
            n = rng.randint(1, 8)
            r = random_aa_relation(rng, n)
            t = r.asym_interior().transitive_closure()
            d = upper_layers(r)
            for i in range(1, d.class_count + 1):
                layer = d.upper_layer(i)
                for a in layer:
                    for b in layer:
                        assert (a, b) not in t


def peel_oracle(r):
    """Upper and lower indices by definitional peeling: successive altisets."""

    def indices(r):
        index = [0] * r.universe.size
        remaining = set(range(r.universe.size))
        i = 0
        while remaining:
            i += 1
            layer = r.altiset(remaining)
            assert layer, "peeling stalled on a cyclic relation"
            for x in layer:
                index[x] = i
            remaining -= layer
        return tuple(index)

    return indices(r), indices(r.inverse())


class TestLayersMatchPeeling:
    def test_random_small(self, rng):
        for _ in range(500):
            r = random_aa_relation(rng, rng.randint(0, 14), rng.choice([0.1, 0.4, 0.8]))
            d = upper_layers(r)
            assert (d.upper_index, d.lower_index) == peel_oracle(r)
            assert d.class_count == max(d.upper_index, default=0)

    def test_total_order(self):
        n = 300
        d = upper_layers(FiniteRelation.induce(Universe(n), list(range(n))))
        assert d.upper_index == tuple(range(n, 0, -1))
        assert d.lower_index == tuple(range(1, n + 1))
        assert d.class_count == n

    def test_random_large(self, rng):
        r = random_aa_relation(rng, 200, density=0.05)
        d = upper_layers(r)
        assert (d.upper_index, d.lower_index) == peel_oracle(r)
        assert d.class_count > 5


@st.composite
def small_relations(draw):
    """Up to 12 elements with loops and symmetric pairs; the strict edges go
    upward in a hidden order (an AA relation) or anywhere, closing cycles."""
    n = draw(st.integers(0, 12))
    cells = draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    rank = draw(st.permutations(range(n)))
    aa = draw(st.booleans())
    pairs = []
    for k, cell in enumerate(cells):
        a, b = divmod(k, n)
        if cell == 3 or (cell and a == b):  # a symmetric pair or a loop
            pairs += [(a, b), (b, a)]
        elif cell:
            pairs.append((a, b) if not aa or rank[a] < rank[b] else (b, a))
    subset = draw(st.sets(st.integers(0, max(n - 1, 0)))) if n else set()
    return rel(n, pairs), subset


def peel_by_operator(op, r):
    """Indices by applying op until it stalls, and the elements left behind."""
    index = [0] * r.universe.size
    remaining, i = frozenset(range(r.universe.size)), 0
    while remaining:
        rest = apply_operator(op, r, remaining)
        if rest == remaining:
            break
        i += 1
        for x in remaining - rest:
            index[x] = i
        remaining = rest
    return tuple(index), remaining


class TestAcrossBlockEdges:
    @settings(max_examples=150, deadline=None)
    @given(small_relations())
    def test_blocked_routes_match_the_definitions(self, case):
        r, subset = case
        for block in (1, 2, relation._ROWS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(relation, "_ROWS", block)
                upper, left = peel_by_operator(UPPER, r)
                cycle = r.find_asym_cycle()
                if left:
                    assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1 >= 2
                    for a, b in zip(cycle, cycle[1:]):
                        assert (a, b) in r and (b, a) not in r
                else:
                    assert cycle is None
                    lower, _ = peel_by_operator(LOWER, r)
                    d = upper_layers(r)
                    assert (d.upper_index, d.lower_index) == (upper, lower)
                assert r.altiset() == reference.altiset_bruteforce(r)
                assert r.altiset(subset) == reference.altiset_bruteforce(r, subset)


def peel_levels(strict):
    """Kahn's pass by levels on a dense strict matrix, strict[f, a] when f
    strictly dominates a: level k is every element left with no dominator
    left, and the elements a cycle keeps are left at 0."""
    level, left, k = np.zeros(len(strict), dtype=np.int64), np.ones(len(strict), dtype=bool), 0
    while True:
        layer = left & ~strict[left].any(axis=0)
        if not layer.any():
            return level
        k += 1
        level[layer] = k
        left &= ~layer


@st.composite
def level_cases(draw):
    """A relation around the packing width and the _ROWS block, or of a few
    hundred elements: strict edges up a hidden order at a drawn density,
    symmetric pairs and loops, and a few edges down it, which close cycles."""
    b = relation._ROWS
    n = draw(st.sampled_from([0, 1, 7, 8, 9, b - 1, b, b + 1]) | st.integers(200, 330))
    density, sym_density = draw(st.sampled_from([0, 0.05, 0.5, 1])), draw(st.sampled_from([0, 0.1]))
    down = draw(st.sampled_from([0, 2, 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = rng.permutation(n)
    adj = (rank[:, None] < rank[None, :]) & (rng.random((n, n)) < density)
    sym = rng.random((n, n)) < sym_density
    adj |= sym | sym.T
    if n:
        x, y = rng.integers(0, n, (2, down))
        adj[np.where(rank[x] > rank[y], x, y), np.where(rank[x] > rank[y], y, x)] = True
    return adj


class TestLevels:
    @settings(max_examples=60, deadline=None)
    @given(level_cases())
    def test_packed_pass_matches_a_dense_one(self, adj):
        assert relation._levels(adj).tolist() == peel_levels(adj.T & ~adj).tolist()
        assert relation._levels(adj, inverse=True).tolist() == peel_levels(adj & ~adj.T).tolist()

    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_inverse_swaps_upper_and_lower(self, seed):
        # n % 8 and n % _ROWS are nonzero; d is about 140
        r = FiniteRelation.adopt(Universe(1500), aa_matrix(np.random.default_rng(seed), 1500))
        d, e = upper_layers(r), upper_layers(r.inverse())
        assert (e.upper_index, e.lower_index) == (d.lower_index, d.upper_index)


@st.composite
def relabelled_cases(draw):
    """An AA relation across several _ROWS blocks with n % 8 != 0, or one
    with a strict 3-cycle written over it, a permutation q of its universe
    and a subset."""
    n = draw(st.integers(65, 200).filter(lambda n: n % 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj, cyclic = aa_matrix(rng, n), draw(st.booleans())
    if cyclic:
        x, y, z = rng.choice(n, 3, replace=False)
        for a, b in ((x, y), (y, z), (z, x)):
            adj[a, b], adj[b, a] = True, False
    subset = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.1, 0.5, 1])))
    return adj, rng.permutation(n), subset, cyclic


class TestRelabelling:
    @settings(max_examples=100, deadline=None)
    @given(relabelled_cases())
    def test_permuting_the_universe_permutes_the_results(self, case):
        adj, q, subset, cyclic = case
        universe = Universe(len(q))
        # element j of s is element q[j] of r, and element a of r is new[a] of s
        r, s = FiniteRelation(universe, adj), FiniteRelation(universe, adj[np.ix_(q, q)])
        new = np.argsort(q)
        assert s.altiset(new[subset].tolist()) == {int(new[a]) for a in r.altiset(subset.tolist())}
        if cyclic:
            assert not r.has_aa_property() and not s.has_aa_property()
            cycle = s.find_asym_cycle()
            assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1 >= 2
            for a, b in zip(cycle, cycle[1:]):
                assert (a, b) in s and (b, a) not in s
        else:
            d, e = upper_layers(r), upper_layers(s)
            assert e.upper_index == tuple(np.array(d.upper_index)[q].tolist())
            assert e.lower_index == tuple(np.array(d.lower_index)[q].tolist())
            assert e.class_count == d.class_count


class TestOperators:
    def test_empty_set_is_fixed(self):
        assert apply_operator(UPPER, CHAIN3, set()) == frozenset()
        assert apply_operator(LOWER, CHAIN3, set()) == frozenset()

    def test_upper_on_chain(self):
        assert apply_operator(UPPER, CHAIN3, {0, 1, 2}) == {0, 1}

    def test_upper_empty_iff_lower_empty(self, rng):
        for _ in range(200):
            n = rng.randint(1, 7)
            r = random_aa_relation(rng, n)
            x = frozenset(i for i in range(n) if rng.random() < 0.7)
            up = apply_operator(UPPER, r, x)
            lo = apply_operator(LOWER, r, x)
            assert (up == frozenset()) == (lo == frozenset())

    def test_commutation(self, rng):
        for _ in range(200):
            n = rng.randint(1, 7)
            r = random_relation(rng, n)
            x = frozenset(i for i in range(n) if rng.random() < 0.7)
            ul = apply_operator(UPPER, r, apply_operator(LOWER, r, x))
            lu = apply_operator(LOWER, r, apply_operator(UPPER, r, x))
            expected = x - (r.altiset(x) | r.inverse().altiset(x))
            assert ul == lu == expected


class TestChains:
    def test_chain_of_length_d_annihilates(self, rng):
        for _ in range(60):
            n = rng.randint(1, 7)
            r = random_aa_relation(rng, n)
            d = upper_layers(r).class_count
            term = [rng.choice([UPPER, LOWER]) for _ in range(d)]
            final, steps = eval_chain(term, r)
            assert final == frozenset()
            assert len(steps) == d + 1

    def test_shorter_chains_are_nonempty(self, rng):
        for _ in range(60):
            n = rng.randint(2, 7)
            r = random_aa_relation(rng, n)
            d = upper_layers(r).class_count
            if d < 2:
                continue
            term = [rng.choice([UPPER, LOWER]) for _ in range(d - 1)]
            final, _ = eval_chain(term, r)
            assert final != frozenset()

    def test_single_upsilon_on_symmetric(self):
        final, _ = eval_chain([UPPER], rel(2, [(0, 1), (1, 0)]))
        assert final == frozenset()

    def test_cyclic_relation_rejected(self):
        with pytest.raises(CyclicRelationError):
            eval_chain([UPPER], CYCLE3)


class TestChainColoring:
    def test_chain_order_gets_three_colors(self):
        colors = chain_coloring([UPPER] * 3, CHAIN3)
        assert len(set(colors)) == 3

    def test_mixed_chain_on_antichain_edge(self):
        colors = chain_coloring([LOWER, UPPER], ANTICHAIN_EDGE)
        assert len(set(colors)) == 2
        assert colors[0] != colors[1]

    def test_single_element(self):
        assert chain_coloring([UPPER], rel(1, [])) == (1,)

    def test_empty_relation_takes_the_empty_term(self):
        assert chain_coloring([], rel(0, [])) == ()

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            chain_coloring([UPPER], CHAIN3)

    def test_proper_with_exactly_d_colors(self, rng):
        for _ in range(100):
            n = rng.randint(1, 8)
            r = random_aa_relation(rng, n)
            d = upper_layers(r).class_count
            term = [rng.choice([UPPER, LOWER]) for _ in range(d)]
            colors = chain_coloring(term, r)
            assert len(set(colors)) == d
            t = r.asym_interior().transitive_closure()
            for a, b in t.pairs():
                assert colors[a] != colors[b]


def fold_chain(term, r):
    """Every set of the chain by definitional steps: folds of apply_operator."""
    steps = [frozenset(range(r.universe.size))]
    for op in reversed(term):
        steps.append(apply_operator(op, r, steps[-1]))
    return steps


def fold_coloring(term, r):
    steps = fold_chain(term, r)
    colors = [0] * r.universe.size
    for i, (before, after) in enumerate(zip(steps, steps[1:]), 1):
        for x in before - after:
            colors[x] = i
    return tuple(colors)


def assert_chain_matches_fold(term, r):
    final, steps = eval_chain(term, r)
    expected = fold_chain(term, r)
    assert steps == expected and final == expected[-1]


@st.composite
def aa_relations_with_terms(draw):
    """An AA relation (strict edges upward in a hidden permutation, the rest
    symmetric or loops) and a term of length 1 to n + 2."""
    n = draw(st.integers(0, 9))
    rank = draw(st.permutations(range(n)))
    flags = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    pairs = []
    for a, b in itertools.product(range(n), repeat=2):
        if flags[a * n + b]:
            pairs += [(a, b)] if a == b or rank[a] < rank[b] else [(a, b), (b, a)]
    term = draw(st.lists(st.sampled_from([UPPER, LOWER]), min_size=1, max_size=n + 2))
    return rel(n, pairs), term


class TestChainsMatchOperatorFolds:
    def test_random_aa(self, rng):
        for _ in range(400):
            n = rng.randint(0, 13)
            r = random_aa_relation(rng, n, rng.choice([0.1, 0.4, 0.8]))
            term = [rng.choice([UPPER, LOWER]) for _ in range(rng.randint(1, n + 2))]
            assert_chain_matches_fold(term, r)
            d = upper_layers(r).class_count
            term = [rng.choice([UPPER, LOWER]) for _ in range(d)]
            assert chain_coloring(term, r) == fold_coloring(term, r)

    def test_total_order(self, rng):
        n = 60
        r = FiniteRelation.induce(Universe(n), list(range(n)))
        for term in ([UPPER] * n, [LOWER] * n, [UPPER, LOWER] * (n // 2)):
            assert_chain_matches_fold(term, r)
            assert chain_coloring(term, r) == fold_coloring(term, r)
        for _ in range(5):
            term = [rng.choice([UPPER, LOWER]) for _ in range(n + 2)]
            assert_chain_matches_fold(term, r)
            assert chain_coloring(term[:n], r) == fold_coloring(term[:n], r)

    def test_antichain(self):
        for r in (rel(5, []), rel(4, [(0, 1), (1, 0), (2, 2)])):
            for term in ([UPPER], [LOWER], [UPPER, LOWER, UPPER]):
                assert_chain_matches_fold(term, r)
            for term in ([UPPER], [LOWER]):
                assert chain_coloring(term, r) == fold_coloring(term, r) == (1,) * r.universe.size

    @settings(max_examples=300, deadline=None)
    @given(aa_relations_with_terms())
    def test_property(self, case):
        r, term = case
        assert_chain_matches_fold(term, r)
        d = upper_layers(r).class_count
        term = (term * (d + 1))[:d]
        assert chain_coloring(term, r) == fold_coloring(term, r)

    def test_unknown_operator_rejected(self):
        with pytest.raises(DimensionError, match="unknown operator 'x'"):
            eval_chain(["x"], CHAIN3)
        with pytest.raises(DimensionError, match="unknown operator 'x'"):
            chain_coloring([UPPER, "x", UPPER], CHAIN3)
        with pytest.raises(DimensionError, match="^chain term must be nonempty$"):
            eval_chain([], CHAIN3)

    def test_no_peeling_on_an_order(self, rng, monkeypatch):
        # chains and colorings come from the layer indices alone: no
        # altiset, no operator step and no cycle search may run
        def forbidden(*args, **kwargs):
            raise AssertionError("chains must be read off the layer indices")

        monkeypatch.setattr(FiniteRelation, "altiset", forbidden)
        monkeypatch.setattr(FiniteRelation, "find_asym_cycle", forbidden)
        monkeypatch.setattr(reference, "apply_operator", forbidden)
        n = 600
        r = FiniteRelation.induce(Universe(n), list(range(n)))
        term = [rng.choice([UPPER, LOWER]) for _ in range(n)]
        # element x has upper index n - x and lower index x + 1
        k = m = 0
        expected_steps = [frozenset(range(n))]
        expected_colors = [0] * n
        for i, op in enumerate(reversed(term), 1):
            k, m = (k + 1, m) if op == UPPER else (k, m + 1)
            expected_steps.append(frozenset(range(m, n - k)))
            for x in expected_steps[-2] - expected_steps[-1]:
                expected_colors[x] = i
        final, steps = eval_chain(term, r)
        assert steps == expected_steps and final == frozenset()
        assert chain_coloring(term, r) == tuple(expected_colors)


class TestLongestChain:
    def test_chain_of_three(self):
        assert longest_chain(CHAIN3) == 3

    def test_antichain(self):
        assert longest_chain(rel(4, [])) == 1

    def test_empty(self):
        assert longest_chain(rel(0, [])) == 0

    def test_total_order(self):
        assert longest_chain(FiniteRelation.induce(Universe(300), list(range(300)))) == 300

    def test_not_strict_order_rejected(self):
        # a loop alone is transitive, so only the asymmetry check sees it
        for pairs in ([(0, 1), (1, 0)], [(0, 0)], [(0, 1), (1, 1)]):
            with pytest.raises(NotAStrictOrderError, match="not irreflexive and asymmetric"):
                longest_chain(rel(2, pairs))
        with pytest.raises(NotAStrictOrderError, match="not transitive"):
            longest_chain(rel(3, [(0, 1), (1, 2)]))

    def test_large_total_order_without_an_implied_pair_rejected(self):
        order = FiniteRelation.induce(Universe(1200), list(range(1200)))
        adj = order.adjacency.copy()
        adj[300, 900] = adj[900, 300] = False  # implied through any element between
        with pytest.raises(NotAStrictOrderError, match="not transitive"):
            longest_chain(FiniteRelation(order.universe, adj))

    def test_matches_exhaustive_enumeration(self, rng):
        for _ in range(60):
            n = rng.randint(1, 7)
            t = random_aa_relation(rng, n).asym_interior().transitive_closure()
            best = 1
            for size in range(1, n + 1):
                for combo in itertools.permutations(range(n), size):
                    if all((a, b) in t for a, b in zip(combo, combo[1:])):
                        best = max(best, size)
            assert longest_chain(t) == best


class TestChromaticOracle:
    def test_edgeless(self):
        assert chromatic_number_oracle(rel(4, [])) == 1

    def test_triangle(self):
        assert chromatic_number_oracle(rel(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])) == 3

    def test_comparability_of_chain(self):
        assert chromatic_number_oracle(CHAIN3) == longest_chain(CHAIN3) == 3

    def test_size_cap(self):
        with pytest.raises(OracleSizeError):
            chromatic_number_oracle(rel(13, []))

    def test_odd_cycle_needs_three(self):
        c5 = rel(5, [(i, (i + 1) % 5) for i in range(5)])
        assert chromatic_number_oracle(c5) == 3

    def test_petersen_graph(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        assert chromatic_number_oracle(rel(10, outer + spokes + inner)) == 3


class TestChromaticIdentity:
    def test_d_equals_chi_equals_longest_chain(self, rng):
        for _ in range(150):
            n = rng.randint(1, 10)
            r = random_aa_relation(rng, n)
            t = r.asym_interior().transitive_closure()
            d = upper_layers(r).class_count
            assert d == chromatic_number_oracle(t) == longest_chain(t)
