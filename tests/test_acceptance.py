"""Acceptance gate: one test per criterion, at the stated scales.

Each test prints a single PASS/FAIL line (visible with -s or on failure).
"""

import itertools
import json
import math
import random
from pathlib import Path

import pytest

from altiset.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, main
from altiset import datasets, emit
from altiset.collective import (
    SubsetFamily,
    collective_altiset,
    pairwise_elimination,
)
from altiset.dependence import (
    PointSet2D,
    decreasingness_index,
    epsilon,
    increasingness_index,
)
from altiset.domains import GridMeasure, evolve, voronoi_mu
from altiset.geoalt import (
    geo_altiset_oracle,
    record_events,
    skyline_circular,
    skyline_contour,
    skyline_recursive,
)
from altiset.layers import (
    LOWER,
    UPPER,
    chain_coloring,
    eval_chain,
    upper_layers,
)
from altiset.orders import altiset_of_system, decompose_altiset
from altiset.relation import FiniteRelation, Universe, union

from conftest import random_aa_relation, random_family, random_field, random_relation, random_system
from reference import (
    altiset_bruteforce,
    apply_operator,
    chromatic_number_oracle,
    collective_altiset_bruteforce,
    longest_chain,
    minimal_increasing_cover_bruteforce,
    system_union,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def report(number: int, label: str, ok: bool):
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}]: {label}")
    assert ok, f"criterion {number}: {label}"


def test_criterion_1_altiset_identities():
    rng = random.Random(1)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 8)
        r = random_relation(rng, n, density=rng.uniform(0.1, 0.9))
        v = r.altiset()
        ok = ok and v == r.complementary_inversion().altiset()
        ok = ok and v == r.asym_interior().altiset()
        ok = ok and ((v == frozenset(range(n))) == r.is_symmetric())
        if not ok:
            break
    report(1, "altiset identities on 1000 random relations", ok)


def test_criterion_2_quotient_theorem():
    rng = random.Random(2)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 8)
        system = random_system(rng, n, max_orders=4)
        r = system_union(system)
        chosen = altiset_of_system(system)
        ok = ok and chosen == altiset_bruteforce(r)
        ok = ok and bool(chosen)
        for a in set(range(n)) - chosen:
            ok = ok and any((a, v) in r or (v, a) in r for v in chosen)
        if not ok:
            break
    report(2, "quotient altiset = definitional, nonempty, overcharged", ok)


def test_criterion_3_decomposition_principle():
    rng = random.Random(3)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 8)
        system = random_system(rng, n, max_orders=4)
        blocks = {}
        for i in range(n):
            blocks.setdefault(rng.randint(0, 3), []).append(i)
        ok = ok and decompose_altiset(system, list(blocks.values())) == altiset_of_system(system)
        if not ok:
            break
    # the non-induced 3-element counterexample, exactly as printed
    a, b, c = 0, 1, 2
    u = Universe(3)
    delta = [(a, a), (b, b), (c, c)]
    r1 = FiniteRelation.from_pairs(u, [(a, b), (a, c), (b, c)] + delta)
    r2 = FiniteRelation.from_pairs(u, [(c, a)] + delta)
    r = union([r1, r2])
    ok = ok and r.altiset({a}) == {a}
    ok = ok and r.altiset({b, c}) == {c}
    ok = ok and r.altiset({a, c}) == {a, c}
    ok = ok and r.altiset() == {c}
    report(3, "decomposition principle + non-induced counterexample", ok)


def test_criterion_4_chromatic_identity():
    rng = random.Random(4)
    ok = True
    for _ in range(300):
        n = rng.randint(1, 12)
        r = random_aa_relation(rng, n, density=rng.uniform(0.1, 0.7))
        t = r.asym_interior().transitive_closure()
        d = upper_layers(r).class_count
        ok = ok and d == chromatic_number_oracle(t) == longest_chain(t)
        if not ok:
            break
    report(4, "d(R) = chromatic number = longest chain on 300 AA relations", ok)


def test_criterion_5_operator_algebra():
    rng = random.Random(5)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 10)
        r = random_aa_relation(rng, n, density=rng.uniform(0.1, 0.7))
        x = frozenset(i for i in range(n) if rng.random() < 0.7)
        ul = apply_operator(UPPER, r, apply_operator(LOWER, r, x))
        lu = apply_operator(LOWER, r, apply_operator(UPPER, r, x))
        ok = ok and ul == lu == x - (r.altiset(x) | r.inverse().altiset(x))
        up = apply_operator(UPPER, r, x)
        lo = apply_operator(LOWER, r, x)
        ok = ok and ((up == frozenset()) == (lo == frozenset()))
        d = upper_layers(r).class_count
        term = [rng.choice([UPPER, LOWER]) for _ in range(d)]
        final, _ = eval_chain(term, r)
        ok = ok and final == frozenset()
        if d > 1:
            shorter = [rng.choice([UPPER, LOWER]) for _ in range(d - 1)]
            ok = ok and eval_chain(shorter, r)[0] != frozenset()
        colors = chain_coloring(term, r)
        ok = ok and len(set(colors)) == d
        t = r.asym_interior().transitive_closure()
        ok = ok and all(colors[p] != colors[q] for p, q in t.pairs())
        if not ok:
            break
    report(5, "upsilon/lambda algebra + minimal chain colorings", ok)


def test_criterion_6_dependence_indices():
    rng = random.Random(6)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 8)
        chosen = set()
        while len(chosen) < n:
            chosen.add((rng.randint(0, 9), rng.randint(0, 9)))
        s = PointSet2D(tuple((float(x), float(y)) for x, y in chosen))
        ok = ok and increasingness_index(s) == minimal_increasing_cover_bruteforce(s, True)
        ok = ok and decreasingness_index(s) == minimal_increasing_cover_bruteforce(s, False)
        if n >= 2:
            warped = PointSet2D(
                tuple((math.exp(x / 4.0), y**3 + y) for x, y in s.points)
            )
            ok = ok and abs(epsilon(s) - epsilon(warped)) <= 1e-12
        if not ok:
            break
    for n in range(2, 11):
        inc = PointSet2D(tuple((float(i), float(i)) for i in range(n)))
        dec = PointSet2D(tuple((float(i), float(n - i)) for i in range(n)))
        ok = ok and abs(epsilon(inc) - 1.0) <= 1e-12
        ok = ok and abs(epsilon(dec) + 1.0) <= 1e-12
    report(6, "dependence indices vs exhaustive oracle; epsilon extremes", ok)


def test_criterion_7_collective_comparison():
    rng = random.Random(7)
    ok = True
    for _ in range(300):
        family = random_family(rng, rng.randint(1, 5), max_members=8)
        oracle = collective_altiset_bruteforce(family)
        ok = ok and collective_altiset(family) == oracle == pairwise_elimination(family)
        if not ok:
            break
    family = random_family(rng, 3, max_members=1)
    ground = family.ground
    members = tuple(
        frozenset(c)
        for r in range(len(ground.elements) + 1)
        for c in itertools.combinations(ground.elements, r)
    )
    powerset = SubsetFamily(ground, members)
    full_index = members.index(frozenset(ground.elements))
    ok = ok and collective_altiset(powerset) == {full_index}
    ok = ok and pairwise_elimination(powerset) == {full_index}
    report(7, "pairwise elimination = quotient = oracle; powerset keeps X", ok)


def test_criterion_8_geometric_skylines():
    rng = random.Random(8)
    ok = True
    for trial in range(500):
        n = rng.randint(1, 200)
        f = random_field(rng, n, with_ties=(trial % 2 == 0))
        expected = geo_altiset_oracle(f)
        ok = ok and skyline_circular(f) == expected
        ok = ok and skyline_contour(f) == expected
        ok = ok and skyline_recursive(f, rng.randint(1, 32)) == expected
        if not ok:
            break
    for _ in range(200):
        n = rng.randint(1, 30)
        times = [float(rng.randint(0, n)) for _ in range(n)]
        alts = [float(rng.randint(0, 6)) for _ in range(n)]
        got = record_events(times, alts)
        expected = frozenset(
            a
            for a in range(n)
            if not any(
                b != a
                and alts[b] >= alts[a]
                and times[b] <= times[a]
                and (alts[b] > alts[a] or times[b] < times[a])
                for b in range(n)
            )
        )
        ok = ok and got == expected
        if not ok:
            break
    report(8, "all skyline methods match the oracle; records match", ok)


def test_criterion_9_evolution_stopping():
    rng = random.Random(9)
    ok = True
    grid = GridMeasure(-4, 4, -4, 4, 64, 64)
    for _ in range(50):
        n = rng.randint(1, 6)
        chosen = set()
        while len(chosen) < n:
            chosen.add((rng.randint(-3, 3), rng.randint(-3, 3)))
        summits = tuple((float(x), float(y)) for x, y in chosen)
        h0 = [float(rng.randint(0, 5)) for _ in summits]
        trace = evolve(summits, h0, grid, max_steps=1000)
        k = trace.stop_index
        ok = ok and trace.valuations[k] == trace.valuations[k + 1]
        rerun = evolve(summits, list(trace.final), grid)
        ok = ok and rerun.stop_index == 0 and rerun.final == trace.final
        if not ok:
            break
    for _ in range(1000):
        n = rng.randint(2, 6)
        chosen = set()
        while len(chosen) < n:
            chosen.add((rng.randint(-3, 3), rng.randint(-3, 3)))
        summits = tuple((float(x), float(y)) for x, y in chosen)
        x = rng.randrange(n)
        others = [i for i in range(n) if i != x]
        small = [i for i in others if rng.random() < 0.5]
        large = small + [i for i in others if i not in small and rng.random() < 0.5]
        ok = ok and voronoi_mu(x, small, summits, grid) <= voronoi_mu(x, large, summits, grid)
        if not ok:
            break
    report(9, "evolution stops and stays; 1000 izoton monotonicity triples", ok)


def test_criterion_10_cli(capsys, tmp_path):
    ok = True
    runs = [
        ("altiset_cycle3.json", ["altiset", "--relation", str(FIXTURES / "cycle3.json")]),
        ("layers_chain3.json", ["layers", "--relation", str(FIXTURES / "chain3.json")]),
        ("correlate_increasing.json", ["correlate", str(FIXTURES / "points_increasing.csv")]),
        ("collective_family.json", ["collective", str(FIXTURES / "family.json")]),
        ("skyline_summits.json", ["skyline", str(FIXTURES / "summits.csv"), "--ref", "0,0", "--method", "oracle"]),
        ("evolve_triangle.json", ["evolve", str(FIXTURES / "evolve.csv"), "--grid", "16x16"]),
    ]
    for golden, argv in runs:
        code = main(["--no-timestamp"] + argv)
        out = capsys.readouterr().out
        ok = ok and code == EXIT_OK and out == (GOLDEN / golden).read_text()

    # round trips on all fixture datasets
    rel = datasets.parse_relation((FIXTURES / "cycle3.json").read_text())
    ok = ok and datasets.parse_relation(emit.emit_relation(rel)) == rel
    system = emit.parse_order_system((FIXTURES / "orders.json").read_text())
    ok = ok and emit.parse_order_system(emit.emit_order_system(system)) == system
    pts = datasets.parse_points_csv((FIXTURES / "points_mixed.csv").read_text())
    ok = ok and datasets.parse_points_csv(emit.emit_points_csv(pts)) == pts
    field = datasets.parse_summits_csv((FIXTURES / "summits.csv").read_text(), (0.0, 0.0))
    ok = ok and datasets.parse_summits_csv(emit.emit_summits_csv(field), (0.0, 0.0)) == field
    family = datasets.parse_family((FIXTURES / "family.json").read_text())
    ok = ok and datasets.parse_family(emit.emit_family(family)) == family

    # documented exit codes on malformed inputs
    ok = ok and main(["--no-timestamp", "altiset", "--relation", str(FIXTURES / "bad_pairs.json")]) == EXIT_IO
    ok = ok and main(["--no-timestamp", "correlate", str(FIXTURES / "bad_cell.csv")]) == EXIT_IO
    ok = ok and main(["--no-timestamp", "layers", "--relation", str(FIXTURES / "cycle3.json")]) == EXIT_DOMAIN
    ok = ok and main(["--no-timestamp", "altiset", "--relation", str(tmp_path / "missing.json")]) == EXIT_IO
    capsys.readouterr()
    report(10, "CLI goldens, round trips, exit codes", ok)
