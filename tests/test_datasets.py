import contextlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altiset import datasets, emit
from altiset.errors import AltisetError, ParseError
from altiset.geoalt import EUCLIDEAN_2D, REAL_LINE
from altiset.relation import FiniteRelation, Universe
from conftest import peak_bytes

FIXTURES = Path(__file__).parent / "fixtures"


def read(name: str) -> str:
    return (FIXTURES / name).read_text()


class TestRelationFormat:
    def test_parse_cycle(self):
        rel = datasets.parse_relation(read("cycle3.json"))
        assert rel.universe.size == 3
        assert set(rel.pairs()) == {(0, 1), (1, 2), (2, 0)}

    def test_round_trip(self):
        text = read("chain3.json")
        rel = datasets.parse_relation(text)
        assert datasets.parse_relation(emit.emit_relation(rel)) == rel

    def test_labels_round_trip(self):
        rel = datasets.parse_relation(
            '{"size": 2, "labels": ["x", "y"], "pairs": [[0, 1]]}'
        )
        again = datasets.parse_relation(emit.emit_relation(rel))
        assert again.universe.labels == ("x", "y")
        assert again == rel

    def test_pair_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            datasets.parse_relation(read("bad_pairs.json"))

    def test_names_first_bad_pair_in_input_order(self):
        head = '{"size": 3, "pairs": [[0, 1], '
        cases = {
            '[3, 0], [0, "1"]]}': r'"pairs"\[1\] = \[3, 0\] out of range for size 3',
            '[0, "1"], [3, 0]]}': r'"pairs"\[1\] must be a pair of integers',
            '[0, 1.5], [-1, 0]]}': r'"pairs"\[1\] must be a pair of integers',
            '[1, 2, 0], [3, 0]]}': r'"pairs"\[1\] must be a pair of integers',
            '[0, 2], [1, -1], [0]]}': r'"pairs"\[2\] = \[1, -1\] out of range',
            '[0, 2], [2, 18446744073709551616]]}': r'"pairs"\[2\] = .* out of range',
        }
        for tail, message in cases.items():
            with pytest.raises(ParseError, match=message):
                datasets.parse_relation(head + tail)

    def test_booleans_are_not_integers(self):
        for text in (
            '{"size": true, "pairs": [[false, false]]}',
            '{"size": 2, "pairs": [[0, true]]}',
            '{"size": 2, "pairs": [[0, 1], [false, 1]]}',
        ):
            with pytest.raises(ParseError):
                datasets.parse_relation(text)
        with pytest.raises(ParseError, match='"pairs"\\[1\\] must be a pair of integers'):
            datasets.parse_relation('{"size": 2, "pairs": [[0, 1], [false, 1]]}')

    def test_bad_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            datasets.parse_relation("{nope")

    def test_missing_size(self):
        with pytest.raises(ParseError, match='"size"'):
            datasets.parse_relation('{"pairs": []}')

    @pytest.mark.parametrize("labels,message", [
        ('["a"]', "1 labels for universe of size 2"),
        ('["a", "a"]', "labels must be pairwise distinct"),
    ])
    def test_bad_labels_are_parse_errors(self, labels, message):
        with pytest.raises(ParseError, match=message):
            datasets.parse_relation(f'{{"size": 2, "labels": {labels}, "pairs": []}}')


def parse_outcome(text: str, scan: bool = True):
    """parse_relation's relation, or its error's type and message;
    scan=False forces the json.loads route."""
    route = mock.patch.object(datasets, "_scan_relation", return_value=None)
    with contextlib.nullcontext() if scan else route:
        try:
            return datasets.parse_relation(text)
        except AltisetError as exc:
            return type(exc).__name__, str(exc)


BLANKS = st.sampled_from(["", "", " ", "\n  ", "\t\r"])


@st.composite
def relation_documents(draw):
    """A valid relation file: members in random order, JSON whitespace
    anywhere, optional labels, an earlier "pairs" the last one overrides,
    and "pairs" sometimes spelled with an escape."""
    size = draw(st.integers(0, 150))
    index = st.integers(0, max(size - 1, 0))

    def pairs_text(pairs):
        gap = lambda: draw(BLANKS)
        items = [
            f"{gap()}[{gap()}{a}{gap()},{gap()}{b}{gap()}]{gap()}" for a, b in pairs
        ]
        return "[" + ",".join(items) + gap() + "]"

    pairs = draw(st.lists(st.tuples(index, index), max_size=12 if size else 0))
    pairs_key = draw(st.sampled_from(['"pairs"', '"\\u0070airs"', '"pa\\u0069rs"']))
    members = [('"size"', str(size)), (pairs_key, pairs_text(pairs))]
    if size <= 8 and draw(st.booleans()):
        labels = draw(st.lists(st.text(max_size=4), min_size=size, max_size=size, unique=True))
        members.append(('"labels"', json.dumps(labels, ensure_ascii=draw(st.booleans()))))
    if draw(st.booleans()):
        members.append(('"note"', json.dumps(draw(st.dictionaries(st.text(max_size=3), st.integers())))))
    members = draw(st.permutations(members))
    if draw(st.booleans()):  # an overridden duplicate comes first
        earlier = draw(st.lists(st.tuples(index, index), max_size=3 if size else 0))
        members.insert(0, ('"pairs"', pairs_text(earlier)))
    body = ",".join(f"{draw(BLANKS)}{k}{draw(BLANKS)}:{draw(BLANKS)}{v}" for k, v in members)
    return "{" + body + draw(BLANKS) + "}" + draw(BLANKS)


MUTATION_CHARS = '[]{},:" 0123456789-.eEtruefalsn\\'


def check_valid_document(text: str) -> None:
    doc = json.loads(text)
    universe = Universe(doc["size"], tuple(doc["labels"]) if "labels" in doc else None)
    assert datasets._scan_relation(text) is not None
    assert datasets.parse_relation(text) == FiniteRelation.from_pairs(universe, doc["pairs"])


def check_mutant(text: str, data) -> None:
    """One to three character edits of a valid document: whatever the scan
    accepts, json.loads reads the same, with the same parse outcome."""
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, len(text)))
        c = data.draw(st.sampled_from(MUTATION_CHARS))
        text = data.draw(st.sampled_from([
            text[:k] + c + text[k:], text[:k] + text[k + 1:], text[:k] + c + text[k + 1:],
        ]))
    doc = datasets._scan_relation(text)
    if doc is None:
        return  # parse_relation takes the json.loads route itself
    if isinstance(doc.get("pairs"), np.ndarray):
        doc["pairs"] = doc["pairs"].tolist()
    assert doc == json.loads(text)
    size = doc.get("size")
    if not isinstance(size, int) or size <= 2000:  # skip mutants with huge matrices
        assert parse_outcome(text) == parse_outcome(text, scan=False)


UNRECOGNISED = [
    "[[0 ,2 1]]", "[[0,2\n1]]", "[[01,1]]", "[[0,1,2]]", "[[0],[1]]", "[[[0,1]]]", "[[0,1],]",
    "[[1000000000000000000,0]]", "[[0,-1]]", "[[true,0]]", "[[0,1]] ]",
    "[[0,1.0]]", "[[0,1e0]]", "[[0,\"1\"]]", "[[\u00a00,1]]", "[]]",
]


def check_unrecognised(text: str) -> None:
    assert datasets._scan_relation(text) is None
    outcome = parse_outcome(text)
    assert outcome[0] == "ParseError"
    assert outcome == parse_outcome(text, scan=False)


AROUND_PAIRS = [
    '{"size": 3, "x": {"pairs": [[0, 9]]}, "pairs": [[0, 1]]}',
    '{"size": 3, "pairs": [[0, 1]], "x": {"pairs": 5}}',
    '{"size": 3, "pairs": [[0, 1]]} x',
    '{"size": 3, "pairs": [[0, 1]]}}',
    '{"size": 3, "pairs": [[0, 3]]}',
    '{"size": 3, "pairs": [[0, 1]], "pairs": [[2, 1], [999999999999999999, 0]]}',
    '{"size": 3, "pairs": [[0, 1]],}',
    '[{"size": 3, "pairs": [[0, 1]]}]',
]


class TestPairsScan:
    """The scan of "pairs" against the json.loads route it falls back to."""

    @settings(max_examples=300, deadline=None)
    @given(relation_documents())
    def test_valid_documents_take_the_scan(self, text):
        check_valid_document(text)

    @settings(max_examples=200, deadline=None)
    @given(relation_documents())
    def test_valid_documents_take_the_scan_in_7_character_slices(self, text):
        with mock.patch.object(datasets, "_CHUNK", 7):
            check_valid_document(text)

    @settings(max_examples=400, deadline=None)
    @given(relation_documents(), st.data())
    def test_mutants_match_the_json_route(self, text, data):
        check_mutant(text, data)

    @settings(max_examples=300, deadline=None)
    @given(relation_documents(), st.data())
    def test_mutants_match_the_json_route_in_7_character_slices(self, text, data):
        with mock.patch.object(datasets, "_CHUNK", 7):
            check_mutant(text, data)

    @pytest.mark.parametrize("pairs", UNRECOGNISED)
    def test_unrecognised_pairs_keep_the_json_route_errors(self, pairs):
        check_unrecognised('{"size": 3, "pairs": ' + pairs + "}")

    @pytest.mark.parametrize("chunk", [7, 1])
    @pytest.mark.parametrize("pairs", UNRECOGNISED)
    def test_unrecognised_pairs_in_later_slices(self, pairs, chunk, monkeypatch):
        monkeypatch.setattr(datasets, "_CHUNK", chunk)
        check_unrecognised('{"size": 3, "pairs": [[0, 1], ' + pairs[1:] + "}")

    @pytest.mark.parametrize("text", AROUND_PAIRS)
    def test_documents_around_pairs(self, text):
        assert parse_outcome(text) == parse_outcome(text, scan=False)

    @pytest.mark.parametrize("chunk", [7, 1])
    @pytest.mark.parametrize("text", AROUND_PAIRS)
    def test_documents_around_pairs_in_small_slices(self, text, chunk, monkeypatch):
        monkeypatch.setattr(datasets, "_CHUNK", chunk)
        assert parse_outcome(text) == parse_outcome(text, scan=False)

    @pytest.mark.parametrize("chunk", [7, 1])
    @pytest.mark.parametrize("text,pairs", [
        ('{"size":9,"pairs":[[0,0\n  ]]}', [[0, 0]]),  # the last slice is the closing ']'
        ('{"size":9,"pairs":[[0,0] \n ]}', [[0, 0]]),  # blanks before the closing ']'
        ('{"size":9,"pairs":[ ]}', []),
        ('{"size":9,"pairs":[[8,10],\t[0,7] ,[123456789012345678,0]]}',
         [[8, 10], [0, 7], [123456789012345678, 0]]),
    ])
    def test_small_slices_read_the_pairs(self, text, pairs, chunk, monkeypatch):
        monkeypatch.setattr(datasets, "_CHUNK", chunk)
        assert datasets._scan_relation(text)["pairs"].tolist() == pairs

    @pytest.fixture(scope="class")
    def total_order(self):
        n = 600
        pairs = [[a, b] for a in range(n) for b in range(a + 1, n)]
        return FiniteRelation.from_pairs(Universe(n), pairs), {"size": n, "pairs": pairs}

    @pytest.mark.parametrize("indent", [None, 2])
    def test_total_order_takes_the_scan(self, total_order, indent, monkeypatch):
        rel, doc = total_order
        text = json.dumps(doc, indent=indent, separators=None if indent else (",", ":"))
        assert len(text) > 20 * datasets._CHUNK  # read in many slices
        monkeypatch.setattr(datasets.json, "loads", mock.Mock(side_effect=AssertionError))
        assert datasets.parse_relation(text) == rel
        assert datasets._scan_relation(text)["pairs"].tolist() == doc["pairs"]

    def test_labelled_relation_takes_the_scan(self, monkeypatch):
        text = '{"labels": ["caf\u00e9", "x\\"y", "\u03b1"], "pairs": [[2, 0], [0, 1]], "size": 3}'
        expected = json.loads(text)
        monkeypatch.setattr(datasets.json, "loads", mock.Mock(side_effect=AssertionError))
        rel = datasets.parse_relation(text)
        assert rel.universe.labels == tuple(expected["labels"])
        assert set(rel.pairs()) == {(2, 0), (0, 1)}

    def test_scan_peak_memory_is_below_json_loads(self, total_order):
        _, doc = total_order
        for indent in (None, 2):
            text = json.dumps(doc, indent=indent, separators=None if indent else (",", ":"))
            assert peak_bytes(datasets.parse_relation, text) <= peak_bytes(json.loads, text), indent

    @pytest.mark.parametrize("indent", [None, 2])
    def test_scan_peak_memory_does_not_grow_with_the_text(self, total_order, indent):
        # 179,700 pairs: 2.9 MB of int64 indices and a 0.36 MB matrix; the
        # text is 1.7 MB compact and 6.0 MB with indent=2
        _, doc = total_order
        text = json.dumps(doc, indent=indent, separators=None if indent else (",", ":"))
        assert peak_bytes(datasets.parse_relation, text) <= 8_000_000


class TestOrderSystemFormat:
    def test_parse(self):
        system = emit.parse_order_system(read("orders.json"))
        assert len(system.orders) == 2
        assert system.orders[1].direction == "price"

    def test_round_trip(self):
        system = emit.parse_order_system(read("orders.json"))
        again = emit.parse_order_system(emit.emit_order_system(system))
        assert again == system

    def test_bad_direction(self):
        with pytest.raises(ParseError, match="direction"):
            emit.parse_order_system(
                '{"size": 1, "orders": [{"keys": [1], "direction": "up"}]}'
            )

    def test_key_length_mismatch(self):
        with pytest.raises(ParseError, match="entries"):
            emit.parse_order_system('{"size": 2, "orders": [{"keys": [1]}]}')

    def test_boolean_size_is_not_an_integer(self):
        with pytest.raises(ParseError, match='"size"'):
            emit.parse_order_system('{"size": true, "orders": [{"keys": [1]}]}')

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_key(self, value):
        with pytest.raises(ParseError, match="finite numbers"):
            emit.parse_order_system(f'{{"size": 2, "orders": [{{"keys": [1, {value}]}}]}}')


class TestPointsCsv:
    def test_parse_with_header(self):
        points = datasets.parse_points_csv(read("points_mixed.csv"))
        assert points.points == ((1.0, 1.0), (2.0, 3.0), (3.0, 2.0), (4.0, 4.0))

    def test_parse_without_header(self):
        points = datasets.parse_points_csv("1,2\n3,4\n")
        assert points.points == ((1.0, 2.0), (3.0, 4.0))

    def test_round_trip(self):
        points = datasets.parse_points_csv(read("points_mixed.csv"))
        assert datasets.parse_points_csv(emit.emit_points_csv(points)) == points

    def test_non_numeric_cell_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            datasets.parse_points_csv(read("bad_cell.csv"))

    def test_line_numbers_count_lines_inside_quoted_cells(self):
        with pytest.raises(ParseError, match="line 5"):
            datasets.parse_points_csv('x,y\n"1\n",2\n3,4\n5,z\n')

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="columns"):
            datasets.parse_points_csv("1,2,3\n")

    def test_empty_file(self):
        with pytest.raises(ParseError, match="no data"):
            datasets.parse_points_csv("x,y\n")


class TestSummitsCsv:
    def test_three_columns_are_planar(self):
        field = datasets.parse_summits_csv(read("summits.csv"), (0.0, 0.0))
        assert field.space == EUCLIDEAN_2D
        assert len(field) == 4

    def test_two_columns_are_real_line(self):
        field = datasets.parse_summits_csv("x,h\n1,5\n2,3\n", 0.0)
        assert field.space == REAL_LINE
        assert field.summits == (1.0, 2.0)

    def test_round_trip(self):
        field = datasets.parse_summits_csv(read("summits.csv"), (0.0, 0.0))
        again = datasets.parse_summits_csv(
            emit.emit_summits_csv(field), field.reference
        )
        assert again == field

    def test_blank_cells_do_not_set_the_width(self):
        # a row of empty cells is skipped by the reader, so it cannot pick the space
        field = datasets.parse_summits_csv(",,\n1,5\n2,3\n", 0.0)
        assert field.space == REAL_LINE
        assert field.summits == (1.0, 2.0)

    def test_header_after_blank_rows(self):
        field = datasets.parse_summits_csv("\n,,\nx,h\n1,5\n2,3\n", 0.0)
        assert field.summits == (1.0, 2.0)

    def test_round_trip_real_line(self):
        field = datasets.parse_summits_csv("x,h\n1,5\n2,3\n", 0.0)
        again = datasets.parse_summits_csv(
            emit.emit_summits_csv(field), field.reference
        )
        assert again == field


class TestFamilyFormat:
    def test_parse(self):
        family = datasets.parse_family(read("family.json"))
        assert len(family.members) == 3
        assert family.ground.valuation["a"] == 3.0

    def test_round_trip(self):
        family = datasets.parse_family(read("family.json"))
        again = datasets.parse_family(emit.emit_family(family))
        assert again == family

    def test_unknown_member_element(self):
        with pytest.raises(ParseError, match="unknown"):
            datasets.parse_family(
                '{"elements": ["a"], "h": {"a": 1}, "family": [["z"]]}'
            )

    def test_valuation_beyond_float_range(self):
        with pytest.raises(ParseError, match=r"\"h\"\['a'\] must be a finite number"):
            datasets.parse_family(
                '{"elements": ["a"], "h": {"a": 1%s}, "family": [["a"]]}' % ("0" * 400)
            )

    def test_missing_valuation(self):
        with pytest.raises(ParseError, match="missing"):
            datasets.parse_family('{"elements": ["a"], "h": {}, "family": [["a"]]}')
