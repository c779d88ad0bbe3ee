from pathlib import Path

import pytest

from altiset import datasets
from altiset.errors import ParseError
from altiset.geoalt import EUCLIDEAN_2D, REAL_LINE

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
        assert datasets.parse_relation(datasets.emit_relation(rel)) == rel

    def test_labels_round_trip(self):
        rel = datasets.parse_relation(
            '{"size": 2, "labels": ["x", "y"], "pairs": [[0, 1]]}'
        )
        again = datasets.parse_relation(datasets.emit_relation(rel))
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


class TestOrderSystemFormat:
    def test_parse(self):
        system = datasets.parse_order_system(read("orders.json"))
        assert len(system.orders) == 2
        assert system.orders[1].direction == "price"

    def test_round_trip(self):
        system = datasets.parse_order_system(read("orders.json"))
        again = datasets.parse_order_system(datasets.emit_order_system(system))
        assert again == system

    def test_bad_direction(self):
        with pytest.raises(ParseError, match="direction"):
            datasets.parse_order_system(
                '{"size": 1, "orders": [{"keys": [1], "direction": "up"}]}'
            )

    def test_key_length_mismatch(self):
        with pytest.raises(ParseError, match="entries"):
            datasets.parse_order_system('{"size": 2, "orders": [{"keys": [1]}]}')

    def test_boolean_size_is_not_an_integer(self):
        with pytest.raises(ParseError, match='"size"'):
            datasets.parse_order_system('{"size": true, "orders": [{"keys": [1]}]}')

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_key(self, value):
        with pytest.raises(ParseError, match="finite numbers"):
            datasets.parse_order_system(f'{{"size": 2, "orders": [{{"keys": [1, {value}]}}]}}')


class TestPointsCsv:
    def test_parse_with_header(self):
        points = datasets.parse_points_csv(read("points_mixed.csv"))
        assert points.points == ((1.0, 1.0), (2.0, 3.0), (3.0, 2.0), (4.0, 4.0))

    def test_parse_without_header(self):
        points = datasets.parse_points_csv("1,2\n3,4\n")
        assert points.points == ((1.0, 2.0), (3.0, 4.0))

    def test_round_trip(self):
        points = datasets.parse_points_csv(read("points_mixed.csv"))
        assert datasets.parse_points_csv(datasets.emit_points_csv(points)) == points

    def test_non_numeric_cell_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            datasets.parse_points_csv(read("bad_cell.csv"))

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
            datasets.emit_summits_csv(field), field.reference
        )
        assert again == field

    def test_round_trip_real_line(self):
        field = datasets.parse_summits_csv("x,h\n1,5\n2,3\n", 0.0)
        again = datasets.parse_summits_csv(
            datasets.emit_summits_csv(field), field.reference
        )
        assert again == field


class TestFamilyFormat:
    def test_parse(self):
        family = datasets.parse_family(read("family.json"))
        assert len(family.members) == 3
        assert family.ground.valuation["a"] == 3.0

    def test_round_trip(self):
        family = datasets.parse_family(read("family.json"))
        again = datasets.parse_family(datasets.emit_family(family))
        assert again == family

    def test_unknown_member_element(self):
        with pytest.raises(ParseError, match="unknown"):
            datasets.parse_family(
                '{"elements": ["a"], "h": {"a": 1}, "family": [["z"]]}'
            )

    def test_missing_valuation(self):
        with pytest.raises(ParseError, match="missing"):
            datasets.parse_family('{"elements": ["a"], "h": {}, "family": [["a"]]}')
