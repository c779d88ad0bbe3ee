import contextlib
import inspect
import io
import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from altiset import datasets, emit, relstream
from altiset.errors import AltisetError, ParseError
from altiset.dependence import PointSet2D
from altiset.geoalt import EUCLIDEAN_2D, REAL_LINE, SummitField, geo_altiset_oracle
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


def parse_outcome(text: str, stream: bool = True):
    """parse_relation's relation, or its error's type and message;
    stream=False forces the json.loads route."""
    route = mock.patch.object(
        relstream._RelationStream, "read", side_effect=relstream._Unrecognised
    )
    with contextlib.nullcontext() if stream else route:
        try:
            return datasets.parse_relation(text)
        except AltisetError as exc:
            return type(exc).__name__, str(exc)


def stream_read(text: str):
    """The stream's (members, matrix) for text, or None where it hands the
    document to the json.loads route."""
    fh = io.BytesIO(text.encode("utf-8", "surrogatepass"))
    try:
        return relstream._RelationStream(fh).read()
    except (relstream._Unrecognised, UnicodeDecodeError, MemoryError):
        return None


def pairs_of(adj: np.ndarray) -> set:
    return set(zip(*np.nonzero(adj)))


# bytes per read: one, a few (so slices cut numbers, keys and characters), the default
SLICES = [1, 7, None]
# hypothesis examples per slice size, for valid documents and for their mutants
VALID_EXAMPLES = {1: 120, 7: 200, None: 300}
MUTANT_EXAMPLES = {1: 150, 7: 300, None: 400}


def slices(size):
    """Reads of size bytes for the stream; None keeps the default."""
    if size is None:
        return contextlib.nullcontext()
    return mock.patch.object(relstream, "_SLICE", size)


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
    """The stream reads every valid document but one with a repeated key,
    which json.loads reads in its place."""
    doc = json.loads(text)
    keys = [k for k, _ in json.loads(text, object_pairs_hook=lambda kv: kv)]
    universe = Universe(doc["size"], tuple(doc["labels"]) if "labels" in doc else None)
    assert (stream_read(text) is not None) == (len(keys) == len(set(keys)))
    assert datasets.parse_relation(text) == FiniteRelation.from_pairs(universe, doc["pairs"])


def check_mutant(text: str, data) -> None:
    """One to three character edits of a valid document: whatever the
    stream accepts, json.loads reads the same, with the same parse outcome."""
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, len(text)))
        c = data.draw(st.sampled_from(MUTATION_CHARS))
        text = data.draw(st.sampled_from([
            text[:k] + c + text[k:], text[:k] + text[k + 1:], text[:k] + c + text[k + 1:],
        ]))
    try:
        expected = json.loads(text)
    except ValueError:
        expected = None
    size = expected.get("size") if isinstance(expected, dict) else None
    if isinstance(size, int) and size > 2000:
        return  # skip mutants with huge matrices
    read = stream_read(text)
    if read is not None:
        members, adj = read
        assert members == {k: v for k, v in expected.items() if k != "pairs"}
        assert pairs_of(adj) == set(map(tuple, expected.get("pairs", [])))
    assert parse_outcome(text) == parse_outcome(text, stream=False)


UNRECOGNISED = [
    "[[0 ,2 1]]", "[[0,2\n1]]", "[[01,1]]", "[[0,1,2]]", "[[0],[1]]", "[[[0,1]]]", "[[0,1],]",
    "[[1000000000000000000,0]]", "[[0,-1]]", "[[true,0]]", "[[0,1]] ]",
    "[[0,1.0]]", "[[0,1e0]]", "[[0,\"1\"]]", "[[\u00a00,1]]", "[]]",
]


def check_unrecognised(text: str) -> None:
    assert stream_read(text) is None
    outcome = parse_outcome(text)
    assert outcome[0] == "ParseError"
    assert outcome == parse_outcome(text, stream=False)


AROUND_PAIRS = [
    '{"size": 3, "x": {"pairs": [[0, 9]]}, "pairs": [[0, 1]]}',
    '{"size": 3, "pairs": [[0, 1]], "x": {"pairs": 5}}',
    '{"size": 3, "pairs": [[0, 1]]} x',
    '{"size": 3, "pairs": [[0, 1]]}}',
    '{"size": 3, "pairs": [[0, 3]]}',
    '{"size": 3, "pairs": [[0, 1]], "pairs": [[2, 1], [999999999999999999, 0]]}',
    '{"size": 3, "pairs": [[0, 1]],}',
    '[{"size": 3, "pairs": [[0, 1]]}]',
    '{"pairs": [[0, 1], [2, 3]], "size": 3}',
    '{"size": 3, "pairs": [[0, 1]], "size": 1}',
    '{"size": 2, "size": 3, "pairs": [[0, 2]]}',
    '{"size": -1, "pairs": []}',
    '{"size": 2, "pairs": null}',
    '{"size": 2, "pairs": []',
    '{"size": 2.5, "pairs": []}',
    '{"size": 2, "labels": ["a", "a"], "pairs": [[0, 1]]}',
    '{}',
    '',
    '\ufeff{"size": 2, "pairs": []}',
    '{"size": 2, "pairs": [[0, 1]], "labels": "\ud800"}',
]


class TestRelationStream:
    """The streamed relation file against the json.loads route it falls back to."""

    @pytest.mark.parametrize("size", SLICES)
    def test_valid_documents_take_the_stream(self, size):
        @settings(max_examples=VALID_EXAMPLES[size], deadline=None)
        @given(text=relation_documents())
        def check(text):
            with slices(size):
                check_valid_document(text)

        check()

    @pytest.mark.parametrize("size", SLICES)
    def test_mutants_match_the_json_route(self, size):
        @settings(max_examples=MUTANT_EXAMPLES[size], deadline=None)
        @given(text=relation_documents(), data=st.data())
        def check(text, data):
            with slices(size):
                check_mutant(text, data)

        check()

    @pytest.mark.parametrize("size", SLICES)
    @pytest.mark.parametrize("pairs", UNRECOGNISED)
    def test_unrecognised_pairs_keep_the_json_route_errors(self, pairs, size):
        with slices(size):
            check_unrecognised('{"size": 3, "pairs": ' + pairs + "}")

    @pytest.mark.parametrize("size", SLICES)
    @pytest.mark.parametrize("pairs", UNRECOGNISED)
    def test_unrecognised_pairs_in_later_slices(self, pairs, size):
        with slices(size):
            check_unrecognised('{"size": 3, "pairs": [[0, 1], ' + pairs[1:] + "}")

    @pytest.mark.parametrize("size", SLICES)
    @pytest.mark.parametrize("text", AROUND_PAIRS)
    def test_documents_around_pairs(self, text, size):
        with slices(size):
            assert parse_outcome(text) == parse_outcome(text, stream=False)

    @pytest.mark.parametrize("size", SLICES)
    @pytest.mark.parametrize("text,pairs", [
        ('{"size":9,"pairs":[[0,0\n  ]]}', [[0, 0]]),  # the last slice is the closing ']'
        ('{"size":9,"pairs":[[0,0] \n ]}', [[0, 0]]),  # blanks before the closing ']'
        ('{"size":9,"pairs":[ ]}', []),
        ('{"size":11,"pairs":[[8,10],\t[0,7] ,[10,0]]}', [[8, 10], [0, 7], [10, 0]]),
        ('{"pairs":[[8,10],[0,7]],"size":11}', [[8, 10], [0, 7]]),  # "size" after "pairs"
        ('{"pairs":[[8,10],[0,7]],"size":11, "pairs":[[1,2]]}', None),  # a repeated "pairs"
    ])
    def test_small_slices_read_the_pairs(self, text, pairs, size):
        with slices(size):
            read = stream_read(text)
        if pairs is None:
            assert read is None
        else:
            assert pairs_of(read[1]) == set(map(tuple, pairs))

    @settings(max_examples=2, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_sparse_relation_at_scale(self, seed):
        # n = 2,000 with a few thousand pairs, repeats included: every slice size reads one matrix
        rng = np.random.default_rng(seed)
        n = 2000
        pairs = rng.integers(0, n, size=(int(rng.integers(2000, 5000)), 2))
        expected = np.zeros((n, n), dtype=bool)
        expected[pairs[:, 0], pairs[:, 1]] = True
        text = json.dumps({"size": n, "pairs": pairs.tolist()})
        for size in SLICES:
            with slices(size):
                doc, adj = stream_read(text)
            assert doc["size"] == n and np.array_equal(adj, expected)
        assert np.array_equal(datasets.parse_relation(text).adjacency, expected)

    def test_slice_scan_reads_18_digit_indices(self):
        values, last = relstream._scan_slice(b"[[8,10],\t[0,7] ,[123456789012345678,0]]", True)
        assert values.tolist() == [8, 10, 0, 7, 123456789012345678, 0] and last
        values, last = relstream._scan_slice(b",[1,2]", False)
        assert values.tolist() == [1, 2] and not last

    @pytest.mark.parametrize("size", SLICES)
    def test_size_after_pairs_takes_the_stream(self, size, monkeypatch):
        text = '{"pairs": [[0, 1], [2, 1]], "labels": ["é", "b", "c"], "size": 3}'
        monkeypatch.setattr(datasets.json, "loads", mock.Mock(side_effect=AssertionError))
        with slices(size):
            rel = datasets.parse_relation(text)
        assert set(rel.pairs()) == {(0, 1), (2, 1)}
        assert rel.universe.labels == ("é", "b", "c")

    @pytest.mark.parametrize("size", SLICES)
    @pytest.mark.parametrize("text", [
        '{"size": 3, "pairs": [[0, 1], [2, 1]]}', '{"pairs": [[0, 1], [2, 1]], "size": 3}',
    ], ids=["size-first", "size-last"])
    def test_file_read_from_an_offset(self, text, size, monkeypatch):
        # "pairs" is read again from its offset in the file, not in the document
        fh = io.BytesIO(b'{"pairs": [[0, 0]]}' + text.encode())
        fh.seek(19)
        monkeypatch.setattr(datasets.json, "loads", mock.Mock(side_effect=AssertionError))
        with slices(size):
            rel = datasets.parse_relation(fh)
        assert set(rel.pairs()) == {(0, 1), (2, 1)}

    @pytest.mark.parametrize("size", SLICES)
    def test_non_ascii_labels_take_the_stream(self, size, monkeypatch):
        # with one byte per read, each multi-byte character is cut by a slice end
        labels = ["café", "x\"y", "α", "山\U0001f5fb"]
        text = json.dumps({"size": 4, "labels": labels, "pairs": [[2, 0], [0, 1]]},
                          ensure_ascii=False)
        monkeypatch.setattr(datasets.json, "loads", mock.Mock(side_effect=AssertionError))
        with slices(size):
            rel = datasets.parse_relation(text)
        assert rel.universe.labels == tuple(labels)
        assert set(rel.pairs()) == {(2, 0), (0, 1)}

    @pytest.mark.parametrize("size", SLICES)
    @pytest.mark.parametrize("before", [True, False], ids=["before-pairs", "after-pairs"])
    def test_labels_longer_than_a_slice_take_the_stream(self, size, before, monkeypatch):
        n = 3000  # 4-byte and 2-byte characters, so window and slice ends cut them
        labels = [f"\U0001f5fb{k}\u00e9" for k in range(n)]
        members = {"size": n, "pairs": [[0, 1], [n - 1, 0]]}
        doc = {"labels": labels, **members} if before else {**members, "labels": labels}
        text = json.dumps(doc, ensure_ascii=False)
        assert len(json.dumps(labels, ensure_ascii=False).encode()) > relstream._SLICE
        expected = parse_outcome(text, stream=False)
        monkeypatch.setattr(datasets.json, "loads", mock.Mock(side_effect=AssertionError))
        with slices(size):
            rel = datasets.parse_relation(text)
        assert rel == expected and rel.universe.labels == tuple(labels)

    @pytest.mark.parametrize("size", SLICES)
    def test_many_members_take_the_stream(self, size, monkeypatch):
        kinds = [lambda k: k, str, lambda k: [k, None], lambda k: {"x": k / 4}, lambda k: k % 2 == 0]
        doc = {f"m{k}": kinds[k % len(kinds)](k) for k in range(20000)}
        text = json.dumps({"size": 2, **doc, "pairs": [[0, 1]]})
        monkeypatch.setattr(datasets.json, "loads", mock.Mock(side_effect=AssertionError))
        with slices(size):
            members, adj = stream_read(text)
        assert members == {"size": 2, **doc} and pairs_of(adj) == {(0, 1)}

    @pytest.mark.parametrize("size", SLICES)
    def test_huge_size_is_a_parse_error(self, size):
        with slices(size):
            outcome = parse_outcome('{"size": 1000000000, "pairs": []}')
        assert outcome == ("ParseError", '"size" 1000000000 is too large to hold in memory')

    @pytest.mark.parametrize("size", SLICES)
    @pytest.mark.parametrize("text,message", [
        ('{"size": 4000000000, "pairs": [[0, 4000000001]]}',
         '"pairs"[0] = [0, 4000000001] out of range for size 4000000000'),
        ('{"size": 4000000000, "pairs": [[0, 1]], x',
         "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 41 (char 40)"),
        ('{"size": 4000000000, "pairs": [], "labels": [1]}', '"labels" must be a list of strings'),
        ('{"size": 4000000000, "pairs": []}', '"size" 4000000000 is too large to hold in memory'),
        ('{"pairs": [], "size": 100000000000000000000}',
         '"size" 100000000000000000000 is too large to hold in memory'),
    ], ids=["out-of-range", "invalid-json", "labels", "empty", "beyond-int64"])
    def test_size_beyond_numpy_indexing_is_a_parse_error(self, text, message, size):
        # numpy raises ValueError for these shapes, where a smaller huge size gives MemoryError
        with slices(size):
            assert parse_outcome(text) == ("ParseError", message)

    def test_matrix_is_kept_not_copied(self):
        n = 2000  # a 4 MB matrix, which a copy would double
        rel = datasets.parse_relation(f'{{"size": {n}, "pairs": [[0, 1]]}}')
        assert not rel.adjacency.flags.writeable
        assert peak_bytes(datasets.parse_relation, f'{{"size": {n}, "pairs": []}}') < 1.5 * n * n

    @pytest.fixture(scope="class")
    def total_order(self):
        n = 600
        pairs = [[a, b] for a in range(n) for b in range(a + 1, n)]
        return FiniteRelation.from_pairs(Universe(n), pairs), {"size": n, "pairs": pairs}

    @pytest.mark.parametrize("indent", [None, 2])
    def test_total_order_takes_the_stream(self, total_order, indent, monkeypatch):
        rel, doc = total_order
        text = json.dumps(doc, indent=indent, separators=None if indent else (",", ":"))
        assert len(text) > 20 * relstream._SLICE  # read in many slices
        monkeypatch.setattr(datasets.json, "loads", mock.Mock(side_effect=AssertionError))
        assert datasets.parse_relation(text) == rel
        assert np.array_equal(stream_read(text)[1], rel.adjacency)

    def test_stream_peak_memory_is_below_json_loads(self, total_order):
        _, doc = total_order
        for indent in (None, 2):
            text = json.dumps(doc, indent=indent, separators=None if indent else (",", ":"))
            assert peak_bytes(datasets.parse_relation, text) <= peak_bytes(json.loads, text), indent

    @pytest.mark.parametrize("sort_keys", [False, True], ids=["size-first", "size-last"])
    @pytest.mark.parametrize("indent", [None, 2])
    def test_file_parse_peaks_below_the_file_size(self, total_order, indent, sort_keys, tmp_path):
        # 179,700 pairs: the file is 1.7 MB compact and 6.0 MB with indent=2,
        # the matrix 0.36 MB; sorted keys put "size" after "pairs", as emit writes it
        _, doc = total_order
        path = tmp_path / "total600.json"
        separators = None if indent else (",", ":")
        path.write_text(json.dumps(doc, indent=indent, separators=separators, sort_keys=sort_keys))
        with open(path, "rb") as fh:
            assert peak_bytes(datasets.parse_relation, fh) < path.stat().st_size


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

    @pytest.mark.parametrize("orders,message", [
        ("[]", r'^"orders" must be a nonempty list$'),
        ("[[1]]", r'^"orders"\[0\] must be an object$'),
    ])
    def test_malformed_orders(self, orders, message):
        with pytest.raises(ParseError, match=message):
            emit.parse_order_system(f'{{"size": 1, "orders": {orders}}}')

    def test_boolean_size_is_not_an_integer(self):
        with pytest.raises(ParseError, match='"size"'):
            emit.parse_order_system('{"size": true, "orders": [{"keys": [1]}]}')

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_key(self, value):
        with pytest.raises(ParseError, match="finite numbers"):
            emit.parse_order_system(f'{{"size": 2, "orders": [{{"keys": [1, {value}]}}]}}')


@pytest.mark.parametrize("size", ["-1", "true", "1.5", '"2"', "null"])
def test_relation_and_order_system_share_the_size_rule(size):
    message = '^"size" must be a non-negative integer$'
    with pytest.raises(ParseError, match=message):
        datasets.parse_relation('{"size": %s, "pairs": []}' % size)
    with pytest.raises(ParseError, match=message):
        emit.parse_order_system('{"size": %s, "orders": [{"keys": [1]}]}' % size)


# cells float() and np.loadtxt read alike: ints, exponents, signed zeros,
# blanks and U+00A0 around a cell
PLAIN_CELLS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e5", "2E-3", "-0", "+0", "-0.0", "0e0", ".5", "1.", "9007199254740993",
                     " 7 ", "\t8", "\u00a09\u00a0"]),
)
# float() reads "1_000" and Arabic-Indic digits where np.loadtxt does not, and
# both read "1e999" as inf
ODD_CELLS = st.sampled_from([
    "1_000", "\u0661\u0662", "1e999", "-1E999", "nan", "inf", "-inf", "#", "", "x", '"3"',
    '"4\n5"', "1 2", "\u00a0",
])
BLANK_ROWS = st.sampled_from(["", "   ", ",,", " , ", "\t"])


@st.composite
def csv_texts(draw):
    """A CSV with maybe a BOM and a header, and blank, whitespace-only and
    ",," rows.  Three in four are plain: numeric rows of one width and
    LF or CRLF line ends.  The others add CR line ends, quoted cells (one
    spanning lines), non-finite and non-numeric cells and rows of a wrong width."""
    columns = draw(st.sampled_from([2, 3]))
    plain = draw(st.sampled_from([True, True, True, False]))
    cell = PLAIN_CELLS if plain else st.one_of(PLAIN_CELLS, PLAIN_CELLS, ODD_CELLS)
    widths = [columns] if plain else [columns - 1, columns, columns, columns + 1]
    data_row = st.sampled_from(widths).flatmap(
        lambda k: st.lists(cell, min_size=k, max_size=k)
    ).map(",".join)
    lines = draw(st.lists(st.one_of(data_row, data_row, data_row, BLANK_ROWS), max_size=8))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, min(2, len(lines)))), ",".join("xyh"[:columns]))
    ends = st.sampled_from(["\n", "\r\n"] if plain else ["\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    if lines and draw(st.booleans()):
        text = text[:-1]  # no line end after the last row
    return columns, ("\ufeff" if draw(st.booleans()) else "") + text


def read_outcome(read, *args):
    """What a reader returns, as comparable bytes, or its error's type and message."""
    try:
        result = read(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    return result


def csv_fallback(text, columns):
    """_read_numeric_csv's rows as float64, or its ParseError."""
    return np.array(datasets._read_numeric_csv(text, columns, "xyh"[:columns]), dtype=np.float64)


class TestArrayReader:
    """The np.loadtxt route against `_read_numeric_csv`, which it falls back to."""

    @settings(max_examples=600, deadline=None)
    @given(case=csv_texts())
    # a first row that splits at commas unlike csv: quoted, cut by a CR or
    # (on Python 3.10, where csv rejects it) holding a NUL; one of another width
    @example(case=(2, '"x,y"\n1,2\n'))
    @example(case=(2, "\rx,y\n1,2\n"))
    @example(case=(2, "x\0,y\n1,2\n"))
    @example(case=(2, "x,y,h\n1,2\n"))
    def test_fast_route_gives_the_fallbacks_rows_or_error(self, case):
        columns, text = case
        names = "xyh"[:columns]
        assert read_outcome(datasets._read_array, text, columns, names) == read_outcome(
            csv_fallback, text, columns
        )

    @settings(max_examples=300, deadline=None)
    @given(case=csv_texts())
    def test_parsers_match_the_csv_route(self, case):
        _, text = case
        for parse, args in [(datasets.parse_summits_csv, (text, 0.0)),
                            (datasets.parse_points_csv, (text,))]:
            fast = read_outcome(parse, *args)
            with mock.patch.object(datasets, "_loaded", return_value=None):
                assert fast == read_outcome(parse, *args)

    @pytest.mark.parametrize("text", [
        "x,y\r\n1,2\r\n-0,3e2\r\n", "\ufeff\n,\n x , y \n1,2\n\n\n3,4", "1,2\n", "1e-320,+5\n",
    ])
    def test_plain_csv_takes_the_fast_route(self, text, monkeypatch):
        monkeypatch.setattr(datasets, "_read_numeric_csv", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(datasets, "_csv_rows", mock.Mock(side_effect=AssertionError))
        rows = datasets._read_array(text, 2, "xy")
        assert rows.dtype == np.float64 and rows.shape[1] == 2
        datasets.parse_points_csv(text)
        datasets.parse_summits_csv(text, 0.0)

    @pytest.mark.parametrize("text,fault", [
        ('x,y\n"1",2\n', None),
        ("x,y\n1_000,2\n", None),
        ("x,y\n1e999,2\n", "line 2: non-finite cell in ['1e999', '2']"),
        ("x,y\n1,2\n3\n", "line 3: expected 2 columns (x, y), got 1"),
        ("x,y\n1,2\n#,4\n", "line 3: non-numeric cell in ['#', '4']"),
    ], ids=["quoted", "underscore", "overflow", "width", "hash"])
    def test_other_inputs_take_the_fallback(self, text, fault):
        assert datasets._loaded(text) is None
        if fault is None:
            assert datasets._read_array(text, 2, "xy").tolist() == [[1000.0 if "_" in text else 1.0, 2.0]]
        else:
            with pytest.raises(ParseError, match=re.escape(fault)):
                datasets._read_array(text, 2, "xy")

    def test_summits_fallback_runs_loadtxt_once(self, monkeypatch):
        loaded = mock.Mock(wraps=datasets._loaded)
        monkeypatch.setattr(datasets, "_loaded", loaded)
        field = datasets.parse_summits_csv('x,h\n"1",5\n2,3\n', 0.0)
        assert loaded.call_count == 1 and field.summits == (1.0, 2.0)

    def test_skyline_parse_and_oracle_peak(self):
        # 10^5 rows: the text is 2.2 MB, the float64 rows 2.4 MB; the csv
        # route's tuples of Python floats peaked at 33.7 MB
        rng = np.random.default_rng(5)
        cells = rng.integers(-10**6, 10**6, size=(100_000, 3))
        text = "x,y,h\n" + "\n".join(f"{x},{y},{h}" for x, y, h in cells.tolist()) + "\n"

        def run():
            return geo_altiset_oracle(datasets.parse_summits_csv(text, (0.0, 0.0)))

        assert peak_bytes(run) < 16_000_000


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

    def test_emitted_text(self):
        points = PointSet2D([(0.5, -0.0), (1e150, 5e-324), (-3.0, 2.0)])
        assert emit.emit_points_csv(points) == "x,y\n0.5,-0.0\n1e+150,5e-324\n-3.0,2.0\n"

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

    @pytest.mark.parametrize("field,text", [
        (SummitField(EUCLIDEAN_2D, [(0.1, -0.0), (2.0, 3.5)], [7.0, -1e-300], (0.0, 0.0)),
         "x,y,h\n0.1,-0.0,7.0\n2.0,3.5,-1e-300\n"),
        (SummitField(REAL_LINE, [-2.5, 1e100], [3.0, 0.0], 0.0), "x,h\n-2.5,3.0\n1e+100,0.0\n"),
    ], ids=["plane", "line"])
    def test_emitted_text(self, field, text):
        assert emit.emit_summits_csv(field) == text

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

    def test_reference_selects_the_space(self):
        assert list(inspect.signature(datasets.parse_summits_csv).parameters) == ["text", "reference"]
        assert datasets.parse_summits_csv("x,y,h\n1,2,5\n", np.zeros(2)).space == EUCLIDEAN_2D
        assert datasets.parse_summits_csv("x,h\n1,5\n", np.float64(0)).space == REAL_LINE
        with pytest.raises(ParseError, match="got rows of unequal length"):
            datasets.parse_summits_csv("x,y,h\n1,2,5\n", [1.0, [2.0, 3.0]])

    @pytest.mark.parametrize("text,reference,message", [
        ("x,h\n1,5\n2,3\n", (0.0, 0.0), "2 columns (x,h) do not fit a euclidean-2d space"),
        ("x,y,h\n0,0,5\n1,1,3\n", 0.0, "3 columns (x,y,h) do not fit a real-line space"),
        ('x,y,h\n"0",0,5\n', 0.0, "3 columns (x,y,h) do not fit a real-line space"),
    ], ids=["line-for-a-pair", "plane-for-a-number", "plane-for-a-number-csv-route"])
    def test_width_must_fit_the_reference(self, text, reference, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            datasets.parse_summits_csv(text, reference)


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
        with pytest.raises(ParseError, match="^member 0 has element 'z' outside the ground set$"):
            datasets.parse_family(
                '{"elements": ["a"], "h": {"a": 1}, "family": [["z"]]}'
            )

    def test_member_types_are_checked_before_elements(self):
        # every member's JSON type is checked before any name is looked up
        with pytest.raises(ParseError, match=r'^"family"\[1\] must be a list of element names$'):
            datasets.parse_family(
                '{"elements": ["a"], "h": {"a": 1}, "family": [["z"], "a"]}'
            )

    def test_valuation_beyond_float_range(self):
        with pytest.raises(ParseError, match=r"^valuation of 'a' must be finite$"):
            datasets.parse_family(
                '{"elements": ["a"], "h": {"a": 1%s}, "family": [["a"]]}' % ("0" * 400)
            )

    @pytest.mark.parametrize("h,message", [
        ("{}", r"valuation missing for \['a'\]"),
        ('{"a": NaN}', r"valuation of 'a' must be finite"),
        ('{"a": true}', r'"h"\[\'a\'\] must be a number'),
        ('{"a": "1"}', r'"h"\[\'a\'\] must be a number'),
        ('{"a": null}', r'"h"\[\'a\'\] must be a number'),
    ], ids=["missing", "nan", "boolean", "string", "null"])
    def test_valuation_messages(self, h, message):
        # the parser checks JSON types; ValuedGroundSet names a missing or non-finite value
        with pytest.raises(ParseError, match=f"^{message}$"):
            datasets.parse_family('{"elements": ["a"], "h": %s, "family": [["a"]]}' % h)

    def test_missing_valuation(self):
        with pytest.raises(ParseError, match="missing"):
            datasets.parse_family('{"elements": ["a"], "h": {}, "family": [["a"]]}')
        with pytest.raises(ParseError, match='^"h" must be an object mapping element -> number$'):
            datasets.parse_family('{"elements": ["a"], "h": [1], "family": [["a"]]}')
