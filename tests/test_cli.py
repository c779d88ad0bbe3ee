import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from altiset import cli, datasets
from altiset.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, _read, build_parser, main
from conftest import aa_matrix, peak_bytes
from test_package import installed_tracer, load_perfbench

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

GOLDEN_RUNS = [
    ("altiset_cycle3.json", ["altiset", "--relation", str(FIXTURES / "cycle3.json")]),
    ("layers_chain3.json", ["layers", "--relation", str(FIXTURES / "chain3.json")]),
    ("correlate_increasing.json", ["correlate", str(FIXTURES / "points_increasing.csv")]),
    ("collective_family.json", ["collective", str(FIXTURES / "family.json")]),
    (
        "skyline_summits.json",
        ["skyline", str(FIXTURES / "summits.csv"), "--ref", "0,0", "--method", "oracle"],
    ),
    ("evolve_triangle.json", ["evolve", str(FIXTURES / "evolve.csv"), "--grid", "16x16"]),
]


@pytest.mark.parametrize("golden,argv", GOLDEN_RUNS, ids=[g for g, _ in GOLDEN_RUNS])
def test_golden_byte_equality(golden, argv, capsys):
    assert main(["--no-timestamp"] + argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden,argv", GOLDEN_RUNS, ids=[g for g, _ in GOLDEN_RUNS])
def test_output_is_deterministic(golden, argv, capsys):
    assert main(["--no-timestamp"] + argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["--no-timestamp"] + argv) == EXIT_OK
    assert capsys.readouterr().out == first


def test_cycle_relation_has_empty_altiset(capsys):
    main(["--no-timestamp", "altiset", "--relation", str(FIXTURES / "cycle3.json")])
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["altiset"] == []


def test_increasing_points_have_epsilon_one(capsys):
    main(["--no-timestamp", "correlate", str(FIXTURES / "points_increasing.csv")])
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["epsilon"] == 1.0


def test_chain_layers(capsys):
    main(["--no-timestamp", "layers", "--relation", str(FIXTURES / "chain3.json")])
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["d"] == 3
    assert doc["result"]["upper_index"] == [3, 2, 1]


def test_subset_flag(capsys):
    main([
        "--no-timestamp",
        "altiset",
        "--relation", str(FIXTURES / "chain3.json"),
        "--subset", "0,1",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["altiset"] == [1]


def test_skyline_methods_agree(capsys):
    results = []
    for method in ("oracle", "circular", "contour", "recursive"):
        main([
            "--no-timestamp", "skyline", str(FIXTURES / "summits.csv"),
            "--ref", "0,0", "--method", method,
        ])
        results.append(json.loads(capsys.readouterr().out)["result"]["altiset"])
    assert all(r == results[0] for r in results)


def test_skyline_records_on_real_line(capsys):
    assert main([
        "--no-timestamp", "skyline", str(FIXTURES / "summits.csv"),
        "--ref", "0", "--method", "records",
    ]) == EXIT_IO  # 3-column file parses as planar, records need real line


@pytest.mark.parametrize("ref", ["0", "1e308", "-1e308"])
def test_records_ignore_the_reference_value(ref, tmp_path, capsys):
    # record events read the times, not their distances to --ref, which
    # would overflow here; meta still echoes --ref
    path = tmp_path / "events.csv"
    path.write_text("x,h\n1e308,5\n-1e308,7\n")
    assert main(["--no-timestamp", "skyline", str(path), f"--ref={ref}", "--method", "records"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == {"altiset": [1], "size": 2}
    assert doc["meta"]["settings"]["reference"] == [float(ref)]


@pytest.mark.parametrize("text,code,message", [
    ("x,y,h\n0,0,5\n1,1,3\n", EXIT_DOMAIN, "error: record events need a real-line space"),
    ("x,h\n0,5\n1,3\n", EXIT_IO, "parse error: 2 columns (x,h) do not fit a euclidean-2d space"),
])
def test_records_with_a_planar_reference(text, code, message, tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(text)
    argv = ["skyline", str(path), "--ref=0,0", "--method", "records"]
    assert run_main(argv) == (code, "", f"altiset: {message}\n")


def skyline_methods():
    """The --method choices of `altiset skyline`, as build_parser lists them."""
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices["skyline"]
    return next(a for a in sub._actions if a.dest == "method").choices


def skyline_argv(method, tmp_path):
    """`altiset skyline` with `method` on an input that fits it: record
    events need a real line, the other methods get the planar fixture."""
    path, ref = FIXTURES / "summits.csv", "0,0"
    if method == "records":
        path, ref = tmp_path / "line.csv", "0"
        path.write_text("x,h\n-1,7\n1,5\n2,9\n")
    return ["--no-timestamp", "skyline", str(path), "--ref", ref, "--method", method]


@pytest.mark.parametrize("method", skyline_methods())
def test_every_skyline_method_runs(method, tmp_path, capsys):
    assert main(skyline_argv(method, tmp_path)) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["meta"]["settings"]["method"] == method


@pytest.mark.parametrize("method", skyline_methods())
def test_skyline_method_calls_its_route_through_the_module_globals(method, tmp_path, capsys):
    # the benchmark tracer rebinds geoalt's globals; a route table built at
    # import time would call the unwrapped function and record no span
    route = "geoalt.records_field" if method == "records" else f"geoalt.{method}"
    tracer = installed_tracer(load_perfbench("tracing"))
    try:
        assert main(skyline_argv(method, tmp_path)) == EXIT_OK
    finally:
        tracer.uninstall()
    assert route in [span[0] for span in tracer.spans]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--no-timestamp", *argv])
    return code, out.getvalue(), err.getvalue()


def test_tracing_leaves_every_small_round_output_unchanged(tmp_path):
    tracing, workloads = load_perfbench("tracing"), load_perfbench("workloads")
    r = workloads._Round("small", 7, tmp_path)
    workloads._small_round(r)
    plain = [_run(job.args) for job in r.jobs]
    tracer = installed_tracer(tracing)
    try:
        traced = [_run(job.args) for job in r.jobs]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert [_run(job.args) for job in r.jobs] == plain
    # each runner's lazily imported kernel is the wrapped one
    names = {span[tracing.NAME] for span in tracer.spans}
    for route in ("layers.upper_layers", "dependence.increasing_decomposition",
                  "collective.collective_altiset", "geoalt.oracle", "geoalt.records_field",
                  "domains.evolve"):
        assert route in names
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["layers.errors"] == 1 and metrics["datasets.errors"] == 1


@pytest.mark.parametrize("raw", [
    b"x",
    b"[0, 1], " * 10_000,  # beyond 64 KiB
    "h\u00e9t\u00e9 \u5c71 \U0001f5fb\n".encode(),
], ids=["one-byte", "over-64KiB", "non-ascii"])
def test_input_digest_is_the_sha256_of_the_raw_bytes(raw, tmp_path):
    path = tmp_path / "input"
    path.write_bytes(raw)
    assert _read(str(path)) == (raw.decode("utf-8"), hashlib.sha256(raw).hexdigest())


def test_relation_piped_through_stdin(capsys):
    def piped(raw: bytes) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "altiset.cli", "--no-timestamp", "layers", "--relation", "/dev/stdin"],
            input=raw, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )

    path = FIXTURES / "chain3.json"
    assert main(["--no-timestamp", "layers", "--relation", str(path)]) == EXIT_OK
    from_file = capsys.readouterr().out
    assert piped(path.read_bytes()).stdout.decode() == from_file
    bad = piped(b'{"size": 1, "labels": ["caf\xe9"], "pairs": []}')  # read whole, still named
    assert bad.returncode == EXIT_IO
    assert bad.stderr.decode().startswith("altiset: parse error: /dev/stdin is not UTF-8 text: ")


def many_slices_relation(n: int = 300) -> tuple[str, list]:
    """A total order whose file spans many 32 KiB slices."""
    pairs = [[a, b] for a in range(n) for b in range(a + 1, n)]
    return json.dumps({"size": n, "pairs": pairs}), pairs


@pytest.mark.parametrize("where", ["pairs", "labels"])
def test_non_utf8_byte_in_a_later_slice(where, tmp_path, capsys):
    text, pairs = many_slices_relation()
    if where == "pairs":  # inside "pairs", far from the first slice
        raw = text.encode()
        k = raw.index(b"[250, 251]")
        raw = raw[:k] + b"\xe9" + raw[k:]
    else:
        raw = text[:-1].encode() + b', "labels": ["caf\xe9"]}'
    path = tmp_path / "latin1.json"
    path.write_bytes(raw)
    with pytest.raises(UnicodeDecodeError) as exc:
        raw.decode("utf-8")
    assert main(["--no-timestamp", "layers", "--relation", str(path)]) == EXIT_IO
    assert capsys.readouterr().err == f"altiset: parse error: {path} is not UTF-8 text: {exc.value}\n"


def test_out_of_range_pair_in_a_later_slice_is_named(tmp_path, capsys):
    text, pairs = many_slices_relation()
    bad = pairs.index([250, 251])
    text = text.replace("[250, 251]", "[250, 300]").replace("[260, 261]", "[301, 0]")
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["--no-timestamp", "altiset", "--relation", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err == f'altiset: parse error: "pairs"[{bad}] = [250, 300] out of range for size 300\n'


@pytest.mark.parametrize("route", ["stream", "json.loads"])
def test_relation_digest_is_the_sha256_of_the_raw_bytes(route, tmp_path, capsys, monkeypatch):
    text, _ = many_slices_relation()
    if route == "json.loads":  # a repeated "pairs" key, seen after many slices
        text = text[:-1] + ', "pairs": [[0, 1]]}'
    raw = text.encode()
    path = tmp_path / "relation.json"
    path.write_bytes(raw)
    loads = mock.Mock(wraps=json.loads)
    monkeypatch.setattr(datasets.json, "loads", loads)
    assert main(["--no-timestamp", "layers", "--relation", str(path)]) == EXIT_OK
    assert loads.called == (route == "json.loads")
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert meta["input_sha256"] == hashlib.sha256(raw).hexdigest()


@pytest.fixture(scope="module")
def checks():
    """perfbench/checks.py, which imports workloads by that name."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "workloads", load_perfbench("workloads"))
        return load_perfbench("checks")


@st.composite
def relation_documents(draw):
    """A small relation document: random, reflexive and duplicate pairs, at
    times a cycle through 3 or more elements, at times labels, and its
    members in any order, so "size" may come after "pairs"."""
    n = draw(st.integers(0, 6))
    pairs = []
    if n:
        index = st.integers(0, n - 1)
        pairs = draw(st.lists(st.lists(index, min_size=2, max_size=2), max_size=12))
        pairs += [[a, a] for a in draw(st.lists(index, max_size=2))]
        if n >= 3 and draw(st.booleans()):
            ring = draw(st.permutations(range(n)))[: draw(st.integers(3, n))]
            pairs += [[a, b] for a, b in zip(ring, ring[1:] + ring[:1])]
        if pairs:
            pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
        pairs = draw(st.permutations(pairs))
    members = [("size", n), ("pairs", pairs)]
    if draw(st.booleans()):
        members.append(("labels", [f"\u00e9{i}" for i in range(n)]))
    return dict(draw(st.permutations(members)))


def run_main(argv: list) -> tuple[int, str, str]:
    """cli.main's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--no-timestamp"] + argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("spec,message", [
    (["--subset", "0,5"], "subset must be integers in range(3), got 5 in row 1"),
    (["--subset=-1"], "subset must be integers in range(3), got -1 in row 0"),
    (["--subset", "x"], "bad subset spec 'x': invalid literal for int() with base 10: 'x'"),
    # every comma-separated part is an index: an empty one is no part to drop
    (["--subset=0,,2"], "bad subset spec '0,,2': invalid literal for int() with base 10: ''"),
    (["--subset= , "], "bad subset spec ' , ': invalid literal for int() with base 10: ' '"),
    (["--subset=0.5,2"], "bad subset spec '0.5,2': invalid literal for int() with base 10: '0.5'"),
])
def test_bad_subset_is_a_parse_error(spec, message):
    # out of range or malformed, a bad --subset value gets the one exit code
    code, out, err = run_main(["altiset", "--relation", str(FIXTURES / "chain3.json")] + spec)
    assert (code, out, err) == (EXIT_IO, "", f"altiset: parse error: {message}\n")


PLANE = "x,y,h\n0,0,5\n1,1,3\n"


@pytest.mark.parametrize("text,argv,message", [
    ("x,y\n1,2\n3,4\n1,2\n", ["correlate"],
     "duplicate points are not allowed: rows 0 and 2 are both (1.0, 2.0)"),
    ("x,h\n0,5\n1,3\n", ["skyline", "--ref", "1,x"],
     "bad reference '1,x': could not convert string to float: 'x'"),
    ("x,h\n0,5\n1,3\n", ["skyline", "--ref", "1,2,3"], "reference must be X or X,Y, got '1,2,3'"),
    ("x,h\n0,5\n1,3\n", ["skyline", "--ref", ",5"],
     "bad reference ',5': could not convert string to float: ''"),
    ("x,h\n0,5\n1,3\n", ["skyline", "--ref", "5,"],
     "bad reference '5,': could not convert string to float: ''"),
    ("x,y,h\n0,0,5\n1,1,3\n", ["skyline", "--ref", "1,,2"],
     "bad reference '1,,2': could not convert string to float: ''"),
    ("x,h\n0,5\n1,3\n", ["skyline", "--ref", " , "],
     "bad reference ' , ': could not convert string to float: ' '"),
    ("a,b,c,d\n0,0,0,5\n", ["skyline", "--ref", "0"], "expected 2 (x,h) or 3 (x,y,h) columns"),
    ("x,h\n", ["skyline", "--ref", "0"], "no data rows"),
    (PLANE, ["skyline", "--ref", "0", "--method", "records"],
     "3 columns (x,y,h) do not fit a real-line space"),
    (PLANE, ["evolve", "--grid", "4by4"], "bad grid spec '4by4': invalid literal for int() with base 10: '4by4'"),
    (PLANE, ["evolve", "--grid", "4x"], "bad grid spec '4x': invalid literal for int() with base 10: ''"),
    (PLANE, ["evolve", "--grid", "4x4x4"], "grid must be WxH, got '4x4x4'"),
    ("", ["evolve"], "no data rows"),
    ("1,2\n3,4\n", ["evolve"], "line 1: expected 3 columns (x, y, h), got 2"),
    ("x,y\n1,2\r3,4\n5,7\n", ["correlate"], "line 2: a carriage return inside a row"),
    ("x,y\n1,2\n" + "a" * 140_000 + ",3\n", ["correlate"], "line 3: a cell longer than 131072 characters"),
    ('{"elements": ["a", "a"], "h": {"a": 1}, "family": [["a"]]}', ["collective"],
     "ground-set elements must be distinct"),
    ('{"elements": "ab", "h": {"a": 1}, "family": [["a"]]}', ["collective"],
     '"elements" must be a list of strings'),
    ('{"elements": ["a"], "h": {"a": 1}, "family": []}', ["collective"], "family must be nonempty"),
    ('{"elements": ["a"], "h": {"a": 1}, "family": {}}', ["collective"],
     '"family" must be a list of element lists'),
    ('{"elements": ["a"], "h": {"a": 1}, "family": [["a"], ["a", "z"]]}', ["collective"],
     "member 1 has element 'z' outside the ground set"),
], ids=["duplicate-points", "ref-not-a-number", "ref-three-values", "ref-empty-first",
        "ref-empty-last", "ref-empty-middle", "ref-blank", "four-columns",
        "header-only", "plane-on-the-line", "grid-spec", "grid-empty-part", "grid-three-parts",
        "evolve-empty", "evolve-two-columns",
        "cr-inside-a-row", "cell-past-the-csv-limit", "repeated-elements",
        "elements-not-a-list", "empty-family", "family-not-a-list", "unknown-element"])
def test_input_errors_are_parse_errors(text, argv, message, tmp_path):
    # what a job reads is a parse error: exit 2, nothing on stdout, one line on stderr
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run_main([argv[0], str(path)] + argv[1:])
    assert (code, out, err) == (EXIT_IO, "", f"altiset: parse error: {message}\n")


@pytest.mark.parametrize("argv,text", [
    (["collective"], '{"elements": ["a"], "h": {"a": %s}, "family": [["a"]]}' % ("9" * 5000)),
    (["layers", "--relation"], '{"size": 1, "pairs": [[0, %s]]}' % ("9" * 5000)),
], ids=["valuation", "pair"])
def test_integer_past_the_digit_limit_is_a_parse_error(argv, text, tmp_path):
    # json.loads raises a ValueError that is no JSONDecodeError past
    # sys.get_int_max_str_digits() digits, 4300 by default
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run_main(argv + [str(path)])
    assert (code, out) == (EXIT_IO, "") and err.startswith("altiset: parse error: ")


def test_collective_keeps_integer_valuations_exact(tmp_path):
    # 2**53 + 1 and 2**53 are one float, so as floats the members would tie
    path = tmp_path / "family.json"
    path.write_text(json.dumps(
        {"elements": ["a", "b"], "h": {"a": 2**53 + 1, "b": 2**53}, "family": [["a"], ["b"]]}
    ))
    code, out, err = run_main(["collective", str(path)])
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["result"]["indices"] == [0]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=relation_documents(), data=st.data())
def test_relation_subcommands_match_the_reference(doc, data, checks, tmp_path):
    # judged by perfbench/checks.py, which reads the pairs without the package
    n, pairs = doc["size"], doc["pairs"]
    path = tmp_path / "relation.json"
    path.write_text(json.dumps(doc))
    relation = ["--relation", str(path)]

    subset = data.draw(st.none() | st.lists(st.integers(0, n - 1), max_size=n + 2) if n else st.none())
    spec = [] if subset is None else ["--subset", ",".join(map(str, subset))]
    code, out, err = run_main(["altiset"] + relation + spec)
    assert (code, err) == (EXIT_OK, "")
    result = json.loads(out)["result"]
    members = range(n) if subset is None else sorted(set(subset))
    assert result["altiset"] == checks.altiset_of_subset(pairs, members)
    labels = doc.get("labels")
    assert result.get("labels", []) == ([labels[i] for i in result["altiset"]] if labels else [])

    code, out, err = run_main(["layers"] + relation)
    expected = checks.layer_indices(n, pairs)
    if expected is None:  # a cycle of the strict part is the witness
        prefix = "altiset: error: asymmetric interior contains a cycle: "
        assert (code, out) == (EXIT_DOMAIN, "") and err.startswith(prefix)
        cycle = [int(v) for v in err[len(prefix):].split(" -> ")]
        strict = {(a, b) for a, b in pairs if [b, a] not in pairs}
        assert len(cycle) >= 4 and cycle[0] == cycle[-1]
        assert all(step in strict for step in zip(cycle, cycle[1:]))
    else:
        assert (code, err) == (EXIT_OK, "")
        result = json.loads(out)["result"]
        assert (result["upper_index"], result["lower_index"]) == expected
        assert result["d"] == max(expected[0], default=0)

    code, out, err = run_main(["altiset"] + relation + [f"--subset={n}"])
    assert (code, out) == (EXIT_IO, "")  # a subset index out of range is a parse error
    assert err == f"altiset: parse error: subset must be integers in range({n}), got {n} in row 0\n"

    if pairs:  # a pair index out of range is a parse error
        k = data.draw(st.integers(0, len(pairs) - 1))
        bad = [list(p) for p in pairs]
        bad[k][data.draw(st.integers(0, 1))] = data.draw(st.sampled_from([n, n + 3, -1]))
        path.write_text(json.dumps({**doc, "pairs": bad}))
        message = f'"pairs"[{k}] = [{bad[k][0]}, {bad[k][1]}] out of range for size {n}'
        for command in ("altiset", "layers"):
            assert run_main([command] + relation) == (EXIT_IO, "", f"altiset: parse error: {message}\n")


def test_sorted_keys_total_order_across_row_blocks(tmp_path):
    # n % 8 != 0 leaves a partial byte at the end of each bit-packed row, n
    # spans four 64-row blocks and the file many slices, and sorted keys
    # put "size" after "pairs"
    n = 201
    upper = random.Random(n).sample(range(1, n + 1), n)
    pairs = [[a, b] for a in range(n) for b in range(n) if upper[a] > upper[b]]
    path = tmp_path / "total.json"
    path.write_text(json.dumps({"size": n, "pairs": pairs}, sort_keys=True))
    code, out, err = run_main(["layers", "--relation", str(path)])
    assert (code, err) == (EXIT_OK, "")
    result = json.loads(out)["result"]
    assert (result["d"], result["upper_index"]) == (n, upper)
    assert result["lower_index"] == [n + 1 - u for u in upper]
    # every third element: the member of least upper index strictly dominates the others
    members = range(0, n, 3)
    code, out, err = run_main(["altiset", "--relation", str(path), "--subset", ",".join(map(str, members))])
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["result"]["altiset"] == [min(members, key=upper.__getitem__)]


# a small lattice: shared x and y, and equal distances to a reference on it
LATTICE = st.integers(-2, 2)
CLI_PROPERTY = settings(max_examples=100, deadline=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])


def write_csv(data, path, header, rows, fault=None):
    """rows under header, with LF or CRLF line ends and at times one quoted
    cell, which takes the csv fallback.  The fault "nan" makes one cell NaN,
    and "duplicate" repeats a row."""
    cells = [[str(v) for v in row] for row in rows]
    if fault == "duplicate":
        cells.append(list(data.draw(st.sampled_from(cells))))
    k, j = data.draw(st.integers(0, len(cells) - 1)), data.draw(st.integers(0, len(header) - 1))
    if fault == "nan":
        cells[k][j] = "nan"
    elif data.draw(st.booleans()):
        cells[k][j] = f'"{cells[k][j]}"'
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    path.write_bytes("".join(",".join(row) + end for row in [header, *cells]).encode())


def judge(checks, kind, argv, expect_exit=EXIT_OK):
    """cli.main on argv, whose second item is the input file, judged by
    perfbench/checks.py; an invalid input prints one parse error line."""
    code, out, err = run_main(argv)
    verdict = checks.Checker().check(checks.Job("case", kind, tuple(argv), argv[1], expect_exit), code, out)
    assert verdict is None, (verdict, err)
    if expect_exit == EXIT_IO:
        assert err.startswith("altiset: parse error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


@CLI_PROPERTY
@given(data=st.data())
def test_correlate_matches_the_reference(data, checks, tmp_path):
    points = data.draw(st.lists(st.tuples(LATTICE, LATTICE), min_size=2, max_size=8, unique=True))
    fault = data.draw(st.sampled_from([None, None, "nan", "duplicate"]))
    path = tmp_path / "points.csv"
    write_csv(data, path, ["x", "y"], points, fault)
    judge(checks, "correlate", ["correlate", str(path)], EXIT_IO if fault else EXIT_OK)


@CLI_PROPERTY
@given(data=st.data())
def test_planar_skyline_matches_the_reference(data, checks, tmp_path):
    rows = data.draw(st.lists(st.tuples(LATTICE, LATTICE, st.integers(0, 3)), min_size=1, max_size=8))
    fault = data.draw(st.sampled_from([None, None, None, "nan"]))
    path = tmp_path / "summits.csv"
    write_csv(data, path, ["x", "y", "h"], rows, fault)
    rx, ry = data.draw(st.tuples(LATTICE, LATTICE))
    method = data.draw(st.sampled_from(["oracle", "circular", "contour", "recursive"]))
    argv = ["skyline", str(path), f"--ref={rx},{ry}", "--method", method]
    if method == "recursive":
        argv += ["--block-size", str(data.draw(st.integers(1, 4)))]
    judge(checks, "skyline", argv, EXIT_IO if fault else EXIT_OK)


@CLI_PROPERTY
@given(data=st.data())
def test_evolve_matches_the_reference(data, checks, tmp_path):
    rows = data.draw(st.lists(st.tuples(LATTICE, LATTICE, st.integers(0, 2)), min_size=1, max_size=5))
    fault = data.draw(st.sampled_from([None, None, None, "nan"]))
    path = tmp_path / "summits.csv"
    write_csv(data, path, ["x", "y", "h"], rows, fault)
    nx, ny = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    judge(checks, "evolve", ["evolve", str(path), "--grid", f"{nx}x{ny}"],
          EXIT_IO if fault else EXIT_OK)


@CLI_PROPERTY
@given(data=st.data())
def test_collective_matches_the_reference(data, checks, tmp_path):
    elements = [f"e{i}" for i in range(data.draw(st.integers(1, 5)))]
    # 1 and 1.0 tie, as do equal integers
    h = {e: data.draw(st.sampled_from([0, 1, 1.0, 2, 0.5])) for e in elements}
    family = data.draw(st.lists(st.lists(st.sampled_from(elements), max_size=6), min_size=1, max_size=6))
    outside = data.draw(st.booleans()) and data.draw(st.booleans())
    if outside:  # a member element outside the ground set
        data.draw(st.sampled_from(family)).append("zz")
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"elements": elements, "h": h, "family": family}))
    judge(checks, "collective", ["collective", str(path)], EXIT_IO if outside else EXIT_OK)


@pytest.mark.parametrize("text,ref,message", [
    ("x,h\n1,5\n2,3\n", "0,0", "2 columns (x,h) do not fit a euclidean-2d space"),
    ("x,y,h\n0,0,5\n1,1,3\n", "0", "3 columns (x,y,h) do not fit a real-line space"),
])
def test_summit_width_must_fit_the_reference(text, ref, message, tmp_path, capsys):
    path = tmp_path / "summits.csv"
    path.write_text(text)
    assert main(["--no-timestamp", "skyline", str(path), "--ref", ref]) == EXIT_IO
    assert f"parse error: {message}" in capsys.readouterr().err


def test_skyline_skips_a_first_row_of_blank_cells(tmp_path, capsys):
    path = tmp_path / "blank_first.csv"
    path.write_text(",\n0,0,5\n1,1,3\n")
    assert main(["--no-timestamp", "skyline", str(path), "--ref", "0,0"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["altiset"] == [0]


@pytest.mark.parametrize("argv,text", [
    (["correlate"], "1,2\n3,4\n5,7\n"),
    (["skyline", "--ref", "0,0"], "0,0,5\n1,1,3\n2,0,4\n"),
    (["evolve", "--grid", "8x8"], "-1,0,1\n1,0,1\n0,1,2\n"),
], ids=["correlate", "skyline", "evolve"])
def test_byte_order_mark_keeps_the_first_row(argv, text, tmp_path):
    # float("\ufeff1") fails, so a kept mark would make the first data row a header
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    docs = []
    for path in (plain, marked):
        code, out, err = run_main([argv[0], str(path)] + argv[1:])
        assert (code, err) == (EXIT_OK, "")
        docs.append(json.loads(out))
    assert docs[1]["result"] == docs[0]["result"]
    assert docs[1]["meta"]["input_sha256"] == hashlib.sha256(marked.read_bytes()).hexdigest()


def test_evolve_far_from_the_origin_matches_the_library(tmp_path):
    # each summit's squared distance to (0, 0) overflows; those to the cells do not
    from altiset.domains import GridMeasure, evolve

    rows = [(1e155, 0.0, 1.0), (1.00001e155, 0.0, 1.0), (1.000005e155, 1e150, 2.0)]
    path = tmp_path / "far.csv"
    path.write_text("".join(f"{x!r},{y!r},{h!r}\n" for x, y, h in rows))
    code, out, err = run_main(["evolve", str(path), "--grid", "8x8"])
    assert (code, err) == (EXIT_OK, "")
    summits = [r[:2] for r in rows]
    trace = evolve(summits, [r[2] for r in rows], GridMeasure.around(summits, nx=8))
    assert json.loads(out)["result"]["final"] == list(trace.final)


def test_evolve_trace_file(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main([
        "--no-timestamp", "evolve", str(FIXTURES / "evolve.csv"),
        "--grid", "16x16", "--trace", str(trace_path),
    ]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    trace = json.loads(trace_path.read_text())
    assert trace["stop_index"] == doc["result"]["stop_index"]
    k = trace["stop_index"]
    assert trace["valuations"][k] == trace["valuations"][k + 1]


def test_evolve_inflate_sets_the_box(capsys):
    from altiset.domains import GridMeasure

    rows = np.loadtxt(FIXTURES / "evolve.csv", delimiter=",", skiprows=1)[:, :2]
    assert main([
        "--no-timestamp", "evolve", str(FIXTURES / "evolve.csv"), "--grid", "16x16", "--inflate", "0.5",
    ]) == EXIT_OK
    settings = json.loads(capsys.readouterr().out)["meta"]["settings"]
    grid = GridMeasure.around(rows, 0.5)
    assert settings["inflate"] == 0.5
    assert settings["box"] == [grid.xmin, grid.xmax, grid.ymin, grid.ymax]


def test_evolve_nan_inflate_is_domain_error():
    code, out, err = run_main(["evolve", str(FIXTURES / "evolve.csv"), "--inflate", "nan"])
    assert (code, out, err) == (EXIT_DOMAIN, "", "altiset: error: bounding box is degenerate\n")


def test_grid_env_is_not_read(capsys, monkeypatch):
    # --grid is the one way to set the resolution
    monkeypatch.setenv("ALTISET_GRID", "16")
    assert main(["--no-timestamp", "evolve", str(FIXTURES / "evolve.csv")]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["settings"]["grid"] == [128, 128]


def test_output_file(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([
        "--no-timestamp", "-o", str(out),
        "altiset", "--relation", str(FIXTURES / "cycle3.json"),
    ]) == EXIT_OK
    assert out.read_text() == (GOLDEN / "altiset_cycle3.json").read_text()


def test_timestamp_present_by_default(capsys):
    main(["altiset", "--relation", str(FIXTURES / "cycle3.json")])
    doc = json.loads(capsys.readouterr().out)
    assert "timestamp" in doc["meta"]


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        assert main([
            "--no-timestamp", "layers", "--relation", str(FIXTURES / "cycle3.json")
        ]) == EXIT_DOMAIN
        assert "cycle" in capsys.readouterr().err

    def test_parse_error_is_two(self, capsys):
        assert main([
            "--no-timestamp", "altiset", "--relation", str(FIXTURES / "bad_pairs.json")
        ]) == EXIT_IO

    def test_boolean_relation_entries_are_parse_errors(self, tmp_path, capsys):
        bad = tmp_path / "bools.json"
        bad.write_text('{"size": true, "pairs": [[false, false]]}')
        assert main(["--no-timestamp", "layers", "--relation", str(bad)]) == EXIT_IO
        assert "parse error" in capsys.readouterr().err

    def test_csv_parse_error_names_line(self, capsys):
        assert main(["--no-timestamp", "correlate", str(FIXTURES / "bad_cell.csv")]) == EXIT_IO
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_is_two(self, capsys):
        assert main(["--no-timestamp", "altiset", "--relation", "/no/such.json"]) == EXIT_IO

    def test_unwritable_output_is_two(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "out.json"
        assert main([
            "--no-timestamp", "-o", str(out), "layers", "--relation", str(FIXTURES / "chain3.json"),
        ]) == EXIT_IO
        assert "i/o error" in capsys.readouterr().err
        assert not out.exists()

    def test_help_lists_the_exit_codes_not_the_developer_notes(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert err.value.code == EXIT_OK
        assert "2 I/O or parse error (bad input, duplicate points or a bad --subset)" in out
        assert "OpenSSL" not in out and "sha256" not in out

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--no-timestamp", "frobnicate"])
        assert err.value.code == EXIT_USAGE

    def test_oversized_relation_is_parse_error(self, tmp_path, capsys):
        # 10**9 squared bytes cannot be granted, so the allocation fails at once
        big = tmp_path / "big.json"
        big.write_text('{"size": 1000000000, "pairs": []}')
        assert main(["--no-timestamp", "layers", "--relation", str(big)]) == EXIT_IO
        assert '"size" 1000000000 is too large' in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ('{"size": 4000000000, "pairs": []}', '"size" 4000000000 is too large to hold in memory'),
        ('{"size": 4000000000, "pairs": [[0, 4000000001]]}',
         '"pairs"[0] = [0, 4000000001] out of range for size 4000000000'),
    ], ids=["empty", "out-of-range"])
    def test_relation_beyond_numpy_indexing_is_parse_error(self, tmp_path, capsys, text, message):
        # a (4e9, 4e9) shape makes numpy raise ValueError, not MemoryError
        big = tmp_path / "big.json"
        big.write_text(text)
        assert main(["--no-timestamp", "altiset", "--relation", str(big)]) == EXIT_IO
        assert capsys.readouterr().err == f"altiset: parse error: {message}\n"

    def test_out_of_memory_is_two(self, capsys, monkeypatch):
        # stands in for the level sweep of a relation too large to layer
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr("altiset.layers._levels", no_memory)
        assert main([
            "--no-timestamp", "layers", "--relation", str(FIXTURES / "chain3.json")
        ]) == EXIT_IO
        assert "out of memory" in capsys.readouterr().err

    @pytest.mark.parametrize("labels", ['["a"]', '["a", "a"]'])
    def test_bad_labels_are_parse_errors(self, tmp_path, capsys, labels):
        path = tmp_path / "labels.json"
        path.write_text(f'{{"size": 2, "labels": {labels}, "pairs": []}}')
        assert main(["--no-timestamp", "layers", "--relation", str(path)]) == EXIT_IO
        assert "parse error" in capsys.readouterr().err

    def test_oversized_grid_is_parse_error(self, capsys, monkeypatch):
        # stands in for the cell centers of a huge grid, which are never built
        def no_memory(grid):
            raise MemoryError

        monkeypatch.setattr("altiset.domains.GridMeasure.centers", no_memory)
        assert main([
            "--no-timestamp", "evolve", str(FIXTURES / "evolve.csv"), "--grid", "100000x100000",
        ]) == EXIT_IO
        assert "grid 100000x100000 is too large" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("method", ["oracle", "circular", "contour", "recursive", "records"])
    def test_non_finite_summit_is_parse_error(self, tmp_path, capsys, method, cell):
        path = tmp_path / "summits.csv"
        path.write_text(f"x,h\n1,{cell}\n2,5\n3,7\n")
        assert main([
            "--no-timestamp", "skyline", str(path), "--ref", "0", "--method", method,
        ]) == EXIT_IO
        assert "line 2: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [
        "NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="beyond-float"),
    ])
    def test_non_finite_valuation_is_parse_error(self, tmp_path, capsys, value):
        path = tmp_path / "family.json"
        path.write_text(
            f'{{"elements": ["a", "b"], "h": {{"a": {value}, "b": 1}}, "family": [["a"], ["b"]]}}'
        )
        assert main(["--no-timestamp", "collective", str(path)]) == EXIT_IO
        assert "parse error: valuation of 'a' must be finite\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command,text", [
        (["layers", "--relation"], b'{"size": 1, "labels": ["caf\xe9"], "pairs": []}'),
        (["correlate"], b"x,y\n0,0\n1,caf\xe9\n"),
        (["skyline", "--ref", "0"], b"x,h\ncaf\xe9,1\n2,5\n"),
    ])
    def test_non_utf8_input_is_parse_error(self, tmp_path, capsys, command, text):
        path = tmp_path / "latin1.txt"
        path.write_bytes(text)
        assert main(["--no-timestamp", *command, str(path)]) == EXIT_IO
        assert "is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["nan,1", "1,inf", "-inf,2"])
    def test_non_finite_point_is_parse_error(self, tmp_path, capsys, row):
        path = tmp_path / "points.csv"
        path.write_text(f"x,y\n0,0\n{row}\n3,3\n")
        assert main(["--no-timestamp", "correlate", str(path)]) == EXIT_IO
        assert "line 3: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0,0,nan", "0,inf,1", "nan,0,1"])
    def test_non_finite_evolve_row_is_parse_error(self, tmp_path, capsys, row):
        path = tmp_path / "evolve.csv"
        path.write_text(f"x,y,h\n1,0,1\n{row}\n")
        assert main(["--no-timestamp", "evolve", str(path), "--grid", "8x8"]) == EXIT_IO
        assert "line 3: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("steps,message", [
        ("1", "did not stop within 1 steps"),
        ("0", "max_steps must be >= 1"),
    ])
    def test_evolve_step_limit_is_domain_error(self, capsys, steps, message):
        # the fixture needs 2 steps to reach its fixed point
        assert main([
            "--no-timestamp", "evolve", str(FIXTURES / "evolve.csv"),
            "--grid", "16x16", "--max-steps", steps,
        ]) == EXIT_DOMAIN
        assert message in capsys.readouterr().err

    def test_evolve_box_whose_squared_diagonal_overflows_is_domain_error(self, tmp_path):
        # squared distances across it would read inf and tie every far cell
        path = tmp_path / "wide.csv"
        path.write_text("0,0,1\n1e155,0,1\n2e155,0,2\n")
        code, out, err = run_main(["evolve", str(path), "--grid", "8x8"])
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "altiset: error: bounding box must have a finite squared diagonal\n"

    def test_degenerate_correlate_is_domain_error(self, tmp_path, capsys):
        single = tmp_path / "one.csv"
        single.write_text("x,y\n1,1\n")
        assert main(["--no-timestamp", "correlate", str(single)]) == EXIT_DOMAIN
        assert "epsilon needs at least 2 points" in capsys.readouterr().err


def test_correlate_matches_library(tmp_path, capsys):
    from altiset import datasets
    from altiset.dependence import (
        decreasingness_index,
        epsilon,
        increasing_decomposition,
        increasingness_index,
    )

    rng = random.Random(5)
    for n in (2, 7, 40):
        path = tmp_path / f"points{n}.csv"
        rows = {(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(n)}
        path.write_text("".join(f"{x},{y}\n" for x, y in rows))
        points = datasets.parse_points_csv(path.read_text())
        assert main(["--no-timestamp", "correlate", str(path)]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)["result"]
        assert result == {
            "blocks": increasing_decomposition(points),
            "epsilon": epsilon(points),
            "iota_minus": decreasingness_index(points),
            "iota_plus": increasingness_index(points),
        }


def test_layers_peak_memory_stays_near_the_matrix(tmp_path):
    """A 2 MB relation file of about 200,000 pairs: the parse holds the
    0.56 MB matrix and one slice of the file, and each Kahn pass an eighth
    of such a matrix; nothing grows with the file."""
    n = 750
    adj = aa_matrix(np.random.default_rng(750), n)
    path = tmp_path / "aa750.json"
    path.write_text(json.dumps({"size": n, "pairs": np.argwhere(adj).tolist()}, separators=(",", ":")))
    out = tmp_path / "out.json"
    argv = ["--no-timestamp", "-o", str(out), "layers", "--relation", str(path)]
    assert peak_bytes(main, argv) <= 1_500_000
    assert len(json.loads(out.read_text())["result"]["upper_index"]) == n
