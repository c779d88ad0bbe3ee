"""Tests of the benchmark itself: generators, checker, tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json

import pytest

from checks import Checker
from run import import_cli, run_in_process, tail
from tracing import MODULES, Tracer, kernel_seconds, layer_metrics, self_times
from workloads import WORKLOADS, _Round, _small_round, build


def _files(jobs):
    return [(j.name, j.args[0], open(j.input, "rb").read()) for j in jobs]


@pytest.fixture(scope="module")
def small_jobs(tmp_path_factory):
    r = _Round("small", 7, tmp_path_factory.mktemp("small"))
    _small_round(r)
    return r.jobs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir(), (tmp_path / "c").mkdir()
    first = _files(build(workload, 11, tmp_path / "a"))
    assert first == _files(build(workload, 11, tmp_path / "b"))
    other = _files(build(workload, 12, tmp_path / "c"))
    assert [f[:2] for f in other] == [f[:2] for f in first]  # same round, other content
    assert [f[2] for f in other] != [f[2] for f in first]


def test_every_small_job_passes_the_checker(small_jobs):
    checker = Checker()
    for job in small_jobs:
        code, out, _ = run_in_process(job)
        assert checker.check(job, code, out) is None, job.name


def _corrupt(kind, result):
    if kind == "layers":
        result["upper_index"][0] += 1
    elif kind == "correlate":
        result["blocks"][0], result["blocks"][-1] = result["blocks"][-1], result["blocks"][0][:-1]
    elif kind in ("skyline", "records", "altiset"):
        result["altiset"] = result["altiset"][1:]
    elif kind == "collective":
        result["indices"] = result["indices"][1:]
    elif kind == "evolve":
        result["final"][0] += 1.0
    else:
        raise AssertionError(kind)


def test_checker_counts_corrupted_results_as_failures(small_jobs):
    checker = Checker()
    for job in small_jobs:
        code, out, _ = run_in_process(job)
        wrong_code = 3 if code == 0 else 0
        assert checker.check(job, wrong_code, out) is not None, job.name
        if job.expect_exit != 0:
            assert checker.check(job, code, '{"result": {}}') is not None, job.name
            continue
        doc = json.loads(out)
        _corrupt(job.kind, doc["result"])
        reason = checker.check(job, code, json.dumps(doc))
        assert reason is not None and job.input in reason, job.name


def test_checker_rejects_a_wrong_evolve_step_count(small_jobs):
    job = next(j for j in small_jobs if j.kind == "evolve")
    code, out, _ = run_in_process(job)
    doc = json.loads(out)
    doc["result"]["steps"] += 1
    doc["result"]["stop_index"] += 1
    assert Checker().check(job, code, json.dumps(doc)) is not None


def test_checker_rejects_a_wrong_meta_block(small_jobs):
    job = small_jobs[0]
    code, out, _ = run_in_process(job)
    doc = json.loads(out)
    doc["meta"]["input_sha256"] = "0" * 64
    assert Checker().check(job, code, json.dumps(doc)) is not None


def test_tracing_leaves_outputs_and_modules_unchanged(small_jobs):
    cli = import_cli()
    plain = [run_in_process(job) for job in small_jobs]
    before = (cli.upper_layers, cli.main, type(cli.datasets.parse_relation))
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.upper_layers is not before[0]
        traced = [run_in_process(job) for job in small_jobs]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (cli.upper_layers, cli.main, type(cli.datasets.parse_relation)) == before
    assert plain == [run_in_process(job) for job in small_jobs]
    metrics = layer_metrics(tracer.spans, 1)
    assert metrics["layers.errors"] == 1 and metrics["datasets.errors"] == 1
    assert metrics["geoalt.oracle_calls"] >= 4
    assert {f"{m}.errors" for m in MODULES} <= metrics.keys()


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, "j", None, False],
        ["layers.upper_layers", 1.0, 7.0, 0, "j", {"relation": 1}, False],
        ["relation.altiset", 2.0, 3.0, 1, "j", None, False],
        ["relation.altiset", 4.0, 6.0, 1, "j", None, False],
    ]
    assert self_times(spans) == [4.0, 3.0, 1.0, 2.0]
    assert kernel_seconds(spans) == {"j": 6.0}


def test_tail_keeps_ten_samples_beyond():
    walls = [float(i) for i in range(1, 41)]
    t = tail(walls)
    assert (t["percentile"], t["beyond"], t["value"]) == (75, 10, 30.0)
    assert tail(walls[:12])["percentile"] == 50
