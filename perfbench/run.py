"""End-to-end benchmark of the altiset CLI, with a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload layering --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the workload's job round as a closed loop, one client and
one job at a time: each job is ``python -m altiset.cli --no-timestamp ...``
in a fresh subprocess with ``src`` on the path, timed from spawn to exit,
interpreter start-up and the numpy import included. Whole rounds repeat,
each in a seeded random order, as many as come closest to ``--seconds``.

``--trace 1`` replays the same round in-process through
``altiset.cli.main(argv)`` in pairs of untraced and traced passes, while the
next pair should end within ``--seconds``, and reports per-layer self times
and exact call counts per pass of the round (median over passes).

Every result is checked by ``checks.py``; a failure is printed to stderr
with its input, and the input is kept under ``.perfbench/failures``. The
last stdout line is one JSON object: correct, attempted, failed, metrics.
Set-up and per-run reports, and the spans, are written under ``.perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import Checker
from tracing import Tracer, kernel_seconds, layer_metrics
from workloads import WORKLOADS, Job, build

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3  # set-up is timed this many times; setup_s is the median
STARTUP_REPEATS = 5
TAIL_BEYOND = 10  # job_tail_s: highest percentile with this many samples beyond it
JOB_TIMEOUT_S = 120.0


def load_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json at the repository root declares it."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "ALTISET_GRID")}
    env["PYTHONPATH"] = str(SRC)
    return env


class JobRunner:
    """Runs one CLI job at a time through spawner.py, which reports each job's own peak RSS."""

    def __init__(self, scratch: Path):
        self.out = scratch / "stdout"
        self.err = scratch / "stderr"
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=JOB_TIMEOUT_S)

    def spawn(self, argv: list[str]) -> tuple[float, int, str, str, int]:
        """(wall seconds, exit code, stdout, stderr, max RSS in KiB) of one child."""
        request = {"argv": argv, "stdout": str(self.out), "stderr": str(self.err),
                   "cwd": str(ROOT), "timeout": JOB_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        reply = json.loads(reply)
        return (reply["wall"], reply["code"], self.out.read_text(), self.err.read_text(),
                reply["maxrss_kib"])

    def cli(self, job: Job):
        return self.spawn([sys.executable, "-m", "altiset.cli", "--no-timestamp", *job.args])


def _digest(jobs: list[Job]) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(json.dumps([Path(a).name if a == job.input else a for a in job.args]).encode())
        h.update(Path(job.input).read_bytes())
    return h.hexdigest()


def warm_ups(jobs: list[Job]) -> list[Job]:
    """The job with the smallest input of each distinct subcommand."""
    by_command: dict[str, list[Job]] = {}
    for job in jobs:
        by_command.setdefault(job.args[0], []).append(job)
    return [min(group, key=lambda j: os.path.getsize(j.input)) for group in by_command.values()]


def set_up(workload: str, seed: int, work: Path, runner: JobRunner) -> tuple[list[Job], list[float]]:
    """Generate the inputs and warm up each distinct subcommand on its
    smallest input, SETUP_REPEATS times.

    Returns the jobs of the last repeat and the time of every repeat. The
    repeats must write byte-identical inputs.
    """
    times, digests, jobs = [], set(), []
    for rep in range(SETUP_REPEATS):
        folder = work / f"inputs{rep}"
        folder.mkdir()
        start = time.perf_counter()
        jobs = build(workload, seed, folder)
        for job in warm_ups(jobs):
            runner.cli(job)
        times.append(time.perf_counter() - start)
        digests.add(_digest(jobs))
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(folder)
    if len(digests) != 1:
        raise RuntimeError(f"inputs of {workload} differ between set-ups with seed {seed}")
    return jobs, times


def tail(walls: list[float]) -> dict:
    """Nearest-rank value of the highest integer percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(walls)
    n = len(ordered)
    pct, rank = 50, math.ceil(0.5 * n)
    for p in range(99, 49, -1):
        r = math.ceil(p / 100 * n)
        if n - r >= TAIL_BEYOND:
            pct, rank = p, r
            break
    return {"percentile": pct, "samples": n, "beyond": n - rank, "value": ordered[rank - 1]}


def closed_loop(jobs: list[Job], seconds: float, runner: JobRunner, seed: int):
    """Whole rounds of jobs, one job at a time, each round in a seeded random order.

    Runs as many whole rounds as bring the timed phase closest to seconds,
    and at least one. A partial round would be a random subset of the
    round, whose jobs differ in cost by a factor of ten, so its median and
    throughput would vary with the subset. Returns (job, wall, exit code,
    stdout, stderr, max RSS) per job, the timed seconds and the number of
    rounds; results are checked afterwards.
    """
    order = random.Random(f"order:{seed}")
    samples = []
    rounds = 0
    start = time.perf_counter()
    elapsed = 0.0
    while rounds == 0 or elapsed + elapsed / rounds / 2 <= seconds:
        rounds += 1
        for job in order.sample(jobs, len(jobs)):
            samples.append((job, *runner.cli(job)))
        elapsed = time.perf_counter() - start
    return samples, elapsed, rounds


def import_cli():
    """The package's CLI module, imported from this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from altiset import cli

    return cli


def run_in_process(job: Job) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of altiset.cli.main on the job's arguments."""
    cli = import_cli()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--no-timestamp", *job.args])
    return code, out.getvalue(), err.getvalue()


def traced_replay(jobs: list[Job], seconds: float, checker: Checker):
    """Pairs of untraced and traced in-process passes while the next pair should end in time.

    The warm-up jobs run untimed first, so that neither side pays for
    first calls; the pair order alternates. Returns the per-layer metrics
    (median over passes), the failures, the job count, one Tracer per pass, and the
    medians over passes of the untraced pass time and of each job's kernel
    self time.
    """
    for job in warm_ups(jobs):
        run_in_process(job)
    input_bytes = sum(os.path.getsize(j.input) for j in jobs)
    tracers, per_pass, overheads, failures, attempted = [], [], [], [], 0
    plain_walls, kernel = [], {job.name: [] for job in jobs}
    start = time.perf_counter()
    elapsed = 0.0
    while not tracers or elapsed + elapsed / len(tracers) <= seconds:
        tracer = Tracer()
        wall = {}
        for traced in (False, True) if len(tracers) % 2 == 0 else (True, False):
            t0 = time.perf_counter()
            if traced:
                tracer.install()
            try:
                results = []
                for job in jobs:
                    tracer.job = f"{len(tracers)}:{job.name}"
                    results.append(run_in_process(job))
            finally:
                tracer.uninstall()
            wall[traced] = (time.perf_counter() - t0, results)
        overheads.append(wall[True][0] / wall[False][0])
        plain_walls.append(wall[False][0])
        per_pass.append(layer_metrics(tracer.spans, input_bytes))
        spent = kernel_seconds(tracer.spans)
        for job in jobs:
            kernel[job.name].append(spent.get(f"{len(tracers)}:{job.name}", 0.0))
        tracers.append(tracer)
        for job, plain, traced in zip(jobs, wall[False][1], wall[True][1]):
            attempted += 2
            if plain != traced:
                failures.append((job, "traced output differs from untraced output", traced[2]))
            for code, out, err in (plain, traced):
                reason = checker.check(job, code, out)
                if reason is not None:
                    failures.append((job, reason, err))
        elapsed = time.perf_counter() - start
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(overheads)
    kernel = {name: statistics.median(v) for name, v in kernel.items()}
    return metrics, failures, attempted, tracers, statistics.median(plain_walls), kernel


def environment(workload: str, seed: int, jobs: list[Job]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": workload,
        "seed": seed,
        "inputs": {j.name: {"command": j.args[0], "bytes": os.path.getsize(j.input)} for j in jobs},
    }


def report_failures(failures, workload: str, seed: int) -> list[dict]:
    kept = OUT / "failures" / f"{workload}-seed{seed}"
    listed = []
    for job, reason, err in failures:
        kept.mkdir(parents=True, exist_ok=True)
        copy = kept / Path(job.input).name
        if not copy.exists():
            shutil.copyfile(job.input, copy)
        print(f"FAIL {workload} seed={seed} {reason}; input kept at {copy}; stderr: {err.strip()[:300]}",
              file=sys.stderr)
        listed.append({"job": job.name, "args": list(job.args), "reason": reason, "input_copy": str(copy)})
    return listed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    units = load_units()
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    runner = None
    try:
        runner = JobRunner(work)
        checker = Checker()
        jobs, setup_times = set_up(workload, seed, work, runner)
        env = environment(workload, seed, jobs)
        env["setup_s_repeats"] = setup_times
        if trace:
            startup = [runner.spawn([sys.executable, "-c", "import altiset.cli"]) for _ in range(STARTUP_REPEATS)]
            if any(s[1] != 0 for s in startup):
                raise RuntimeError(f"importing altiset.cli failed: {startup[0][3].strip()}")
            metrics, failures, attempted, tracers, in_process_s, kernel = traced_replay(jobs, seconds, checker)
            metrics["cli.startup_s"] = statistics.median(s[0] for s in startup)
            # a subprocess job is start-up plus what main() does in-process
            job_s = in_process_s + len(jobs) * metrics["cli.startup_s"]
            env["kernel_share"] = sum(kernel.values()) / job_s
            env["kernel_s_by_job"] = kernel
            with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
                for tracer in tracers:
                    tracer.write(fh)
            env["passes"] = len(tracers)
        else:
            samples, elapsed, rounds = closed_loop(jobs, seconds, runner, seed)
            failures = []
            for job, _, code, out, err, _ in samples:
                reason = checker.check(job, code, out)
                if reason is not None:
                    failures.append((job, reason, err))
            walls = [s[1] for s in samples]
            attempted = len(samples)
            job_tail = tail(walls)
            metrics = {
                "job_p50_s": statistics.median(walls),
                "job_tail_s": job_tail.pop("value"),
                "jobs_per_s": attempted / elapsed,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": max(s[5] for s in samples) / 1024.0,
            }
            env.update(rounds=rounds, timed_s=elapsed, job_tail=job_tail)
        env["fail_ratio"] = len(failures) / attempted
        env["failures"] = report_failures(failures, workload, seed)
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
        }
        (OUT / f"report-{tag}.json").write_text(json.dumps({"environment": env, "result": result}, indent=2))
        return {"environment": env, "result": result}
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "altiset" / "cli.py").is_file():
        print(f"error: the altiset sources are missing at {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        env, result = run["environment"], run["result"]
        print("env " + json.dumps({k: v for k, v in env.items() if k != "failures"}))
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name} fail_ratio = {env['fail_ratio']:.6g} ({result['failed']} of {result['attempted']} jobs)")
        results[name] = result
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
