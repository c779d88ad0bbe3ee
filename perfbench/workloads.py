"""Seeded input generators and the job round of each workload.

A workload is a fixed list of CLI jobs (a "round"). The sizes in a round
are the same for every seed; the seed only changes the random content, so
two seeds give comparable rounds. Every input is written to a file and the
program sees only that file.

Shapes follow the generators of ``tests/conftest.py`` and the worst cases
of ROADMAP item 1: total orders (depth d = n), random relations whose
asymmetric interior is acyclic, random / near-increasing / near-antichain
point sets, tie-heavy lattice fields and all-on-skyline fields, real-line
series and subset families.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

WORKLOADS = ("layering", "geometry")


@dataclass(frozen=True)
class Job:
    """One CLI invocation with what the checker needs to judge it."""

    name: str  # unique within the round, also the input file stem
    kind: str  # which reference check applies (see checks.py)
    args: tuple[str, ...]  # CLI arguments after the global flags
    input: str  # absolute path of the input file
    expect_exit: int = 0
    known: Optional[tuple] = None  # answer known by construction, if any


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(workload.encode()), index])


# -- shapes -----------------------------------------------------------------


def total_order(rng, n):
    """Strict total order under a random labelling: a R b iff rank a < rank b.

    Returns the pairs and the ranks; upper index = n - rank, lower = rank + 1.
    """
    order = rng.permutation(n)
    i, j = np.triu_indices(n, 1)
    pairs = np.stack([order[i], order[j]], axis=1)
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    return pairs, rank


def aa_relation(rng, n, density=0.4):
    """Random relation with acyclic asymmetric interior (conftest shape).

    Strict edges only go upward in a hidden permutation; downward draws
    become symmetric pairs and loops are kept, so neither enters the
    interior.
    """
    rank = rng.permutation(n)
    drawn = rng.random((n, n)) < density
    up = rank[:, None] < rank[None, :]
    eye = np.eye(n, dtype=bool)
    sym = drawn & ~up & ~eye & (rng.random((n, n)) < 0.5)
    adj = (drawn & (up | eye)) | sym | sym.T
    return np.argwhere(adj)


def cyclic_relation(rng, n):
    """Small AA relation plus one asymmetric 3-cycle: layering must fail."""
    pairs = aa_relation(rng, n).tolist()
    a, b, c = (int(v) for v in rng.choice(n, 3, replace=False))
    pairs = [p for p in pairs if sorted(p) not in (sorted([a, b]), sorted([b, c]), sorted([a, c]))]
    return pairs + [[a, b], [b, c], [c, a]]


def points(rng, n, shape):
    """Distinct integer-valued points; ties in x or in y do occur."""
    if shape == "random":
        cells = rng.choice(4 * n * n, n, replace=False)
        x, y = cells // (2 * n), cells % (2 * n)
    else:
        x = 2 * np.arange(n) + rng.integers(0, 2, n)  # distinct x
        noise = rng.integers(-max(1, n // 20), max(1, n // 20) + 1, n)
        y = x + noise if shape == "near-increasing" else -x + noise
        order = rng.permutation(n)
        x, y = x[order], y[order]
    return np.stack([x, y], axis=1)


def lattice_field(rng, n):
    """Tie-heavy planar field on a small integer lattice (conftest shape)."""
    span = max(3, n // 4)
    xy = rng.integers(-span, span + 1, (n, 2))
    h = rng.integers(0, span + 1, n)
    ref = rng.integers(-span, span + 1, 2)
    return xy, h, ref


def skyline_field(rng, n):
    """Planar field whose every summit is on the skyline.

    Squared distances to the reference are distinct integers and altitudes
    rise strictly with them, so nothing is both higher and closer.
    """
    span = 4 * n
    ref = rng.integers(-span, span + 1, 2)
    cand = rng.integers(-span, span + 1, (6 * n, 2))
    d2 = ((cand - ref) ** 2).sum(axis=1)
    _, first = np.unique(d2, return_index=True)
    keep = np.sort(rng.choice(first, n, replace=False))
    keep = keep[np.argsort(d2[keep], kind="stable")]
    h = np.sort(rng.choice(10 * n, n, replace=False))
    order = rng.permutation(n)
    return cand[keep][order], h[order], ref


def series(rng, n):
    """Real-line event series: integer times with repeats, random-walk heights."""
    t = rng.integers(0, n, n)
    h = np.cumsum(rng.integers(-3, 4, n)) + 10 * n
    return t, h


def family(rng, members, ground):
    """Subset family over a valued ground set with tied valuations."""
    elements = [f"e{i}" for i in range(ground)]
    values = rng.integers(0, 10, ground)
    chosen = rng.random((members, ground)) < 0.5
    return {
        "elements": elements,
        "h": {e: int(v) for e, v in zip(elements, values)},
        "family": [[elements[i] for i in np.flatnonzero(row)] for row in chosen],
    }


def evolve_summits(rng, n):
    """Distinct integer summits in a 100x100 box with initial valuations."""
    cells = rng.choice(10_000, n, replace=False)
    return np.stack([cells // 100, cells % 100, rng.integers(1, 100, n)], axis=1)


# -- file writers -------------------------------------------------------------


def _write_relation(path: Path, n: int, pairs) -> None:
    pairs = pairs.tolist() if isinstance(pairs, np.ndarray) else pairs
    path.write_text(json.dumps({"size": n, "pairs": pairs}, separators=(",", ":")))


def _write_csv(path: Path, header: str, rows) -> None:
    body = "\n".join(",".join(str(int(v)) for v in row) for row in rows)
    path.write_text(f"{header}\n{body}\n")


# -- rounds -----------------------------------------------------------------


class _Round:
    """Accumulates the jobs of one round, writing each input as it goes."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, Path(workdir)
        self.jobs: list[Job] = []

    def rng(self):
        return _rng(self.seed, self.workload, len(self.jobs))

    def add(self, name, kind, path, args, expect_exit=0, known=None):
        self.jobs.append(Job(name, kind, tuple(args), str(path), expect_exit, known))

    def path(self, name, suffix):
        return self.workdir / f"{name}.{suffix}"

    def layers(self, name, n, shape):
        rng, path = self.rng(), self.path(name, "json")
        known = None
        if shape == "total":
            pairs, rank = total_order(rng, n)
            known = (tuple(int(n - r) for r in rank), tuple(int(r + 1) for r in rank))
        elif shape == "aa":
            pairs = aa_relation(rng, n)
        else:
            pairs = cyclic_relation(rng, n)
        _write_relation(path, n, pairs)
        self.add(name, "layers", path, ["layers", "--relation", str(path)],
                 expect_exit=1 if shape == "cyclic" else 0, known=known)

    def altiset(self, name, n):
        rng, path = self.rng(), self.path(name, "json")
        _write_relation(path, n, aa_relation(rng, n, density=0.3))
        subset = ",".join(str(int(v)) for v in np.sort(rng.choice(n, n // 2, replace=False)))
        self.add(name, "altiset", path,
                 ["altiset", "--relation", str(path), "--subset", subset])

    def correlate(self, name, n, shape):
        path = self.path(name, "csv")
        _write_csv(path, "x,y", points(self.rng(), n, shape))
        self.add(name, "correlate", path, ["correlate", str(path)])

    def malformed_csv(self, name, n):
        path = self.path(name, "csv")
        rows = [",".join(str(int(v)) for v in p) for p in points(self.rng(), n, "random")]
        rows[n // 2] = rows[n // 2].split(",")[0] + ",zebra"
        path.write_text("x,y\n" + "\n".join(rows) + "\n")
        self.add(name, "invalid", path, ["correlate", str(path)], expect_exit=2)

    def skyline(self, name, n, shape, method):
        rng, path = self.rng(), self.path(name, "csv")
        if shape == "lattice":
            xy, h, ref = lattice_field(rng, n)
            known = None
        else:
            xy, h, ref = skyline_field(rng, n)
            known = tuple(range(n))
        _write_csv(path, "x,y,h", np.column_stack([xy, h]))
        # "--ref=" keeps a negative reference from reading as an option
        args = ["skyline", str(path), f"--ref={int(ref[0])},{int(ref[1])}", "--method", method]
        self.add(name, "skyline", path, args, known=known)

    def records(self, name, n):
        path = self.path(name, "csv")
        t, h = series(self.rng(), n)
        _write_csv(path, "x,h", np.column_stack([t, h]))
        self.add(name, "records", path,
                 ["skyline", str(path), "--ref", "0", "--method", "records"])

    def collective(self, name, members, ground):
        path = self.path(name, "json")
        path.write_text(json.dumps(family(self.rng(), members, ground)))
        self.add(name, "collective", path, ["collective", str(path)])

    def evolve(self, name, n, grid):
        path = self.path(name, "csv")
        _write_csv(path, "x,y,h", evolve_summits(self.rng(), n))
        self.add(name, "evolve", path,
                 ["evolve", str(path), "--grid", grid])


def build(workload: str, seed: int, workdir) -> list[Job]:
    """Write the inputs of one round of `workload` under workdir; return its jobs."""
    r = _Round(workload, seed, workdir)
    if workload == "layering":
        # peeling is O(d n^2): total orders are the d = n worst case
        for n in range(400, 601, 20):
            r.layers(f"total-{n}", n, "total")
        for n in range(450, 751, 30):
            r.layers(f"aa-{n}", n, "aa")
        shapes = ("random", "near-increasing", "near-antichain")
        for k, n in enumerate(range(280, 491, 30)):
            r.correlate(f"points-{shapes[k % 3]}-{n}", n, shapes[k % 3])
        _small_round(r)
    elif workload == "geometry":
        # the oracle exits early on lattice fields and checks all n^2 pairs
        # on all-on-skyline fields, so a change helping one shape shows on
        # the other; the sweeps cost about as much as parsing on both
        for method in ("oracle", "recursive"):
            r.skyline(f"{method}-lattice-3000", 3000, "lattice", method)
            for n in range(2400, 3001, 200):
                r.skyline(f"{method}-all-{n}", n, "all", method)
        for method in ("circular", "contour"):
            for shape in ("lattice", "all"):
                r.skyline(f"{method}-{shape}-3000", 3000, shape, method)
        for n in (2000, 2500, 3000):
            r.records(f"records-{n}", n)
        for members in range(300, 451, 30):
            r.collective(f"family-{members}", members, 40)
        # the step count to the fixed point varies from instance to
        # instance, and a ladder of instances averages it out
        for n in range(36, 51, 2):
            r.evolve(f"evolve-{n}-64x64", n, "64x64")
        for n in range(24, 37, 2):
            r.evolve(f"evolve-{n}-128x128", n, "128x128")
        # tiny jobs of the layering subcommands, so that every layer runs
        r.altiset("altiset-12", 12)
        r.layers("total-20", 20, "total")
        r.correlate("points-random-20", 20, "random")
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return r.jobs


def _small_round(r: _Round) -> None:
    """Every subcommand on n <= 20 and two invalid inputs: start-up, import,
    parsing and emitting are the whole job, and every layer runs."""
    r.altiset("altiset-12", 12)
    r.layers("total-20", 20, "total")
    r.layers("aa-15", 15, "aa")
    r.correlate("points-random-20", 20, "random")
    r.correlate("points-near-increasing-16", 16, "near-increasing")
    r.collective("family-12", 12, 8)
    for method in ("oracle", "circular", "contour", "recursive"):
        r.skyline(f"{method}-lattice-20", 20, "lattice", method)
    r.skyline("oracle-all-16", 16, "all", "oracle")
    r.records("records-20", 20)
    r.evolve("evolve-8-32x32", 8, "32x32")
    # documented exit codes: 1 for a cyclic relation, 2 for a bad cell
    r.layers("cyclic-12", 12, "cyclic")
    r.malformed_csv("bad-cell-10", 10)
