"""Independent checks of CLI results.

Every reference here is the benchmark's own short code, written from the
definitions, never a route of the package: Kahn longest paths for layer
indices, patience sorting for the dependence indices, exact squared-distance
sweeps for skylines and records, numpy profile dominance for collective
comparison, and for evolve the same iteration from the input's h0 on a grid
Voronoi measure rebuilt from the output's own settings. Inputs are read
back from the files the program was given.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
from typing import Optional

import numpy as np

from workloads import Job


def _read_rows(path: str) -> list[list[float]]:
    """Numeric CSV rows; the first row is a header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(c) for c in row] for row in rows[1:] if row]


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _arg(job: Job, flag: str) -> str:
    for a, b in zip(job.args, job.args[1:]):
        if a == flag:
            return b
    for a in job.args:
        if a.startswith(flag + "="):
            return a[len(flag) + 1 :]
    raise KeyError(flag)


# -- references -------------------------------------------------------------


def layer_indices(n: int, pairs) -> Optional[tuple[list[int], list[int]]]:
    """Upper and lower layer indices by Kahn's algorithm; None on a cycle.

    Edge a -> b of the asymmetric interior means b dominates a. The upper
    index is 1 + the longest path leaving a, the lower index 1 + the
    longest path entering a.
    """
    adj = np.zeros((n, n), dtype=bool)
    if len(pairs):
        p = np.asarray(pairs)
        adj[p[:, 0], p[:, 1]] = True
    asym = adj & ~adj.T
    succ = [np.flatnonzero(row).tolist() for row in asym]
    indeg = asym.sum(axis=0).tolist()
    order = [v for v in range(n) if indeg[v] == 0]
    for v in order:
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) < n:
        return None
    upper = [1] * n
    for v in reversed(order):
        for w in succ[v]:
            upper[v] = max(upper[v], upper[w] + 1)
    lower = [1] * n
    for v in order:
        for w in succ[v]:
            lower[w] = max(lower[w], lower[v] + 1)
    return upper, lower


def altiset_of_subset(pairs, subset) -> list[int]:
    """Members of subset with no strict dominator inside subset."""
    rel = {(a, b) for a, b in pairs}
    return [a for a in subset if not any((a, b) in rel and (b, a) not in rel for b in subset)]


def longest_antichain(pts, increasing: bool) -> int:
    """Minimal number of strictly monotone blocks, by Dilworth and patience sorting.

    For increasing blocks an antichain is a run with y non-increasing in
    (x asc, y desc) order; for decreasing blocks, y non-decreasing in
    (x asc, y asc) order.
    """
    if increasing:
        ys = [-y for _, y in sorted(pts, key=lambda p: (p[0], -p[1]))]
    else:
        ys = [y for _, y in sorted(pts)]
    tails: list[float] = []
    for y in ys:
        k = bisect.bisect_right(tails, y)
        if k == len(tails):
            tails.append(y)
        else:
            tails[k] = y
    return len(tails)


def sweep_maxima(dist, height) -> list[int]:
    """Indices not beaten by another that is at least as near and as high,
    one of the two strictly; dist and height compared exactly."""
    order = sorted(range(len(dist)), key=lambda i: (dist[i], -height[i]))
    out: list[int] = []
    best = -math.inf
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and dist[order[j]] == dist[order[i]]:
            j += 1
        top = height[order[i]]
        if top > best:
            out.extend(k for k in order[i:j] if height[k] == top)
            best = top
        i = j
    return sorted(out)


def collective_maxima(doc: dict) -> list[int]:
    """Members whose threshold profile no other member Pareto-dominates."""
    elements = doc["elements"]
    values = np.array([float(doc["h"][e]) for e in elements])
    thresholds = np.unique(values)[::-1]
    col = {e: i for i, e in enumerate(elements)}
    member = np.zeros((len(doc["family"]), len(elements)), dtype=bool)
    for k, m in enumerate(doc["family"]):
        member[k, [col[e] for e in m]] = True
    profile = member.astype(int) @ (values[:, None] >= thresholds[None, :]).astype(int)
    ge = (profile[:, None, :] >= profile[None, :, :]).all(axis=2)
    gt = (profile[:, None, :] > profile[None, :, :]).any(axis=2)
    dominated = (ge & gt).any(axis=0)
    return np.flatnonzero(~dominated).tolist()


def _grid_sq_dists(summits, box, grid) -> tuple[np.ndarray, float]:
    """Squared distance from every cell center to every summit, and the cell area."""
    xmin, xmax, ymin, ymax = box
    nx, ny = grid
    dx, dy = (xmax - xmin) / nx, (ymax - ymin) / ny
    gx, gy = np.meshgrid(xmin + dx * (np.arange(nx) + 0.5), ymin + dy * (np.arange(ny) + 0.5), indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    sx = np.array([s[0] for s in summits])
    sy = np.array([s[1] for s in summits])
    sq = (gx[:, None] - sx[None, :]) ** 2 + (gy[:, None] - sy[None, :]) ** 2
    return sq, (xmax - xmin) * (ymax - ymin) / (nx * ny)


def _voronoi_step(sq, cell_area, h) -> list[float]:
    """h'(x) = measure of the cells weakly closer to x than to every y != x with h(y) >= h(x)."""
    out = []
    for x in range(len(h)):
        rivals = h >= h[x]
        rivals[x] = False
        closest = (sq[:, rivals] >= sq[:, x : x + 1]).all(axis=1)
        out.append(cell_area * int(closest.sum()))
    return out


def evolve_error(summits, h0, settings, result) -> Optional[str]:
    """None when iterating the grid Voronoi map from h0 reaches its fixed
    point after exactly result["steps"] steps, and that point is result["final"].

    The loop stops only where a step leaves the valuation unchanged, so
    the final it compares against is a fixed point by construction.
    """
    sq, cell_area = _grid_sq_dists(summits, settings["box"], settings["grid"])
    final = result["final"]
    current = [float(v) for v in h0]
    for step in range(1, settings["max_steps"] + 1):
        nxt = _voronoi_step(sq, cell_area, np.array(current))
        if nxt == current:
            break
        current = nxt
    else:
        return f"no fixed point within {settings['max_steps']} steps"
    if current != final:
        return f"final {final!r} differs from the fixed point {current!r} reached from h0"
    if result["steps"] != step or result["stop_index"] != step - 1:
        return f"steps {result['steps']}, stop_index {result['stop_index']}; the reference stops after {step} steps"
    return None


# -- checker ----------------------------------------------------------------


class Checker:
    """Judges each (job, exit code, stdout); references are computed once per input."""

    def __init__(self):
        self._verdicts: dict[tuple, Optional[str]] = {}

    def check(self, job: Job, returncode: int, stdout: str) -> Optional[str]:
        """None if the result is right, else a reason naming the input."""
        key = (job.name, job.input, returncode, stdout)
        if key not in self._verdicts:
            try:
                reason = self._judge(job, returncode, stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable result: {exc!r}"
            self._verdicts[key] = None if reason is None else f"{job.name} ({job.input}): {reason}"
        return self._verdicts[key]

    def _judge(self, job: Job, returncode: int, stdout: str) -> Optional[str]:
        if returncode != job.expect_exit:
            return f"exit code {returncode}, expected {job.expect_exit}"
        if job.expect_exit != 0:
            if stdout:
                return "an invalid input printed a result"
            return self._invalid(job)
        doc = json.loads(stdout)
        with open(job.input, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if doc["meta"]["input_sha256"] != digest or doc["meta"]["command"] != job.args[0]:
            return "meta block does not match the input"
        return getattr(self, "_" + job.kind)(job, doc["meta"]["settings"], doc["result"])

    def _invalid(self, job: Job) -> Optional[str]:
        if job.kind == "layers":
            doc = _read_json(job.input)
            if layer_indices(doc["size"], doc["pairs"]) is not None:
                return "input expected to be cyclic has acyclic interior"
        return None

    def _layers(self, job, settings, result):
        doc = _read_json(job.input)
        ref = layer_indices(doc["size"], doc["pairs"])
        if ref is None:
            return "reference finds a cycle but the program layered it"
        upper, lower = ref
        if job.known is not None and tuple(map(tuple, (upper, lower))) != job.known:
            return "reference disagrees with the construction"
        got = (result["upper_index"], result["lower_index"], result["d"])
        if got != (upper, lower, max(upper, default=0)):
            return "layer indices differ from Kahn longest paths"
        return None

    def _altiset(self, job, settings, result):
        doc = _read_json(job.input)
        subset = sorted({int(v) for v in _arg(job, "--subset").split(",")})
        if result["altiset"] != altiset_of_subset(doc["pairs"], subset):
            return "altiset differs from the definition"
        return None

    def _correlate(self, job, settings, result):
        pts = [tuple(r) for r in _read_rows(job.input)]
        plus = longest_antichain(pts, increasing=True)
        minus = longest_antichain(pts, increasing=False)
        if (result["iota_plus"], result["iota_minus"]) != (plus, minus):
            return f"indices {result['iota_plus']},{result['iota_minus']} != patience {plus},{minus}"
        eps = math.log(minus / plus) / math.log(len(pts))
        if not math.isclose(result["epsilon"], eps, rel_tol=1e-12, abs_tol=1e-12):
            return f"epsilon {result['epsilon']!r} != {eps!r}"
        blocks = result["blocks"]
        if len(blocks) != plus or sorted(i for b in blocks for i in b) != list(range(len(pts))):
            return "blocks are not a partition into iota_plus parts"
        for block in blocks:
            if block != sorted(block):
                return "a block is not sorted"
            chain = sorted(pts[i] for i in block)
            if any(not (p[0] < q[0] and p[1] < q[1]) for p, q in zip(chain, chain[1:])):
                return "a block is not strictly increasing"
        return None

    def _skyline(self, job, settings, result):
        rows = _read_rows(job.input)
        rx, ry = (float(v) for v in _arg(job, "--ref").split(","))
        dist = [(x - rx) ** 2 + (y - ry) ** 2 for x, y, _ in rows]
        ref = sweep_maxima(dist, [r[2] for r in rows])
        if job.known is not None and tuple(ref) != job.known:
            return "reference disagrees with the construction"
        if result["altiset"] != ref or result["size"] != len(rows):
            return "skyline differs from the exact squared-distance sweep"
        return None

    def _records(self, job, settings, result):
        rows = _read_rows(job.input)
        ref = sweep_maxima([r[0] for r in rows], [r[1] for r in rows])
        if result["altiset"] != ref or result["size"] != len(rows):
            return "records differ from the exact time sweep"
        return None

    def _collective(self, job, settings, result):
        doc = _read_json(job.input)
        ref = collective_maxima(doc)
        if result["indices"] != ref:
            return "indices differ from numpy profile dominance"
        if result["survivors"] != [sorted(set(doc["family"][i])) for i in ref]:
            return "survivors do not list the members' elements"
        return None

    def _evolve(self, job, settings, result):
        rows = _read_rows(job.input)
        if len(result["final"]) != len(rows):
            return "final valuation has the wrong length"
        summits = [(r[0], r[1]) for r in rows]
        return evolve_error(summits, [r[2] for r in rows], settings, result)
