"""Spans around the package's public functions, recorded from outside it.

``Tracer.install()`` replaces each traced function with a wrapper in every
``altiset`` module namespace that holds it (for example ``upper_layers`` in
``layers``, ``dependence`` and ``cli``), and each traced method on its class.
A span is (name, start, end, parent, job, note, error); spans stay in memory
and are written out when the run ends. Self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Optional

# (span name, module, attribute, note) -- the attribute is "Class.method" for
# methods; a note turns (args, result) into counts stored on the span.
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("cli.main", "cli", "main", None),
    ("datasets.parse_relation", "datasets", "parse_relation", None),
    ("datasets.parse_points_csv", "datasets", "parse_points_csv", None),
    ("datasets.parse_summits_csv", "datasets", "parse_summits_csv", None),
    ("datasets.parse_family", "datasets", "parse_family", None),
    ("relation.from_pairs", "relation", "FiniteRelation.from_pairs", None),
    ("relation.induce", "relation", "FiniteRelation.induce", None),
    ("relation.find_asym_cycle", "relation", "FiniteRelation.find_asym_cycle", None),
    ("relation.altiset", "relation", "FiniteRelation.altiset", None),
    ("relation.union", "relation", "union", None),
    # the relation's bytes tell how many distinct relations a job layers
    ("layers.upper_layers", "layers", "upper_layers",
     lambda args, result: {"relation": hash(args[0])}),
    ("dependence.increasingness_index", "dependence", "increasingness_index", None),
    ("dependence.decreasingness_index", "dependence", "decreasingness_index", None),
    ("dependence.epsilon", "dependence", "epsilon", None),
    ("dependence.increasing_decomposition", "dependence", "increasing_decomposition", None),
    ("orders.keyed_relation", "orders", "KeyedOrder.relation", None),
    ("orders.quotient", "orders", "quotient", None),
    ("orders.altiset_of_system", "orders", "altiset_of_system", None),
    ("collective.threshold_profile", "collective", "threshold_profile", None),
    ("collective.collective_altiset", "collective", "collective_altiset", None),
    ("geoalt.oracle", "geoalt", "geo_altiset_oracle",
     lambda args, result: {"n": len(args[0]), "kept": len(result)}),
    ("geoalt.circular", "geoalt", "skyline_circular",
     lambda args, result: {"n": len(args[0]), "kept": len(result)}),
    ("geoalt.contour", "geoalt", "skyline_contour",
     lambda args, result: {"n": len(args[0]), "kept": len(result)}),
    ("geoalt.recursive", "geoalt", "skyline_recursive",
     lambda args, result: {"n": len(args[0]), "kept": len(result)}),
    ("geoalt.records_field", "geoalt", "record_events_field",
     lambda args, result: {"n": len(args[0]), "kept": len(result)}),
    ("geoalt.records", "geoalt", "record_events", None),
    ("domains.evolve", "domains", "evolve",
     lambda args, result: {"steps": len(result.valuations) - 1}),
    ("domains.voronoi_mu", "domains", "voronoi_mu",
     lambda args, result: {"pairs": args[3].nx * args[3].ny * len(args[2])}),
]

MODULES = ("cli", "datasets", "relation", "layers", "dependence", "orders", "collective", "geoalt", "domains")

NAME, START, END, PARENT, JOB, NOTE, ERROR = range(7)

# what a job computes, as against reading its input (datasets, and building
# the relation from its pairs) and argparse and emitting (cli)
KERNEL_MODULES = MODULES[2:]
NOT_KERNEL = ("relation.from_pairs",)


class Tracer:
    """Records spans of traced calls; install() and uninstall() swap the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: Optional[str] = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        loaded = [m for name, m in sys.modules.items() if name == "altiset" or name.startswith("altiset.")]
        for name, module, attr, note in TARGETS:
            home = sys.modules[f"altiset.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, note))
                else:
                    wrapped = self._wrap(name, raw, note)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original, note)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write(self, fh) -> None:
        """Spans as JSON lines: name, start, end, parent index, job, note, error."""
        for s in self.spans:
            fh.write(json.dumps(s) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def kernel_seconds(spans: list[list]) -> dict[str, float]:
    """Self time of the kernel layers, per job of the spans."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        if s[NAME].split(".")[0] in KERNEL_MODULES and s[NAME] not in NOT_KERNEL:
            out[s[JOB]] = out.get(s[JOB], 0.0) + t
    return out


def layer_metrics(spans: list[list], input_bytes: int) -> dict[str, float]:
    """Per-layer self times, call counts and ratios from one pass of spans.

    Metrics of a layer that did not run on the workload read 0.
    """
    own = self_times(spans)
    time_of: dict[str, float] = {}
    calls: dict[str, int] = {}
    errors = dict.fromkeys(MODULES, 0)
    for s, t in zip(spans, own):
        time_of[s[NAME]] = time_of.get(s[NAME], 0.0) + t
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        if s[ERROR]:
            errors[s[NAME].split(".")[0]] += 1

    def t(*names):
        return sum(time_of.get(n, 0.0) for n in names)

    def module_time(module):
        return sum(v for k, v in time_of.items() if k.startswith(module + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    # distinct relations layered per dependence call of upper_layers, per job
    layered = [
        (s[JOB], s[NOTE]["relation"])
        for s in spans
        if s[NAME] == "layers.upper_layers" and s[NOTE] is not None and s[PARENT] >= 0
        and spans[s[PARENT]][NAME].startswith("dependence.")
    ]
    top_geo = [
        s[NOTE] for s in spans
        if s[NAME] in ("geoalt.oracle", "geoalt.circular", "geoalt.contour", "geoalt.recursive",
                       "geoalt.records_field")
        and s[NOTE] is not None
        and (s[PARENT] < 0 or not spans[s[PARENT]][NAME].startswith("geoalt."))
    ]
    parse_s = module_time("datasets")
    voronoi_s = t("domains.voronoi_mu")
    m = {
        "cli.main_self_s": t("cli.main"),
        "datasets.parse_s": parse_s,
        "datasets.parse_bytes_per_s": ratio(input_bytes, parse_s),
        "relation.from_pairs_s": t("relation.from_pairs"),
        "relation.induce_s": t("relation.induce"),
        "relation.induce_calls": calls.get("relation.induce", 0),
        "relation.find_asym_cycle_s": t("relation.find_asym_cycle"),
        "relation.altiset_s": t("relation.altiset"),
        "relation.altiset_calls": calls.get("relation.altiset", 0),
        "layers.upper_layers_self_s": t("layers.upper_layers"),
        "layers.upper_layers_calls": calls.get("layers.upper_layers", 0),
        "dependence.self_s": module_time("dependence"),
        "dependence.distinct_layering_ratio": ratio(len(set(layered)), len(layered)),
        "orders.quotient_s": t("orders.quotient"),
        "orders.keyed_relation_s": t("orders.keyed_relation"),
        "orders.keyed_relation_calls": calls.get("orders.keyed_relation", 0),
        "collective.threshold_profile_s": t("collective.threshold_profile"),
        "collective.threshold_profile_calls": calls.get("collective.threshold_profile", 0),
        "collective.collective_altiset_self_s": t("collective.collective_altiset"),
        "geoalt.oracle_s": t("geoalt.oracle"),
        "geoalt.oracle_calls": calls.get("geoalt.oracle", 0),
        "geoalt.circular_s": t("geoalt.circular"),
        "geoalt.contour_s": t("geoalt.contour"),
        "geoalt.recursive_self_s": t("geoalt.recursive"),
        "geoalt.records_s": t("geoalt.records_field", "geoalt.records"),
        "geoalt.skyline_fraction": ratio(sum(g["kept"] for g in top_geo), sum(g["n"] for g in top_geo)),
        "domains.evolve_self_s": t("domains.evolve"),
        "domains.voronoi_mu_s": voronoi_s,
        "domains.voronoi_mu_calls": calls.get("domains.voronoi_mu", 0),
        "domains.evolve_steps": sum(s[NOTE]["steps"] for s in spans if s[NAME] == "domains.evolve" and s[NOTE]),
        "domains.cell_summit_pairs_per_s": ratio(
            sum(s[NOTE]["pairs"] for s in spans if s[NAME] == "domains.voronoi_mu" and s[NOTE]),
            voronoi_s),
    }
    m.update({f"{module}.errors": count for module, count in errors.items()})
    return m
