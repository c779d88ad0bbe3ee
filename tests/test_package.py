import functools
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import altiset

PUBLIC = [
    "AltisetError", "FiniteRelation", "GridMeasure", "KeyedOrder", "LayerDecomposition",
    "OrderSystem", "PointSet2D", "SubsetFamily", "SummitField", "Universe", "ValuationTrace",
    "ValuedGroundSet", "altiset_of_system", "chain_coloring", "collective_altiset",
    "decompose_altiset", "decreasingness_index", "epsilon", "eval_chain", "evolve",
    "geo_altiset_oracle", "increasing_decomposition", "increasingness_index",
    "inverse_altiset_measure", "pairwise_elimination", "quotient", "record_events",
    "skyline_circular", "skyline_contour", "skyline_recursive",
    "threshold_profile", "union", "upper_layers", "voronoi_mu",
]

# the modules that compute; every job also loads cli, datasets and errors
KERNELS = ("relation", "orders", "layers", "dependence", "collective", "geoalt", "domains")

# a job of each subcommand on its fixture, and the kernel modules it runs
FIXTURE_JOBS = pytest.mark.parametrize("argv,runs", [
    (["altiset", "--relation", "cycle3.json"], ("relation",)),
    (["layers", "--relation", "chain3.json"], ("relation", "layers")),
    (["correlate", "points_increasing.csv"], ("orders", "dependence")),
    (["collective", "family.json"], ("orders", "collective")),
    (["skyline", "summits.csv", "--ref", "0,0", "--method", "oracle"], ("orders", "geoalt")),
    (["evolve", "evolve.csv", "--grid", "16x16"], ("domains",)),
], ids=["altiset", "layers", "correlate", "collective", "skyline", "evolve"])


def load_perfbench(name):
    """A module of the benchmark in perfbench/, loaded by path."""
    path = Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def installed_tracer(tracing):
    """A tracing.Tracer, installed once every module it wraps is imported:
    the CLI imports each kernel module only when a job needs it."""
    for module in tracing.MODULES:
        importlib.import_module(f"altiset.{module}")
    tracer = tracing.Tracer()
    tracer.install()
    return tracer


class TestExports:
    def test_public_names_in_order(self):
        assert altiset.__all__ == PUBLIC

    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_its_home_modules_object(self, name):
        obj = getattr(altiset, name)
        assert obj.__module__.startswith("altiset.")
        assert getattr(sys.modules[obj.__module__], name) is obj

    def test_star_import_binds_every_name(self):
        scope: dict = {}
        exec("from altiset import *", scope)
        assert sorted(k for k in scope if k != "__builtins__") == sorted(PUBLIC)

    @pytest.mark.parametrize("name", ["no_such_name", "maxima", "rh_dominates"])
    def test_unknown_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(altiset, name)

    def test_readme_lists_every_name_under_its_home_module(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = {module: tuple(re.findall(r"`(\w+)`", names))
                  for module, names in re.findall(r"^- `altiset\.(\w+)`: (.+)$", readme, re.M)}
        assert listed == altiset._EXPORTS

    def test_package_holds_no_test_reference(self):
        assert importlib.util.find_spec("altiset.oracles") is None

    @staticmethod
    def modules_after(code, *argv, cwd=None):
        """The names in sys.modules once code has run in a fresh interpreter
        that imports altiset from this checkout; code prints them."""
        return subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True, cwd=cwd,
            env={**os.environ, "PYTHONPATH": str(Path(altiset.__file__).parents[1])},
        ).stdout.split()

    def test_submodule_import_loads_only_its_dependencies(self):
        for module, absent in [
            ("relation", [f"altiset.{m}" for m in ("orders", "collective", "dependence", "geoalt",
                                                     "domains", "datasets", "cli", "emit",
                                                     "relstream")]),
            ("orders", ["altiset.relation"]),  # the Pareto kernel builds no relation
            ("domains", ["altiset.geoalt", "altiset.orders"]),  # evolve takes no reference
            ("cli", ["altiset.relation", "altiset.relstream", "csv", "_csv"]),  # each job loads its own path
        ]:
            out = self.modules_after(f"import sys, altiset.{module}; print(' '.join(sorted(sys.modules)))")
            assert f"altiset.{module}" in out
            assert not set(absent) & set(out), module

    # runs the CLI on argv in a fresh interpreter, then prints the loaded modules
    JOB = (
        "import contextlib, io, sys\n"
        "from altiset.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )

    @staticmethod
    @functools.cache
    def job_modules(*argv):
        """modules_after of JOB on argv in the fixtures directory, run once
        per argv for all the tests that read it."""
        fixtures = Path(__file__).parent / "fixtures"
        return tuple(TestExports.modules_after(TestExports.JOB, "--no-timestamp", *argv, cwd=fixtures))

    @FIXTURE_JOBS
    def test_cli_job_loads_only_what_it_runs(self, argv, runs):
        out = self.job_modules(*argv)
        assert {m for m in KERNELS if f"altiset.{m}" in out} == set(runs)
        assert "altiset.emit" not in out
        assert "_hashlib" not in out  # hashlib loads OpenSSL for its sha256
        # the relation stream is read by relation jobs only; the CSV fixtures
        # take np.loadtxt, so no job loads csv
        assert ("altiset.relstream" in out) == ("relation" in runs)
        assert "csv" not in out and "_csv" not in out

    @FIXTURE_JOBS
    def test_readme_counts_the_lines_a_job_loads(self, argv, runs):
        out = self.job_modules(*argv)
        package = Path(altiset.__file__).parent
        files = [package / f"{m.partition('.')[2] or '__init__'}.py" for m in out
                 if m.partition(".")[0] == "altiset"]
        lines = sum(f.read_bytes().count(b"\n") for f in files)
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = dict(re.findall(r"^\| `(\w+)` \| ([\d,]+) \|$", readme, re.M))
        assert int(table[argv[0]].replace(",", "")) == lines, f"{argv[0]} loads {lines:,} lines"

    def test_quoted_cell_takes_the_csv_fallback(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('x,y\n"1",2\n3,4\n')
        out = self.modules_after(self.JOB, "--no-timestamp", "correlate", str(path))
        assert "csv" in out and "_csv" in out


class TestTracingTargets:
    """Every function the benchmark tracer wraps still exists under its name."""

    @pytest.mark.parametrize("target", load_perfbench("tracing").TARGETS, ids=lambda t: t[0])
    def test_target_resolves(self, target):
        _, module, attr, _ = target
        home = importlib.import_module(f"altiset.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in getattr(home, cls_name).__dict__
        else:
            assert callable(getattr(home, attr))
