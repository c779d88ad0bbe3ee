"""Command-line front end: ingest datasets, run one analysis, emit JSON.

A job imports only what its subcommand runs: each runner imports its
kernel module when it is called, and `datasets` imports a format's types
in that format's parser.  A relation file is hashed in a pass of its own,
then rewound and streamed into its matrix by `datasets.parse_relation`;
the other inputs are read whole.  The input digest comes from CPython's
builtin sha256 (`_sha2` or `_sha256`), so no job loads OpenSSL through
hashlib.  `altiset --help` prints HELP and EXIT_CODES, not these notes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from typing import Optional

# the builtin sha256 spares each job hashlib's OpenSSL import
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import __version__, datasets
from .errors import AltisetError, ParseError, SubsetIndexError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2
EXIT_USAGE = 64
HELP = "Run one analysis of a dataset and write its result as JSON."
EXIT_CODES = """exit codes: 0 success, 1 domain error (a cyclic relation, degenerate input),
2 I/O or parse error (bad input, duplicate points or a bad --subset), 64 usage error"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read(path: str) -> tuple[str, str]:
    """File text plus its sha256 digest."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return datasets.utf8_text(raw, path), sha256(raw).hexdigest()


def _read_relation(path: str):
    """The relation in a file plus the file's sha256 digest, taken in 64 KiB
    reads before the file is rewound and parsed."""
    sha = sha256()
    with open(path, "rb") as fh:
        source = fh
        if not fh.seekable():  # a pipe: read whole, and named in errors as the file
            source = io.BytesIO(fh.read())
            source.name = path
        for raw in iter(lambda: source.read(1 << 16), b""):
            sha.update(raw)
        source.seek(0)
        return datasets.parse_relation(source), sha.hexdigest()


def _document(command: str, digest: str, settings: dict, result: dict, timestamp: bool) -> str:
    meta = {
        "command": command,
        "input_sha256": digest,
        "settings": settings,
        "version": __version__,
    }
    if timestamp:
        meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return json.dumps({"meta": meta, "result": result}, sort_keys=True, indent=2) + "\n"


def _parse_list(spec: str, convert, what: str, sep: str = ",") -> list:
    """Every `sep`-separated part of a list-valued option, as `convert`
    reads it, so an empty part is an error; a blank spec is the empty list."""
    try:
        return [convert(p) for p in spec.split(sep)] if spec.strip() else []
    except ValueError as exc:
        raise ParseError(f"bad {what} {spec!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="altiset", description=HELP, epilog=EXIT_CODES)
    parser.add_argument("--no-timestamp", action="store_true", help="omit meta.timestamp")
    parser.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("altiset", help="significant elements of a relation")
    p.add_argument("--relation", required=True, help="relation JSON file")
    p.add_argument("--subset", default=None, help="comma-separated indices to restrict to")

    p = sub.add_parser("layers", help="successive altiset layers and d(R)")
    p.add_argument("--relation", required=True, help="relation JSON file")

    p = sub.add_parser("correlate", help="dependence direction of an x,y CSV")
    p.add_argument("input", help="CSV file with two numeric columns x,y")

    p = sub.add_parser("collective", help="significant members of a subset family")
    p.add_argument("input", help="family JSON file")

    p = sub.add_parser("skyline", help="high-and-close summits for a reference point")
    p.add_argument("input", help="CSV with columns x[,y],h")
    p.add_argument("--ref", required=True, help="reference point X or X,Y")
    p.add_argument(
        "--method",
        choices=["oracle", "circular", "contour", "recursive", "records"],
        default="oracle",
    )
    p.add_argument("--block-size", type=int, default=16)

    p = sub.add_parser("evolve", help="measure-driven evolution of valuation")
    p.add_argument("input", help="CSV with columns x,y,h (h = initial valuation)")
    p.add_argument("--grid", default=None, help="resolution WxH (default 128x128)")
    p.add_argument("--inflate", type=float, default=None, help="box margin per side (default 0.25)")
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--trace", default=None, help="write the full trace JSON here")
    return parser


def _run_altiset(args, rel):
    subset = None if args.subset is None else _parse_list(args.subset, int, "subset spec")
    result = {"altiset": sorted(rel.altiset(subset)), "size": rel.universe.size}
    if rel.universe.labels:
        result["labels"] = [rel.universe.labels[i] for i in result["altiset"]]
    return {"subset": subset}, result


def _run_layers(args, rel):
    from .layers import upper_layers

    decomp = upper_layers(rel)
    result = {
        "d": decomp.class_count,
        "lower_index": list(decomp.lower_index),
        "upper_index": list(decomp.upper_index),
    }
    return {}, result


def _run_correlate(args, text):
    from .dependence import decreasingness_index, epsilon_of_indices, increasing_decomposition

    points = datasets.parse_points_csv(text)
    # one layering per direction: the blocks are the increasing layers
    blocks = increasing_decomposition(points)
    plus, minus = len(blocks), decreasingness_index(points)
    result = {
        "blocks": blocks,
        "epsilon": epsilon_of_indices(len(points), plus, minus),
        "iota_minus": minus,
        "iota_plus": plus,
    }
    return {}, result


def _run_collective(args, text):
    from .collective import collective_altiset

    family = datasets.parse_family(text)
    indices = sorted(collective_altiset(family))
    result = {
        "indices": indices,
        "survivors": [sorted(family.member(i)) for i in indices],
    }
    return {}, result


def _run_skyline(args, text):
    from . import geoalt

    ref = tuple(_parse_list(args.ref, float, "reference"))
    if len(ref) not in (1, 2):
        raise ParseError(f"reference must be X or X,Y, got {args.ref!r}")
    # record events read no distance; from 0 no finite time is an inf distance
    reference = ref if len(ref) == 2 else 0.0 if args.method == "records" else ref[0]
    field = datasets.parse_summits_csv(text, reference)
    # read off the module per call, so functions rebound in geoalt are the ones called
    routes = {
        "oracle": geoalt.geo_altiset_oracle,
        "circular": geoalt.skyline_circular,
        "contour": geoalt.skyline_contour,
        "recursive": lambda f: geoalt.skyline_recursive(f, args.block_size),
        "records": geoalt.record_events_field,
    }
    chosen = routes[args.method](field)
    settings = {
        "block_size": args.block_size if args.method == "recursive" else None,
        "distance_ties": "exact",
        "method": args.method,
        "reference": list(ref),
    }
    return settings, {"altiset": sorted(chosen), "size": len(field)}


def _run_evolve(args, text):
    from .domains import DEFAULT_INFLATE, DEFAULT_RESOLUTION, GridMeasure, evolve

    inflate = DEFAULT_INFLATE if args.inflate is None else args.inflate
    rows = datasets._read_array(text, 3, ("x", "y", "h"))
    dims = [DEFAULT_RESOLUTION] * 2
    if args.grid:
        dims = _parse_list(args.grid.lower(), int, "grid spec", "x")
    if len(dims) != 2:
        raise ParseError(f"grid must be WxH, got {args.grid!r}")
    grid = GridMeasure.around(rows[:, :2], inflate, *dims)
    try:
        trace = evolve(rows[:, :2], rows[:, 2], grid, max_steps=args.max_steps)
    except MemoryError as exc:
        raise ParseError(f"grid {grid.nx}x{grid.ny} is too large to hold in memory") from exc
    settings = {
        "box": [grid.xmin, grid.xmax, grid.ymin, grid.ymax],
        "grid": [grid.nx, grid.ny],
        "inflate": inflate,
        "max_steps": args.max_steps,
    }
    result = {
        "final": list(trace.final),
        "steps": len(trace.valuations) - 1,
        "stop_index": trace.stop_index,
    }
    if args.trace:
        doc = {
            "stop_index": trace.stop_index,
            "valuations": [list(v) for v in trace.valuations],
        }
        with open(args.trace, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return settings, result


_RUNNERS = {
    "altiset": ("relation", _read_relation, _run_altiset),
    "layers": ("relation", _read_relation, _run_layers),
    "correlate": ("input", _read, _run_correlate),
    "collective": ("input", _read, _run_collective),
    "skyline": ("input", _read, _run_skyline),
    "evolve": ("input", _read, _run_evolve),
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    source_attr, read, runner = _RUNNERS[args.command]
    try:
        data, digest = read(getattr(args, source_attr))
        settings, result = runner(args, data)
        with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as fh:
            fh.write(_document(args.command, digest, settings, result, not args.no_timestamp))
    except (ParseError, SubsetIndexError) as exc:  # a bad --subset index is bad input
        print(f"altiset: parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"altiset: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("altiset: out of memory: the input is too large to process", file=sys.stderr)
        return EXIT_IO
    except AltisetError as exc:
        print(f"altiset: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
