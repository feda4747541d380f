"""Command-line front end.

Subcommands::

    maxhit simulate --generator g.json --paths 3 --seed 42 --out paths.csv
    maxhit dnorm    --generator g.json --level-function f.json --seed 7
    maxhit hitting  --generator g.json --x -1 --seed 42 --out curve.csv
    maxhit multihit --generator g.json --x0 -1 --split 0.5 --seed 42
    maxhit verify   --suite paper --seed 7 --out report.json

Each subcommand is one function of the parsed arguments, registered in the
parser table ``_COMMANDS``. It passes the values of its flags to the
library, whose argument checks refuse a bad one with
``InvalidArgumentError`` before any sampling; the CLI adds only the flag or
file name to the message. It checks itself only what no library call sees:
required and exclusive flags, and text that must parse. ``parse_invocation``
checks the flags every subcommand shares, as ``verify --list`` runs no
library check.

All randomness flows from --seed; two identical invocations produce
byte-identical output files (the verify report carries a timestamp unless
--no-timestamp is given). Numeric output uses 17 significant digits so
files round-trip through float parsing exactly; a non-finite result is
refused, never printed.

Exit codes: 0 success, 1 runtime failure (a failed check, a too-loose
simulation bound, a non-finite result, a size too large for memory, an I/O
error), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .dnorm import LevelFunction, dnorm_estimates
from .errors import BoundTooLooseError, InvalidArgumentError, InvalidSpecError
from .generators import (
    GeneratorSpec,
    closed_form_m,
    closed_form_m_tilde,
    generator_from_json,
)
from .hitting import hitting_bound, hitting_curve, two_hit_prob
from .msp import msp_corpus
from .paths import Interval, TimeGrid, make_grid
from .verify import DEFAULT_GRID_POINTS, DEFAULT_N, check_ids, checked_threads, run_checks


class UsageError(InvalidArgumentError):
    """Bad invocation; maps to exit code 2."""


# Tokens like "-0.5,-1" are level lists, not option flags; no option name
# here looks like a number, so anything starting with minus-digit or
# minus-dot is a value.
_NEGATIVE_VALUE = re.compile(r"^-[\d.]")


def _read_json(path: str, what: str):
    """The JSON document in file ``path``; ``what`` names the file in errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what}{path!r}: {exc}")
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise UsageError(f"malformed JSON in {path!r}: {exc}")


def _load_generator(path: str | None) -> GeneratorSpec:
    if not path:
        raise UsageError("--generator is required")
    doc = _read_json(path, "generator file ")
    try:
        return generator_from_json(doc)
    except InvalidSpecError as exc:
        raise UsageError(f"invalid generator in {path!r}: {exc}")


def _interval(lo: float, hi: float, label: str) -> Interval:
    """``Interval(lo, hi)``; a refusal names the flag ``label``."""
    try:
        return Interval(lo, hi)
    except InvalidArgumentError as exc:
        raise UsageError(f"{label}: {exc}")


def _snap(grid: TimeGrid, t: float, label: str) -> float:
    """Snap a requested time to the nearest grid point, reporting the move."""
    snapped = float(grid.points[grid.nearest_index(t)])
    if abs(snapped - t) > 1e-12:
        print(f"note: snapped {label} {t!r} to grid point {snapped!r}",
              file=sys.stderr)
    return snapped


def _snap_interval(grid: TimeGrid, lo: float, hi: float, label: str) -> Interval:
    """The interval between the grid points nearest ``lo`` and ``hi``."""
    return _interval(_snap(grid, lo, f"{label}.lo"), _snap(grid, hi, f"{label}.hi"),
                     label)


def _parse_interval(text: str, label: str, grid: TimeGrid) -> Interval:
    """The interval ``lo,hi``, its ends then snapped to ``grid``."""
    try:
        lo, hi = map(float, text.split(","))
    except ValueError:  # not two fields, or one is not a number
        raise UsageError(f"{label} must be lo,hi with numeric bounds; got {text!r}")
    iv = _interval(lo, hi, label)
    return _snap_interval(grid, iv.lo, iv.hi, label)


#: The fields each level-function shape may have.
_LEVEL_FIELDS = {"constant": {"level"}, "indicator_step": {"interval", "inside", "outside"},
                 "piecewise_linear": {"breakpoints"}}


def _number(value, name: str) -> float:
    """A JSON number in float range (not a string or a boolean) as a float;
    anything else is refused, naming the level function's field ``name``."""
    if isinstance(value, bool) or not (isinstance(value, int | float)
                                       and abs(value) <= sys.float_info.max):
        raise UsageError(f"field {name!r} must be a finite number, got {value!r}")
    return float(value)


def _level_function_from_doc(doc: dict, grid: TimeGrid) -> LevelFunction:
    """The level function a document describes: a known shape with none but
    its fields (``_LEVEL_FIELDS``), each number a JSON number."""
    if not isinstance(doc, dict) or "shape" not in doc:
        raise UsageError('level function document needs a "shape" field')
    shape = doc["shape"]
    if not isinstance(shape, str) or shape not in _LEVEL_FIELDS:
        raise UsageError(f"unknown level function shape {shape!r}")
    unknown = sorted(set(doc) - _LEVEL_FIELDS[shape] - {"shape"})
    if unknown:
        raise UsageError(f"unknown field {unknown[0]!r} for level function shape {shape!r}")
    try:
        if shape == "constant":
            return LevelFunction.constant(grid, _number(doc["level"], "level"))
        if shape == "indicator_step":
            lo, hi = doc["interval"]
            iv = _snap_interval(grid, _number(lo, "interval"), _number(hi, "interval"),
                                "interval")
            return LevelFunction.indicator_step(
                grid, iv, inside=_number(doc["inside"], "inside"),
                outside=_number(doc.get("outside", 0.0), "outside"),
            )
        pts = doc["breakpoints"]
        times = [_number(p[0], "breakpoints") for p in pts]
        levels = [_number(p[1], "breakpoints") for p in pts]
        return LevelFunction.piecewise_linear(grid, times, levels)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise UsageError(f"bad level function document: {exc}")


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise FloatingPointError("result is not finite")
    return format(float(x), ".17g")


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_json(out: str | None, doc: dict) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        raise FloatingPointError("result is not finite") from None
    _write_text(out, text + "\n")


def _simulate(ns: argparse.Namespace) -> int:
    spec = _load_generator(ns.generator)
    grid = make_grid(ns.grid)
    paths = msp_corpus(spec, grid, ns.paths, ns.seed)
    if not np.isfinite(paths).all():
        raise FloatingPointError("result is not finite")
    # "%.17g" % x is the conversion format(x, ".17g") makes in _fmt; one
    # grid row is listed at a time, as a whole-table list costs more memory
    row = ",".join(["%.17g"] * (ns.paths + 1))
    lines = ["t," + ",".join(f"path_{j}" for j in range(ns.paths))]
    for i, t in enumerate(grid.points.tolist()):
        lines.append(row % (t, *paths[:, i].tolist()))
    _write_text(ns.out, "\n".join(lines) + "\n")
    return 0


def _dnorm(ns: argparse.Namespace) -> int:
    if not ns.level_function:
        raise UsageError("--level-function is required")
    doc = _read_json(ns.level_function, "")
    spec = _load_generator(ns.generator)
    f = _level_function_from_doc(doc, make_grid(ns.grid))
    (est,) = dnorm_estimates(spec, [f], ns.n, ns.seed)
    _write_json(ns.out, {"value": est.value, "se": est.se, "n": est.n, "seed": ns.seed})
    return 0


def _hitting(ns: argparse.Namespace) -> int:
    if (ns.x is None) == (ns.levels is None):
        raise UsageError("give exactly one of --x or --levels")
    levels = [ns.x]
    if ns.levels is not None:
        try:
            levels = [float(s) for s in ns.levels.split(",")]
        except ValueError:
            raise UsageError(f"--levels must be numeric, got {ns.levels!r}")
    spec = _load_generator(ns.generator)
    grid = make_grid(ns.grid)
    interval = _parse_interval(ns.interval, "--interval", grid)
    ests = hitting_curve(spec, levels, [interval], grid, ns.n, ns.seed)
    m, m_tilde = closed_form_m(spec), closed_form_m_tilde(spec)
    lines = ["x,estimate,ci_lo,ci_hi,bound"]
    for lvl, est in zip(levels, ests):
        bound = hitting_bound(m, m_tilde, lvl)
        lines.append(",".join(_fmt(v) for v in (lvl, est.value, *est.ci, bound)))
    _write_text(ns.out, "\n".join(lines) + "\n")
    return 0


def _multihit(ns: argparse.Namespace) -> int:
    if ns.x0 is None:
        raise UsageError("--x0 is required")
    if (ns.split is None) == (ns.intervals is None):
        raise UsageError("give exactly one of --split or --intervals")
    spec = _load_generator(ns.generator)
    grid = make_grid(ns.grid)
    if ns.split is not None:
        t0 = _snap(grid, ns.split, "--split")
        query = {"x0": ns.x0, "split": t0}
        est = two_hit_prob(spec, ns.x0, t0, grid, ns.n, ns.seed)
    else:
        parts = [part for part in ns.intervals.split(";") if part]
        ivs = [_parse_interval(part, f"--intervals[{k}]", grid)
               for k, part in enumerate(parts)]
        query = {"x0": ns.x0, "intervals": [[iv.lo, iv.hi] for iv in ivs]}
        (est,) = hitting_curve(spec, [ns.x0], ivs, grid, ns.n, ns.seed)
    estimate = {**est.as_dict(), "seed": ns.seed}
    _write_json(ns.out, {"query": query, "estimate": estimate})
    return 0


def _verify(ns: argparse.Namespace) -> int:
    # run_checks makes the same check; making it here refuses a bad value
    # under --list too, and names the flag
    try:
        checked_threads(ns.threads)
    except InvalidArgumentError as exc:
        raise UsageError(f"--threads: {exc}")
    if ns.list_checks:
        _write_text(ns.out, "\n".join(check_ids()) + "\n")
        return 0
    suite = ns.suite if ns.suite == "paper" else [s for s in ns.suite.split(",") if s]
    # --no-timestamp also drops runtimes: stdout and the report file are
    # then pure functions of (suite, seed, n, grid)
    runtime = not ns.no_timestamp
    report = run_checks(suite, ns.seed, n_default=ns.n, grid_points=ns.grid,
                        threads=ns.threads, timestamp=runtime)
    for line in report.summary_lines(runtime):
        print(line)
    if ns.out:
        _write_json(ns.out, report.as_dict(runtime))
    return 0 if report.passed else 1


#: Flags every subcommand takes (verify has no --generator).
_SHARED_FLAGS = {
    "--generator": dict(help="generator spec JSON file"),
    "--grid": dict(type=int, default=DEFAULT_GRID_POINTS,
                   help="grid points (default 1001)"),
    "--seed": dict(type=int, default=0, help="master seed"),
    "--n": dict(type=int, help="replications (default 100000)"),
    "--out": dict(help="output file (default stdout)"),
}

#: The parser table, in ``--help`` order: each subcommand's function, help
#: and own flags.
_COMMANDS = {
    "simulate": (_simulate, "write simulated paths as CSV", {
        "--paths": dict(type=int, default=1, help="number of paths"),
    }),
    "dnorm": (_dnorm, "estimate the D-norm of a level function", {
        "--level-function": dict(help="level function JSON file"),
    }),
    "hitting": (_hitting, "hitting-probability curve as CSV", {
        "--x": dict(type=float, help="single level"),
        "--levels": dict(help="comma-separated levels, e.g. -0.5,-1,-2"),
        "--interval": dict(default="0,1", help="lo,hi inside [0,1]"),
    }),
    "multihit": (_multihit, "two-hit or multi-interval hits (JSON)", {
        "--x0": dict(type=float, help="level"),
        "--split": dict(type=float, help="interior split time for the two-hit event"),
        "--intervals": dict(help='semicolon-separated intervals, e.g. "0,0.3;0.4,0.6"'),
    }),
    "verify": (_verify, "run the verification suite", {
        "--threads": dict(type=int, default=1,
                          help="threads the suite's streams run on (report unchanged)"),
        "--suite": dict(default="paper", help='"paper" or comma-separated check ids'),
        "--no-timestamp": dict(action="store_true",
                               help="omit the timestamp and zero per-check "
                               "runtimes (byte-stable report files)"),
        "--list": dict(action="store_true", dest="list_checks",
                       help="list check ids and exit"),
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxhit",
        description="Max-stable process simulation and hitting-probability "
        "estimation with deterministic Monte Carlo.",
    )
    parser._negative_number_matcher = _NEGATIVE_VALUE
    sub = parser.add_subparsers(dest="command")
    for name, (run, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_VALUE
        p.set_defaults(run=run)
        for flag, kwargs in {**_SHARED_FLAGS, **flags}.items():
            if not (name == "verify" and flag == "--generator"):
                p.add_argument(flag, **kwargs)
    return parser


def parse_invocation(argv: list[str]) -> argparse.Namespace:
    """Parse argv and check the flags every subcommand shares.

    Raises UsageError on a problem. ``ns.run(ns)`` runs the subcommand,
    whose library calls check the other flags before any sampling.
    """
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):  # --help
            raise
        raise UsageError("invalid arguments (see usage above)") from None
    if ns.command is None:
        raise UsageError(f"a subcommand is required ({' | '.join(_COMMANDS)})")
    if ns.n is None:  # read at call time, not fixed in _SHARED_FLAGS
        ns.n = DEFAULT_N
    if ns.n < 1:
        raise UsageError(f"--n must be >= 1, got {ns.n}")
    if ns.grid < 2:
        raise UsageError(f"--grid must be >= 2, got {ns.grid}")
    if ns.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {ns.seed}")
    return ns


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        ns = parse_invocation(argv)
        # a non-finite result is refused with one error line (_fmt,
        # _write_json), so numpy's warning about it would only add noise
        with np.errstate(over="ignore", invalid="ignore"):
            return ns.run(ns)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BoundTooLooseError, FloatingPointError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
