"""Command-line front end.

Subcommands::

    maxhit simulate --generator g.json --paths 3 --seed 42 --out paths.csv
    maxhit dnorm    --generator g.json --level-function f.json --seed 7
    maxhit hitting  --generator g.json --x -1 --seed 42 --out curve.csv
    maxhit multihit --generator g.json --x0 -1 --split 0.5 --seed 42
    maxhit verify   --suite paper --seed 7 --out report.json

All randomness flows from --seed; two identical invocations produce
byte-identical output files (the verify report carries a timestamp unless
--no-timestamp is given). Numeric output uses 17 significant digits so
files round-trip through float parsing exactly. The environment variable
MSHIT_DEFAULT_N overrides the default replication count of 100000.

Exit codes: 0 success, 1 runtime failure (a failed check, a too-loose
simulation bound, an I/O error), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np
from dataclasses import dataclass

from .dnorm import LevelFunction, dnorm_estimate
from .errors import BoundTooLooseError, InvalidSpecError, UnknownCheckError
from .generators import GeneratorSpec, generator_from_json
from .hitting import MultiHitQuery, hitting_curve, multi_hit_prob, two_hit_prob
from .msp import DEFAULT_MAX_POINTS, msp_corpus
from .paths import Interval, TimeGrid, make_grid
from .verify import DEFAULT_GRID_POINTS, DEFAULT_N, check_ids, run_checks

ENV_DEFAULT_N = "MSHIT_DEFAULT_N"


class UsageError(Exception):
    """Bad invocation; maps to exit code 2."""


# Tokens like "-0.5,-1" are level lists, not option flags; no option name
# here looks like a number, so anything starting with minus-digit or
# minus-dot is a value.
_NEGATIVE_VALUE = re.compile(r"^-[\d.]")


class _SubParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE


@dataclass(frozen=True)
class RunConfig:
    """A fully validated invocation."""

    command: str
    seed: int
    grid_points: int
    n: int
    out: str | None = None
    threads: int = 1
    generator: GeneratorSpec | None = None
    paths: int = 1
    max_points: int = DEFAULT_MAX_POINTS
    level_function: dict | None = None
    levels: tuple[float, ...] = ()
    interval: tuple[float, float] = (0.0, 1.0)
    x0: float | None = None
    split: float | None = None
    intervals: tuple[tuple[float, float], ...] = ()
    suite: str | tuple[str, ...] = "paper"
    timestamp: bool = True
    list_checks: bool = False


def _default_n() -> int:
    raw = os.environ.get(ENV_DEFAULT_N)
    if raw is None:
        return DEFAULT_N
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"{ENV_DEFAULT_N} must be an integer, got {raw!r}")
    if value < 1:
        raise UsageError(f"{ENV_DEFAULT_N} must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxhit",
        description="Max-stable process simulation and hitting-probability "
        "estimation with deterministic Monte Carlo.",
    )
    parser._negative_number_matcher = _NEGATIVE_VALUE
    sub = parser.add_subparsers(dest="command", parser_class=_SubParser)

    def common(p, needs_generator=True):
        if needs_generator:
            p.add_argument("--generator", help="generator spec JSON file")
        p.add_argument("--grid", type=int, default=DEFAULT_GRID_POINTS,
                       help="grid points (default 1001)")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--n", type=int, default=None,
                       help=f"replications (default 100000 or ${ENV_DEFAULT_N})")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_sim = sub.add_parser("simulate", help="write simulated paths as CSV")
    common(p_sim)
    p_sim.add_argument("--paths", type=int, default=1, help="number of paths")
    p_sim.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS)

    p_dn = sub.add_parser("dnorm", help="estimate the D-norm of a level function")
    common(p_dn)
    p_dn.add_argument("--level-function", help="level function JSON file")

    p_hit = sub.add_parser("hitting", help="hitting-probability curve as CSV")
    common(p_hit)
    p_hit.add_argument("--x", type=float, default=None, help="single level")
    p_hit.add_argument("--levels", default=None,
                       help="comma-separated levels, e.g. -0.5,-1,-2")
    p_hit.add_argument("--interval", default="0,1", help="lo,hi inside [0,1]")

    p_mh = sub.add_parser("multihit", help="two-hit or multi-interval hits (JSON)")
    common(p_mh)
    p_mh.add_argument("--x0", type=float, default=None, help="level")
    p_mh.add_argument("--split", type=float, default=None,
                      help="interior split time for the two-hit event")
    p_mh.add_argument("--intervals", default=None,
                      help='semicolon-separated intervals, e.g. "0,0.3;0.4,0.6"')

    p_ver = sub.add_parser("verify", help="run the verification suite")
    common(p_ver, needs_generator=False)
    p_ver.add_argument("--threads", type=int, default=1,
                       help="checks run in parallel (report unchanged)")
    p_ver.add_argument("--suite", default="paper",
                       help='"paper" or comma-separated check ids')
    p_ver.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp and zero per-check runtimes "
                       "(byte-stable report files)")
    p_ver.add_argument("--list", action="store_true", dest="list_checks",
                       help="list check ids and exit")
    return parser


def _load_generator(path: str | None) -> GeneratorSpec:
    if not path:
        raise UsageError("--generator is required")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read generator file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path!r}: {exc}")
    try:
        return generator_from_json(doc)
    except InvalidSpecError as exc:
        raise UsageError(f"invalid generator in {path!r}: {exc}")


def _parse_pair(text: str, label: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{label} must be lo,hi; got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"{label} must be numeric; got {text!r}")
    if not lo < hi:
        raise UsageError(f"{label} must satisfy lo < hi; got {text!r}")
    return lo, hi


def parse_invocation(argv: list[str]) -> RunConfig:
    """Parse and validate argv into a RunConfig; UsageError on any problem."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):  # --help
            raise
        raise UsageError("invalid arguments (see usage above)") from None
    if ns.command is None:
        raise UsageError("a subcommand is required "
                         "(simulate | dnorm | hitting | multihit | verify)")

    n = ns.n if ns.n is not None else _default_n()
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    if ns.grid < 2:
        raise UsageError(f"--grid must be >= 2, got {ns.grid}")
    base = dict(
        command=ns.command, seed=ns.seed, grid_points=ns.grid, n=n, out=ns.out
    )

    if ns.command == "simulate":
        if ns.paths < 1:
            raise UsageError(f"--paths must be >= 1, got {ns.paths}")
        if ns.max_points < 1:
            raise UsageError(f"--max-points must be >= 1, got {ns.max_points}")
        return RunConfig(
            **base, generator=_load_generator(ns.generator),
            paths=ns.paths, max_points=ns.max_points,
        )

    if ns.command == "dnorm":
        if not ns.level_function:
            raise UsageError("--level-function is required")
        try:
            with open(ns.level_function, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read {ns.level_function!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed JSON in {ns.level_function!r}: {exc}")
        return RunConfig(
            **base, generator=_load_generator(ns.generator), level_function=doc
        )

    if ns.command == "hitting":
        if ns.levels is not None and ns.x is not None:
            raise UsageError("give either --x or --levels, not both")
        if ns.levels is not None:
            try:
                levels = tuple(float(s) for s in ns.levels.split(","))
            except ValueError:
                raise UsageError(f"--levels must be numeric, got {ns.levels!r}")
        elif ns.x is not None:
            levels = (ns.x,)
        else:
            raise UsageError("one of --x or --levels is required")
        if not all(math.isfinite(x) for x in levels):
            raise UsageError("levels must be finite")
        if any(x >= 0 for x in levels):
            raise UsageError("level must be negative")
        if len(levels) > 1 and any(
            b >= a for a, b in zip(levels, levels[1:])
        ):
            raise UsageError("--levels must be strictly decreasing")
        interval = _parse_pair(ns.interval, "--interval")
        if not (0.0 <= interval[0] and interval[1] <= 1.0):
            raise UsageError(f"--interval must sit inside [0,1], got {ns.interval!r}")
        return RunConfig(
            **base, generator=_load_generator(ns.generator),
            levels=levels, interval=interval,
        )

    if ns.command == "multihit":
        if ns.x0 is None:
            raise UsageError("--x0 is required")
        if not math.isfinite(ns.x0):
            raise UsageError("--x0 must be finite")
        if ns.x0 >= 0:
            raise UsageError("level must be negative")
        if (ns.split is None) == (ns.intervals is None):
            raise UsageError("give exactly one of --split or --intervals")
        if ns.split is not None:
            if not 0.0 < ns.split < 1.0:
                raise UsageError(f"--split must be interior to (0,1), got {ns.split}")
            return RunConfig(
                **base, generator=_load_generator(ns.generator),
                x0=ns.x0, split=ns.split,
            )
        ivs = tuple(
            _parse_pair(part, "--intervals")
            for part in ns.intervals.split(";") if part
        )
        if not ivs:
            raise UsageError("--intervals must list at least one interval")
        return RunConfig(
            **base, generator=_load_generator(ns.generator),
            x0=ns.x0, intervals=ivs,
        )

    # verify
    if ns.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {ns.threads}")
    suite: str | tuple[str, ...]
    if ns.suite == "paper":
        suite = "paper"
    else:
        suite = tuple(s for s in ns.suite.split(",") if s)
        known = set(check_ids())
        for cid in suite:
            if cid not in known:
                raise UsageError(f"unknown check id: {cid!r}")
    return RunConfig(
        **base, threads=ns.threads, suite=suite,
        timestamp=not ns.no_timestamp, list_checks=ns.list_checks,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _snap(grid: TimeGrid, t: float, label: str) -> float:
    """Snap a requested time to the nearest grid point, reporting the move."""
    snapped = float(grid.points[grid.nearest_index(t)])
    if abs(snapped - t) > 1e-12:
        print(f"note: snapped {label} {t!r} to grid point {snapped!r}",
              file=sys.stderr)
    return snapped


def _snap_interval(grid: TimeGrid, iv: tuple[float, float], label: str) -> Interval:
    lo = _snap(grid, iv[0], f"{label}.lo")
    hi = _snap(grid, iv[1], f"{label}.hi")
    if not lo < hi:
        raise UsageError(f"{label} collapsed after snapping: [{lo}, {hi}]")
    return Interval(lo, hi)


def _level_function_from_doc(doc: dict, grid: TimeGrid) -> LevelFunction:
    if not isinstance(doc, dict) or "shape" not in doc:
        raise UsageError('level function document needs a "shape" field')
    shape = doc["shape"]
    try:
        if shape == "constant":
            return LevelFunction.constant(grid, float(doc["level"]))
        if shape == "indicator_step":
            lo, hi = doc["interval"]
            iv = _snap_interval(grid, (float(lo), float(hi)), "interval")
            return LevelFunction.indicator_step(
                grid, iv, inside=float(doc["inside"]),
                outside=float(doc.get("outside", 0.0)),
            )
        if shape == "piecewise_linear":
            pts = doc["breakpoints"]
            times = [float(p[0]) for p in pts]
            levels = [float(p[1]) for p in pts]
            return LevelFunction.piecewise_linear(grid, times, levels)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise UsageError(f"bad level function document: {exc}")
    raise UsageError(f"unknown level function shape {shape!r}")


def dispatch(config: RunConfig) -> int:
    """Execute a validated invocation; returns the process exit status."""
    grid = make_grid(config.grid_points)

    if config.command == "simulate":
        paths = msp_corpus(
            config.generator, grid, config.paths, config.seed,
            max_points=config.max_points,
        )
        header = "t," + ",".join(f"path_{j}" for j in range(config.paths))
        lines = [header]
        for i, t in enumerate(grid.points):
            row = [_fmt(t)] + [_fmt(paths[j, i]) for j in range(config.paths)]
            lines.append(",".join(row))
        _write_text(config.out, "\n".join(lines) + "\n")
        return 0

    if config.command == "dnorm":
        f = _level_function_from_doc(config.level_function, grid)
        est = dnorm_estimate(config.generator, f, config.n, config.seed)
        doc = {"value": est.value, "se": est.se, "n": est.n, "seed": config.seed}
        _write_text(config.out, json.dumps(doc, indent=2) + "\n")
        return 0

    if config.command == "hitting":
        interval = _snap_interval(grid, config.interval, "--interval")
        curve = hitting_curve(
            config.generator, np.array(config.levels), interval, grid,
            config.n, config.seed,
        )
        lines = ["x,estimate,ci_lo,ci_hi,bound"]
        for lvl, est, bound in zip(
            curve.levels, curve.estimates, curve.upper_bounds
        ):
            lines.append(",".join(_fmt(v) for v in
                                  (lvl, est.value, est.ci[0], est.ci[1], bound)))
        _write_text(config.out, "\n".join(lines) + "\n")
        return 0

    if config.command == "multihit":
        if config.split is not None:
            t0 = _snap(grid, config.split, "--split")
            query = MultiHitQuery(x0=config.x0, split=t0)
            est = two_hit_prob(config.generator, query, grid, config.n, config.seed)
            query_doc = {"x0": config.x0, "split": t0}
        else:
            ivs = [
                _snap_interval(grid, iv, f"--intervals[{k}]")
                for k, iv in enumerate(config.intervals)
            ]
            est = multi_hit_prob(
                config.generator, config.x0, len(ivs), ivs, grid,
                config.n, config.seed,
            )
            query_doc = {
                "x0": config.x0, "intervals": [[iv.lo, iv.hi] for iv in ivs]
            }
        doc = {"query": query_doc, "estimate": est.as_dict()}
        _write_text(config.out, json.dumps(doc, indent=2) + "\n")
        return 0

    if config.command == "verify":
        if config.list_checks:
            _write_text(config.out, "\n".join(check_ids()) + "\n")
            return 0
        suite = config.suite if isinstance(config.suite, str) else list(config.suite)
        report = run_checks(
            suite, config.seed, n_default=config.n,
            grid_points=config.grid_points, threads=config.threads,
            timestamp=config.timestamp,
        )
        for line in report.summary_lines():
            print(line)
        if config.out:
            # --no-timestamp also zeroes runtimes: the file is then a pure
            # function of (suite, seed, n, grid)
            _write_text(
                config.out, report.to_json(runtime=config.timestamp) + "\n"
            )
        return 0 if report.passed else 1

    raise UsageError(f"unknown command {config.command!r}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return dispatch(parse_invocation(argv))
    except (UsageError, UnknownCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BoundTooLooseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
