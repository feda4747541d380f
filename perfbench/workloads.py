"""The benchmark's workloads: CLI invocations and the checks on their output.

A workload is a list of operations. Each operation is one ``maxhit.cli.main``
call, run in-process, plus a validator that reads what the call wrote.
Inputs (generator and level-function documents) are fixed; the seed each
call receives comes from the benchmark's ``--seed``.

An operation fails if it raises, exits with an unexpected code, writes
output that does not parse, prints a non-finite number, reports an
estimate outside [0, 1] or outside its own interval, or misses a closed
form by more than ``Z_FAIL`` standard errors plus ``GRID_ALLOWANCE``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

GRID = 1001
SE_TARGET = 0.001
Z_FAIL = 5.0
#: Allowance for sub-grid excursions a 1001-point grid misses; the same
#: 0.005 the verification suite budgets.
GRID_ALLOWANCE = 0.005

GENERATORS = {
    "piecewise_example": {"n": 2, "a": 0.25, "b": 0.75},
    "nonlinear_example": {"a": 2.0, "b": 0.5, "c": 1.25, "d": 7.0, "e": 0.5},
    "two_branch": {},
    "sine_bump": {"amp": 0.5},
}
# the eq2 level functions of the verification suite
LEVEL_FUNCTIONS = {
    "const": {"shape": "constant", "level": -1.0},
    "step": {
        "shape": "indicator_step", "interval": [0.5, 1.0],
        "inside": -1.01, "outside": -0.01,
    },
    "linear": {"shape": "piecewise_linear", "breakpoints": [[0.0, -0.5], [1.0, -1.5]]},
}
HIT_LEVELS = (-0.5, -1.0, -2.0, -4.0)
TWO_HIT_X0 = -1.0
TWO_HIT_SPLIT = 0.5
SIMULATE_PATHS = 200
SIMULATE_GENERATOR = "two_branch"

#: Replications per estimator call. Multiples of the library's 4096-path
#: block; chosen so one pass takes a few seconds on a 2-core machine.
N = {"cli-session": 8192, "dnorm-shared": 32768, "verify-paper": 4096}
VERIFY_THREADS = 2


class OpFailure(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    name: str
    argv: list[str]
    validate: object  # callable(op, stdout, out_text) -> None, raises OpFailure
    out_path: str | None = None
    ok_codes: tuple[int, ...] = (0,)
    info: dict = field(default_factory=dict)


def write_inputs(workdir: str) -> dict[str, str]:
    """Write generator and level-function documents; return name -> path."""
    paths = {}
    for name, params in GENERATORS.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump({"variant": name, "params": params}, fh)
    for name, doc in LEVEL_FUNCTIONS.items():
        paths[f"f:{name}"] = os.path.join(workdir, f"f_{name}.json")
        with open(paths[f"f:{name}"], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return paths


# --- reference values -----------------------------------------------------------


def two_branch_h(x: float) -> float:
    """h(x) = (1 - e^x - x) e^x for the two-branch generator."""
    return (1.0 - math.exp(x) - x) * math.exp(x)


def two_branch_two_hit(x: float) -> float:
    """(e^{x/2} - e^x)^2: hits in both halves, split at 1/2."""
    return (math.exp(x / 2.0) - math.exp(x)) ** 2


_GRID_T = [i / (GRID - 1) for i in range(GRID)]


def _level_abs(doc: dict) -> list[float]:
    """|f| on the grid, rebuilt from a level-function document."""
    if doc["shape"] == "constant":
        return [abs(doc["level"])] * GRID
    if doc["shape"] == "indicator_step":
        lo, hi = doc["interval"]
        return [abs(doc["inside"] if lo - 1e-9 <= t <= hi + 1e-9 else doc["outside"])
                for t in _GRID_T]
    (t0, v0), (t1, v1) = doc["breakpoints"]
    return [abs(v0 + (v1 - v0) * (t - t0) / (t1 - t0)) for t in _GRID_T]


LEVEL_ABS = {name: _level_abs(doc) for name, doc in LEVEL_FUNCTIONS.items()}


def two_branch_dnorm(name: str) -> float:
    """Exact grid D-norm for Z = 2(1-t) or 2t: sup|f|(1-t) + sup|f| t."""
    f = LEVEL_ABS[name]
    return (max(v * (1.0 - t) for v, t in zip(f, _GRID_T))
            + max(v * t for v, t in zip(f, _GRID_T)))


# --- checks ---------------------------------------------------------------------


def _finite(*values: float) -> None:
    for v in values:
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise OpFailure(f"non-finite number {v!r}")


def _probability(value: float, lo: float, hi: float) -> None:
    _finite(value, lo, hi)
    if not 0.0 <= value <= 1.0:
        raise OpFailure(f"estimate {value} outside [0, 1]")
    if not (0.0 <= lo <= value <= hi <= 1.0):
        raise OpFailure(f"estimate {value} outside its interval [{lo}, {hi}]")


def _near(label: str, value: float, target: float, se: float) -> None:
    tol = Z_FAIL * se + GRID_ALLOWANCE
    if abs(value - target) > tol:
        raise OpFailure(f"{label}: {value} misses {target} by more than {tol}")


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _check_hitting(op: Op, stdout: str, _out: str | None) -> None:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["x", "estimate", "ci_lo", "ci_hi", "bound"]:
        raise OpFailure("bad hitting CSV header")
    body = rows[1:]
    if len(body) != len(HIT_LEVELS):
        raise OpFailure(f"expected {len(HIT_LEVELS)} rows, got {len(body)}")
    n = op.info["n"]
    for row, level in zip(body, HIT_LEVELS):
        x, est, lo, hi, bound = (float(v) for v in row)
        _finite(x, est, lo, hi, bound)
        if x != level:
            raise OpFailure(f"level {x} != requested {level}")
        _probability(est, lo, hi)
        se = _binomial_se(est, n)
        if est > bound + Z_FAIL * se + GRID_ALLOWANCE:
            raise OpFailure(f"h({x}) = {est} above its bound {bound}")
        if op.info["generator"] == "two_branch":
            _near(f"h({x})", est, two_branch_h(x), se)
        op.info.setdefault("se", {})[x] = se


def _check_multihit(op: Op, stdout: str, _out: str | None) -> None:
    doc = json.loads(stdout)
    est = doc["estimate"]
    value, se, (lo, hi) = est["value"], est["se"], est["ci"]
    _finite(value, se)
    _probability(value, lo, hi)
    if est["n"] != op.info["n"]:
        raise OpFailure(f"n {est['n']} != requested {op.info['n']}")
    if doc["query"] != {"x0": TWO_HIT_X0, "split": TWO_HIT_SPLIT}:
        raise OpFailure(f"unexpected query echo {doc['query']}")
    if op.info["generator"] == "two_branch":
        _near("two-hit", value, two_branch_two_hit(TWO_HIT_X0), se)


def _check_simulate(op: Op, _stdout: str, out: str | None) -> None:
    rows = list(csv.reader(io.StringIO(out)))
    header = ["t"] + [f"path_{j}" for j in range(SIMULATE_PATHS)]
    if not rows or rows[0] != header:
        raise OpFailure("bad simulate CSV header")
    if len(rows) != GRID + 1:
        raise OpFailure(f"expected {GRID} grid rows, got {len(rows) - 1}")
    for i, row in enumerate(rows[1:]):
        values = [float(v) for v in row]
        _finite(*values)
        if abs(values[0] - i / (GRID - 1)) > 1e-12:
            raise OpFailure(f"row {i}: t = {values[0]}")
        if max(values[1:]) >= 0.0:
            raise OpFailure(f"row {i}: a path value is not negative")


def _check_dnorm(op: Op, stdout: str, _out: str | None) -> None:
    doc = json.loads(stdout)
    value, se = doc["value"], doc["se"]
    _finite(value, se)
    if value < 0.0 or se < 0.0:
        raise OpFailure(f"negative D-norm {value} or se {se}")
    if doc["n"] != op.info["n"]:
        raise OpFailure(f"n {doc['n']} != requested {op.info['n']}")
    sup = max(LEVEL_ABS[op.info["function"]])
    m = op.info["m"]
    slack = Z_FAIL * se + GRID_ALLOWANCE
    # sup|f| <= ||f||_D <= m sup|f| because E Z_t = 1 and E sup Z = m
    if not sup - slack <= value <= m * sup + slack:
        raise OpFailure(f"D-norm {value} outside [{sup}, {m * sup}]")
    if op.info["function"] == "const":
        _near("D-norm of -1", value, m, se)
    if op.info["generator"] == "two_branch":
        _near("two-branch D-norm", value, two_branch_dnorm(op.info["function"]), se)
    op.info["se"] = se


def _check_verify(op: Op, stdout: str, out: str | None) -> None:
    """The report parses and is complete; each check entry is well formed.

    A red check is not a failed operation: it is counted by the caller.
    Exit code 1 is expected exactly when the report is red.
    """
    doc = json.loads(out)
    checks = doc["checks"]
    if doc["suite"] != "paper" or doc["seed"] != op.info["seed"]:
        raise OpFailure("report echoes the wrong suite or seed")
    if doc["n_default"] != op.info["n"]:
        raise OpFailure(f"n_default {doc['n_default']} != {op.info['n']}")
    ids = [c["id"] for c in checks]
    if ids != op.info["check_ids"]:
        raise OpFailure("report does not list every registered check once")
    if doc["pass"] != all(c["pass"] for c in checks):
        raise OpFailure("overall verdict disagrees with the checks")
    expected_code = 0 if doc["pass"] else 1
    if op.info["exit_code"] != expected_code:
        raise OpFailure(f"exit {op.info['exit_code']} for a report with pass={doc['pass']}")
    bad = []
    for c in checks:
        lengths = {len(c[k]) for k in ("observed", "expected", "tol", "parts")}
        values = c["observed"] + c["expected"] + c["tol"]
        if len(lengths) != 1 or not all(
            isinstance(v, (int, float)) and math.isfinite(v) for v in values
        ):
            bad.append(c["id"])
    op.info["bad_checks"] = bad
    op.info["red_checks"] = [c["id"] for c in checks if not c["pass"]]
    op.info["report"] = doc
    summary = [line for line in stdout.splitlines() if line]
    if len(summary) != len(checks) + 1:
        raise OpFailure("summary lines do not match the report")


# --- workload construction ------------------------------------------------------


def build(workload: str, seed: int, paths: dict[str, str], workdir: str,
          threads: int = VERIFY_THREADS) -> list[Op]:
    from maxhit import check_ids, closed_form_m, generator_from_json

    n = N[workload]
    common = ["--grid", str(GRID), "--seed", str(seed), "--n", str(n)]
    ops: list[Op] = []
    if workload == "cli-session":
        levels = ",".join(repr(x) for x in HIT_LEVELS)
        for g in GENERATORS:
            info = {"generator": g, "n": n}
            ops.append(Op(f"hitting:{g}", ["hitting", "--generator", paths[g],
                                          f"--levels={levels}", *common],
                          _check_hitting, info=dict(info)))
            ops.append(Op(f"multihit:{g}", ["multihit", "--generator", paths[g],
                                           "--x0", repr(TWO_HIT_X0),
                                           "--split", repr(TWO_HIT_SPLIT), *common],
                          _check_multihit, info=dict(info)))
        out = os.path.join(workdir, "paths.csv")
        ops.append(Op("simulate", ["simulate", "--generator", paths[SIMULATE_GENERATOR],
                                   "--paths", str(SIMULATE_PATHS), *common, "--out", out],
                      _check_simulate, out_path=out))
    elif workload == "dnorm-shared":
        for g, params in GENERATORS.items():
            m = closed_form_m(generator_from_json({"variant": g, "params": params}))
            for fname in LEVEL_FUNCTIONS:
                ops.append(Op(f"dnorm:{g}:{fname}",
                              ["dnorm", "--generator", paths[g],
                               "--level-function", paths[f"f:{fname}"], *common],
                              _check_dnorm,
                              info={"generator": g, "function": fname, "n": n, "m": m}))
    elif workload == "verify-paper":
        out = os.path.join(workdir, "report.json")
        ops.append(Op("verify", ["verify", "--suite", "paper", "--threads", str(threads),
                                 "--no-timestamp", *common, "--out", out],
                      _check_verify, out_path=out, ok_codes=(0, 1),
                      info={"n": n, "seed": seed, "check_ids": check_ids()}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def reference_op(workload: str) -> str | None:
    """The call whose seconds and se define time_to_se_s."""
    return {"cli-session": "hitting:two_branch",
            "dnorm-shared": "dnorm:piecewise_example:const"}.get(workload)


def reference_se(op: Op) -> float:
    if op.name.startswith("hitting:"):
        return op.info["se"][-1.0]
    return op.info["se"]
