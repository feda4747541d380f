"""maxhit benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 30 --trace 0

Each pass of the workload runs in a fresh Python process (``one_pass.py``),
one process at a time, so set-up time and peak memory are those a user of
the CLI pays. Passes repeat until ``--seconds`` have elapsed (at least
three); every figure is the median over passes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced passes. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics, the tracing overhead, and self-checks:
identical counters across traced passes at one seed, a ``--threads 1``
verify pass that matches the 2-thread one, per-check spans that add up to
``CheckResult.seconds``, and a sampled check that the spans charge library
time to the layer whose code runs (``trace.coverage``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RED_LINE = "  red checks (counted in verify.red_checks, not as failures): "
HARD_LIMIT_S = 170.0
MIN_PASSES = 3
MIN_TRACED = 2
COVERAGE_MIN = 0.95
MIN_SAMPLES = 100
# a check's spans may miss its CheckResult.seconds by the wrapper's own cost
SPAN_SLACK_REL, SPAN_SLACK_ABS = 0.01, 0.002


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def metric_name(check_id: str) -> str:
    return "verify.check_s." + re.sub(r"[^A-Za-z0-9_.-]", "_", check_id)


def git_revision() -> str | None:
    # a checkout without .git has no revision; git is not asked to search
    # the directories above it
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, n: int, threads: int | None) -> dict:
    return {
        "machine": platform.node(),
        "arch": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "n": n,
        "grid": 1001,
        "threads": threads,
        "seconds": args.seconds,
    }


def run_pass(args, deadline: float, traced: bool, threads: int | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "one_pass.py"), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if traced:
        cmd += ["--traced", "--trace-out",
                str(ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json")]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    timeout = max(1.0, deadline - time.monotonic())
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout,
                          cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def plan(trace: bool, workload: str):
    """Pass kinds in order, as (traced, threads); endless.

    Traced runs repeat untraced/traced in U T T U order so that drift in
    machine speed cancels out of the tracing overhead.
    """
    if not trace:
        while True:
            yield False, None
    yield True, None
    if workload == "verify-paper":
        yield True, 1
    while True:
        yield from ((False, None), (True, None), (True, None), (False, None))


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def per_pass_values(passes: list[dict], se_target: float) -> dict[str, list[float]]:
    """Each end-to-end metric's value in every untraced pass."""
    return {
        "wall_s": [p["wall_s"] for p in passes],
        "paths_per_s": [p["rows"] / p["wall_s"] for p in passes],
        "time_to_se_s": [
            p["ref_seconds"] * (p["ref_se"] / se_target) ** 2
            for p in passes if "ref_se" in p
        ],
        "setup_s": [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }


def per_layer(untraced: list[dict], traced: list[dict], threads: int) -> tuple[dict, list[str]]:
    """Per-layer values and the list of self-check failures.

    Medians come from traced passes at the workload's own thread count; a
    ``--threads 1`` verify pass only takes part in the determinism checks.
    """
    main = [p for p in traced if p["threads"] == threads]
    values: dict[str, list[float]] = {}
    for p in main:
        layers = dict(p["layers"])
        checks = layers.pop("verify.checks")
        layers["cli.bytes_out"] = p["bytes_out"]
        for cid, c in checks.items():
            layers[metric_name(cid)] = c["seconds"]
        for k, v in layers.items():
            values.setdefault(k, []).append(v)
    # counts repeat exactly, so they stay whole numbers
    out = {k: v[0] if len(set(v)) == 1 else median(v) for k, v in values.items()}
    out["trace.overhead_s"] = (
        median([p["wall_s"] for p in main]) - median([p["wall_s"] for p in untraced])
    )

    problems = []
    first = traced[0]["counters"]
    for p in traced[1:]:
        if p["counters"] != first:
            problems.append(
                f"counters differ between traced passes (threads {p['threads']}): "
                f"{p['counters']} vs {first}"
            )
    digests = {p.get("report_sha256") for p in untraced + traced}
    if len(digests) != 1:
        problems.append("verify reports differ between passes or thread counts")
    for p in main:
        lay = p["layers"]
        for cid, c in lay["verify.checks"].items():
            gap = abs(c["span_self_sum"] - c["seconds"])
            if gap > SPAN_SLACK_REL * c["seconds"] + SPAN_SLACK_ABS:
                problems.append(f"spans of {cid} cover {c['span_self_sum']:.4f}s "
                                f"of {c['seconds']:.4f}s")
        if lay["trace.samples"] < MIN_SAMPLES:
            problems.append(f"only {lay['trace.samples']} attribution samples")
        elif lay["trace.coverage"] < COVERAGE_MIN:
            problems.append(f"spans charge the running layer in only "
                            f"{lay['trace.coverage']:.3f} of {lay['trace.samples']} samples")
    return out, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "maxhit" / "__init__.py").is_file():
        return fail(f"no maxhit sources under {ROOT / 'src'}")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    sys.path.insert(0, str(HERE))
    import workloads

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    passes: list[dict] = []
    longest = 0.0
    try:
        for traced, threads in plan(bool(args.trace), args.workload):
            n_untraced = sum(not p["traced"] for p in passes)
            n_traced = sum(p["traced"] and p["threads"] == workloads.VERIFY_THREADS
                           for p in passes)
            elapsed = time.monotonic() - start
            enough = (n_traced >= MIN_TRACED and n_untraced >= 1) if args.trace \
                else len(passes) >= MIN_PASSES
            if enough and (elapsed >= args.seconds
                           or time.monotonic() + longest > deadline):
                break
            t = time.monotonic()
            passes.append(run_pass(args, deadline, traced, threads))
            longest = max(longest, time.monotonic() - t)
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        return fail(f"pass failed: {exc}")
    measured = time.monotonic() - start

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f"{o['name']}: {o['failure']}" for p in passes for o in p["ops"]
                if o["failure"]]

    n = workloads.N[args.workload]
    threads = workloads.VERIFY_THREADS if args.workload == "verify-paper" else None
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} untraced + {len(traced)} traced in {measured:.1f}s")
    print("provenance " + json.dumps(provenance(args, n, threads)))

    if args.trace:
        values, trace_problems = per_layer(untraced, traced, workloads.VERIFY_THREADS)
        problems += trace_problems
        wanted = bench["per_layer"]
        metrics = {}
        for m in wanted:
            if m["name"] in values:
                v = values[m["name"]]
            elif m["name"].startswith("verify.check_s."):
                v = 0.0  # check not run by this workload
            else:
                return fail(f"per-layer metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            print(f"  {m['name']:<48} {v:>14.6g} {m['unit']}")
    else:
        per_pass = per_pass_values(untraced, workloads.SE_TARGET)
        metrics = {}
        for m in bench["end_to_end"]:
            vals = per_pass[m["name"]]
            if not vals:
                return fail(f"{m['name']}: no pass produced a value")
            v = median(vals)
            q1, q3 = quartiles(vals)
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            print(f"  {m['name']:<16} {v:>14.6g} {m['unit']:<8} "
                  f"q1={q1:.6g} q3={q3:.6g} over {len(vals)} passes")
    print(f"  {'ops_failed_ratio':<16} {failed / attempted:>14.6g} ratio    "
          f"{failed} of {attempted} operations")
    red = sorted({c for p in passes for c in p.get("red_checks") or []})
    if args.workload == "verify-paper":
        print(RED_LINE + (", ".join(red) or "none"))
    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
