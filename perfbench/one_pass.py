"""One pass of one workload, in a fresh process started by ``run.py``.

Prints one JSON line: the pass's wall time, set-up time, peak resident
memory, per-operation seconds and verdicts, and (traced passes) the
per-layer summary. Set-up time runs from the moment the parent started
this process (``--spawned-at``, a ``time.monotonic`` reading; the clock is
system-wide) to just before the first library call.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback


def _run_ops(ops, cli_main) -> float:
    """Run every operation; return the wall seconds of the whole sequence."""
    start = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                op.code = cli_main(op.argv)
            op.error = None
        except Exception:  # the pass goes on; the operation is counted as failed
            op.code = None
            op.error = traceback.format_exc(limit=3)
        op.seconds = time.perf_counter() - t
        op.stdout, op.stderr = out.getvalue(), err.getvalue()
    return time.perf_counter() - start


def _validate(op) -> None:
    """Set ``op.failure`` to None or to the reason the operation failed."""
    op.failure = op.error
    op.bytes_out = len(op.stdout.encode())
    if op.failure is not None:
        return
    if op.code not in op.ok_codes:
        op.failure = f"exit code {op.code}; stderr: {op.stderr.strip()[:200]}"
        return
    op.info["exit_code"] = op.code
    out_text = None
    try:
        if op.out_path is not None:
            with open(op.out_path, encoding="utf-8") as fh:
                out_text = fh.read()
            op.bytes_out += len(out_text.encode())
        op.validate(op, op.stdout, out_text)
    except Exception as exc:  # any parse error means unusable output
        op.failure = f"{type(exc).__name__}: {exc}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import maxhit
    import maxhit.cli
    from maxhit import generator_from_json, make_grid

    import tracing
    import workloads

    if not os.path.abspath(maxhit.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"maxhit imported from {maxhit.__file__}, not {src}", file=sys.stderr)
        return 2

    scratch = os.path.join(args.root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pass-", dir=scratch)
    try:
        paths = workloads.write_inputs(workdir)
        for name in workloads.GENERATORS:
            with open(paths[name], encoding="utf-8") as fh:
                generator_from_json(json.load(fh))
        make_grid(workloads.GRID)
        threads = args.threads or workloads.VERIFY_THREADS
        ops = workloads.build(args.workload, args.seed, paths, workdir, threads)
        setup_s = time.monotonic() - args.spawned_at
        probe = tracing.Tracer() if args.traced else tracing.RowCounter()
        probe.install()
        try:
            # looked up per call: install() rebinds maxhit.cli.main
            wall_s = _run_ops(ops, lambda argv: maxhit.cli.main(argv))
        finally:
            probe.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for op in ops:
            _validate(op)

        result = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "threads": threads,
            "n": workloads.N[args.workload],
            "ops": [
                {"name": op.name, "seconds": op.seconds, "failure": op.failure}
                for op in ops
            ],
            "bytes_out": sum(op.bytes_out for op in ops),
            "attempted": len(ops),
            "failed": sum(op.failure is not None for op in ops),
        }
        ref = workloads.reference_op(args.workload)
        for op in ops:
            if op.name == ref and op.failure is None:
                result["ref_seconds"] = op.seconds
                result["ref_se"] = workloads.reference_se(op)
            if "check_ids" in op.info:
                _verify_fields(result, op, wall_s)
        if args.traced:
            layers = result["layers"] = probe.summary()
            # library time as the harness measured it around each cli.main call
            layers["trace.lib_s"] = sum(op.seconds for op in ops)
            result["counters"] = {k: layers[k] for k in tracing.COUNTS}
            if args.trace_out:
                with open(args.trace_out, "w", encoding="utf-8") as fh:
                    json.dump({"spans": probe.dump_spans(),
                               "counters": dict(probe.counters)}, fh)
        else:
            result["rows"] = probe.rows
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _verify_fields(result: dict, op, wall_s: float) -> None:
    """Red checks, report digest, and time_to_se_s from final-h's h(-1).

    Each registered check is an operation of its own; all of them fail
    with the verify call.
    """
    result["attempted"] += len(op.info["check_ids"])
    if op.failure is not None:
        result["failed"] += len(op.info["check_ids"])
        return
    report = op.info["report"]
    result["failed"] += len(op.info["bad_checks"])
    result["red_checks"] = op.info["red_checks"]
    result["bad_checks"] = op.info["bad_checks"]
    result["report_sha256"] = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()
    final_h = next(c for c in report["checks"] if c["id"] == "final-h")
    p = final_h["observed"][final_h["parts"].index("x=-1.0")]
    result["ref_seconds"] = wall_s
    result["ref_se"] = math.sqrt(p * (1.0 - p) / report["n_default"])


if __name__ == "__main__":
    raise SystemExit(main())
