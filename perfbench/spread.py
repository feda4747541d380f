"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads cli-session dnorm-shared \
        --seeds 1 2 3 4 5 [--trace 0] [--out perfbench/baseline.json]

Each run lasts BENCHMARK.json's ``run_seconds``. For every metric it prints
the median of the per-run values and the distance between their first and
third quartiles (``statistics.quantiles`` with ``n=4``) as a share of the
median, next to the metric's bound from BENCHMARK.json, and flags a spread
above a third of the bound as WIDE. Runs go one at a time. ``--out`` writes
every value with the provenance of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import RED_LINE, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, list]:
    """One benchmark run: its result object, provenance and red checks."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(line[len("provenance "):]) for line in lines
                if line.startswith("provenance "))
    red = [c for line in lines if line.startswith(RED_LINE)
           for c in line[len(RED_LINE):].split(", ") if c != "none"]
    return json.loads(lines[-1]), prov, red


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    doc = {"run_seconds": seconds, "trace": args.trace, "workloads": {}}
    worst_ok = True
    for w in args.workloads:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            result, prov, red = run(w, seed, seconds, args.trace)
            doc.setdefault("provenance", prov)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "red_checks": red})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"red={','.join(red) or '-'}", flush=True)
        summary = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": vals}
            flag = ""
            if bound is not None:
                ok = spread <= bound / 3
                worst_ok &= ok
                flag = "ok" if ok else "WIDE"
            print(f"  {w:<13} {name:<44} median={med:<14.6g} spread={spread:7.3%} "
                  f"bound={bound if bound is not None else '-'} {flag}", flush=True)
        doc["workloads"][w] = {"runs": runs, "metrics": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
