"""Run every workload at several seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

For each workload and metric it records the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median. Each run is one
invocation of ``perfbench/run.py``, so each gets a fresh process.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[0].split(" ", 1)[1])
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    return meta, result


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "values": values}
    return out


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"seeds": args.seeds, "run_seconds": SPEC["run_seconds"],
              "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            meta, result = run_once(workload, seed, SPEC["run_seconds"])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed} failed its checks")
            results.append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s",
                  flush=True)
        summary = summarise(results)
        for name, s in summary.items():
            flag = "" if s["spread"] <= bounds[name] \
                else "  SPREAD ABOVE BOUND"
            print(f"  {name:26s} median {s['median']:11.4f} "
                  f"spread {s['spread']:.3f} bound {bounds[name]}{flag}")
        report["meta"] = {k: meta[k] for k in
                          ("nproc", "python", "numpy", "scipy", "blas",
                           "blas_threads")}
        report["workloads"][workload] = {
            "run_wall_s": [r["wall_s"] for r in results],
            "metrics": summary}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
