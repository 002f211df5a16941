#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --out perfbench/steadiness.json

Runs ``run.py --trace 0`` ten times per workload, each time with another
seed, for ``run_seconds`` from BENCHMARK.json.  Workloads are
interleaved seed by seed, so slow drift of the machine reaches all of
them alike.  For each metric it records the values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound.  With ``--baseline`` it
also records how far each median moved from that earlier report, as a
share of the earlier median.  ``--traced`` adds one ``--trace 1`` run
per workload, for the per-layer metrics, with every metric of its full
record (also those of layers that only some workloads call).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument("--baseline", default=None)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    def bench(w, seed, trace):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", w, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n"
                     f"{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{w} seed {seed} trace {trace}: {elapsed:.1f} s "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()),
              file=sys.stderr, flush=True)
        if trace:
            # metrics of layers that only some workloads call
            record = os.path.join(ROOT, ".bench_out",
                                  f"{w}-seed{seed}-trace1.json")
            with open(record, encoding="utf-8") as fh:
                result["all_metrics"] = json.load(fh)["all_metrics"]
        return {"seed": seed, "elapsed_s": elapsed, **result}

    runs = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + RUNS):
        for w in workloads:
            runs[w].append(bench(w, seed, 0))

    summary = {}
    for w, results in runs.items():
        summary[w] = {"all_correct": all(r["correct"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "max_elapsed_s": max(r["elapsed_s"] for r in results)}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[w][m["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": m["bound"], "within_third": spread <= m["bound"] / 3,
                "values": values}
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            before = json.load(fh)["summary"]
        for w, s in summary.items():
            for m in spec["end_to_end"]:
                old = before[w][m["name"]]["median"]
                s[m["name"]]["median_moved"] = s[m["name"]]["median"] / old - 1
    report = {"run_seconds": spec["run_seconds"], "runs": RUNS,
              "first_seed": args.first_seed, "nproc": os.cpu_count(),
              "baseline": args.baseline, "summary": summary, "results": runs}
    if args.traced:
        report["traced"] = {w: bench(w, args.first_seed, 1)
                            for w in workloads}
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    for w, s in summary.items():
        print(w, {k: f"{v['spread']:.3f}/{v['bound']}"
                  for k, v in s.items() if isinstance(v, dict)},
              f"max {s['max_elapsed_s']:.0f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
