"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 perfbench/steady.py [--workloads W ...] [--seeds 1-10] [--sets 2] [--out FILE]

A set runs perfbench/run.py once per (workload, seed), one run at a time,
with the run length from BENCHMARK.json; --sets repeats the whole set.  For
each set, workload and metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1) / median,
next to the metric's bound, and for each set after the first how far each
median moved from the first set's, as a share of it (positive is worse).
Before each run it times a fixed pure-Python loop (`reference_s`), so that a
shift in the machine's own speed between runs or sets shows next to the
metrics; no metric is adjusted by it.  --out writes all of it as JSON;
perfbench/baseline.json is such a file.
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


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def reference_s() -> float:
    """Median of five timings of a fixed loop over a small dict."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(200_000):
            d[i % 1000] = d.get(i % 1000, 0) + i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_set(names, seeds, seconds, bounds) -> dict:
    out = {}
    for name in names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        runs = []
        for seed in seeds:
            reference = reference_s()
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            elapsed = time.perf_counter() - t0
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "elapsed_s": round(elapsed, 2), "reference_s": reference}
                        | {k: result[k] for k in ("correct", "attempted", "failed")})
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(name, seed, result["correct"], result["attempted"], result["failed"],
                  f"{elapsed:.1f}s", f"reference {reference:.4f}s",
                  {m: round(v[-1], 4) for m, v in values.items()}, flush=True)
        stats = {}
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            stats[m] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                        "bound": bounds[m], "values": vals}
            print(f"  {name:12s} {m:12s} median {med:10.4f} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {(q3 - q1) / med:.3f} bound {bounds[m]}", flush=True)
        out[name] = {
            "runs": runs,
            "reference_median_s": statistics.median(r["reference_s"] for r in runs),
            "metrics": stats,
        }
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    summary = {
        "about": (
            "Written by perfbench/steady.py: each set runs every workload once per seed "
            "with --trace 0, one run at a time, and the sets run one after another. "
            "spread = (q3 - q1) / median with statistics.quantiles(n=4); moved = how far "
            "a set's median is from the first set's, as a share of it, positive when worse. "
            "reference_s = median time of a fixed pure-Python loop run just before each run, "
            "a gauge of the machine's speed; no metric is adjusted by it."
        ),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "sets": [],
    }
    for k in range(args.sets):
        print(f"set {k + 1} of {args.sets}", flush=True)
        summary["sets"].append({"workloads": run_set(args.workloads, args.seeds, args.seconds, bounds)})
    first = summary["sets"][0]["workloads"]
    for k, later in enumerate(summary["sets"][1:], start=2):
        moved = {}
        for name, wl in later["workloads"].items():
            moved[name] = {}
            base = first[name]["reference_median_s"]
            print(f"  set {k} {name:12s} reference_s moved "
                  f"{(wl['reference_median_s'] - base) / base:+.3f}")
            for m, st in wl["metrics"].items():
                base = first[name]["metrics"][m]["median"]
                change = (st["median"] - base) / base * (1 if lower[m] else -1)
                moved[name][m] = change
                print(f"  set {k} {name:12s} {m:12s} moved {change:+.3f} bound {bounds[m]}")
        later["moved"] = moved
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
