#!/usr/bin/env python3
"""Run every workload over several seeds and summarize the spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline
    python3 perfbench/baseline.py --seeds 1 --trace --out perfbench/baseline

Runs `perfbench/run.py --trace 0` once per (workload, seed), appends each
run's provenance, notes and result to OUT/runs.jsonl, and writes
OUT/summary.json (workloads not run keep their entry): per workload and
end-to-end metric, the median, the
quartiles (statistics.quantiles(values, n=4)) and the quartile spread as
a share of the median, next to the metric's bound from BENCHMARK.json.
Exits non-zero when a run fails or a spread (other than setup_s) exceeds
its bound. With --trace the runs are traced (`--trace 1`), go to
OUT/traced.jsonl, and are not summarized.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def summarize(values, bound):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "runs": len(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=os.path.join(HERE, "baseline"))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(args.out, exist_ok=True)
    summary_path = os.path.join(args.out, "summary.json")
    summary, ok = {}, True
    if os.path.exists(summary_path):  # runs of other workloads stay
        with open(summary_path) as f:
            summary = json.load(f)
    log_name = "traced.jsonl" if args.trace else "runs.jsonl"
    with open(os.path.join(args.out, log_name), "a") as log:
        for workload in args.workloads.split(","):
            values = {}
            for seed in parse_seeds(args.seeds):
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", "1" if args.trace else "0"],
                    cwd=ROOT, capture_output=True, text=True)
                lines = done.stdout.strip().split("\n")
                record = {"workload": workload, "seed": seed, "exit": done.returncode,
                          "lines": lines[:-1]}
                try:
                    record["result"] = json.loads(lines[-1])
                except ValueError:
                    record["result"] = None
                log.write(json.dumps(record) + "\n")
                log.flush()
                result = record["result"]
                if done.returncode != 0 or not result or not result["correct"]:
                    ok = False
                    print(f"{workload} seed {seed}: FAILED (exit {done.returncode})\n"
                          f"{done.stderr[-2000:]}", file=sys.stderr)
                    continue
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            if args.trace:
                continue
            summary[workload] = {name: summarize(v, bounds.get(name))
                                 for name, v in values.items()}
            print(f"{workload}:")
            for name, s in summary[workload].items():
                flag = ""
                if name != "setup_s" and s["spread"] > s["bound"]:
                    flag, ok = "  OVER BOUND", False
                elif name != "setup_s" and s["spread"] > s["bound"] / 3:
                    flag = "  over a third of the bound"
                print(f"  {name:12s} median {s['median']:14.6g}  spread {s['spread']:6.3f}"
                      f"  bound {s['bound']}{flag}")
            sys.stdout.flush()
    if not args.trace:
        with open(summary_path, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
