#!/usr/bin/env python3
"""Run workloads over several seeds and report each end-to-end metric's
median and run-to-run spread: the distance between the first and third
quartile of its values, as a share of their median.

    python3 perfbench/spread.py --workloads serve-hot,batch-paper --seeds 1-10

A seed may repeat, to measure the spread of repeated runs of one input
in alternating order, e.g. --seeds 1,20040426,1,20040426,1,20040426.

Run from the root of the repository. Prints one JSON object; exits 1 if
any run failed or any spread exceeds its bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    # Distinct seeds form one group; repeated seeds one group per seed.
    repeated = len(set(args.seeds)) < len(args.seeds)
    report, ok = {}, True
    for workload in args.workloads.split(","):
        groups = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            run = subprocess.run(cmd, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if run.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed} failed:\n{run.stdout}{run.stderr}", file=sys.stderr)
                ok = False
                continue
            values = groups.setdefault(f"seed {seed}" if repeated else "seeds", {})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for group, values in groups.items():
            rows = {}
            for name, vs in values.items():
                med = statistics.median(vs)
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med
                rows[name] = {"median": med, "spread": round(spread, 4), "runs": len(vs), "values": vs}
                if spread > bounds[name]:
                    ok = False
            report.setdefault(workload, {})[group] = rows
    print(json.dumps(report, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
