"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads wold-verify,decide-mix --seeds 1-10 --seconds 10

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
for each metric the median, the quartiles (``statistics.quantiles(n=4)``)
and their distance as a share of the median, next to the metric's bound
from BENCHMARK.json, plus the share of failed jobs.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{name}: seeds {args.seeds[0]}-{args.seeds[-1]}, failed share {shares}, "
              f"correct {all(r['correct'] for r in runs)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"iqr/median {(q3 - q1) / med:6.3f}  bound {bounds.get(metric)}  "
                  f"values {' '.join(f'{v:.4g}' for v in values)}")


if __name__ == "__main__":
    main()
