"""Paired benchmark runs of two checkouts, judged by the claim rule and the
benchmark's bounds.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S

PARENT and CHANGE are roots of h2embed checkouts.  Pair i (from 0) runs
each checkout's own ``perfbench/run.py --workload W --seed S+i --seconds T
--trace 0``, one run at a time, with T the ``run_seconds`` of PARENT's
``BENCHMARK.json``; the parent runs first in even pairs and the change in
odd ones.  Of ``BENCHMARK.json`` only ``run_seconds`` and the ``end_to_end``
metrics (name, better, bound) are read.

Every run prints ``correct``, failed/attempted jobs and its metrics.  Then,
for each end-to-end metric, the summary of :func:`summarize`: each side's
median and quartiles (``statistics.quantiles(n=4)``), the change's wins out
of the pairs, the median gap against the parent's IQR, and two verdicts:

* claim: ``met`` when at least 10 pairs ran, the change wins at least 9/10
  of them, ties counting for neither side, and its median is better than
  the parent's by more than the parent's IQR (the distance between its
  quartiles);
* bound: ``worse`` when the change's median is worse than the parent's by
  more than the metric's bound, relative to the parent's median;
  ``unresolved`` when either side's IQR, relative to its median, is wider
  than the bound, unless every run of the change is better, or every run
  worse by more than the bound, than every run of the parent; otherwise
  ``within bound``.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

CLAIM_SHARE = 0.9  # share of pairs the change must win to claim a gain
CLAIM_PAIRS = 10  # fewest pairs a claim rests on


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``; one value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(parent, change, better: str, bound: float) -> dict:
    """The paired comparison of one metric: ``parent[i]`` and ``change[i]``
    are the positive values of pair i, ``better`` is ``"lower"`` or
    ``"higher"`` and ``bound`` the relative worsening the metric is allowed.

    ``gap`` is how far the change's median is better than the parent's
    (negative when worse), ``worse_by`` how far it is worse relative to the
    parent's median (negative when better), and ``spread`` the wider of the
    two sides' IQR relative to its median."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better is 'lower' or 'higher', not {better!r}")
    if len(parent) != len(change) or not parent:
        raise ValueError("one value per side and pair, at least one pair")
    parent, change = list(parent), list(change)
    if min(parent + change) <= 0:
        raise ValueError("metric values are positive")
    sign = 1.0 if better == "lower" else -1.0

    def worse_by(p, c):  # how far c is worse than p, relative to p
        return sign * (c - p) / p

    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    gap = sign * (p_med - c_med)
    wins = sum(worse_by(p, c) < 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    spread = max(iqr / p_med, (c_q3 - c_q1) / c_med)
    pairs = [(p, c) for p in parent for c in change]
    if all(worse_by(p, c) < 0 for p, c in pairs):
        verdict = "within bound"  # every run of the change beats every run of the parent
    elif worse_by(p_med, c_med) > bound and (
            spread <= bound or all(worse_by(p, c) > bound for p, c in pairs)):
        verdict = "worse"
    elif spread > bound:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "pairs": len(parent),
        "wins": wins,
        "ties": ties,
        "gap": gap,
        "gap_over_iqr": gap / iqr if iqr else (math.copysign(math.inf, gap) if gap else 0.0),
        "worse_by": worse_by(p_med, c_med),
        "spread": spread,
        "claim": len(parent) >= CLAIM_PAIRS and wins >= CLAIM_SHARE * len(parent) and gap > iqr,
        "bound": verdict,
    }


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py`` run of ``checkout``."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode} at seed {seed}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds, metrics = spec["run_seconds"], spec["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {side: [] for side in sides}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = run(sides[side], args.workload, seed, seconds)
            results[side].append(r)
            values = " ".join(f"{k} {m['value']:.4g}" for k, m in r["metrics"].items())
            print(f"pair {i} seed {seed} {side}: correct {json.dumps(r['correct'])}, "
                  f"failed {r['failed']}/{r['attempted']}, {values}", flush=True)
    print(f"{args.workload}: {args.pairs} pair(s) at seeds {args.seed}-{args.seed + args.pairs - 1}"
          f", {seconds} s runs")
    for m in metrics:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        s = summarize(parent, change, m["better"], m["bound"])
        (pq1, pm, pq3), (cq1, cm, cq3) = s["parent"], s["change"]
        print(f"  {name} ({m['better']} is better, bound {m['bound']}): "
              f"parent {pm:.4g} [{pq1:.4g}, {pq3:.4g}] -> change {cm:.4g} [{cq1:.4g}, {cq3:.4g}]"
              f" (median {(cm - pm) / pm:+.1%}); wins {s['wins']}/{s['pairs']}"
              f" ({s['ties']} tie(s)); gap/IQR {s['gap_over_iqr']:.2f}; spread {s['spread']:.1%};"
              f" claim {'met' if s['claim'] else 'not met'}; {s['bound']}")
        print(f"    per pair: {' '.join(f'{p:.4g}->{c:.4g}' for p, c in zip(parent, change))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
