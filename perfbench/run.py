"""Benchmark of the h2embed command-line program, from the source tree.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in a fresh process: one client calls
``h2embed.cli.main(argv)`` in-process, one job at a time (a closed loop),
with BLAS on one thread.  A run attempts whole rounds of the workload's
job list until ``--seconds`` have passed, checks every job's output, and
prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs every job untraced and traced and
reports the per-layer metrics (see README.md).
"""
from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 175

sys.path.insert(0, str(HERE))

import workloads as wls  # noqa: E402
from harness import Tally, call, run_rounds  # noqa: E402

END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_ms_p50": "ms", "peak_rss_mb": "MB"}


def probe_setup(workload, workdir):
    """Seconds from spawning a fresh interpreter until it has imported
    h2embed and run one warm-up of each of the workload's commands."""
    spec = json.dumps({"src": str(SRC), "warmups": workload.warmups})
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), spec], cwd=workdir,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    return elapsed


def upper_quartile(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def per_job_times(times, jobs_per_round):
    """Each job's time as the upper quartile of its times over the rounds
    run.  On the 2-core virtual machine the bounds were set on, the CPU ran
    30-45 % faster for spells of seconds to minutes; the upper quartile
    keeps a run that catches part of such a spell reading like the others."""
    return [upper_quartile(times[i::jobs_per_round]) for i in range(jobs_per_round)]


def report(name, seed, tally, metrics):
    print(f"workload {name} seed {seed}: {tally.rounds} round(s), "
          f"{tally.attempted} jobs attempted, {sum(tally.failed.values())} failed")
    for key, m in metrics.items():
        print(f"  {key:48s} {m['value']:14.4f} {m['unit']}")
    for fault, count in sorted(tally.failed.items(), key=str):
        print(f"  failed under {fault or 'no known fault'}: {count}")
    for family, reason in tally.unexpected[:10]:
        print(f"  UNEXPECTED FAILURE {family}: {reason}")
    for family in sorted(tally.mended):
        print(f"  passes although tagged with a fault: {family}")
    return {"correct": not tally.unexpected, "attempted": tally.attempted,
            "failed": sum(tally.failed.values()), "metrics": metrics}


def run_workload(name, seed, seconds, trace):
    workdir = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        workload = wls.build(name, seed, workdir)
        setups = [] if trace else [probe_setup(workload, workdir) for _ in range(SETUP_PROBES)]
        sys.path.insert(0, str(SRC))
        from h2embed import cli

        for argv in workload.warmups:
            call(cli, argv)
        if not trace:
            tally = run_rounds(cli, workload, seconds, Tally())
            per_job = per_job_times(tally.times, len(workload.jobs))
            values = {
                "setup_s": statistics.median(setups),
                "jobs_per_s": len(per_job) / sum(per_job),
                "job_ms_p50": 1e3 * statistics.median(per_job),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            result = report(name, seed, tally, metrics)
            print(f"  {tally.attempted} job times over {tally.rounds} round(s) of "
                  f"{len(per_job)} jobs; set-up is the median of {SETUP_PROBES} fresh interpreters")
            detail = {"jobs": [j.family for j in workload.jobs],
                      "times_ms": [1e3 * t for t in tally.times], "setups_s": setups}
        else:
            from tracing import Tracer

            tracer = Tracer()
            tally = run_rounds(cli, workload, seconds, Tally(), tracer)
            overhead = 100.0 * (sum(tally.traced_times) / sum(tally.times) - 1.0)
            metrics = tracer.metrics(sum(tally.traced_times), tally.rounds, overhead)
            result = report(name, seed, tally, metrics)
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            tracer.dump(OUT / "traces" / f"{name}-seed{seed}.jsonl")
            detail = {"jobs": [j.family for j in workload.jobs]}
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        path = OUT / "results" / f"{name}-seed{seed}-trace{trace}.json"
        path.write_text(json.dumps(dict(result, workload=name, seed=seed, **detail), indent=1))
        return result
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed, seconds, trace):
    """Every workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wls.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + wls.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "h2embed" / "cli.py").is_file():
        print(f"error: no h2embed source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
