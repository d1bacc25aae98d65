"""No job list runs more threads than the machine has cores."""
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter, so that run.py pins BLAS before numpy loads.
SCRIPT = r"""
import os, re, sys, threading
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run
sys.path.insert(0, str(run.SRC))
from harness import call
from h2embed import cli
import workloads as wls

def threads():
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^Threads:\s+(\d+)", status, re.M).group(1))

work = Path(sys.argv[2])
os.chdir(work)
most = threads()
for name in wls.WORKLOADS:
    wl = wls.build(name, 3, work / name)
    cheap = [j for j in wl.jobs if not any(f"n={n}" in j.family for n in (20, 24, 32, 64, 96, 128))]
    for argv in wl.warmups:
        call(cli, argv)
    for job in cheap[:12]:
        if job.before:
            job.before()
        call(cli, job.argv)
        most = max(most, threads(), threading.active_count())
print(most)
"""


def test_no_job_list_spawns_more_threads_than_nproc(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(BENCH), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert 1 <= int(proc.stdout.split()[-1]) <= os.cpu_count()
