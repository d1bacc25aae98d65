"""The closed loop: one client calls ``h2embed.cli.main(argv)`` in-process,
one job at a time, for whole rounds of a workload's job list."""
from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import time
from collections import Counter

from workloads import Outcome


def _malloc_trim():
    """glibc's malloc_trim, or None on another C library."""
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


MALLOC_TRIM = _malloc_trim()


def settle():
    """Frees what earlier jobs left behind, so that a job starts from the
    same memory whatever ran before it: garbage would otherwise be
    collected, and freed heap kept, at times that depend on the job order."""
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def call(cli, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as stop:
            rc = stop.code if isinstance(stop.code, int) else 1
        except Exception as error:  # a job that raises counts as failed
            rc, exc = None, f"{type(error).__name__}: {error}"
    return Outcome(rc, out.getvalue(), err.getvalue(), exc)


class Tally:
    """Job times and outcomes of a run."""

    def __init__(self):
        self.times = []  # untraced job wall times
        self.traced_times = []
        self.rounds = 0
        self.failed = Counter()  # fault tag (None: no known fault) -> jobs
        self.unexpected = []  # (family, reason) of failed untagged jobs
        self.mended = set()  # families tagged with a fault that passed

    @property
    def attempted(self):
        return len(self.times) + len(self.traced_times)

    def record(self, job, outcome):
        try:
            reason = job.check(outcome)
        except Exception as error:  # unreadable output is wrong output
            reason = f"output check raised {type(error).__name__}: {error}"
        if reason:
            self.failed[job.fault] += 1
            if job.fault is None:
                self.unexpected.append((job.family, reason))
        elif job.fault:
            self.mended.add(job.family)


def run_rounds(cli, workload, seconds, tally, tracer=None):
    """Whole rounds of the job list until ``seconds`` of wall time passed.

    With a tracer every job runs twice, untraced and traced, in alternating
    order, so that the two times of a job compare like with like."""
    start = time.perf_counter()
    while tally.rounds == 0 or time.perf_counter() - start < seconds:
        for i, job in enumerate(workload.jobs):
            modes = (False,) if tracer is None else ((False, True) if i % 2 else (True, False))
            for traced in modes:
                if job.before:
                    job.before()
                settle()
                if traced:
                    tracer.job += 1
                    tracer.install()
                t0 = time.perf_counter()
                outcome = call(cli, job.argv)
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
                (tally.traced_times if traced else tally.times).append(elapsed)
                tally.record(job, outcome)
        tally.rounds += 1
    return tally
