"""Byte-identity sweep of the benchmark's command lines.

    python3 tools/byte_identity.py SRC_ROOT SEED

SRC_ROOT is the root of an h2embed checkout (it holds ``src/`` and
``perfbench/``).  The sweep builds the four workloads of
``SRC_ROOT/perfbench/workloads.py`` at SEED and calls
``h2embed.cli.main(argv)`` in-process, from ``SRC_ROOT/src``, on every
warm-up argv and then every job argv, each workload in its own temporary
work directory.  It prints one line per call, tab-separated: the workload,
the argv with the work directory spelt ``<work>``, the exit code, the
SHA-256 of stdout, stderr (as a Python literal), ``name=SHA-256`` of
every file in the sample directory after the call, and the verdicts of the
call's checks: ``check:passed:applicable`` of each record, comma-separated,
that a ``verify`` call printed or that a ``semigroup`` call wrote to
``verification.json`` (empty for other calls).  A value that moves changes
a SHA-256 field only; a verdict that moves changes the last field too.

Two trees give the same behaviour on these inputs when their sweeps print
the same lines; see "Tier-1 verify" in ROADMAP.md for the diff recipe.
"""
from __future__ import annotations

import os

# As in perfbench/run.py: one BLAS thread, pinned before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _verdicts(argv, rc: int, out: str, sample: Path) -> str:
    """The check:passed:applicable list of the call's records, or ''."""
    if argv[0] == "verify" and out:
        records = json.loads(out)["records"]
    elif argv[0] == "semigroup" and rc == 0:
        records = json.loads((sample / "verification.json").read_text())
    else:
        return ""
    return ",".join(
        f"{r['check']}:{json.dumps(r['passed'])}:{json.dumps(r['applicable'])}" for r in records
    )


def sweep(root: Path, seed: int):
    """Yield the sweep's lines for the checkout at ``root``."""
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads as wls
    from harness import call
    from h2embed import cli

    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for name in wls.WORKLOADS:
                work = Path(tmp) / name
                work.mkdir()
                os.chdir(work)
                workload = wls.build(name, seed, work)

                def mask(text):
                    return text.replace(str(work), "<work>")

                calls = [(argv, None) for argv in workload.warmups]
                calls += [(job.argv, job.before) for job in workload.jobs]
                for argv, before in calls:
                    if before is not None:
                        before()
                    o = call(cli, argv)
                    err = mask(o.err if o.exc is None else f"{o.err}raised {o.exc}")
                    sample = work / wls.SAMPLE_DIR
                    files = sorted(sample.iterdir()) if sample.is_dir() else []
                    yield "\t".join([
                        name, mask(" ".join(argv)), str(o.rc), _sha(mask(o.out)), repr(err),
                        " ".join(f"{f.name}={_sha(f.read_bytes())}" for f in files),
                        _verdicts(argv, o.rc, o.out, sample),
                    ])
        finally:
            os.chdir(home)


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/byte_identity.py SRC_ROOT SEED", file=sys.stderr)
        return 2
    for line in sweep(Path(argv[0]).resolve(), int(argv[1])):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
