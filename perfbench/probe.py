"""One set-up of a workload in a fresh interpreter.

Imports h2embed from the source tree, runs one warm-up of each command the
workload runs, then prints ``ready``.  The parent times it from spawn to
that line.

    python3 probe.py '{"src": "<repo>/src", "warmups": [["analyze", "--input", "f.json"]]}'
"""
import contextlib
import io
import json
import sys

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

from h2embed import cli  # noqa: E402

for argv in spec["warmups"]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
print("ready", flush=True)
