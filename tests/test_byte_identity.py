import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sweep_prints_one_line_per_call_at_seed_5():
    # 166 calls: 21 + 32 + 58 + 47 jobs and 1 + 1 + 2 + 4 warm-ups.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "byte_identity.py"), str(ROOT), "5"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    assert len(lines) == 166 and proc.stderr == ""
    fields = [line.split("\t") for line in lines]
    assert all(len(f) == 7 for f in fields)
    assert [f[0] for f in fields].count("decide-mix") == 51
    assert all(f[2] in {"0", "1", "2", "3", "4"} for f in fields)  # no call raised
    assert all("<work>" in f[1] or "--sample" in f[1] for f in fields)
    # the last field lists check:passed:applicable for the calls that check
    checked = {"verify": {"0", "1"}, "semigroup": {"0"}}
    for f in fields:
        command = f[1].split()[0]
        verdicts = [v.split(":") for v in f[6].split(",")] if f[6] else []
        assert bool(verdicts) is (f[2] in checked.get(command, ()))
        assert all(len(v) == 3 and {v[1], v[2]} <= {"true", "false"} for v in verdicts)
        if f[2] == "1":  # a verify that exits 1 has an applicable check that failed
            assert any(v[1:] == ["false", "true"] for v in verdicts)
