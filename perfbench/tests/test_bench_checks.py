"""A wrong output is counted as failed; a right one is not."""
import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wls  # noqa: E402
from harness import Tally, call, run_rounds  # noqa: E402
from h2embed import cli  # noqa: E402


class PrintingCli:
    """Stands in for h2embed.cli: prints a fixed document, exits 0."""

    def __init__(self, doc):
        self.text = json.dumps(doc)

    def main(self, argv):
        print(self.text)
        return 0


def verdict_doc(verdict, token):
    return {"verdict": verdict, "governing_result": token, "details": {}}


def test_wrong_verdict_counts_as_failed_and_unexpected():
    job = wls.Job("analyze outer", ["analyze"], wls.check_verdict("Embeddable", "outer-symbol-flow"))
    workload = wls.Workload("w", [job], [])
    wrong = run_rounds(PrintingCli(verdict_doc("NotEmbeddable", "outer-symbol-flow")),
                       workload, 0, Tally())
    assert wrong.attempted == 1 and wrong.failed[None] == 1
    assert wrong.unexpected and "NotEmbeddable" in wrong.unexpected[0][1]
    right = run_rounds(PrintingCli(verdict_doc("Embeddable", "outer-symbol-flow")),
                       workload, 0, Tally())
    assert not right.failed and not right.unexpected


def test_tagged_failure_is_counted_under_its_fault():
    job = wls.Job("analyze", ["analyze"], wls.check_verdict("Embeddable", "x"), fault="F5")
    tally = run_rounds(PrintingCli(verdict_doc("Unknown", "x")), wls.Workload("w", [job], []),
                       0, Tally())
    assert tally.failed == {"F5": 1} and not tally.unexpected


def test_unparseable_output_counts_as_failed():
    class Garbage:
        def main(self, argv):
            print("not json")
            return 0

    job = wls.Job("verify", ["verify"], wls.check_records(wls.VERIFY_CHECKS))
    tally = run_rounds(Garbage(), wls.Workload("w", [job], []), 0, Tally())
    assert tally.failed[None] == 1


def test_wrong_wold_levels_fail():
    n = 16
    check = wls.check_wold(n, 2)
    levels = [[[i] for i in lv] for lv in [[1, 3, 5, 7, 9, 11, 13, 15], [2, 6, 10, 14], [4, 12], [8]]]
    doc = {"level_dims": [8, 4, 2, 1], "level_supports": levels, "residual_dim": 0,
           "orthonormality_defect": 1e-16}
    assert check(wls.Outcome(0, json.dumps(doc), "")) is None
    levels[1][0], levels[2][0] = [4], [2]
    assert check(wls.Outcome(0, json.dumps(doc), ""))
    doc["orthonormality_defect"] = 1e-3
    assert "orthonormality" in wls.check_wold(n)(wls.Outcome(0, json.dumps(doc), ""))


def test_wrong_preimage_fails(tmp_path):
    bdoc = wls.blaschke(0.4, 1, [(0.5 + 0.2j, 1)])
    path = tmp_path / "b.json"
    path.write_text(json.dumps(wls.composition(bdoc)))
    outcome = call(cli, ["solve", "--input", str(path), "--beta=0.3,-0.1"])
    check = wls.check_solve(bdoc, 0.3 - 0.1j)
    assert check(outcome) is None
    doc = json.loads(outcome.out)
    doc["roots"][0]["re"] += 1e-6
    assert check(wls.Outcome(0, json.dumps(doc), ""))


def test_perturbed_flow_csv_fails(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = wls.toeplitz(outer=wls.outer(1.2, [0.3 + 0.1j], [2.0 - 1.0j]))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    check = wls.check_sample(doc, 16)
    outcome = call(cli, ["semigroup", "--input", str(path), "--n", "16"])
    assert check(outcome) is None
    csv = Path(wls.SAMPLE_DIR) / "matrix_01.csv"
    lines = csv.read_text().splitlines()
    re_part, im_part = lines[1].split(",")
    lines[1] = f"{float(re_part) + 1e-6!r},{im_part}"
    csv.write_text("\n".join(lines) + "\n")
    assert "closed form" in check(outcome)


def test_flow_sample_check_against_a_wrong_symbol(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = wls.polynomial([3.0, 1.0, 0.5])
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    outcome = call(cli, ["semigroup", "--input", str(path), "--n", "16"])
    assert wls.check_sample(doc, 16)(outcome) is None
    assert wls.check_sample(wls.polynomial([3.0, 1.0, 0.6]), 16)(outcome)


def test_fixed_inputs_of_failing_families_do_not_depend_on_the_seed(tmp_path):
    def tagged(seed):
        wl = wls.build("flow-verify", seed, tmp_path / str(seed))
        return sorted((j.family, j.fault, Path(j.argv[2]).read_text()) for j in wl.jobs if j.fault)

    assert tagged(1) == tagged(2)
    assert len(tagged(1)) == 17


def test_round_make_up_does_not_depend_on_the_seed(tmp_path):
    for name in wls.WORKLOADS:
        a = wls.build(name, 1, tmp_path / f"{name}1")
        b = wls.build(name, 7, tmp_path / f"{name}7")
        assert sorted((j.family, j.fault) for j in a.jobs) == sorted((j.family, j.fault) for j in b.jobs)
        assert [j.family for j in a.jobs] != [j.family for j in b.jobs]
