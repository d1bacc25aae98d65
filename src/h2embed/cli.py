"""Command-line front end.

Subcommands: analyze, semigroup, solve, frostman, wold, verify.  Verdicts
are data, never error exits.  Exit codes: 0 ok, 1 failed verification
check, 2 malformed input, 3 verdict without a concrete construction,
4 numeric failure inside a computation.

Reports are emitted as deterministic JSON (or key,value CSV with
--format csv): identical input, configuration and seed give byte-identical
output.

``main`` is re-entrant: the process builds its argument parser once, at
import, and every call parses with that one instance.  Parsing leaves the
parser as it was (each call gets a fresh namespace, and the subcommand
defaults live on the subparsers), so calls made in-process, one after
another, behave like separate shell invocations.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .blaschke import conjugate_by_automorphism, frostman_transform, solve_blaschke_equation
from .decisions import (
    decide_composition,
    decide_lfm,
    decide_polynomial_toeplitz,
    decide_toeplitz,
)
from .errors import H2EmbedError
from .fileio import (
    SymbolFileError,
    dump_matrix_csv,
    _jsonable,
    json_dumps,
    load_matrix_csv,
    load_symbol_file,
    record_document,
    report_document,
)
from .operators import wold_decompose
from .semigroups import (
    OperatorSemigroupSample,
    SpiralFlow,
    _grid_cells,
    embed_isometric_composition,
    sample_multiplication_flow,
    sample_spiral_flow,
)
from .symbols import BlaschkeProduct, ConjugatedSymbol, MobiusMap
from .verify import (
    check_isometry,
    check_noncompactness_proxy,
    check_semigroup_law,
    check_strong_continuity,
)

DEFAULT_SEED = 1729
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_NO_CONSTRUCTION = 3
EXIT_NUMERIC = 4


class NoConstruction(Exception):
    pass


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise SymbolFileError(f"cannot parse complex value {text!r}; use RE or RE,IM")


def _parse_times(text: str):
    try:
        times = [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise SymbolFileError(f"--times: {exc}") from exc
    if not times:
        raise SymbolFileError("--times: at least one time required")
    for t in times:
        if not (math.isfinite(t) and t >= 0.0):
            raise SymbolFileError(f"--times: {t!r} is not a finite nonnegative time")
    return times


def _check_flags(args) -> None:
    """Reject a non-finite --tol, and an --h that the half-line grid of a
    Wold/shift sample cannot use."""
    if not math.isfinite(args.tol):
        raise SymbolFileError(f"--tol: {args.tol!r} is not a finite number")
    if getattr(args, "h", None) is not None:
        try:
            _grid_cells(args.h)
        except ValueError as exc:
            raise SymbolFileError(f"--h: {exc}") from exc


def _emit(doc: dict, args) -> None:
    if args.format == "csv":
        lines = ["key,value"]

        def flatten(prefix, val):
            if isinstance(val, dict):
                for k in sorted(val):
                    flatten(f"{prefix}.{k}" if prefix else str(k), val[k])
            elif isinstance(val, (list, tuple)):
                for i, v in enumerate(val):
                    flatten(f"{prefix}[{i}]", v)
            else:
                lines.append(f"{prefix},{val}")

        flatten("", _jsonable(doc))
        text = "\n".join(lines) + "\n"
    else:
        text = json_dumps(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _config(args, parsed) -> dict:
    return {
        "input_hash": parsed.get("hash"),
        "n": args.n,
        "tol": args.tol,
        "seed": args.seed,
    }


def _analyze(parsed, args):
    kind = parsed["kind"]
    if kind == "toeplitz":
        return decide_toeplitz(
            parsed["symbol"],
            declared_infinite_blaschke=parsed["declared_infinite_blaschke"],
        )
    if kind == "polynomial":
        return decide_polynomial_toeplitz(parsed["symbol"], tol=args.tol)
    if kind == "mobius":
        return decide_lfm(parsed["symbol"], tol=args.tol)
    return decide_composition(parsed["symbol"], tol=args.tol)


def cmd_analyze(args) -> int:
    parsed = load_symbol_file(args.input)
    report = _analyze(parsed, args)
    _emit(report_document(report, config=_config(args, parsed)), args)
    return 0


def _build_sample(parsed, report, args, times):
    """Concrete operator sample for an embeddable verdict, or NoConstruction."""
    if report.verdict.value != "Embeddable":
        raise NoConstruction(report.governing_result)
    flow = report.semigroup
    if isinstance(flow, SpiralFlow):
        return sample_spiral_flow(flow, times, args.n), flow
    if getattr(flow, "multiplicative", False):
        return sample_multiplication_flow(flow, times, args.n), flow
    if parsed["kind"] == "composition" and "fixed_point" in report.details:
        sym, alpha = parsed["symbol"], report.details["fixed_point"]
        if abs(alpha) < 1e-12:
            psi = sym
        elif isinstance(sym, BlaschkeProduct):
            psi = conjugate_by_automorphism(sym, alpha)
        else:
            psi = ConjugatedSymbol(sym, alpha)
        return embed_isometric_composition(psi, times, args.n, args.h), None
    raise NoConstruction(report.governing_result)


def _law_pairs(times):
    tset = list(times)
    pairs = []
    for i, t in enumerate(tset):
        for s in tset[i:]:
            if t > 0 and s > 0 and any(abs(t + s - u) < 1e-12 for u in tset):
                pairs.append((t, s))
    return pairs


def _sample_records(sample, args):
    records = []
    pairs = _law_pairs(sample.times)
    if pairs:
        records.append(check_semigroup_law(sample, pairs, args.tol))
    records.append(check_isometry(sample, max(args.tol, 1e-6), max_vectors=9))
    records.append(
        check_noncompactness_proxy(sample, max(args.tol, 1e-6), max_vectors=9)
    )
    if len([t for t in sample.times if t > 0]) >= 2:
        records.append(
            check_strong_continuity(sample, sample.test_vectors(4), 1.0)
        )
    return records


def cmd_semigroup(args) -> int:
    parsed = load_symbol_file(args.input)
    report = _analyze(parsed, args)
    times = _parse_times(args.times)
    sample, flow = _build_sample(parsed, report, args, times)
    outdir = Path(args.out or "h2embed-semigroup-out")
    outdir.mkdir(parents=True, exist_ok=True)
    matrix_files = []
    for i, t in enumerate(sample.times):
        name = f"matrix_{i:02d}.csv"
        dump_matrix_csv(outdir / name, sample.operator_at(t))
        matrix_files.append(name)
    records = _sample_records(sample, args)
    trajectory_file = None
    if flow is not None and hasattr(flow, "at"):
        grid = 0.6 * np.exp(2j * np.pi * np.arange(8) / 8)
        rows = ["t,re_z,im_z,re_val,im_val"]
        for t in times:
            sym = flow.at(t)
            vals = np.asarray(sym(grid))
            for z, v in zip(grid.tolist(), vals.tolist()):
                rows.append(f"{t!r},{z.real!r},{z.imag!r},{v.real!r},{v.imag!r}")
        trajectory_file = "trajectory.csv"
        (outdir / trajectory_file).write_text("\n".join(rows) + "\n")
    meta = {
        "construction": sample.construction,
        "dim": sample.dim,
        "isometric": sample.isometric,
        "times": sample.times,
        "matrices": matrix_files,
        "trajectory": trajectory_file,
        "symbol_hash": parsed.get("hash"),
        "tolerance": args.tol,
        "config": _config(args, parsed),
        "verdict": report_document(report),
    }
    (outdir / "meta.json").write_text(json_dumps(meta))
    (outdir / "verification.json").write_text(
        json_dumps([record_document(r) for r in records])
    )
    args.out = None  # --out named the sample directory; the document goes to stdout
    _emit(meta, args)
    return 0


def cmd_solve(args) -> int:
    parsed = load_symbol_file(args.input)
    sym = parsed["symbol"] if parsed["kind"] == "composition" else parsed.get("symbol")
    if parsed["kind"] == "toeplitz":
        sym = parsed["symbol"].blaschke
    if not isinstance(sym, BlaschkeProduct):
        raise SymbolFileError("solve needs a Blaschke product symbol")
    beta = _parse_complex(args.beta)
    pre = solve_blaschke_equation(sym, beta, tol=args.tol)
    doc = {
        "target": beta,
        "roots": [{"re": v.real, "im": v.imag, "mult": m} for v, m in pre.solutions.roots],
        "residual_bound": pre.solutions.residual_bound,
        "all_distinct": pre.all_distinct,
        "config": _config(args, parsed),
    }
    _emit(doc, args)
    return 0


def cmd_frostman(args) -> int:
    parsed = load_symbol_file(args.input)
    sym = parsed["symbol"].blaschke if parsed["kind"] == "toeplitz" else parsed["symbol"]
    if not isinstance(sym, BlaschkeProduct):
        raise SymbolFileError("frostman needs a Blaschke product symbol")
    lam = _parse_complex(args.lam)
    result, simple = frostman_transform(sym, lam, tol=args.tol)
    tau = MobiusMap.disk_involution(lam)
    grid = 0.7 * np.exp(2j * np.pi * np.arange(32) / 32)
    defect = float(np.max(np.abs(tau(sym(grid)) - result(grid))))
    doc = {
        "rotation": result.rotation,
        "origin_order": result.origin_order,
        "zeros": [{"re": a.real, "im": a.imag, "mult": m} for a, m in result.zeros],
        "simple_zeros": simple,
        "grid_match_defect": defect,
        "config": _config(args, parsed),
    }
    _emit(doc, args)
    return 0


def cmd_wold(args) -> int:
    parsed = load_symbol_file(args.input)
    if parsed["kind"] != "composition":
        raise SymbolFileError("wold needs a composition symbol file")
    wold = wold_decompose(parsed["symbol"], args.n)
    levels = []
    for basis in wold.levels:
        levels.append(
            [np.flatnonzero(np.abs(basis[:, j]) > 1e-8).tolist() for j in range(basis.shape[1])]
        )
    doc = {
        "n": args.n,
        "level_dims": wold.level_dims,
        "level_supports": levels,
        "residual_dim": wold.residual_dim,
        "orthonormality_defect": wold.orthonormality_defect,
        "config": _config(args, parsed),
    }
    _emit(doc, args)
    return 0


def _load_sample_dir(path: Path) -> OperatorSemigroupSample:
    meta_path = path / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
        dim = int(meta["dim"])
        times = [float(t) for t in meta["times"]]
        names = [str(name) for name in meta["matrices"]]
    except OSError as exc:
        raise SymbolFileError(f"{meta_path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise SymbolFileError(
            f"{meta_path}, line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise SymbolFileError(f"{meta_path}: needs dim, times and matrices ({exc!r})") from exc
    if len(names) != len(times):
        raise SymbolFileError(f"{meta_path}: {len(names)} matrices for {len(times)} times")
    ops = []
    for name in names:
        op = load_matrix_csv(path / name)
        if op.shape != (dim,) * op.ndim:
            raise SymbolFileError(f"{path / name}: shape {op.shape} does not match dim {dim}")
        ops.append(op)
    return OperatorSemigroupSample(
        times=times,
        operators=ops,
        construction=meta.get("construction", "loaded"),
        dim=dim,
        isometric=bool(meta.get("isometric", False)),
        meta={"loaded_from": str(path)},
    )


def cmd_verify(args) -> int:
    if args.sample:
        sample = _load_sample_dir(Path(args.sample))
        records = []
        pairs = _law_pairs(sample.times)
        if pairs:
            records.append(check_semigroup_law(sample, pairs, args.tol))
        if sample.isometric and sample.construction != "wold-shift":
            records.append(check_isometry(sample, max(args.tol, 1e-6), max_vectors=9))
        config = {"sample": args.sample, "tol": args.tol, "seed": args.seed}
    else:
        parsed = load_symbol_file(args.input)
        report = _analyze(parsed, args)
        times = _parse_times(args.times)
        sample, _ = _build_sample(parsed, report, args, times)
        records = _sample_records(sample, args)
        config = _config(args, parsed)
    doc = {
        "records": [record_document(r) for r in records],
        "config": config,
    }
    _emit(doc, args)
    failed = [r for r in records if r.applicable and not r.passed]
    return EXIT_CHECK_FAILED if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h2embed",
        description=(
            "Decide whether composition and analytic Toeplitz operators on the "
            "Hardy space embed into strongly continuous semigroups, construct "
            "the explicit semigroups, and verify them on truncated matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, input_required=True):
        p.add_argument("--input", required=input_required, help="symbol file (JSON)")
        p.add_argument("--n", type=int, default=32, help="truncation order (>= 4)")
        p.add_argument("--tol", type=float, default=1e-8, help="tolerance")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="rng seed")
        p.add_argument("--out", default=None, help="output path (stdout by default)")
        p.add_argument(
            "--format", choices=("report-doc", "csv"), default="report-doc"
        )

    p = sub.add_parser("analyze", help="embeddability verdict for a symbol file")
    common(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("semigroup", help="sample the constructed semigroup")
    common(p)
    p.add_argument("--times", default="0,0.5,1", help="comma-separated times")
    p.add_argument("--h", type=float, default=0.5, help="half-line grid step")
    p.set_defaults(handler=cmd_semigroup)

    p = sub.add_parser("solve", help="preimages of beta under the Blaschke symbol")
    common(p)
    p.add_argument("--beta", required=True, help="target value RE or RE,IM")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("frostman", help="Frostman transform of the Blaschke symbol")
    common(p)
    p.add_argument("--lam", required=True, help="parameter RE or RE,IM")
    p.set_defaults(handler=cmd_frostman)

    p = sub.add_parser("wold", help="Wold decomposition of a composition symbol")
    common(p)
    p.set_defaults(handler=cmd_wold)

    p = sub.add_parser("verify", help="run the property checks")
    common(p, input_required=False)
    p.add_argument("--times", default="0,0.25,0.5,0.75,1", help="comma-separated times")
    p.add_argument("--h", type=float, default=0.25, help="half-line grid step")
    p.add_argument("--sample", default=None, help="verify a stored sample directory")
    p.set_defaults(handler=cmd_verify)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.n < 4:
        print("error: --n must be at least 4", file=sys.stderr)
        return EXIT_PARSE
    if getattr(args, "command", None) == "verify" and not (args.input or args.sample):
        print("error: verify needs --input or --sample", file=sys.stderr)
        return EXIT_PARSE
    try:
        _check_flags(args)
        return args.handler(args)
    except SymbolFileError as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NoConstruction as exc:
        print(
            f"error: verdict carries no concrete construction ({exc})",
            file=sys.stderr,
        )
        return EXIT_NO_CONSTRUCTION
    except H2EmbedError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
