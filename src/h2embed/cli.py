"""Command-line front end.

Subcommands: analyze, semigroup, solve, frostman, wold, verify.  Verdicts
are data, never error exits.  Exit codes: 0 ok, 1 failed verification
check, 2 malformed input (also ``semigroup`` and ``verify`` at times
where no check applies), 3 verdict without a concrete construction (for
``wold``, without the Wold/shift one), 4 numeric failure in a computation.

Reports are emitted as deterministic JSON (or key,value CSV with
--format csv, a value quoted when it holds a comma, quote or newline):
identical input and configuration give byte-identical output.

``main`` is re-entrant: the process builds its argument parser once, at
import, and every call parses with that one instance.  Parsing leaves the
parser as it was (each call gets a fresh namespace, and the subcommand
defaults live on the subparsers), so calls made in-process, one after
another, behave like separate shell invocations.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .blaschke import frostman_transform, solve_blaschke_equation
from .decisions import (
    DEFAULT_TOL,
    decide_composition,
    decide_lfm,
    decide_polynomial_toeplitz,
    decide_toeplitz,
)
from .errors import H2EmbedError
from .fileio import (
    SymbolFileError,
    _count,
    _finite,
    _jsonable,
    dump_matrix_csv,
    json_dumps,
    load_matrix_csv,
    load_symbol_file,
    record_document,
    report_document,
)
from .operators import wold_decompose
from .semigroups import TIME_TOL, OperatorSemigroupSample, WoldShiftFlow
from .symbols import BlaschkeProduct, MobiusMap
from .verify import (
    check_isometry,
    check_noncompactness_proxy,
    check_semigroup_law,
    check_strong_continuity,
)

EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_NO_CONSTRUCTION = 3
EXIT_NUMERIC = 4
# The isometry and noncompactness checks never test tighter than this, whatever --tol is.
ISOMETRY_TOL_FLOOR = 1e-6
_SUPPORT_TOL = 1e-8  # a Wold basis entry at most this is rounding, not support


class NoConstruction(Exception):
    pass


def _number(text: str, flag: str) -> float:
    """The finite number that the text ``text`` of ``flag`` spells."""
    try:
        x = float(text)
    except ValueError as exc:
        raise SymbolFileError(f"{flag}: {exc}") from exc
    return _finite(x, flag)


def _disk_point(text: str, flag: str) -> complex:
    """The point RE or RE,IM of the open unit disk that ``flag`` gives."""
    parts = text.split(",")
    if len(parts) > 2:
        raise SymbolFileError(f"{flag}: cannot parse complex value {text!r}; use RE or RE,IM")
    im = _number(parts[1], flag) if len(parts) == 2 else 0.0
    value = complex(_number(parts[0], flag), im)
    if abs(value) >= 1.0:
        raise SymbolFileError(f"{flag}: {value!r} is not in the open unit disk")
    return value


def _times(values, where) -> list:
    """The finite nonnegative, pairwise distinct sample times ``values``;
    ``where(i)`` names the i-th in a diagnostic.  Times within ``TIME_TOL``
    of each other are one time to a sample, so a repeat is refused."""
    times = []
    for i, value in enumerate(values):
        t = _finite(value, where(i))
        if t < 0.0:
            raise SymbolFileError(f"{where(i)}: {t!r} is not a finite nonnegative time")
        for u in times:
            if math.isclose(t, u, rel_tol=0.0, abs_tol=TIME_TOL):
                raise SymbolFileError(f"{where(i)}: {t!r} repeats the time {u!r}")
        times.append(t)
    return times


def _parse_times(text: str):
    times = _times([_number(t, "--times") for t in text.split(",") if t.strip() != ""],
                   lambda i: "--times")
    if not times:
        raise SymbolFileError("--times: at least one time required")
    return times


def _emit(doc: dict, args) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        rows = csv.writer(buf, lineterminator="\n")
        rows.writerow(["key", "value"])

        def flatten(prefix, val):
            if isinstance(val, dict):
                for k in sorted(val):
                    flatten(f"{prefix}.{k}" if prefix else str(k), val[k])
            elif isinstance(val, (list, tuple)):
                for i, v in enumerate(val):
                    flatten(f"{prefix}[{i}]", v)
            else:
                rows.writerow([prefix, str(val)])

        flatten("", _jsonable(doc))
        text = buf.getvalue()
    else:
        text = json_dumps(doc)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise SymbolFileError(f"--out: {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _config(args, parsed) -> dict:
    return {
        "input_hash": parsed.get("hash"),
        "n": args.n,
        "tol": args.tol,
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


def _law_pairs(times):
    tset = list(times)
    pairs = []
    for i, t in enumerate(tset):
        for s in tset[i:]:
            if t > 0 and s > 0 and any(abs(t + s - u) < TIME_TOL for u in tset):
                pairs.append((t, s))
    return pairs


def _law_records(sample, tol: float) -> list:
    """The law record of ``sample``, or none if no t + s is among its times."""
    pairs = _law_pairs(sample.times)
    return [check_semigroup_law(sample, pairs, tol)] if pairs else []


def _sample_records(sample, args):
    records = _law_records(sample, args.tol)
    records.append(check_isometry(sample, max(args.tol, ISOMETRY_TOL_FLOOR)))
    records.append(check_noncompactness_proxy(sample, max(args.tol, ISOMETRY_TOL_FLOOR)))
    if len([t for t in sample.times if t > 0]) >= 2:
        records.append(check_strong_continuity(sample, 1.0))
    return records


def _checked(records, times, field: str):
    """``records``, unless none of them applies: a run that checked nothing
    is no pass, so it is refused as malformed ``field``."""
    if not any(r.applicable for r in records):
        raise SymbolFileError(
            f"{field}: no check applies at the times {times}; "
            "the semigroup law needs t, s > 0 with t + s among them"
        )
    return records


def _run(args):
    """The parsed ``--input``, its report, the semigroup sampled at ``--times``
    and the sample's records, or NoConstruction."""
    parsed = load_symbol_file(args.input)
    report = _analyze(parsed, args)
    times = _parse_times(args.times)
    if report.semigroup is None:
        raise NoConstruction(report.governing_result)
    sample = report.semigroup.sample(times, args.n)
    return parsed, report, sample, _checked(_sample_records(sample, args), sample.times, "--times")


def cmd_semigroup(args) -> int:
    parsed, report, sample, records = _run(args)
    outdir = Path(args.out or "h2embed-semigroup-out")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SymbolFileError(f"--out: {outdir}: {exc.strerror or exc}") from exc
    matrix_files = [f"matrix_{i:02d}.csv" for i in range(len(sample.operators))]
    for name, op in zip(matrix_files, sample.operators):
        dump_matrix_csv(outdir / name, op)
    trajectory_file = None
    if report.semigroup.descriptor is not None:
        grid = 0.6 * np.exp(2j * np.pi * np.arange(8) / 8)
        rows = ["t,re_z,im_z,re_val,im_val"]
        for t in sample.times:
            sym = report.semigroup.at(t)
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


def _blaschke_symbol(parsed, command: str) -> BlaschkeProduct:
    """The Blaschke symbol, or Blaschke part of a Toeplitz symbol, of a file."""
    sym = parsed["symbol"].blaschke if parsed["kind"] == "toeplitz" else parsed["symbol"]
    if not isinstance(sym, BlaschkeProduct):
        raise SymbolFileError(f"{command} needs a Blaschke product symbol")
    return sym


def cmd_solve(args) -> int:
    parsed = load_symbol_file(args.input)
    sym = _blaschke_symbol(parsed, "solve")
    beta = _disk_point(args.beta, "--beta")
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
    sym = _blaschke_symbol(parsed, "frostman")
    lam = _disk_point(args.lam, "--lam")
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
    report = decide_composition(parsed["symbol"], tol=args.tol)
    if not isinstance(report.semigroup, WoldShiftFlow):
        raise NoConstruction(f"{report.governing_result}: no Wold/shift construction")
    wold = wold_decompose(report.semigroup.fixing_origin(), args.n)
    rows = np.arange(args.n)
    levels = [[rows[keep].tolist() for keep in np.abs(basis.T) > _SUPPORT_TOL]
              for basis in wold.levels]
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
    """The sample a ``semigroup`` run wrote to ``path``.  ``meta.json`` is
    held to the rules of symbol files and flags: ``dim`` is a positive
    integer (a sample with no rows has nothing to check), ``times`` is a
    nonempty list of finite nonnegative, distinct times (as for --times),
    numbers and not strings, ``matrices`` is a list of file names, and
    ``construction`` and ``isometric``, when present, are a string and true
    or false.  Each operator is held as :func:`load_matrix_csv` reads it."""
    meta_path = path / "meta.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        dim, times, names = meta["dim"], meta["times"], meta["matrices"]
    except (OSError, UnicodeDecodeError) as exc:  # a missing, unreadable or non-UTF-8 file
        raise SymbolFileError(f"{meta_path}: {getattr(exc, 'strerror', None) or exc}") from exc
    except json.JSONDecodeError as exc:
        raise SymbolFileError(
            f"{meta_path}, line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (KeyError, TypeError) as exc:
        raise SymbolFileError(f"{meta_path}: needs dim, times and matrices ({exc!r})") from exc
    dim = _count(dim, f"{meta_path}: dim")
    if dim == 0:
        raise SymbolFileError(f"{meta_path}: dim: 0 is not a positive integer")
    if not isinstance(times, list) or not times or not isinstance(names, list):
        raise SymbolFileError(f"{meta_path}: times and matrices are lists, times nonempty")
    times = _times(times, lambda i: f"{meta_path}: times[{i}]")
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise SymbolFileError(f"{meta_path}: matrices[{i}]: {name!r} is not a string")
    construction = meta.get("construction", "loaded")
    if not isinstance(construction, str):
        raise SymbolFileError(f"{meta_path}: construction: {construction!r} is not a string")
    isometric = meta.get("isometric", False)
    if not isinstance(isometric, bool):
        raise SymbolFileError(f"{meta_path}: isometric: {isometric!r} is not true or false")
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
        construction=construction,
        dim=dim,
        isometric=isometric,
    )


def cmd_verify(args) -> int:
    if args.sample is not None:
        sample = _load_sample_dir(Path(args.sample))
        records = _law_records(sample, args.tol)
        if sample.isometric and sample.construction != "wold-shift":
            records.append(check_isometry(sample, max(args.tol, ISOMETRY_TOL_FLOOR)))
        records = _checked(records, sample.times, f"{Path(args.sample) / 'meta.json'}: times")
        config = {"sample": args.sample, "tol": args.tol}
    else:
        parsed, _, _, records = _run(args)
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

    def options(p):
        p.add_argument("--n", type=int, default=32, help="truncation order (>= 4)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="tolerance")
        p.add_argument("--out", default=None, help="output path (stdout by default)")
        p.add_argument(
            "--format", choices=("report-doc", "csv"), default="report-doc"
        )

    def common(p):
        p.add_argument("--input", required=True, help="symbol file (JSON)")
        options(p)

    def command(name, help_text, handler):
        # No abbreviated flags: a prefix such as --h must not resolve to --help.
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(handler=handler)
        return p

    common(command("analyze", "embeddability verdict for a symbol file", cmd_analyze))

    p = command("semigroup", "sample the constructed semigroup", cmd_semigroup)
    common(p)
    p.add_argument("--times", default="0,0.5,1", help="comma-separated times")

    p = command("solve", "preimages of beta under the Blaschke symbol", cmd_solve)
    common(p)
    p.add_argument("--beta", required=True, help="target value RE or RE,IM")

    p = command("frostman", "Frostman transform of the Blaschke symbol", cmd_frostman)
    common(p)
    p.add_argument("--lam", required=True, help="parameter RE or RE,IM")

    common(command("wold", "Wold decomposition of a composition symbol", cmd_wold))

    p = command("verify", "run the property checks", cmd_verify)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="symbol file (JSON)")
    source.add_argument("--sample", help="verify a stored sample directory")
    options(p)
    p.add_argument("--times", default="0,0.25,0.5,0.75,1", help="comma-separated times")

    return parser


_PARSER = build_parser()
_COMPLEX_FLAGS = ("--beta", "--lam")
_LEADING = tuple("0123456789.")


def _attach_complex_values(argv) -> list:
    """``argv`` with ``--beta V`` and ``--lam V`` spelt ``--beta=V`` when V
    starts with '-' and a digit or '.': argparse reads a separate value
    such as -0.2,-0.5 as an unknown option (only a plain negative number
    passes), and no option of this parser starts that way."""
    out = []
    for token in argv:
        if out and out[-1] in _COMPLEX_FLAGS and token[:1] == "-" and token[1:2] in _LEADING:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _PARSER.parse_args(_attach_complex_values(argv))
    if args.n < 4:
        print("error: --n must be at least 4", file=sys.stderr)
        return EXIT_PARSE
    try:
        if not (math.isfinite(args.tol) and args.tol >= 0.0):
            raise SymbolFileError(f"--tol: {args.tol!r} is not a finite nonnegative number")
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
