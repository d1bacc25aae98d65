"""Symbol files, matrix dumps and report documents.

Symbol files are JSON.  Complex numbers are {"re": x, "im": y} objects;
singular-measure atoms are given by angle (radians) and mass so that the
atom location is on the unit circle bit-exactly.  The top-level "kind"
selects the analysis route:

    {"kind": "toeplitz",
     "blaschke": {"rotation": 0.0, "origin_order": 1,
                  "zeros": [{"re": 0.5, "im": 0.0, "mult": 1}]} | null,
     "singular": {"atoms": [{"angle": 0.0, "mass": 1.0}]} | null,
     "outer": {"constant": {"re": 1.0, "im": 0.0},
               "conjugate_factors": [{"re": ..., "im": ...}],
               "exterior_zeros": [{"re": ..., "im": ...}]} | null,
     "declared_infinite_blaschke": false}

    {"kind": "composition", "blaschke": ... | "singular": ... | "mobius": ...}

    {"kind": "polynomial", "polynomial": {"coeffs": [{"re": ..., "im": ...}, ...]}}

    {"kind": "mobius", "mobius": {"a": {...}, "b": {...}, "c": {...}, "d": {...}}}

Operator files come in two formats, told apart by their header line, and
sit next to a sidecar metadata document (dimension, times, symbol hash,
tolerance).  Lines end in ``\r\n``.

    re_ij,im_ij         a dense dim x dim matrix: dim**2 lines ``re,im``,
    0.5,0.0             the entries row-major, each part written as the
    ...                 ``repr`` of its float so that it reads back bit-exactly

    src                 a row-gather operator (the shifts of a Wold/shift
    0                   sample): dim integer lines; row i of V x is row
    -1                  ``src[i]`` of x, and 0 where ``src[i]`` is -1
    ...

A :class:`LowerToeplitz` operator (every multiplication-flow operator,
and the identity at t = 0 of every flow) is written from the text of its
first column c_0, ..., c_{dim-1}: row i is the lines c_i, ..., c_0 and
then dim - 1 - i lines ``0.0,0.0``, each row a slice of one string, and the
file is byte for byte the dense file of its ``dense()``.  Any other matrix
(a linear-fractional operator at t > 0, whose entries are nearly all
distinct) is written entry by entry.

The reader recognises that layout as text, on lines that all end in
``\r\n`` or all in ``\n``: row 0 after its first line is ``0.0,0.0`` lines, and
each later row is its first-column line followed by the previous row
without its last line.  Such a file is read a row at a time, never whole,
only its dim first-column lines are parsed, and it comes back as the
:class:`LowerToeplitz` operator.  Since every part is written as the
``repr`` of its float, equal text is equal bits there, and ``0.0,0.0`` is
+0.0; a file spelt otherwise (``0.50`` for ``0.5`` in one place, a line
ending that differs from the others) comes back as the dense matrix it
spells.  Any other dense file is checked and parsed whole, in one pass over
its lines.  Entries must be finite: a NaN or infinite part is refused,
naming the first line that holds one, as a symbol file refuses a non-finite
number.

A JSON number must be a number: true, false and strings such as ``"0.5"``
are refused where a symbol file or ``meta.json`` gives a number.

Report documents are, byte for byte, the text that ``json.dumps`` gives
for ``_jsonable(doc)`` with ``sort_keys`` and an ``indent`` of 2, plus a
final newline: keys sorted, two-space indentation, ASCII-only strings,
floats as their ``repr`` (NaN, Infinity and -Infinity as the json module
writes them).  ``json_dumps`` writes that text itself rather than
calling ``json.dumps``, because any ``indent`` sends ``json.dumps`` to
its pure-Python encoder; the writer covers only the types ``_jsonable``
returns, writes a list of ints in one join, and leaves strings to the
json module's C escaper.  Anything else raises ``TypeError``, as
``json.dumps`` does.
"""
from __future__ import annotations

import hashlib
import json
import math
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

import numpy as np

from .errors import DegenerateMap
from .operators import LowerToeplitz
from .polynomials import Polynomial
from .symbols import (
    BlaschkeProduct,
    FactoredSymbol,
    MobiusMap,
    RationalOuter,
    SingularInner,
)

__all__ = [
    "SymbolFileError",
    "load_symbol_file",
    "parse_symbol_document",
    "symbol_hash",
    "dump_matrix_csv",
    "load_matrix_csv",
    "report_document",
    "json_dumps",
]

MATRIX_HEADER = "re_ij,im_ij"
INDEX_HEADER = "src"
ZERO = "0.0,0.0"  # the line of +0.0, above the diagonal of a Toeplitz file


class SymbolFileError(ValueError):
    """Malformed symbol file; the message carries a field diagnostic."""


def _finite(value, where: str) -> float:
    """The number at ``where``; refuses the NaN and Infinity literals that
    Python's json module accepts, true and false, which ``float`` would
    read as 1 and 0, and strings, which ``float`` would parse."""
    if isinstance(value, (bool, str)):
        shown = repr(value) if isinstance(value, str) else json.dumps(value)
        raise SymbolFileError(f"{where}: {shown} is not a number")
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:  # an int beyond any float overflows
        raise SymbolFileError(f"{where}: {exc}") from exc
    if not math.isfinite(x):
        raise SymbolFileError(f"{where}: {x!r} is not a finite number")
    return x


def _count(value, where: str) -> int:
    """The non-negative integer at ``where``; a fractional value is refused,
    not truncated."""
    x = _finite(value, where)
    if x < 0 or not x.is_integer():
        raise SymbolFileError(f"{where}: {value!r} is not a non-negative integer")
    return int(x)


def _list(obj: dict, key: str, where: str) -> list:
    """The list at ``where``.``key``; an absent key is the empty list."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise SymbolFileError(f"{where}.{key}: {value!r} is not a list")
    return value


def _complex_from(obj, where: str) -> complex:
    if not isinstance(obj, dict) or set(obj) - {"re", "im"}:
        raise SymbolFileError(f"{where}: complex numbers are {{'re': x, 'im': y}} objects")
    return complex(
        _finite(obj.get("re", 0.0), f"{where}.re"), _finite(obj.get("im", 0.0), f"{where}.im")
    )


def _blaschke_from(obj, where: str) -> BlaschkeProduct:
    if not isinstance(obj, dict):
        raise SymbolFileError(f"{where}: expected an object")
    zeros = []
    for i, z in enumerate(_list(obj, "zeros", where)):
        if not isinstance(z, dict) or "mult" not in z:
            raise SymbolFileError(f"{where}.zeros[{i}]: expected re/im/mult fields")
        at = f"{where}.zeros[{i}]"
        alpha = _complex_from({"re": z.get("re", 0.0), "im": z.get("im", 0.0)}, at)
        zeros.append((alpha, _count(z["mult"], f"{at}.mult")))
    rotation = _finite(obj.get("rotation", 0.0), f"{where}.rotation")
    origin_order = _count(obj.get("origin_order", 0), f"{where}.origin_order")
    try:
        return BlaschkeProduct(rotation=rotation, origin_order=origin_order, zeros=zeros)
    except ValueError as exc:
        raise SymbolFileError(f"{where}: {exc}") from exc


def _singular_from(obj, where: str) -> SingularInner:
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise SymbolFileError(f"{where}: expected an object with an 'atoms' list")
    pairs = []
    for i, atom in enumerate(_list(obj, "atoms", where)):
        if not isinstance(atom, dict) or set(atom) != {"angle", "mass"}:
            raise SymbolFileError(
                f"{where}.atoms[{i}]: atoms are given by angle and mass only "
                "(locations must be on the unit circle bit-exactly)"
            )
        pairs.append((_finite(atom["angle"], f"{where}.atoms[{i}].angle"),
                      _finite(atom["mass"], f"{where}.atoms[{i}].mass")))
    try:
        return SingularInner.from_angles(pairs)
    except ValueError as exc:
        raise SymbolFileError(f"{where}: {exc}") from exc


def _outer_from(obj, where: str) -> RationalOuter:
    if not isinstance(obj, dict):
        raise SymbolFileError(f"{where}: expected an object")
    constant = _complex_from(obj.get("constant", {"re": 1.0, "im": 0.0}), f"{where}.constant")
    conjugate_factors = [
        _complex_from(c, f"{where}.conjugate_factors[{i}]")
        for i, c in enumerate(_list(obj, "conjugate_factors", where))
    ]
    exterior_zeros = [
        _complex_from(c, f"{where}.exterior_zeros[{i}]")
        for i, c in enumerate(_list(obj, "exterior_zeros", where))
    ]
    try:
        return RationalOuter(
            constant=constant, conjugate_factors=conjugate_factors, exterior_zeros=exterior_zeros
        )
    except ValueError as exc:
        raise SymbolFileError(f"{where}: {exc}") from exc


def _check_self_map(m: MobiusMap, where: str) -> None:
    """Raise unless z -> (az + b)/(cz + d) maps the disk into itself:
    |b d̄ - a c̄| + |ad - bc| <= |d|^2 - |c|^2 (Cowen-MacCluer 1995).

    Automorphisms meet the criterion with equality, so the test allows the
    rounding of both sides.  With u = eps/2, P = (|a| + |b|)(|c| + |d|) and
    Q = |c|^2 + |d|^2, to first order in u: reading each coefficient from
    decimal moves the left side by at most 2uP and the right by 2uQ;
    evaluating the left side costs sqrt(5)u per complex product
    (Brent-Percival-Zimmermann 2007), u per difference, 2u per modulus and
    u for the sum, at most 7uP; the right side's squares, difference and
    the addition of the slack cost at most 4uQ.  Hence the slack 9u(P + Q).
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    centre, radius, d2, c2 = m.circle_image()
    lhs, rhs = centre + radius, d2 - c2
    slack = 4.5 * np.finfo(float).eps * ((abs(a) + abs(b)) * (abs(c) + abs(d)) + c2 + d2)
    if not lhs <= rhs + slack:  # NaN fails too
        raise SymbolFileError(
            f"{where}: not a self-map of the disk: |b conj(d) - a conj(c)| + |ad - bc| = "
            f"{lhs!r} exceeds |d|^2 - |c|^2 = {rhs!r}"
        )


def _mobius_from(obj, where: str) -> MobiusMap:
    if not isinstance(obj, dict) or set(obj) != {"a", "b", "c", "d"}:
        raise SymbolFileError(f"{where}: expected an object with fields a, b, c, d")
    try:
        m = MobiusMap(*(_complex_from(obj[k], f"{where}.{k}") for k in "abcd"))
    except DegenerateMap as exc:
        raise SymbolFileError(f"{where}: {exc}") from exc
    _check_self_map(m, where)
    return m


def parse_symbol_document(doc: dict) -> dict:
    """Validate a parsed symbol document; returns kind plus symbol objects."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SymbolFileError("top level: expected an object with a 'kind' field")
    kind = doc["kind"]
    out = {"kind": kind}
    if kind == "toeplitz":
        blaschke = _blaschke_from(doc["blaschke"], "blaschke") if doc.get("blaschke") else None
        singular = _singular_from(doc["singular"], "singular") if doc.get("singular") else None
        outer = _outer_from(doc["outer"], "outer") if doc.get("outer") else None
        out["symbol"] = FactoredSymbol(blaschke=blaschke, singular=singular, outer=outer)
        declared = doc.get("declared_infinite_blaschke", False)
        if not isinstance(declared, bool):
            raise SymbolFileError(f"declared_infinite_blaschke: {declared!r} is not true or false")
        out["declared_infinite_blaschke"] = declared
    elif kind == "composition":
        given = [k for k in ("blaschke", "singular", "mobius") if doc.get(k)]
        if len(given) != 1:
            raise SymbolFileError(
                "composition symbols give exactly one of blaschke, singular, mobius"
            )
        k = given[0]
        parser = {"blaschke": _blaschke_from, "singular": _singular_from, "mobius": _mobius_from}[k]
        out["symbol"] = parser(doc[k], k)
    elif kind == "polynomial":
        body = doc.get("polynomial")
        if not isinstance(body, dict) or "coeffs" not in body:
            raise SymbolFileError("polynomial: expected an object with a 'coeffs' list")
        coeffs = [
            _complex_from(c, f"polynomial.coeffs[{i}]")
            for i, c in enumerate(_list(body, "coeffs", "polynomial"))
        ]
        out["symbol"] = Polynomial(coeffs)
    elif kind == "mobius":
        out["symbol"] = _mobius_from(doc.get("mobius"), "mobius")
    else:
        raise SymbolFileError(
            f"kind: {kind!r} is not one of toeplitz, composition, polynomial, mobius"
        )
    return out


def load_symbol_file(path) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a missing, unreadable or non-UTF-8 file
        raise SymbolFileError(f"--input: {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SymbolFileError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    parsed = parse_symbol_document(doc)
    parsed["hash"] = symbol_hash(raw)
    return parsed


def symbol_hash(raw_text: str) -> str:
    return hashlib.sha256(raw_text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------------
# matrices and reports
# --------------------------------------------------------------------------


def _entry_text(values: np.ndarray) -> list:
    """The ``re,im`` line of each complex value, each part the ``repr`` of
    its float."""
    return [f"{re!r},{im!r}" for re, im in zip(values.real.tolist(), values.imag.tolist())]


def _toeplitz_text(column: list) -> str:
    """The body of the dense file of the lower-triangular Toeplitz matrix
    whose first-column lines are ``column``: row i is c_i, ..., c_0 and
    n - 1 - i zero lines, a slice of the one string c_{n-1}, ..., c_0
    followed by n - 1 zero lines."""
    n = len(column)
    head = "".join(f"{c}\r\n" for c in reversed(column))
    whole = head + f"{ZERO}\r\n" * (n - 1)
    rows, start = [], len(head)
    for i, c in enumerate(column):
        start -= len(c) + 2  # where c_i starts
        rows.append(whole[start : len(head) + (len(ZERO) + 2) * (n - 1 - i)])
    return "".join(rows)


def dump_matrix_csv(path, matrix):
    """Write an operator file: an index file for a 1-D row-gather array, a
    dense ``re_ij,im_ij`` file for a matrix, written entry by entry, or for a
    :class:`LowerToeplitz` operator, built from the text of its first column
    (the bytes of the dense file of its ``dense()``)."""
    if isinstance(matrix, LowerToeplitz):
        text = f"{MATRIX_HEADER}\r\n" + _toeplitz_text(_entry_text(matrix.column))
    elif np.ndim(matrix) == 1:
        text = "\r\n".join([INDEX_HEADER, *map(str, np.asarray(matrix).tolist())]) + "\r\n"
    else:
        entries = _entry_text(np.asarray(matrix, dtype=complex).ravel(order="C"))
        text = "\r\n".join([MATRIX_HEADER, *entries]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _bad_line(path, body, parse) -> SymbolFileError:
    """The error for the first body line that ``parse`` rejects."""
    for lineno, line in enumerate(body, start=2):
        try:
            parse(line)
        except (ValueError, OverflowError) as exc:
            return SymbolFileError(f"{path}, line {lineno}: {exc}")
    return SymbolFileError(f"{path}: unreadable entries")


def _two_finite_floats(line: str):
    fields = line.split(",")
    if len(fields) != 2:
        raise ValueError(f"expected 2 fields 're,im', found {len(fields)}")
    for v in fields:
        if not math.isfinite(x := float(v)):
            raise ValueError(f"{x!r} is not a finite number")


def _values(lines):
    """The complex values of the ``re,im`` texts ``lines``, or None when
    one of them is not two finite numbers."""
    if any(line.count(",") != 1 for line in lines):
        return None
    try:
        values = np.array(",".join(lines).split(",") if lines else [], dtype=float)
    except ValueError:
        return None
    return values.view(complex) if np.isfinite(values).all() else None


def _toeplitz_file(path):
    """The :class:`LowerToeplitz` operator whose dense file, with its lines
    ending all in ``\r\n`` or all in ``\n``, is the file at ``path``; else
    None.
    The lines are counted a block at a time and then read a row at a time,
    so the file is never held whole: row 0 after its first line must be
    zero lines, and each later row its first-column line followed by the
    previous row without its last line.  Only the n first-column lines are
    parsed; when one of them is not two finite numbers, None leaves the
    dense reader to name the first bad line."""
    with open(path, "rb") as fh:
        header = fh.readline()
        end = header.removeprefix(MATRIX_HEADER.encode())
        if end not in (b"\r\n", b"\n"):
            return None
        start, lines, last = fh.tell(), 0, b"\n"
        while block := fh.read(1 << 16):
            lines += int(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n")))
            last = block[-1:]
        lines += last != b"\n"  # a last line without its line end
        n = math.isqrt(lines)
        if n == 0 or n * n != lines:
            return None
        fh.seek(start)
        zero = ZERO.encode() + end
        column, rest = [], zero * (n - 1)
        for _ in range(n):
            column.append(fh.readline())
            got = fh.read(len(rest))
            if got != rest and got + end != rest:  # the last line may lack its end
                return None
            rest = (column[-1] + rest)[: -len(zero)]
    try:
        texts = b"".join(column).decode().splitlines()
    except UnicodeDecodeError:  # the dense reader gives the error of the whole file
        return None
    # a line that str.splitlines splits further (at \r, \v, \f, \x1c-\x1e,
    # \x85, \u2028 or \u2029) is more than one line to the dense reader
    values = _values(texts) if len(texts) == n else None
    return None if values is None else LowerToeplitz(values)


def load_matrix_csv(path):
    """Read an operator file: a :class:`LowerToeplitz` operator for a dense
    file that spells one out as ``dump_matrix_csv`` writes it, the complex
    ``dim x dim`` matrix of any other dense file, or the ``np.intp`` array
    ``src`` of an index file."""
    try:
        toeplitz = _toeplitz_file(path)
        if toeplitz is not None:
            return toeplitz
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:  # a missing, unreadable or non-UTF-8 file
        raise SymbolFileError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    header, body = (lines[0], lines[1:]) if lines else (None, [])
    if header == INDEX_HEADER:
        try:
            src = np.array(body, dtype=np.intp)
        except (ValueError, OverflowError):
            raise _bad_line(path, body, lambda v: np.intp(int(v))) from None
        outside = np.flatnonzero((src < -1) | (src >= src.size))
        if outside.size:
            k = int(outside[0])
            raise SymbolFileError(
                f"{path}, line {k + 2}: src entry {src[k]} is outside [-1, {src.size})"
            )
        return src
    if header != MATRIX_HEADER:
        raise SymbolFileError(
            f"{path}: missing the '{MATRIX_HEADER}' or '{INDEX_HEADER}' header"
        )
    flat = _values(body)
    if flat is None:
        raise _bad_line(path, body, _two_finite_floats)
    n = math.isqrt(flat.size)
    if n * n != flat.size:
        raise SymbolFileError(f"{path}: {flat.size} entries do not form a square matrix")
    return flat.reshape(n, n)


def _jsonable(value):
    """``value`` as the JSON types: dicts with str keys, lists, str, int,
    float, bool and None.  Complex numbers become {"re", "im"} objects and an
    infinite float the string "infinity"; a list of plain ints is returned
    as it is."""
    if value is None or isinstance(value, (int, str)):  # bool is an int
        return value
    if type(value) is list and set(map(type, value)) == {int}:
        return value
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, (np.complexfloating,)):
        return _jsonable(complex(value))
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, float) and math.isinf(value):
        return "infinity"
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _write(value, pad: str, out: list) -> None:
    """Append to ``out`` the JSON text of ``value``, a value ``_jsonable``
    returned, as ``json.dumps`` with ``sort_keys`` and an ``indent`` of 2
    lays it out at the indentation ``pad``."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True or value is False:
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            out.append(sep + _encode_str(key) + ": ")
            _write(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        if set(map(type, value)) == {int}:
            out.append("[\n" + inner + (",\n" + inner).join(map(int.__repr__, value)))
        else:
            sep = "[\n" + inner
            for item in value:
                out.append(sep)
                _write(item, inner, out)
                sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_dumps(obj) -> str:
    """The report document of ``obj`` (see the module docstring)."""
    out = []
    _write(_jsonable(obj), "", out)
    out.append("\n")
    return "".join(out)


def report_document(report, *, config: dict | None = None) -> dict:
    """Serialisable form of an embeddability report."""
    doc = {
        "verdict": report.verdict.value,
        "governing_result": report.governing_result,
        "notes": list(report.notes),
        "details": report.details,
        "semigroup": None if report.semigroup is None else report.semigroup.descriptor,
    }
    if config:
        doc["config"] = config
    return doc


def record_document(record) -> dict:
    return {
        "check": record.name,
        "max_defect": record.max_defect,
        "threshold": record.threshold,
        "passed": bool(record.passed),
        "applicable": bool(record.applicable),
        "witnesses": [[str(label), defect] for label, defect in record.witnesses],
        "details": record.details,
    }
