"""Dense operator files: the writer and the reader give the bytes and values
of per-entry code (kept below as references).  Lower-triangular Toeplitz
files are written from, and read back as, their first column, and give what
``reference_load`` gives: an earlier reader, kept as the reference reader,
that checks and parses each distinct line once, builds the dense matrix and
then tests it for the Toeplitz layout bit for bit.
Report documents: ``json_dumps`` gives the bytes of
``json.dumps(..., sort_keys=True, indent=2)``.
Symbol hashes: ``symbol_hash`` gives the first 16 hex digits of hashlib's
SHA-256 of the UTF-8 text."""
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from h2embed.fileio import (
    MATRIX_HEADER,
    SymbolFileError,
    _jsonable,
    dump_matrix_csv,
    json_dumps,
    load_matrix_csv,
    load_symbol_file,
    symbol_hash,
)
from h2embed.operators import LowerToeplitz


def per_entry_dump(path, matrix):
    """Reference writer: the ``repr`` of both parts of every entry."""
    flat = np.asarray(matrix, dtype=complex).ravel(order="C")
    lines = [MATRIX_HEADER]
    lines += [f"{re!r},{im!r}" for re, im in zip(flat.real.tolist(), flat.imag.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def per_entry_load(path):
    """Reference reader for a well-formed dense file: ``float`` of every part."""
    with open(path, newline="") as fh:
        body = fh.read().splitlines()[1:]
    flat = np.array([float(v) for line in body for v in line.split(",")]).view(complex)
    n = math.isqrt(flat.size)
    return flat.reshape(n, n)


def reference_load(path):
    """Reference reader of a dense file: each distinct line checked and
    parsed once, the matrix built, and held as the :class:`LowerToeplitz`
    operator of its first column when it is a lower-triangular Toeplitz
    matrix with a row, bit for bit (-0.0 and +0.0 told apart).  An error
    gives its message."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == MATRIX_HEADER
    body = lines[1:]

    def bad_line():
        for lineno, line in enumerate(body, start=2):
            fields = line.split(",")
            if len(fields) != 2:
                return f"{path}, line {lineno}: expected 2 fields 're,im', found {len(fields)}"
            for v in fields:
                try:
                    x = float(v)
                except ValueError as exc:
                    return f"{path}, line {lineno}: {exc}"
                if not math.isfinite(x):
                    return f"{path}, line {lineno}: {x!r} is not a finite number"
        return f"{path}: unreadable entries"

    position = {}
    index = [position.setdefault(line, len(position)) for line in body]
    if any(line.count(",") != 1 for line in position):
        return bad_line()
    try:
        values = np.array(",".join(position).split(",") if position else [], dtype=float)
    except ValueError:
        return bad_line()
    if not np.isfinite(values).all():
        return bad_line()
    flat = values.view(complex)[np.array(index, dtype=np.intp)]
    n = math.isqrt(flat.size)
    if n * n != flat.size:
        return f"{path}: {flat.size} entries do not form a square matrix"
    matrix = flat.reshape(n, n)
    bits = matrix.view(np.uint64)  # (re, im) of each entry
    if n and (bits[0, 2:] == 0).all() and (bits[1:, 2:] == bits[:-1, :-2]).all():
        return LowerToeplitz(matrix[:, 0].copy())
    return matrix


def read(path):
    """What ``load_matrix_csv`` gives for ``path``, or its error message."""
    try:
        return load_matrix_csv(path)
    except SymbolFileError as exc:
        return str(exc)


THIRD = 1.0 / 3.0
FINITE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, THIRD, -THIRD]


def matrices(parts):
    """Square complex matrices whose parts come from a small pool, so that
    most entries repeat."""
    entry = st.builds(complex, st.sampled_from(parts), st.sampled_from(parts))
    return st.integers(0, 6).flatmap(
        lambda n: st.lists(entry, min_size=n * n, max_size=n * n).map(
            lambda xs: np.array(xs, dtype=complex).reshape(n, n)
        )
    )


@settings(max_examples=200, deadline=None)
@given(matrices(FINITE_PARTS + [math.inf, -math.inf]))
def test_writer_gives_the_bytes_of_the_per_entry_writer(tmp_path_factory, matrix):
    where = tmp_path_factory.mktemp("csv")
    dump_matrix_csv(where / "new.csv", matrix)
    per_entry_dump(where / "ref.csv", matrix)
    assert (where / "new.csv").read_bytes() == (where / "ref.csv").read_bytes()


# every entry and every part distinct: no line of its file repeats
ALL_DISTINCT = ((np.arange(1024) - 511.5) / 7 + 1j / (np.arange(1024) + 1.5)).reshape(32, 32)


@settings(max_examples=200, deadline=None)
@given(matrices(FINITE_PARTS))
@example(ALL_DISTINCT)
def test_reader_reads_back_bit_exactly(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    dump_matrix_csv(path, matrix)
    back = load_matrix_csv(path)
    # a matrix that is lower-triangular Toeplitz bit for bit (each 1 x 1 one,
    # for instance) comes back as the operator of its first column
    assert type(back) is type(reference_load(path))
    if isinstance(back, LowerToeplitz):
        back = back.dense()
    assert back.dtype == complex and back.shape == matrix.shape
    assert back.tobytes() == matrix.tobytes() == per_entry_load(path).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(complex, st.sampled_from(FINITE_PARTS), st.sampled_from(FINITE_PARTS)),
                min_size=1, max_size=12))
def test_toeplitz_writer_gives_the_bytes_of_its_dense_matrix(tmp_path_factory, column):
    where = tmp_path_factory.mktemp("csv")
    op = LowerToeplitz(column)
    dump_matrix_csv(where / "op.csv", op)
    per_entry_dump(where / "ref.csv", op.dense())
    assert (where / "op.csv").read_bytes() == (where / "ref.csv").read_bytes()


def _columns(sizes):
    entry = st.builds(complex, st.sampled_from(FINITE_PARTS), st.sampled_from(FINITE_PARTS))
    return sizes.flatmap(lambda n: st.lists(entry, min_size=n, max_size=n))


@seed(30)
@settings(max_examples=150, deadline=None)
@given(_columns(st.integers(1, 40)))
@example([complex(FINITE_PARTS[k % 8], FINITE_PARTS[k * 5 % 8]) for k in range(128)])
def test_toeplitz_file_is_the_dense_file_and_reads_back_its_column(tmp_path_factory, column):
    where = tmp_path_factory.mktemp("csv")
    op = LowerToeplitz(column)
    dump_matrix_csv(where / "op.csv", op)
    per_entry_dump(where / "ref.csv", op.dense())
    assert (where / "op.csv").read_bytes() == (where / "ref.csv").read_bytes()
    back = load_matrix_csv(where / "op.csv")
    assert isinstance(back, LowerToeplitz)
    assert back.column.dtype == complex and back.column.tobytes() == op.column.tobytes()


MUTATION_COLUMN = [complex(0.5, -0.25), complex(-0.0, 5e-324), complex(THIRD, 1e308),
                   complex(-1.5, 0.0), complex(0.0, -THIRD), complex(2.0, 0.5)]


def _at(i, j, n=len(MUTATION_COLUMN)):
    """The index of entry (i, j) in the list of a file's lines."""
    return 1 + i * n + j


def _edit(*places, old=None, new):
    """Replace the line (or, with ``old``, the text ``old`` in the line) at
    each place."""
    def edit(lines):
        for i, j in places:
            k = _at(i, j)
            lines[k] = new if old is None else lines[k].replace(old, new)
        return "\r\n".join(lines) + "\r\n"
    return edit


def _copies(k):
    """The places of the k-th first-column entry: (k, 0), (k + 1, 1), ..."""
    return [(k + d, d) for d in range(len(MUTATION_COLUMN) - k)]


# name: (edit of the list of lines to the file's text, whether the reader now
# holds dense a file the oracle held as LowerToeplitz)
MUTATIONS = {
    "unchanged": (lambda lines: "\r\n".join(lines) + "\r\n", False),
    "first column": (_edit((3, 0), old="-1.5", new="-1.6"), False),
    "below the diagonal": (_edit((4, 1), old="-1.5", new="-1.4"), False),
    "above the diagonal": (_edit((1, 4), old="0.0,0.0", new="0.0,1.0"), False),
    "a first-column entry in every copy": (_edit(*_copies(3), old="-1.5", new="-1.6"), False),
    "-0.0 above the diagonal, row 0": (_edit((0, 3), new="-0.0,0.0"), False),
    "-0.0 above the diagonal, row 2": (_edit((2, 4), new="-0.0,0.0"), False),
    "0.50 for 0.5 in every copy": (_edit(*_copies(0), old="0.5,", new="0.50,"), False),
    "0.50 for 0.5 in one copy": (_edit((2, 2), old="0.5,", new="0.50,"), True),
    "0,0 for 0.0,0.0": (_edit((1, 3), new="0,0"), True),
    "LF endings": (lambda lines: "\n".join(lines) + "\n", False),
    "LF endings, no final LF": (lambda lines: "\n".join(lines), False),
    "no final CRLF": (lambda lines: "\r\n".join(lines), False),
    "one LF among CRLF": (lambda lines: "\r\n".join(lines[:9]) + "\n" + "\r\n".join(lines[9:]),
                          True),
    "CR endings": (lambda lines: "\r".join(lines) + "\r", True),
    "an extra blank line": (lambda lines: "\r\n".join(lines) + "\r\n\r\n", False),
    "a blank line inside": (lambda lines: "\r\n".join(lines[:5] + [""] + lines[5:]), False),
    "a line missing": (lambda lines: "\r\n".join(lines[:-1]) + "\r\n", False),
    "nan in the first column": (_edit((2, 0), new="nan,0.0"), False),
    "nan in every copy": (_edit(*_copies(2), new="nan,0.0"), False),
    "three fields": (_edit((4, 2), new="1.0,0.0,2.0"), False),
    "three fields in every copy": (_edit(*_copies(1), new="1.0,0.0,2.0"), False),
    "a vertical tab in every copy": (_edit(*_copies(1), new="1.0\v,0.0"), False),
    "two entries split by \\u2028 in every copy": (
        _edit(*_copies(1), new="1.0,0.0\u20282.0,0.0"), False),
    "a header only": (lambda lines: lines[0] + "\r\n", False),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutated_toeplitz_file_reads_as_the_reference_reader_reads_it(tmp_path, name):
    path = tmp_path / "op.csv"
    dump_matrix_csv(path, LowerToeplitz(MUTATION_COLUMN))
    edit, held_dense = MUTATIONS[name]
    text = edit(path.read_text(encoding="utf-8").splitlines())
    path.write_bytes(text.encode())
    got, want = read(path), reference_load(path)
    if isinstance(want, str):
        assert got == want
        return
    if held_dense:  # equal bits, spelt otherwise: held as the matrix it spells
        assert isinstance(want, LowerToeplitz) and isinstance(got, np.ndarray)
        want = want.dense()
    assert type(got) is type(want)
    if isinstance(got, LowerToeplitz):
        got, want = got.column, want.column
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 16])
def test_toeplitz_writer_of_e0_writes_the_identity(tmp_path, n):
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    dump_matrix_csv(tmp_path / "op.csv", LowerToeplitz(e0))
    dump_matrix_csv(tmp_path / "eye.csv", np.eye(n))
    assert (tmp_path / "op.csv").read_bytes() == (tmp_path / "eye.csv").read_bytes()


def test_a_transposed_view_is_written_row_major(tmp_path):
    matrix = np.arange(12, dtype=float).reshape(3, 4) - 1j * np.arange(12).reshape(3, 4)
    dump_matrix_csv(tmp_path / "new.csv", matrix[:3, :3].T)
    per_entry_dump(tmp_path / "ref.csv", matrix[:3, :3].T)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert np.array_equal(load_matrix_csv(tmp_path / "new.csv"), matrix[:3, :3].T)


def _identity_file(path, n=32):
    dump_matrix_csv(path, np.eye(n))
    return path.read_text().splitlines()


def _write_lines(path, lines):
    path.write_text("\r\n".join(lines) + "\r\n")


def test_first_bad_line_after_repeated_good_lines_is_named(tmp_path):
    """Lines 2-1025 of the identity file repeat two texts; the first bad
    line is 300, whose text comes back at 800, before a malformed line 900."""
    path = tmp_path / "m.csv"
    lines = _identity_file(path)
    assert len(set(lines[1:300])) == 2
    lines[299] = lines[799] = "nan,0.0"
    lines[899] = "1.0,abc"
    _write_lines(path, lines)
    with pytest.raises(SymbolFileError) as err:
        load_matrix_csv(path)
    assert str(err.value) == f"{path}, line 300: nan is not a finite number"


@pytest.mark.parametrize(
    "text, message",
    [("inf,0.0", "inf is not a finite number"), ("0.0,-inf", "-inf is not a finite number"),
     ("0.0,1e999", "inf is not a finite number"), ("NaN,0.0", "nan is not a finite number")],
)
def test_non_finite_entry_is_refused(tmp_path, text, message):
    path = tmp_path / "m.csv"
    lines = _identity_file(path, n=8)
    lines[40] = text
    _write_lines(path, lines)
    with pytest.raises(SymbolFileError) as err:
        load_matrix_csv(path)
    assert str(err.value) == f"{path}, line 41: {message}"


# Every code point, lone surrogates and control characters included.
TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, categories=None), max_size=6)
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308]
)
INTS = st.integers(-(2**200), 2**200)
SCALARS = (
    st.none()
    | st.booleans()
    | INTS
    | FLOATS
    | TEXT
    | st.builds(complex, FLOATS, FLOATS)
    | st.builds(np.float64, FLOATS)
    | st.builds(np.int64, st.integers(-(2**63), 2**63 - 1))
    | st.builds(np.complex128, st.builds(complex, FLOATS, FLOATS))
    | st.lists(INTS | st.booleans(), max_size=5)
    | st.lists(st.integers(-5, 5), min_size=1, max_size=6).map(np.array)
    | st.lists(FLOATS, max_size=4).map(lambda xs: np.array(xs, dtype=float))
    | st.lists(st.builds(complex, FLOATS, FLOATS), max_size=3).map(
        lambda xs: np.array(xs, dtype=complex).reshape(-1, 1)
    )
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(TEXT | INTS | FLOATS | st.booleans() | st.none(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(VALUES)
def test_report_writer_gives_the_bytes_of_json_dumps(value):
    assert json_dumps(value) == json.dumps(_jsonable(value), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [{"a": {1, 2}}, [1, object()], np.bool_(True), {"x": [np.datetime64("2024-01-01")]}],
    ids=["set", "object", "numpy-bool", "datetime64"],
)
def test_report_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(_jsonable(value), sort_keys=True, indent=2)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json_dumps(value)


def hashlib_hash(text):
    """Reference symbol hash: hashlib's SHA-256 of the UTF-8 text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "text",
    ['{"kind": "polynomial"}', '{"note": "Toeplitz \u2013 \u03c8 \u00e9 \U0001d4d7"}', "",
     "0123456789abcdef" * 65536],
    ids=["ascii", "non-ascii", "empty", "1-MB"],
)
def test_symbol_hash_is_hashlib_sha256(text):
    assert symbol_hash(text) == hashlib_hash(text)


def test_symbol_hash_is_of_the_text_as_read(tmp_path):
    # universal newlines: a file with \r\n line ends hashes as its \n text
    text = '{"kind": "polynomial",\n "polynomial": {"coeffs": [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]}}\n'
    path = tmp_path / "sym.json"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    assert load_symbol_file(path)["hash"] == hashlib_hash(text)
    assert hashlib_hash(text) != hashlib_hash(text.replace("\n", "\r\n"))
