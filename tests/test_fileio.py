"""Dense operator files: the writer and the reader convert each distinct
entry once, and give the bytes and values of the per-entry code they
replaced (kept below as references).  Report documents: ``json_dumps``
gives the bytes of ``json.dumps(..., sort_keys=True, indent=2)``."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2embed.fileio import (
    MATRIX_HEADER,
    SymbolFileError,
    _jsonable,
    dump_matrix_csv,
    json_dumps,
    load_matrix_csv,
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


@settings(max_examples=200, deadline=None)
@given(matrices(FINITE_PARTS))
def test_reader_reads_back_bit_exactly(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    dump_matrix_csv(path, matrix)
    back = load_matrix_csv(path)
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
