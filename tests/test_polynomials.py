import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from h2embed import polynomials
from h2embed.errors import ZeroPolynomial
from h2embed.polynomials import (
    Polynomial,
    poly_derivative,
    poly_mul,
    poly_pow,
    poly_roots,
    poly_scale,
    poly_sub,
    roots_in_disk,
)
from h2embed.symbols import PowerSeries


def test_derivative_of_square():
    d = poly_derivative(Polynomial([0, 0, 1]))  # z^2
    assert np.allclose(d.coeffs, [0, 2])


def test_product_one_plus_one_minus():
    p = poly_mul(Polynomial([1, 1]), Polynomial([1, -1]))
    assert np.allclose(p.coeffs, [1, 0, -1])


def test_scale_by_zero_gives_zero_polynomial():
    p = poly_scale(Polynomial([0, 1]), 0)
    assert p.is_zero and p.degree == -1


def test_derivative_of_constant_is_zero_polynomial():
    assert poly_derivative(Polynomial([5.0])).is_zero


def test_roots_of_quadratic():
    rs = poly_roots(Polynomial([-0.25, 0, 1]))  # z^2 - 1/4
    vals = sorted(rs.values(), key=lambda v: v.real)
    assert np.allclose(vals, [-0.5, 0.5])
    assert all(m == 1 for _, m in rs.roots)
    assert rs.residual_bound < 1e-12


def test_double_root_merges():
    rs = poly_roots(poly_mul(Polynomial([-0.3, 1]), Polynomial([-0.3, 1])))
    assert rs.roots == [(pytest.approx(0.3), 2)] or (
        len(rs.roots) == 1 and rs.roots[0][1] == 2
    )
    assert abs(rs.roots[0][0] - 0.3) < 1e-7


def test_triple_root_against_symbolic_expansion():
    # oracle: expand (z - 1)^3 symbolically
    cube = poly_mul(poly_mul(Polynomial([-1, 1]), Polynomial([-1, 1])), Polynomial([-1, 1]))
    assert np.allclose(cube.coeffs, [-1, 3, -3, 1])
    # companion roots of a triple root scatter ~eps**(1/3)
    rs = poly_roots(cube)
    assert len(rs.roots) == 1
    v, m = rs.roots[0]
    assert m == 3 and abs(v - 1.0) < 1e-5


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_multiple_root_next_to_a_simple_root_merges_once(k):
    alpha = 0.5 + 0.2j
    rs = poly_roots(poly_mul(poly_pow(Polynomial([-alpha, 1]), k), Polynomial([-2.0, 1])))
    assert [m for _, m in rs.roots] == [k, 1]
    assert abs(rs.roots[0][0] - alpha) < 1e-12 and abs(rs.roots[1][0] - 2.0) < 1e-12


def test_simple_roots_1e_4_apart_stay_two_roots():
    # a double root here scatters by about 3e-8, far below the gap
    rs = poly_roots(poly_mul(Polynomial([-0.5, 1]), Polynomial([-0.5001, 1])))
    assert [m for _, m in rs.roots] == [1, 1]
    assert abs(rs.roots[1][0] - rs.roots[0][0] - 1e-4) < 1e-10


def test_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        poly_roots(Polynomial([]))


def test_degree_zero_gives_empty_rootset():
    rs = poly_roots(Polynomial([3.0]))
    assert rs.roots == [] and rs.total_multiplicity == 0


def test_disk_partition_basic():
    rs = poly_roots(poly_mul(Polynomial([-0.5, 1]), Polynomial([-3, 1])))
    part = roots_in_disk(rs)
    assert [v for v, _ in part.inside] == [pytest.approx(0.5)]
    assert [v for v, _ in part.outside] == [pytest.approx(3.0)]
    assert part.boundary == []


def test_disk_partition_boundary_band():
    rs = poly_roots(Polynomial([-1, 1]))  # root exactly 1
    part = roots_in_disk(rs, tol=1e-9)
    assert len(part.boundary) == 1

    rs2 = poly_roots(Polynomial([-0.9999999999, 1]))
    part2 = roots_in_disk(rs2, tol=1e-9)
    assert len(part2.boundary) == 1 and not part2.inside


def test_random_root_recovery():
    rng = np.random.default_rng(7)
    for _ in range(25):
        deg = int(rng.integers(2, 13))
        roots = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
        p = Polynomial([1.0])
        for r in roots:
            p = poly_mul(p, Polynomial([-r, 1]))
        found = sorted(poly_roots(p).values(), key=lambda v: (v.real, v.imag))
        expected = sorted(roots, key=lambda v: (v.real, v.imag))
        assert len(found) == deg
        assert max(abs(a - b) for a, b in zip(found, expected)) < 1e-8


def test_product_roots_are_union_with_multiplicity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        def rand_poly(deg):
            roots = rng.uniform(-1.5, 1.5, deg) + 1j * rng.uniform(-1.5, 1.5, deg)
            p = Polynomial([1.0])
            for r in roots:
                p = poly_mul(p, Polynomial([-r, 1]))
            return p, list(roots)

        p, rp = rand_poly(int(rng.integers(1, 7)))
        q, rq = rand_poly(int(rng.integers(1, 7)))
        found = sorted(poly_roots(poly_mul(p, q)).values(), key=lambda v: (v.real, v.imag))
        expected = sorted(rp + rq, key=lambda v: (v.real, v.imag))
        assert max(abs(a - b) for a, b in zip(found, expected)) < 1e-7


complex_ints = st.builds(
    complex,
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(complex_ints, min_size=1, max_size=8),
    st.lists(complex_ints, min_size=1, max_size=8),
    complex_ints,
    complex_ints,
)
def test_derivative_is_linear(pc, qc, a, b):
    # integer coefficients keep the float arithmetic exact
    p, q = Polynomial(pc), Polynomial(qc)
    lhs = poly_derivative(poly_sub(poly_scale(p, a), poly_scale(q, -b)))
    rhs = poly_sub(poly_scale(poly_derivative(p), a), poly_scale(poly_derivative(q), -b))
    assert lhs == rhs


# --------------------------------------------------------------------------
# oracle: the plain-numpy kernels against numpy.polynomial, bit for bit
# --------------------------------------------------------------------------

# signed zeros, small integers and arbitrary floats, real and imaginary apart
_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
)
_entries = st.builds(complex, _parts, _parts)
_zeros = st.sampled_from([complex(0.0, 0.0), complex(-0.0, 0.0),
                          complex(0.0, -0.0), complex(-0.0, -0.0)])


@st.composite
def coefficient_arrays(draw):
    """Degree 0-8 coefficients, some with trailing (signed) zeros."""
    body = draw(st.lists(_entries, min_size=1, max_size=9))
    return np.array(body + draw(st.lists(_zeros, max_size=3)), dtype=complex)


_points = st.lists(_entries, min_size=1, max_size=4).map(lambda v: np.array(v, dtype=complex))
# a -0 - 0i coefficient is one the unit scale of polyder moves (to +0 - 0i)
_unit_scale_case = np.array([1.0, complex(-0.0, -0.0), 3.0])
_oracle = settings(max_examples=250, derandomize=True, deadline=None)


def _bits(x):
    x = np.asarray(x, dtype=complex)
    return x.shape, np.atleast_1d(x).view(np.uint64).tolist()


def _nonempty(c):
    """The zero polynomial's empty coefficients read as [0], as before."""
    return c if c.size else np.zeros(1, dtype=complex)


@_oracle
@given(coefficient_arrays(), coefficient_arrays(), st.booleans())
def test_sub_and_mul_match_numpy_polynomial(a, b, wrap):
    p, q = (Polynomial(a), Polynomial(b)) if wrap else (a, b)
    ca, cb = (_nonempty(p.coeffs), _nonempty(q.coeffs)) if wrap else (a, b)
    assert _bits(poly_sub(p, q).coeffs) == _bits(Polynomial(npoly.polysub(ca, cb)).coeffs)
    assert _bits(poly_mul(p, q).coeffs) == _bits(Polynomial(npoly.polymul(ca, cb)).coeffs)


@_oracle
@given(coefficient_arrays(), st.integers(0, 4))
def test_pow_matches_numpy_polynomial(a, k):
    assert _bits(poly_pow(a, k).coeffs) == _bits(Polynomial(npoly.polypow(a, k)).coeffs)


@_oracle
@example(_unit_scale_case)
@given(coefficient_arrays())
def test_derivative_matches_numpy_polynomial(a):
    p = Polynomial(a)
    want = Polynomial([]) if p.degree <= 0 else Polynomial(npoly.polyder(p.coeffs))
    assert _bits(poly_derivative(a).coeffs) == _bits(want.coeffs)


@_oracle
@given(coefficient_arrays(), _points, st.booleans())
def test_evaluation_matches_numpy_polynomial(a, z, scalar):
    # Polynomial drops trailing zeros, PowerSeries evaluates them
    z = z[0] if scalar else z
    p = Polynomial(a)
    want = np.zeros_like(np.asarray(z)) if p.is_zero else npoly.polyval(np.asarray(z), p.coeffs)
    assert _bits(p(z)) == _bits(want)
    assert _bits(PowerSeries(a)(z)) == _bits(npoly.polyval(np.asarray(z), a))


def _numpy_roots(p):
    """The root finder as written on numpy.polynomial: polyroots, the same
    clusters, np.mean centroids and a 0-d polyval residual per root."""
    raw = npoly.polyroots(p.coeffs).tolist()
    groups = polynomials._root_clusters(raw, p.coeffs)
    roots = sorted(((complex(np.mean([raw[i] for i in g])), len(g)) for g in groups),
                   key=lambda vm: (vm[0].real, vm[0].imag))
    residual = max(abs(complex(npoly.polyval(np.asarray(v), p.coeffs))) for v, _ in roots)
    return roots, float(residual)


@_oracle
@given(coefficient_arrays())
def test_roots_match_numpy_polynomial(a):
    p = Polynomial(a)
    assume(p.degree >= 1 and abs(p.coeffs[-1]) >= 1e-3)  # no overflow in c / c[-1]
    assert _bits(polynomials._companion_roots(p.coeffs)) == _bits(npoly.polyroots(p.coeffs))
    roots, residual = _numpy_roots(p)
    rs = poly_roots(p)
    assert [m for _, m in rs.roots] == [m for _, m in roots]
    assert _bits(rs.values()) == _bits([v for v, _ in roots])
    assert _bits(rs.residual_bound) == _bits(residual)


def test_root_oracle_sees_repeated_roots():
    # the centroid and multiplicity branches of the oracle comparison run
    p = poly_mul(poly_pow(Polynomial([-0.5 + 0.1j, 1]), 3), Polynomial([complex(-0.0, -0.0), 1]))
    roots, residual = _numpy_roots(p)
    assert sorted(m for _, m in roots) == [1, 3]
    rs = poly_roots(p)
    assert _bits(rs.values()) == _bits([v for v, _ in roots])
    assert _bits(rs.residual_bound) == _bits(residual)
