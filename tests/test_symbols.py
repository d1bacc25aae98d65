import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from h2embed.errors import (
    DegenerateMap,
    DomainError,
    IllConditioned,
    PoleHit,
)
from h2embed.operators import composition_matrix
from h2embed.symbols import (
    _AT_ATOM,
    DEFAULT_RADIUS,
    BlaschkeProduct,
    FactoredSymbol,
    MobiusMap,
    RationalOuter,
    SingularInner,
    taylor_coefficients,
)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: BlaschkeProduct(zeros=[(0.3 + 0.4j, 1)])(1 / np.conj(0.3 + 0.4j)),
        lambda: BlaschkeProduct(zeros=[(0.3 + 0.4j, 1)]).derivative(1 / np.conj(0.3 + 0.4j)),
        lambda: MobiusMap(1.0, 0.0, 1.0, -2.0)(2.0),
        lambda: MobiusMap(1.0, 0.0, 1.0, -2.0).derivative(2.0),
        lambda: SingularInner.from_angles([(0.5, 1.0)])(np.exp(0.5j)),
    ],
    ids=["blaschke at 1/conj(alpha)", "blaschke derivative", "mobius at its pole",
         "mobius derivative", "singular boundary value at its atom"],
)
def test_evaluation_at_a_pole_raises(evaluate):
    with pytest.raises(PoleHit):
        evaluate()


class TestBlaschke:
    def test_monomial_eval(self):
        b = BlaschkeProduct(origin_order=2)
        assert b(0.5) == pytest.approx(0.25)

    def test_single_zero_at_origin_value(self):
        b = BlaschkeProduct(zeros=[(0.5, 1)])
        assert complex(b(0.0)) == pytest.approx(0.5)

    def test_unimodular_on_circle(self):
        b = BlaschkeProduct(origin_order=2)
        z = np.exp(1j * np.pi / 4)
        assert abs(abs(complex(b(z))) - 1) < 1e-12

    def test_inner_modulus_random(self):
        rng = np.random.default_rng(3)
        b = BlaschkeProduct(
            rotation=0.7, origin_order=1, zeros=[(0.5, 1), (-0.3 + 0.2j, 2)]
        )
        z = 0.999 * np.sqrt(rng.uniform(0, 1, 256)) * np.exp(2j * np.pi * rng.uniform(0, 1, 256))
        assert np.all(np.abs(b(z)) < 1.0)
        zeta = np.exp(2j * np.pi * rng.uniform(0, 1, 256))
        assert np.max(np.abs(np.abs(b(zeta)) - 1.0)) < 1e-10

    def test_zero_validation(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(zeros=[(0.0, 1)])
        with pytest.raises(ValueError):
            BlaschkeProduct(zeros=[(1.5, 1)])

    def test_fractional_origin_order_is_refused(self):
        with pytest.raises(ValueError, match="origin_order must be an integer, not 1.5"):
            BlaschkeProduct(origin_order=1.5)

    def test_fractional_multiplicity_is_refused(self):
        with pytest.raises(ValueError, match="zero multiplicity must be an integer, not 1.7"):
            BlaschkeProduct(zeros=[(0.5, 1.7)])

    def test_integral_float_counts_are_stored_as_int(self):
        b = BlaschkeProduct(origin_order=2.0, zeros=[(0.5, 1.0)])
        assert (b.origin_order, b.zeros, b.degree) == (2, [(0.5, 1)], 3)
        assert all(type(v) is int for v in (b.origin_order, b.zeros[0][1], b.degree))

    def test_degree(self):
        b = BlaschkeProduct(origin_order=1, zeros=[(0.5, 2)])
        assert b.degree == 3

    def test_rational_form_matches_eval(self):
        b = BlaschkeProduct(rotation=0.3, origin_order=1, zeros=[(0.4 - 0.1j, 2)])
        p, q = b.numerator_denominator()
        z = 0.35 + 0.2j
        assert complex(p(z) / q(z)) == pytest.approx(complex(b(z)))


class TestSingularInner:
    def test_value_at_origin(self):
        s = SingularInner.from_angles([(0.0, 1.0)])
        assert complex(s(0.0)) == pytest.approx(np.exp(-1.0))

    def test_mass_additivity_at_origin(self):
        s = SingularInner.from_angles([(0.0, 0.5), (np.pi, 0.5)])
        assert complex(s(0.0)) == pytest.approx(np.exp(-1.0))

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            SingularInner([(1.0, 0.0)])

    def test_interior_modulus_below_one_and_nonzero(self):
        rng = np.random.default_rng(5)
        s = SingularInner.from_angles([(0.3, 0.7), (2.0, 0.2)])
        z = 0.99 * np.sqrt(rng.uniform(0, 1, 256)) * np.exp(2j * np.pi * rng.uniform(0, 1, 256))
        vals = s(z)
        assert np.all(np.abs(vals) < 1.0) and np.all(np.abs(vals) > 0.0)

    def test_domain_error_on_boundary(self):
        # 1 is the atom; the closed disk is the domain, 1.5 lies outside it
        s = SingularInner.from_angles([(0.0, 1.0)])
        with pytest.raises(PoleHit):
            s(1.0)
        with pytest.raises(DomainError):
            s(1.5)

    def test_boundary_extension_unimodular(self):
        s = SingularInner.from_angles([(0.0, 1.0)])
        zeta = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
        assert np.max(np.abs(np.abs(s(zeta)) - 1.0)) < 1e-12


TWO_ATOMS = SingularInner.from_angles([(0.3, 0.7), (2.0, 1.3)])


def test_two_atom_boundary_values_match_mpmath():
    # The grid points lie on the circle to an ulp, and a point u off the
    # circle at distance d from an atom of mass m moves |S| by about 2 m u / d**2
    # (up to 1.4e-10 here): |S| = exp(-P) with the Poisson sum
    # P = sum m (1 - |z|^2)/|zeta - z|^2, taken exactly at the rounded points.
    # Evaluating the Herglotz sum H costs a few ulps of sum m |zeta + z|/|zeta - z|,
    # which exp turns into the same relative error of S.
    zeta = np.exp(2j * np.pi * (np.arange(2048) + 0.5) / 2048)
    vals = TWO_ATOMS(zeta)
    want, poisson = [], []
    with mpmath.workdps(40):
        for z in map(mpmath.mpc, zeta.tolist()):
            h = sum(m * (mpmath.mpc(a) + z) / (mpmath.mpc(a) - z) for a, m in TWO_ATOMS.atoms)
            want.append(complex(mpmath.exp(-h)))
            poisson.append(float(h.real))
    herglotz = sum(m * np.abs((a + zeta) / (a - zeta)) for a, m in TWO_ATOMS.atoms)
    assert np.all(np.abs(vals - np.array(want)) <= 4 * np.finfo(float).eps * (1 + herglotz))
    assert np.all(np.abs(np.abs(vals) - 1.0) <= 1e-12 + np.abs(poisson))


@pytest.mark.parametrize("k", [0, 1])
def test_pole_hit_within_at_atom_of_each_atom(k):
    zeta = TWO_ATOMS.atoms[k][0]
    near = zeta * np.array([1.0, 1.0 - 0.5 * _AT_ATOM, 1.0 + 0.5 * _AT_ATOM,
                            np.exp(0.5j * _AT_ATOM)])
    for z in near:
        with pytest.raises(PoleHit):
            TWO_ATOMS(np.array([0.0, z]))
    with pytest.raises(DomainError):
        TWO_ATOMS(1.5 * zeta)


def test_scaled_by_zero_is_the_constant_one():
    one = TWO_ATOMS.scaled(0)
    assert one.atoms == [] and one.is_trivial
    assert np.array_equal(one(np.array([0.0, 0.5j, -1.0, np.exp(0.3j)])), np.ones(4))


@pytest.mark.parametrize("s, t", [(0.5, 3.0), (1.7, 0.3), (2.0, 0.25), (0.1, 7.0)])
def test_scaling_twice_is_scaling_by_the_product(s, t):
    twice, once = TWO_ATOMS.scaled(s).scaled(t).atoms, TWO_ATOMS.scaled(s * t).atoms
    for (z1, m1), (z2, m2) in zip(twice, once, strict=True):
        assert abs(m1 - m2) <= np.spacing(m2)
        assert abs(z1.real - z2.real) <= np.spacing(abs(z2.real))
        assert abs(z1.imag - z2.imag) <= np.spacing(abs(z2.imag))


def test_unvectorised_callable_raises_type_error():
    with pytest.raises(TypeError, match=r"not \(\)"):
        taylor_coefficients(lambda z: 2.0, 8)


class TestMobius:
    def test_involution_values(self):
        tau = MobiusMap.disk_involution(0.5)
        assert complex(tau(0.0)) == pytest.approx(0.5)
        assert complex(tau(tau(0.3))) == pytest.approx(0.3, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMap):
            MobiusMap(1, 2, 2, 4)

    def test_compose_then_invert_is_identity_on_points(self):
        m = MobiusMap(2.0, 1j, 0.5, 1.0)
        both = m.inverse().compose(m)
        for z in (0.1, -0.4 + 0.2j, 0.77j):
            assert complex(both(z)) == pytest.approx(z, abs=1e-12)

    def test_automorphism_detection(self):
        assert MobiusMap.disk_involution(0.4 + 0.2j).is_disk_automorphism()
        assert not MobiusMap(1.0, 0.0, 1.0, -2.0).is_disk_automorphism()  # z/(z-2)


_DENSE_CIRCLE = np.exp(2j * np.pi * (np.arange(4096) + 0.5) / 4096)


def _dense_automorphism_oracle(m, tol):
    """|phi| = 1 within ``tol`` at 4096 circle points, and |phi(0)| < 1."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        image = (m.a * _DENSE_CIRCLE + m.b) / (m.c * _DENSE_CIRCLE + m.d)
        origin = abs(m.b / m.d) if m.d != 0 else np.inf
    return bool(np.max(np.abs(np.abs(image) - 1.0)) <= tol and origin < 1.0)


_disk_points = st.builds(
    lambda r, t: r * np.exp(1j * t), st.floats(0.0, 0.95), st.floats(-np.pi, np.pi)
)
_coefficients = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@st.composite
def _mobius_maps(draw):
    """A map and whether it is an automorphism (None: not known in advance).
    tau_alpha . R_theta . tau_alpha composed in floating point is one; the
    same map shifted by s, whose image is the unit circle moved by s, is none;
    a map with random coefficients may be either."""
    kind = draw(st.sampled_from(["automorphism", "shifted", "random"]))
    if kind != "random":
        tau = MobiusMap.disk_involution(draw(_disk_points))
        theta = draw(st.floats(-np.pi, np.pi))
        m = tau.compose(MobiusMap(np.exp(1j * theta), 0.0, 0.0, 1.0)).compose(tau)
        if kind == "automorphism":
            return m, True
        shift = draw(st.floats(1e-6, 0.5)) * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
        return MobiusMap(1.0, shift, 0.0, 1.0).compose(m), False
    a, b, c, d = draw(
        st.tuples(*[_coefficients] * 4).filter(lambda q: abs(q[0] * q[3] - q[1] * q[2]) > 1e-3)
    )
    return MobiusMap(a, b, c, d), None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mobius_maps())
@example((MobiusMap(0.5, 0.5, 0.0, 1.0), False))  # (1 + z)/2: meets Cowen-MacCluer with equality
@example((MobiusMap(0.0, 1.0, -1.0, 2.0), False))  # 1/(2 - z)
@example((MobiusMap(1.0, 0.5, 1.0, 1.0), False))  # c = d: pole at -1, on the circle
@example((MobiusMap(-0.5, 1.0, -1.0, 0.5), False))  # 1/tau_0.5: circle to circle, pole at 0.5
@example((MobiusMap(1.0, 0.1, 0.0, 1.0), False))  # z + 0.1: a unit circle off centre
def test_automorphism_closed_form_matches_dense_sampling(case):
    m, expected = case
    got = m.is_disk_automorphism()
    assert got == _dense_automorphism_oracle(m, 1e-9)
    if expected is not None:
        assert got is expected


class TestRationalOuter:
    def test_linear_factor_value(self):
        f = RationalOuter(exterior_zeros=[2.0])
        assert complex(f(0.0)) == pytest.approx(-2.0)

    def test_interior_zero_rejected(self):
        with pytest.raises(ValueError):
            RationalOuter(exterior_zeros=[0.5])

    def test_no_zeros_in_disk(self):
        f = RationalOuter(constant=2.0, conjugate_factors=[0.5, -0.3j], exterior_zeros=[2.0, 1.0])
        rng = np.random.default_rng(1)
        z = 0.999 * np.sqrt(rng.uniform(0, 1, 128)) * np.exp(2j * np.pi * rng.uniform(0, 1, 128))
        assert np.all(np.abs(f(z)) > 0)


def _blaschke_series():
    """A degree-2 Blaschke product and its first 32 coefficients from mpmath at 40 digits."""
    b = BlaschkeProduct(rotation=0.2, zeros=[(0.5, 1), (-0.2 + 0.3j, 1)])
    with mpmath.workdps(40):
        def exact(z):
            out = mpmath.exp(mpmath.mpc(0, b.rotation))
            for alpha, _ in b.zeros:
                out *= (alpha - z) / (1 - mpmath.conj(alpha) * z)
            return out
        return b, np.array([complex(c) for c in mpmath.taylor(exact, 0, 31)])


def _atom_series():
    """S = exp(-(1+z)/(1-z)) = e^-1 sum L_k^(-1)(2) z^k with L_k^(-1) = L_k - L_(k-1),
    to 24 coefficients."""
    lag = eval_laguerre(np.arange(24), 2.0)
    return SingularInner.from_angles([(0.0, 1.0)]), np.exp(-1.0) * np.diff(lag, prepend=0.0)


class TestTaylor:
    def test_monomial(self):
        c = taylor_coefficients(BlaschkeProduct(origin_order=2), 6)
        expect = np.zeros(6)
        expect[2] = 1
        assert np.max(np.abs(c - expect)) < 1e-12

    def test_constant(self):
        c = taylor_coefficients(lambda z: 2.0 + 0 * z, 4)
        assert np.max(np.abs(c - [2, 0, 0, 0])) < 1e-13

    @pytest.mark.parametrize("case", [_blaschke_series, _atom_series], ids=["blaschke", "atom"])
    def test_error_estimate_bounds_the_true_error(self, case):
        phi, exact = case()
        got, err = taylor_coefficients(phi, exact.size, return_errors=True)
        assert np.all(np.abs(got - exact) <= err)

    def test_ill_conditioned_guard(self):
        # n passes while DEFAULT_RADIUS**-(n-1) eps max(1, s) <= 1e-8, s = max |phi|
        # on the grid; |z| and |z^2| stay below 1 there, so n = 168 is the last
        eps = float(np.finfo(float).eps)
        n = 168
        assert DEFAULT_RADIUS ** -(n - 1) * eps <= 1e-8 < DEFAULT_RADIUS ** -n * eps
        for build, origin_order in ((taylor_coefficients, 1), (composition_matrix, 2)):
            phi = BlaschkeProduct(origin_order=origin_order)
            assert np.all(np.isfinite(build(phi, n)))
            with pytest.raises(IllConditioned, match=f"at n = {n + 1}; n <= {n} stays within it"):
                build(phi, n + 1)

    def test_ill_conditioned_guard_at_every_n(self):
        # eps * 1e8 > 1e-8 already at n = 1, where no power of 0.9 amplifies it
        with pytest.raises(IllConditioned, match="at n = 1; no n does for a symbol of size 1e"):
            taylor_coefficients(lambda z: 1e8 + 0 * z, 1)


def test_factored_symbol_is_product_of_parts():
    sym = FactoredSymbol(
        blaschke=BlaschkeProduct(zeros=[(0.5, 1)]),
        singular=SingularInner.from_angles([(0.0, 0.5)]),
        outer=RationalOuter(exterior_zeros=[2.0]),
    )
    z = 0.3 + 0.1j
    expect = (
        complex(sym.blaschke(z)) * complex(sym.singular(z)) * complex(sym.outer(z))
    )
    assert complex(sym(z)) == pytest.approx(expect)


def test_factored_symbol_is_unimodular_on_the_circle():
    sym = FactoredSymbol(
        blaschke=BlaschkeProduct(origin_order=1),
        singular=SingularInner.from_angles([(0.0, 1.0)]),
    )
    zeta = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
    vals = sym(zeta)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12
