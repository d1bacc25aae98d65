import numpy as np
import pytest

from h2embed.errors import (
    BoundaryZeroWarning,
    DegenerateMap,
    DomainError,
    IllConditioned,
    PoleHit,
)
from h2embed.polynomials import Polynomial, poly_mul
from h2embed.symbols import (
    BlaschkeProduct,
    FactoredSymbol,
    MobiusMap,
    RationalOuter,
    SingularInner,
    SingularMeasure,
    circle_eval,
    factor_polynomial,
    taylor_coefficients,
)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: BlaschkeProduct(zeros=[(0.3 + 0.4j, 1)])(1 / np.conj(0.3 + 0.4j)),
        lambda: BlaschkeProduct(zeros=[(0.3 + 0.4j, 1)]).derivative(1 / np.conj(0.3 + 0.4j)),
        lambda: MobiusMap(1.0, 0.0, 1.0, -2.0)(2.0),
        lambda: MobiusMap(1.0, 0.0, 1.0, -2.0).derivative(2.0),
        lambda: SingularInner(SingularMeasure.from_angles([(0.5, 1.0)])).boundary_value(
            np.exp(0.5j)
        ),
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
        s = SingularInner(SingularMeasure.from_angles([(0.0, 1.0)]))
        assert complex(s(0.0)) == pytest.approx(np.exp(-1.0))

    def test_mass_additivity_at_origin(self):
        s = SingularInner(SingularMeasure.from_angles([(0.0, 0.5), (np.pi, 0.5)]))
        assert complex(s(0.0)) == pytest.approx(np.exp(-1.0))

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            SingularMeasure([(1.0, 0.0)])

    def test_interior_modulus_below_one_and_nonzero(self):
        rng = np.random.default_rng(5)
        s = SingularInner(SingularMeasure.from_angles([(0.3, 0.7), (2.0, 0.2)]))
        z = 0.99 * np.sqrt(rng.uniform(0, 1, 256)) * np.exp(2j * np.pi * rng.uniform(0, 1, 256))
        vals = s(z)
        assert np.all(np.abs(vals) < 1.0) and np.all(np.abs(vals) > 0.0)

    def test_domain_error_on_boundary(self):
        s = SingularInner(SingularMeasure.from_angles([(0.0, 1.0)]))
        with pytest.raises(DomainError):
            s(1.0)

    def test_boundary_extension_unimodular(self):
        s = SingularInner(SingularMeasure.from_angles([(0.0, 1.0)]))
        zeta = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
        assert np.max(np.abs(np.abs(s.boundary_value(zeta)) - 1.0)) < 1e-12


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


class TestFactorPolynomial:
    def test_no_interior_zero(self):
        b, f = factor_polynomial(Polynomial([-2, 1]))  # z - 2
        assert b.is_trivial
        assert complex(f(0.3)) == pytest.approx(0.3 - 2)

    def test_pure_monomial(self):
        b, f = factor_polynomial(Polynomial([0, 1]))  # z
        assert b.origin_order == 1 and b.zeros == []
        assert f.is_constant and f.constant == pytest.approx(1.0)

    def test_mixed_zeros_grid_oracle(self):
        p = poly_mul(Polynomial([-0.5, 1]), Polynomial([-3, 1]))
        b, f = factor_polynomial(p)
        assert [round(abs(a), 6) for a, _ in b.zeros] == [0.5]
        grid = 0.8 * np.exp(2j * np.pi * np.arange(64) / 64)
        assert np.max(np.abs(p(grid) - b(grid) * f(grid))) < 1e-10

    def test_boundary_zero_warns_and_goes_outer(self):
        p = Polynomial([-1, 1])  # z - 1
        with pytest.warns(BoundaryZeroWarning):
            b, f = factor_polynomial(p)
        assert b.is_trivial
        assert any(abs(abs(bz) - 1) < 1e-8 for bz in f.exterior_zeros)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(23)
        grid = 0.75 * np.exp(2j * np.pi * np.arange(64) / 64)
        for _ in range(10):
            deg = int(rng.integers(1, 9))
            roots = []
            for _ in range(deg):
                # keep clear of the boundary band on both sides
                r = rng.uniform(0.05, 0.85) if rng.uniform() < 0.5 else rng.uniform(1.15, 2.5)
                roots.append(r * np.exp(2j * np.pi * rng.uniform()))
            p = Polynomial([1.0])
            for r in roots:
                p = poly_mul(p, Polynomial([-r, 1]))
            b, f = factor_polynomial(p)
            assert np.max(np.abs(p(grid) - b(grid) * f(grid))) < 1e-9


class TestTaylor:
    def test_monomial(self):
        c = taylor_coefficients(BlaschkeProduct(origin_order=2), 6)
        expect = np.zeros(6)
        expect[2] = 1
        assert np.max(np.abs(c - expect)) < 1e-12

    def test_constant(self):
        c = taylor_coefficients(lambda z: 2.0 + 0 * z, 4)
        assert np.max(np.abs(c - [2, 0, 0, 0])) < 1e-13

    def test_singular_inner_two_radius_consistency(self):
        s = SingularInner(SingularMeasure.from_angles([(0.0, 1.0)]))
        c1, e1 = taylor_coefficients(s, 24, radius=0.8, return_errors=True)
        c2, e2 = taylor_coefficients(s, 24, radius=0.9, return_errors=True)
        assert abs(c1[0] - np.exp(-1)) < 1e-12
        assert np.all(np.abs(c1 - c2) <= e1 + e2)

    def test_two_radius_consistency_blaschke(self):
        b = BlaschkeProduct(rotation=0.2, zeros=[(0.5, 1), (-0.2 + 0.3j, 1)])
        c1, e1 = taylor_coefficients(b, 32, radius=0.8, return_errors=True)
        c2, e2 = taylor_coefficients(b, 32, radius=0.9, return_errors=True)
        assert np.all(np.abs(c1 - c2) <= e1 + e2)

    def test_ill_conditioned_guard(self):
        with pytest.raises(IllConditioned):
            taylor_coefficients(BlaschkeProduct(origin_order=1), 400, radius=0.8)


def test_factored_symbol_is_product_of_parts():
    sym = FactoredSymbol(
        blaschke=BlaschkeProduct(zeros=[(0.5, 1)]),
        singular=SingularInner(SingularMeasure.from_angles([(0.0, 0.5)])),
        outer=RationalOuter(exterior_zeros=[2.0]),
    )
    z = 0.3 + 0.1j
    expect = (
        complex(sym.blaschke(z)) * complex(sym.singular(z)) * complex(sym.outer(z))
    )
    assert complex(sym(z)) == pytest.approx(expect)


def test_circle_eval_dispatches_singular_boundary():
    sym = FactoredSymbol(
        blaschke=BlaschkeProduct(origin_order=1),
        singular=SingularInner(SingularMeasure.from_angles([(0.0, 1.0)])),
    )
    zeta = np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
    vals = circle_eval(sym, zeta)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12
