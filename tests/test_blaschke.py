import numpy as np
import pytest

from h2embed.blaschke import (
    conjugate_by_automorphism,
    fixed_points_in_disk,
    frostman_transform,
    interior_fixed_point,
    solve_blaschke_equation,
)
from h2embed.errors import DomainError
from h2embed.symbols import BlaschkeProduct, MobiusMap, SingularInner


def random_blaschke(rng, degree):
    zeros = []
    for _ in range(degree):
        r = rng.uniform(0.1, 0.85)
        zeros.append((r * np.exp(2j * np.pi * rng.uniform()), 1))
    return BlaschkeProduct(zeros=zeros)


def random_disk_point(rng):
    """A point of the disk of radius 0.9, uniform in area."""
    return complex(0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))


class TestSolve:
    def test_square_quarter(self):
        pre = solve_blaschke_equation(BlaschkeProduct(origin_order=2), 0.25)
        vals = sorted(pre.solutions.values(), key=lambda v: v.real)
        assert np.allclose(vals, [-0.5, 0.5])
        assert pre.all_distinct

    def test_square_critical_target(self):
        pre = solve_blaschke_equation(BlaschkeProduct(origin_order=2), 0.0)
        assert pre.solutions.roots[0][1] == 2
        assert not pre.all_distinct

    def test_two_zero_product_residuals(self):
        b = BlaschkeProduct(zeros=[(0.5, 1), (-0.3, 1)])
        pre = solve_blaschke_equation(b, 0.1)
        assert pre.solutions.total_multiplicity == 2
        for v in pre.solutions.values():
            assert abs(complex(b(v)) - 0.1) < 1e-10
            assert abs(v) < 1

    def test_target_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            solve_blaschke_equation(BlaschkeProduct(origin_order=2), 1.5)


class TestFrostman:
    def test_square_quarter(self):
        result, simple = frostman_transform(BlaschkeProduct(origin_order=2), 0.25)
        vals = sorted(abs(a) for a, _ in result.zeros)
        assert np.allclose(vals, [0.5, 0.5])
        assert simple

    def test_square_zero(self):
        result, simple = frostman_transform(BlaschkeProduct(origin_order=2), 0.0)
        assert result.origin_order == 2 and not simple

    def test_random_grid_match(self):
        rng = np.random.default_rng(17)
        b = random_blaschke(rng, 3)
        lam = random_disk_point(rng)
        result, simple = frostman_transform(b, lam)
        assert simple and result.degree == 3
        tau = MobiusMap.disk_involution(lam)
        grid = 0.7 * np.exp(2j * np.pi * np.arange(32) / 32)
        assert np.max(np.abs(tau(b(grid)) - result(grid))) < 1e-8

    def test_involution_property(self):
        b = BlaschkeProduct(zeros=[(0.5, 1), (-0.3 + 0.2j, 1)])
        lam = 0.2 + 0.1j
        once, _ = frostman_transform(b, lam)
        twice, _ = frostman_transform(once, lam)
        grid = 0.6 * np.exp(2j * np.pi * np.arange(24) / 24)
        assert np.max(np.abs(b(grid) - twice(grid))) < 1e-7

    def test_preimage_count_bulk(self):
        # fifty random products of degree 2..6: deg distinct preimages each
        rng = np.random.default_rng(2024)
        for trial in range(50):
            deg = 2 + trial % 5
            b = random_blaschke(rng, deg)
            beta = random_disk_point(rng)
            pre = solve_blaschke_equation(b, beta)
            assert pre.solutions.total_multiplicity == deg
            assert pre.all_distinct


class TestFixedPoints:
    def test_square(self):
        fps = fixed_points_in_disk(BlaschkeProduct(origin_order=2))
        assert len(fps) == 1
        alpha, deriv = fps[0]
        assert abs(alpha) < 1e-12 and abs(deriv) < 1e-12

    def test_conjugated_square_fixes_center(self):
        b = conjugate_by_automorphism(BlaschkeProduct(origin_order=2), 0.5)
        assert abs(complex(b(0.5)) - 0.5) < 1e-12
        fps = fixed_points_in_disk(b)
        assert len(fps) == 1 and abs(fps[0][0] - 0.5) < 1e-9


class TestConjugate:
    def test_grid_match(self):
        phi = BlaschkeProduct(origin_order=1, zeros=[(0.5, 1)])
        alpha_fps = fixed_points_in_disk(phi)
        alpha = alpha_fps[0][0]
        psi = conjugate_by_automorphism(phi, alpha)
        tau = MobiusMap.disk_involution(alpha)
        grid = 0.7 * np.exp(2j * np.pi * np.arange(32) / 32)
        assert np.max(np.abs(tau(phi(tau(grid))) - psi(grid))) < 1e-9
        assert abs(complex(psi(0.0))) < 1e-12


def test_interior_fixed_point_of_singular_inner():
    s = SingularInner.from_angles([(0.0, 1.0)])
    alpha = interior_fixed_point(s, s.derivative)
    assert alpha is not None
    assert abs(complex(s(alpha)) - alpha) < 1e-10
    assert abs(complex(s.derivative(alpha))) < 1
