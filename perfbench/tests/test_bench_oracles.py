"""The benchmark's closed-form oracles against mpmath and brute force."""
import cmath
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles as orc  # noqa: E402

mpmath.mp.dps = 30
ORDERS = 12


def mp_taylor(f):
    return np.array([complex(c) for c in mpmath.taylor(f, 0, ORDERS - 1)])


@pytest.mark.parametrize("t", [0.25, 0.5, 1.7])
def test_outer_power_matches_mpmath(t):
    c, a, beta = 0.7 - 0.4j, 0.3 + 0.2j, -1.4 + 1.1j
    doc = {
        "constant": {"re": c.real, "im": c.imag},
        "conjugate_factors": [{"re": a.real, "im": a.imag}],
        "exterior_zeros": [{"re": beta.real, "im": beta.imag}],
    }
    big_f = lambda z: c * (1 - mpmath.conj(a) * z) * (z - beta)
    f0 = complex(big_f(0))
    # F(0)^t on the principal branch times (F/F(0))^t, analytic near 0.
    want = mp_taylor(lambda z: cmath.exp(t * cmath.log(f0)) * (big_f(z) / f0) ** t)
    np.testing.assert_allclose(orc.outer_power(doc, t, ORDERS), want, rtol=0, atol=1e-13)


def test_outer_power_negative_constant_takes_upper_branch():
    doc = {"constant": {"re": 2.0, "im": 0.0}, "exterior_zeros": [{"re": 2.0, "im": 0.0}]}
    assert orc.outer_power(doc, 0.5, 1)[0] == pytest.approx(2j)


@pytest.mark.parametrize("angle,mass,t", [(0.0, 1.0, 0.5), (1.3, 0.4, 1.0), (-2.0, 2.0, 0.25)])
def test_singular_power_matches_mpmath(angle, mass, t):
    zeta = mpmath.expj(angle)
    want = mp_taylor(lambda z: mpmath.exp(-t * mass * (zeta + z) / (zeta - z)))
    got = orc.singular_power([{"angle": angle, "mass": mass}], t, ORDERS)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_laguerre_recurrence_at_high_order():
    x = 1.6
    want = [float(mpmath.laguerre(k, -1, x)) for k in (64, 127)]
    got = orc.laguerre_minus_one(128, x)[[64, 127]]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)


def test_product_symbol_power_is_the_convolution():
    atoms = [{"angle": 0.5, "mass": 0.3}]
    outer = {"constant": {"re": -0.5, "im": 0.0}, "exterior_zeros": [{"re": 2.0, "im": 0.0}]}
    doc = {"kind": "toeplitz", "singular": {"atoms": atoms}, "outer": outer}
    zeta = mpmath.expj(0.5)
    f = lambda z: mpmath.exp(-0.5 * 0.3 * (zeta + z) / (zeta - z)) * mpmath.sqrt(-0.5 * (z - 2))
    np.testing.assert_allclose(orc.toeplitz_power(doc, 0.5, ORDERS), mp_taylor(f), atol=1e-13)


def test_polynomial_power_from_own_roots():
    coeffs = [3.0, 1.0, 0.5]
    doc = {"kind": "polynomial", "polynomial": {"coeffs": [{"re": c, "im": 0.0} for c in coeffs]}}
    f = lambda z: (3 + z + z * z / 2) ** 0.5
    np.testing.assert_allclose(orc.toeplitz_power(doc, 0.5, ORDERS), mp_taylor(f), atol=1e-13)


def test_poly_roots():
    roots = [0.5 + 0.1j, -1.2, 2.0 - 0.7j]
    coeffs = [1.5 + 0j]
    for r in roots:
        coeffs = orc.poly_mul(coeffs, [-r, 1.0])
    got = sorted(orc.poly_roots(coeffs), key=lambda v: (v.real, v.imag))
    np.testing.assert_allclose(got, sorted(roots, key=lambda v: (v.real, v.imag)), atol=1e-13)


@pytest.mark.parametrize("k,n", [(2, 16), (2, 128), (3, 16), (3, 100)])
def test_zk_levels_are_the_k_adic_valuations(k, n):
    levels = orc.zk_level_supports(k, n)

    def valuation(i):
        j = 0
        while i % k == 0:
            i //= k
            j += 1
        return j

    brute = {}
    for i in range(1, n):
        brute.setdefault(valuation(i), []).append(i)
    assert levels == [brute[j] for j in range(len(brute))]


def test_zk_level_dims():
    assert [len(lv) for lv in orc.zk_level_supports(2, 128)] == [64, 32, 16, 8, 4, 2, 1]
    assert [len(lv) for lv in orc.zk_level_supports(3, 16)] == [10, 4, 1]


def test_spiral_sides_of_a_real_multiplier_with_fixed_point_at_infinity():
    # z -> z/2 + 0.2: alpha = 0.4, beta = infinity, multiplier 1/2, l = 1.
    lhs, rhs, alpha = orc.spiral_sides(0.5, 0.2, 0.0, 1.0)
    assert alpha == pytest.approx(0.4)
    assert lhs == pytest.approx(0.4) and rhs == pytest.approx(0.5)
    assert orc.lfm_verdict(0.5, 0.2, 0.0, 1.0)[0] == "Embeddable"
