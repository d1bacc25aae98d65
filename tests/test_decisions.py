"""One decision per governing-result token, called directly.

Each expected verdict follows from a closed form stated next to its row,
never from the program's own output.
"""
import cmath
import re
import sys

import numpy as np
import pytest

from h2embed import decisions, polynomials
from h2embed.decisions import (
    Verdict,
    decide_composition,
    decide_lfm,
    decide_polynomial_toeplitz,
    decide_toeplitz,
)
from h2embed.errors import DomainError
from h2embed.polynomials import Polynomial, poly_mul
from h2embed.semigroups import OuterFlow, ProductFlow, SingularInnerFlow, SpiralFlow, WoldShiftFlow
from h2embed.symbols import (
    BlaschkeProduct,
    FactoredSymbol,
    MobiusMap,
    RationalOuter,
    SingularInner,
    SingularMeasure,
)

Z2 = BlaschkeProduct(origin_order=2)
ATOM = SingularInner(SingularMeasure.from_angles([(0.0, 1.0)]))
OUTER = RationalOuter(constant=2.0, exterior_zeros=[2.0])  # 2(z - 2), zero-free on the disk


def toeplitz(blaschke=None, singular=None, outer=None):
    return FactoredSymbol(blaschke=blaschke, singular=singular, outer=outer)


def rotation_about(alpha, theta):
    """tau_alpha . (z -> e^{i theta} z) . tau_alpha, tau_alpha = (alpha - z)/(1 - conj(alpha) z):
    an elliptic automorphism fixing alpha with multiplier e^{i theta}."""
    tau = MobiusMap.disk_involution(alpha)
    return tau.compose(MobiusMap(cmath.exp(1j * theta), 0.0, 0.0, 1.0)).compose(tau)


def affine(lam, alpha):
    """z -> lam z + alpha (1 - lam): fixed points alpha and infinity."""
    return MobiusMap(lam, alpha * (1.0 - lam), 0.0, 1.0)


# token, decision, expected verdict, expected semigroup type (None: no semigroup)
CASES = [
    # T_B for a finite Blaschke product B is an isometry of codimension deg B.
    ("inner-toeplitz-dichotomy", lambda: decide_toeplitz(toeplitz(blaschke=Z2)),
     Verdict.NOT_EMBEDDABLE, None),
    # A singular inner symbol S embeds into S_t = S^t (mass scaled by t).
    ("inner-toeplitz-dichotomy", lambda: decide_toeplitz(toeplitz(singular=ATOM)),
     Verdict.EMBEDDABLE, SingularInnerFlow),
    # An outer symbol F embeds into exp(t log F).
    ("outer-symbol-flow", lambda: decide_toeplitz(toeplitz(outer=OUTER)),
     Verdict.EMBEDDABLE, OuterFlow),
    # S F is zero-free: the product of the two flows.
    ("inner-outer-product-flow", lambda: decide_toeplitz(toeplitz(singular=ATOM, outer=OUTER)),
     Verdict.EMBEDDABLE, ProductFlow),
    # B F with F outer has image codimension deg B = 2.
    ("finite-codimension-obstruction", lambda: decide_toeplitz(toeplitz(blaschke=Z2, outer=OUTER)),
     Verdict.NOT_EMBEDDABLE, None),
    # B S F: a Blaschke part times a non-inner zero-free cofactor is open.
    ("blaschke-nonvanishing-open-question",
     lambda: decide_toeplitz(toeplitz(blaschke=Z2, singular=ATOM, outer=OUTER)),
     Verdict.UNKNOWN, None),
    # z - 1/2 vanishes at 1/2, inside the disk.
    ("polynomial-zero-criterion", lambda: decide_polynomial_toeplitz([-0.5, 1.0]),
     Verdict.NOT_EMBEDDABLE, None),
    # z + 2 vanishes only at -2.
    ("polynomial-zero-criterion", lambda: decide_polynomial_toeplitz([2.0, 1.0]),
     Verdict.EMBEDDABLE, OuterFlow),
    # An elliptic automorphism fixing 0.3 rides its rotation flow.
    ("elliptic-automorphism-semiflow", lambda: decide_composition(rotation_about(0.3, 1.0)),
     Verdict.EMBEDDABLE, SpiralFlow),
    ("elliptic-automorphism-semiflow", lambda: decide_lfm(rotation_about(0.3, 1.0)),
     Verdict.EMBEDDABLE, SpiralFlow),
    # z^2 is inner, fixes 0 and is not an automorphism: C_phi is an isometry.
    ("similar-isometry-shift-embedding", lambda: decide_composition(Z2),
     Verdict.EMBEDDABLE, WoldShiftFlow),
    # (z + 1/2)/(1 + z/2) is hyperbolic: fixed points -1 and 1, none inside.
    # Every automorphism lies in a one-parameter automorphism group
    # (Berkson-Porta, Michigan Math. J. 25, 1978).
    ("automorphism-semiflow", lambda: decide_lfm(MobiusMap(1.0, 0.5, 0.5, 1.0)),
     Verdict.EMBEDDABLE, None),
    ("automorphism-semiflow", lambda: decide_composition(MobiusMap(1.0, 0.5, 0.5, 1.0)),
     Verdict.EMBEDDABLE, None),
    # alpha = 0.4, beta = infinity, lam = 1/2: |alpha| l = 0.4 <= |lam| = 0.5 (l = 1).
    ("attractive-elliptic-spiral-condition", lambda: decide_lfm(affine(0.5, 0.4)),
     Verdict.EMBEDDABLE, SpiralFlow),
    # alpha = 0.3, lam = e^{2.5i}/2: l = |Log lam|/(-Re Log lam) = 3.74, so
    # |alpha| l = 1.12 > |lam| = 0.5 (a self-map: 0.5 + 0.3 |1 - lam| = 0.93 < 1).
    ("attractive-elliptic-spiral-condition",
     lambda: decide_lfm(affine(0.5 * cmath.exp(2.5j), 0.3)),
     Verdict.NOT_EMBEDDABLE, None),
    # (z + 1)/2 fixes 1 on the circle and nothing inside.
    ("boundary-fixed-point-unscoped", lambda: decide_lfm(MobiusMap(0.5, 0.5, 0.0, 1.0)),
     Verdict.OUT_OF_SCOPE, None),
]


@pytest.mark.parametrize(
    "token, decide, verdict, semigroup",
    CASES,
    ids=[f"{token}-{i}" for i, (token, *_) in enumerate(CASES)],
)
def test_governing_result(token, decide, verdict, semigroup):
    report = decide()
    assert (report.verdict, report.governing_result) == (verdict, token)
    if semigroup is None:
        assert report.semigroup is None
    else:
        assert isinstance(report.semigroup, semigroup)


def test_every_documented_token_has_a_case():
    documented = set(re.findall(r"^([a-z]+(?:-[a-z]+)+)\s", decisions.__doc__, re.M))
    assert documented == {token for token, *_ in CASES}


def test_shift_embedding_details_are_closed_forms():
    # psi = z (1/2 - z)/(1 - z/2) fixes 0 with psi'(0) = 1/2.
    psi = BlaschkeProduct(origin_order=1, zeros=[(0.5, 1)])
    report = decide_composition(psi)
    assert isinstance(report.semigroup, WoldShiftFlow) and report.semigroup_descriptor is None
    assert report.semigroup.fixing_origin() is psi
    assert report.details == {"fixed_point": 0j, "multiplier": pytest.approx(0.5)}


def test_lfm_details_of_an_attractive_elliptic_map():
    # z/(z - 2) fixes 0 and 3; its derivative -2/(z - 2)^2 is -1/2 at 0.
    details = decide_lfm(MobiusMap(1.0, 0.0, 1.0, -2.0)).details
    assert abs(details["alpha"]) < 1e-12
    assert details["beta"] == pytest.approx(3.0)
    assert details["multiplier"] == pytest.approx(-0.5)


def test_polynomial_outer_factor_of_z_minus_2():
    outer = decide_polynomial_toeplitz([-2.0, 1.0]).semigroup.outer
    assert outer.conjugate_factors == [] and outer.exterior_zeros == [pytest.approx(2.0)]
    assert complex(outer(0.3)) == pytest.approx(0.3 - 2)


def test_polynomial_boundary_zero_goes_to_the_outer_factor():
    report = decide_polynomial_toeplitz([-1.0, 1.0])  # z - 1
    assert report.verdict == Verdict.EMBEDDABLE
    assert report.notes[0].startswith("boundary-band zeros assigned to the outer factor")
    (zero,) = report.semigroup.outer.exterior_zeros
    assert abs(zero - 1.0) < 1e-12


def test_polynomial_boundary_zero_deeper_than_the_outer_factor_admits():
    # A band of 1e-6 holds the zero 1 - 5e-7, which lies inside the disk.
    with pytest.raises(DomainError, match=r"boundary-band zeros \[\(0\.9999995"):
        decide_polynomial_toeplitz([-(1 - 5e-7), 1.0], tol=1e-6)


def test_polynomial_outer_factor_reproduces_a_zero_free_polynomial():
    rng = np.random.default_rng(23)
    grid = 0.75 * np.exp(2j * np.pi * np.arange(64) / 64)
    for _ in range(10):
        p = Polynomial([rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())])
        for _ in range(int(rng.integers(1, 9))):
            zero = rng.uniform(1.15, 2.5) * np.exp(2j * np.pi * rng.uniform())
            p = poly_mul(p, Polynomial([-zero, 1]))
        outer = decide_polynomial_toeplitz(p).semigroup.outer
        assert np.max(np.abs(p(grid) - outer(grid))) < 1e-9


def test_polynomial_decision_solves_for_the_roots_once(monkeypatch):
    real = polynomials.poly_roots
    calls = []

    def counted(p):
        calls.append(p)
        return real(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("h2embed") and getattr(module, "poly_roots", None) is real:
            monkeypatch.setattr(module, "poly_roots", counted)
    decide_polynomial_toeplitz([2.0, 1.0])
    assert len(calls) == 1
