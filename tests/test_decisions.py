"""One decision per governing-result token, called directly.

Each expected verdict follows from a closed form stated next to its row,
never from the program's own output.
"""
import cmath
import re

import pytest

from h2embed import decisions
from h2embed.decisions import (
    KoenigsFlow,
    Verdict,
    decide_composition,
    decide_lfm,
    decide_polynomial_toeplitz,
    decide_toeplitz,
)
from h2embed.semigroups import EllipticFlow, OuterFlow, ProductFlow, SingularInnerFlow
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
     Verdict.EMBEDDABLE, EllipticFlow),
    ("elliptic-automorphism-semiflow", lambda: decide_lfm(rotation_about(0.3, 1.0)),
     Verdict.EMBEDDABLE, EllipticFlow),
    # z^2 is inner, fixes 0 and is not an automorphism: C_phi is an isometry.
    ("similar-isometry-shift-embedding", lambda: decide_composition(Z2),
     Verdict.EMBEDDABLE, None),
    # (z + 1/2)/(1 + z/2) is hyperbolic: fixed points -1 and 1, none inside.
    ("automorphism-semiflow", lambda: decide_lfm(MobiusMap(1.0, 0.5, 0.5, 1.0)),
     Verdict.EMBEDDABLE, None),
    ("automorphism-semiflow", lambda: decide_composition(MobiusMap(1.0, 0.5, 0.5, 1.0)),
     Verdict.OUT_OF_SCOPE, None),
    # alpha = 0.4, beta = infinity, lam = 1/2: |alpha| l = 0.4 <= |lam| = 0.5 (l = 1).
    ("attractive-elliptic-spiral-condition", lambda: decide_lfm(affine(0.5, 0.4)),
     Verdict.EMBEDDABLE, KoenigsFlow),
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
    report = decide_composition(BlaschkeProduct(origin_order=1, zeros=[(0.5, 1)]))
    assert report.semigroup is None
    assert report.details == {"fixed_point": 0j, "multiplier": pytest.approx(0.5)}
