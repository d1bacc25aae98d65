"""One decision per governing-result token, called directly.

Each expected verdict follows from a closed form stated next to its row,
never from the program's own output.
"""
import cmath
import itertools
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from h2embed import decisions, polynomials
from h2embed.blaschke import solve_blaschke_equation
from h2embed.decisions import (
    Verdict,
    decide_composition,
    decide_lfm,
    decide_polynomial_toeplitz,
    decide_toeplitz,
)
from h2embed.errors import DegenerateSymbol, DomainError
from h2embed.fileio import SymbolFileError, parse_symbol_document, report_document
from h2embed.polynomials import Polynomial, poly_mul
from h2embed.semigroups import (
    ConstantFlow,
    OuterFlow,
    ProductFlow,
    SingularInnerFlow,
    SpiralFlow,
    WoldShiftFlow,
)
from h2embed.symbols import (
    BlaschkeProduct,
    FactoredSymbol,
    MobiusMap,
    RationalOuter,
    SingularInner,
)

Z2 = BlaschkeProduct(origin_order=2)
ATOM = SingularInner.from_angles([(0.0, 1.0)])
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
    assert isinstance(report.semigroup, WoldShiftFlow)
    assert report_document(report)["semigroup"] is None
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


# --------------------------------------------------------------------------
# decide_toeplitz over every combination of its factors, phases included
# --------------------------------------------------------------------------

BLASCHKE_PARTS = {
    "absent": None,
    "phase 0.7": BlaschkeProduct(rotation=0.7),  # degree 0: the constant e^{0.7i}
    "degree 2": Z2,
}
SINGULAR_PARTS = {
    "absent": None,
    "no atoms": SingularInner([]),  # the constant 1
    "atom": ATOM,
}
OUTER_PARTS = {
    "absent": None,
    "e^{1.1i}": RationalOuter(constant=cmath.exp(1.1j)),  # unimodular: a phase
    "2": RationalOuter(constant=2.0),
    "factored": OUTER,
}
PHASE_ANGLE = {"phase 0.7": 0.7, "e^{1.1i}": 1.1}

ANY_B, ANY_S = tuple(BLASCHKE_PARTS), tuple(SINGULAR_PARTS)
ZERO_FREE_B, FINITE_B = ("absent", "phase 0.7"), ("degree 2",)
NO_ATOMS, ATOMS = ("absent", "no atoms"), ("atom",)
INNER_F, NON_INNER_F = ("absent", "e^{1.1i}"), ("2", "factored")
DICHOTOMY, OPEN = "inner-toeplitz-dichotomy", "blaschke-nonvanishing-open-question"
E, N, U = Verdict.EMBEDDABLE, Verdict.NOT_EMBEDDABLE, Verdict.UNKNOWN

# (blaschke, singular, outer, declared flag): verdict, token, flow type, descriptor,
# read off the token table in decisions.
TOEPLITZ_TABLE = [
    # A declared infinite Blaschke part is inner and not finite: the dichotomy
    # when the cofactor is inner too, open otherwise; report only.
    (ANY_B, ANY_S, INNER_F, (True,), (E, DICHOTOMY, None, None)),
    (ANY_B, ANY_S, NON_INNER_F, (True,), (U, OPEN, None, None)),
    # A finite Blaschke part puts zeros in the disk: never a Toeplitz flow.
    (FINITE_B, NO_ATOMS, INNER_F, (False,), (N, DICHOTOMY, None, None)),
    (FINITE_B, ATOMS, INNER_F, (False,), (E, DICHOTOMY, None, None)),
    (FINITE_B, NO_ATOMS, NON_INNER_F, (False,), (N, "finite-codimension-obstruction", None, None)),
    (FINITE_B, ATOMS, NON_INNER_F, (False,), (U, OPEN, None, None)),
    # Zero-free: S^t, F^t or S^t F^t, led by c^t when the phase c is not 1.
    (("absent",), ATOMS, ("absent",), (False,),
     (E, DICHOTOMY, SingularInnerFlow, "singular-inner-flow")),
    (("phase 0.7",), ATOMS, ("absent",), (False,), (E, DICHOTOMY, ProductFlow, "product-flow")),
    (ZERO_FREE_B, ATOMS, ("e^{1.1i}",), (False,), (E, DICHOTOMY, ProductFlow, "product-flow")),
    (("absent",), NO_ATOMS, NON_INNER_F, (False,),
     (E, "outer-symbol-flow", OuterFlow, "outer-flow")),
    (("phase 0.7",), NO_ATOMS, NON_INNER_F, (False,),
     (E, "outer-symbol-flow", ProductFlow, "product-flow")),
    (ZERO_FREE_B, ATOMS, NON_INNER_F, (False,),
     (E, "inner-outer-product-flow", ProductFlow, "product-flow")),
    # A unimodular constant has no embedding content.
    (ZERO_FREE_B, NO_ATOMS, INNER_F, (False,), DegenerateSymbol),
]
TOEPLITZ_CASES = [
    (b, s, f, declared, expected)
    for bs, ss, fs, flags, expected in TOEPLITZ_TABLE
    for b, s, f, declared in itertools.product(bs, ss, fs, flags)
]


def test_toeplitz_table_covers_every_combination_once():
    keys = [case[:4] for case in TOEPLITZ_CASES]
    assert sorted(keys) == sorted(
        itertools.product(BLASCHKE_PARTS, SINGULAR_PARTS, OUTER_PARTS, (False, True))
    )


@pytest.mark.parametrize(
    "b, s, f, declared, expected", TOEPLITZ_CASES,
    ids=[f"B={b}, S={s}, F={f}, declared={d}" for b, s, f, d, _ in TOEPLITZ_CASES],
)
def test_toeplitz_decision_table(b, s, f, declared, expected):
    sym = toeplitz(BLASCHKE_PARTS[b], SINGULAR_PARTS[s], OUTER_PARTS[f])
    if expected is DegenerateSymbol:
        with pytest.raises(DegenerateSymbol):
            decide_toeplitz(sym, declared_infinite_blaschke=declared)
        return
    verdict, token, flow_type, descriptor = expected
    report = decide_toeplitz(sym, declared_infinite_blaschke=declared)
    assert (report.verdict, report.governing_result) == (verdict, token)
    assert report_document(report)["semigroup"] == descriptor
    if flow_type is None:
        assert report.semigroup is None
        return
    assert type(report.semigroup) is flow_type
    theta = PHASE_ANGLE.get(b, 0.0) + PHASE_ANGLE.get(f, 0.0)
    parts = getattr(report.semigroup, "parts", [report.semigroup])
    assert [type(p) for p in parts].count(ConstantFlow) == (theta != 0.0)
    if theta:
        # c^t leads, and multiplies every coefficient of the unphased flow by e^{i theta t}.
        assert parts[0].value == pytest.approx(cmath.exp(1j * theta), abs=1e-15)
        unphased = decide_toeplitz(
            toeplitz(None, SINGULAR_PARTS[s], None if f == "e^{1.1i}" else OUTER_PARTS[f])
        ).semigroup
        for t in (0.5, 1.3):
            want = cmath.exp(1j * theta * t) * unphased.coefficients(t, 12)
            np.testing.assert_allclose(report.semigroup.coefficients(t, 12), want,
                                       rtol=1e-13, atol=1e-15)


# --------------------------------------------------------------------------
# invariance: F and F o R_theta, R_theta(z) = e^{i theta} z, decide alike
# --------------------------------------------------------------------------


def rotated(sym: FactoredSymbol, theta: float) -> FactoredSymbol:
    """F o R_theta factor by factor: every Blaschke zero, atom, conjugate
    factor and exterior zero moves by e^{-i theta}; the Blaschke rotation
    gains theta per zero and the outer constant e^{i theta} per exterior zero."""
    u = cmath.exp(-1j * theta)
    b, s, f = sym.blaschke, sym.singular, sym.outer
    if b is not None:
        b = BlaschkeProduct(b.rotation + theta * b.degree, b.origin_order,
                            [(a * u, m) for a, m in b.zeros])
    if s is not None:
        s = SingularInner([(zeta * u, m) for zeta, m in s.atoms])
    if f is not None:
        f = RationalOuter(f.constant / u ** len(f.exterior_zeros),
                          [a * u for a in f.conjugate_factors], [z * u for z in f.exterior_zeros])
    return FactoredSymbol(b, s, f)


def _rotation_defect(flow, rotated_flow, theta, t, n=16):
    """max_k |c'_k(t) - c_k(t) e^{i k theta}|, relative to max(1, max_k |c_k(t)|)."""
    c = flow.coefficients(t, n)
    gap = rotated_flow.coefficients(t, n) - c * np.exp(1j * theta * np.arange(n))
    return float(np.max(np.abs(gap))) / max(1.0, float(np.max(np.abs(c))))


def _disk_point(draw, low, high):
    return draw(st.floats(low, high)) * cmath.exp(1j * draw(st.floats(-np.pi, np.pi)))


@st.composite
def factored_symbols(draw, zero_free=False):
    """A factored symbol; with ``zero_free``, one with no finite Blaschke part
    and a singular part with atoms or an outer part with factors (or both)."""
    b = draw(st.sampled_from(["absent", "phase"] if zero_free else ["absent", "phase", "zeros"]))
    if b == "absent":
        b = None
    elif b == "phase":
        b = BlaschkeProduct(rotation=draw(st.floats(-np.pi, np.pi)))
    else:
        zeros = [(_disk_point(draw, 0.1, 0.9), draw(st.integers(1, 2)))
                 for _ in range(draw(st.integers(0, 2)))]
        b = BlaschkeProduct(draw(st.floats(-np.pi, np.pi)),
                            draw(st.integers(1 if not zeros else 0, 2)), zeros)
    with_s, with_f = draw(st.sampled_from(
        [(True, False), (False, True), (True, True)] + ([] if zero_free else [(False, False)])
    ))
    s = f = None
    if with_s:
        angles = draw(st.lists(st.floats(-np.pi, np.pi), min_size=int(zero_free), max_size=2,
                               unique=True))
        if len(angles) == 2 and abs(cmath.exp(1j * angles[0]) - cmath.exp(1j * angles[1])) < 1e-3:
            angles = angles[:1]
        s = SingularInner.from_angles([(a, draw(st.floats(0.1, 2.0))) for a in angles])
    if with_f:
        conj = draw(st.integers(0, 2))
        f = RationalOuter(
            _disk_point(draw, 0.5, 2.0) if draw(st.booleans()) else _disk_point(draw, 1.0, 1.0),
            [_disk_point(draw, 0.0, 0.9) for _ in range(conj)],
            [_disk_point(draw, 1.1, 3.0)
             for _ in range(draw(st.integers(int(zero_free and not conj), 2)))],
        )
    return FactoredSymbol(b, s, f)


@seed(11)
@settings(max_examples=60, deadline=None)
@given(sym=factored_symbols(), declared=st.booleans(), theta=st.floats(-np.pi, np.pi))
def test_toeplitz_decision_is_rotation_invariant(sym, declared, theta):
    rot = rotated(sym, theta)
    z = np.array([0.3, -0.5j, 0.2 + 0.6j])
    assert np.allclose(rot(z), sym(cmath.exp(1j * theta) * z), rtol=1e-12, atol=1e-14)
    try:
        report = decide_toeplitz(sym, declared_infinite_blaschke=declared)
    except DegenerateSymbol:
        with pytest.raises(DegenerateSymbol):
            decide_toeplitz(rot, declared_infinite_blaschke=declared)
        return
    rot_report = decide_toeplitz(rot, declared_infinite_blaschke=declared)
    assert report_document(rot_report) == report_document(report)


@seed(11)
@settings(max_examples=60, deadline=None)
@given(sym=factored_symbols(zero_free=True), theta=st.floats(-np.pi, np.pi))
def test_zero_free_flow_is_rotation_invariant(sym, theta):
    # F^t o R_theta = (F o R_theta)^t: coefficient k turns by e^{i k theta}.
    # The outer flow takes the principal Log F(0), which rounding of the
    # rotated factors can flip on the negative axis; F(0) itself is invariant.
    assume(sym.outer is None or abs(cmath.phase(complex(sym.outer(0.0)))) < np.pi - 1e-9)
    flow = decide_toeplitz(sym).semigroup
    rot_flow = decide_toeplitz(rotated(sym, theta)).semigroup
    for t in (0.5, 1.0):
        assert _rotation_defect(flow, rot_flow, theta, t) <= 1e-12


def test_rotation_oracle_detects_a_flipped_angle():
    # The oracle tells theta from -theta: rotating by -theta misses by O(1).
    sym = toeplitz(singular=ATOM, outer=RationalOuter(1.5, [0.3 + 0.2j], [2.0 - 1.0j]))
    theta = 0.8
    flow = decide_toeplitz(sym).semigroup
    right = decide_toeplitz(rotated(sym, theta)).semigroup
    wrong = decide_toeplitz(rotated(sym, -theta)).semigroup
    assert _rotation_defect(flow, right, theta, 1.0) <= 1e-12
    assert _rotation_defect(flow, wrong, theta, 1.0) > 1e-2


# --------------------------------------------------------------------------
# invariance: a zero-free polynomial as a polynomial and as an outer symbol
# --------------------------------------------------------------------------


def _doc_complex(w):
    return {"re": w.real, "im": w.imag}


def polynomial_doc(lead, roots) -> dict:
    """The ``polynomial`` document of lead * prod (z - r) over the roots."""
    p = Polynomial([lead])
    for r in roots:
        p = poly_mul(p, Polynomial([-r, 1.0]))
    return {"kind": "polynomial", "polynomial": {"coeffs": [_doc_complex(c) for c in p.coeffs]}}


def outer_doc(lead, roots) -> dict:
    """The ``toeplitz`` document of the outer symbol lead * prod (z - r)."""
    return {"kind": "toeplitz",
            "outer": {"constant": _doc_complex(lead),
                      "exterior_zeros": [_doc_complex(r) for r in roots]}}


@st.composite
def zero_free_polynomials(draw):
    """(lead, roots): one to three roots with 1.1 <= |r| <= 3, at least 0.2 apart."""
    lead = _disk_point(draw, 0.5, 2.0)
    roots = [_disk_point(draw, 1.1, 3.0) for _ in range(draw(st.integers(1, 3)))]
    assume(all(abs(a - b) >= 0.2 for a, b in itertools.combinations(roots, 2)))
    return lead, roots


@seed(11)
@settings(max_examples=60, deadline=None)
@given(zero_free_polynomials())
def test_zero_free_polynomial_and_its_outer_symbol_flow_alike(case):
    # Both documents describe one F = lead * prod (z - r), so both embed through
    # F**t.  The polynomial side finds the roots again, to a few ulps for
    # separated roots; Log F(0) is principal, which that rounding can flip on
    # the negative axis.
    lead, roots = case
    assume(abs(cmath.phase(lead * np.prod([-r for r in roots]))) < np.pi - 1e-9)
    poly = decide_polynomial_toeplitz(parse_symbol_document(polynomial_doc(lead, roots))["symbol"])
    outer = decide_toeplitz(parse_symbol_document(outer_doc(lead, roots))["symbol"])
    for report in (poly, outer):
        assert report.verdict is Verdict.EMBEDDABLE
        assert isinstance(report.semigroup, OuterFlow)
    for t in (0.5, 1.0):
        want = outer.semigroup.coefficients(t, 16)
        gap = poly.semigroup.coefficients(t, 16) - want
        assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(want))


def test_polynomial_outer_oracle_detects_a_root_inside():
    # Reflecting one root into the disk gives the polynomial an interior zero,
    # and the outer symbol an exterior zero that is not exterior.
    lead, roots = 1.5 - 0.5j, [2.0, -1.2 + 0.9j]
    inside = [roots[0], 1 / np.conj(roots[1])]
    poly = decide_polynomial_toeplitz(parse_symbol_document(polynomial_doc(lead, inside))["symbol"])
    assert poly.verdict is Verdict.NOT_EMBEDDABLE and poly.semigroup is None
    with pytest.raises(SymbolFileError, match="exterior zeros"):
        parse_symbol_document(outer_doc(lead, inside))


# --------------------------------------------------------------------------
# invariance: phi and R_{-theta} . phi . R_theta decide and solve alike
# --------------------------------------------------------------------------


def conjugated_by_rotation(phi: BlaschkeProduct, theta: float) -> BlaschkeProduct:
    """z -> e^{-i theta} phi(e^{i theta} z): every zero moves by e^{-i theta}
    and the rotation gains theta per zero, less the theta of the outer
    R_{-theta}."""
    u = cmath.exp(-1j * theta)
    return BlaschkeProduct(phi.rotation + theta * (phi.degree - 1), phi.origin_order,
                           [(a * u, m) for a, m in phi.zeros])


@st.composite
def blaschke_fixing_a_point(draw):
    """(phi, alpha): a Blaschke product of degree 2 or 3 with phi(alpha) = alpha.

    The factor with zero a has modulus |tau_alpha(a)| at alpha.  The first
    zeros are tau_alpha(w) with |w| in [0.6, 0.9], so their product has
    modulus P >= 0.36 at alpha; the last is tau_alpha(w) with |w| = |alpha| / P
    < 1, which makes |phi(alpha)| = |alpha|, and the rotation turns phi(alpha)
    onto alpha.  A self-map of degree >= 2 attracts to its fixed point."""
    alpha = _disk_point(draw, 0.05, 0.2)
    tau = MobiusMap.disk_involution(alpha)
    zeros = [complex(tau(_disk_point(draw, 0.6, 0.9))) for _ in range(draw(st.integers(1, 2)))]
    bare = complex(BlaschkeProduct(zeros=[(a, 1) for a in zeros])(alpha))
    last = abs(alpha) / abs(bare) * cmath.exp(1j * draw(st.floats(-np.pi, np.pi)))
    zeros.append(complex(tau(last)))
    bare = complex(BlaschkeProduct(zeros=[(a, 1) for a in zeros])(alpha))
    return BlaschkeProduct(cmath.phase(alpha / bare), 0, [(a, 1) for a in zeros]), alpha


def _rotation_defect_at(phi, rot, theta):
    z = np.array([0.3, -0.5j, 0.2 + 0.6j])
    return float(np.max(np.abs(rot(z) - cmath.exp(-1j * theta) * phi(cmath.exp(1j * theta) * z))))


def _moved_fixed_point(phi, rot, theta):
    """The verdicts, and |fixed point of rot - e^{-i theta} fixed point of phi|."""
    report, rot_report = decide_composition(phi), decide_composition(rot)
    alpha, rot_alpha = report.details["fixed_point"], rot_report.details["fixed_point"]
    return report, rot_report, abs(rot_alpha - alpha * cmath.exp(-1j * theta))


@seed(11)
@settings(max_examples=60, deadline=None)
@given(case=blaschke_fixing_a_point(), theta=st.floats(-np.pi, np.pi))
def test_composition_decision_is_rotation_invariant(case, theta):
    phi, alpha = case
    rot = conjugated_by_rotation(phi, theta)
    assert _rotation_defect_at(phi, rot, theta) <= 1e-13
    report, rot_report, moved = _moved_fixed_point(phi, rot, theta)
    expected = (Verdict.EMBEDDABLE, "similar-isometry-shift-embedding")
    assert (report.verdict, report.governing_result) == expected
    assert (rot_report.verdict, rot_report.governing_result) == expected
    assert abs(report.details["fixed_point"] - alpha) <= 1e-12
    assert moved <= 1e-12
    assert abs(rot_report.details["multiplier"] - report.details["multiplier"]) <= 1e-12


@seed(11)
@settings(max_examples=60, deadline=None)
@given(case=blaschke_fixing_a_point(), theta=st.floats(-np.pi, np.pi),
       beta=st.builds(lambda r, a: r * cmath.exp(1j * a), st.floats(0.0, 0.9),
                      st.floats(-np.pi, np.pi)))
def test_preimages_are_rotation_invariant(case, theta, beta):
    # phi_theta(z) = beta iff phi(e^{i theta} z) = e^{i theta} beta
    phi, _ = case
    got = solve_blaschke_equation(conjugated_by_rotation(phi, theta), beta).solutions.roots
    want = [(v * cmath.exp(-1j * theta), m) for v, m in
            solve_blaschke_equation(phi, cmath.exp(1j * theta) * beta).solutions.roots]
    assert len(got) == len(want)
    for v, m in got:
        k = min(range(len(want)), key=lambda i: abs(want[i][0] - v))
        assert abs(want[k][0] - v) <= 1e-10 and want[k][1] == m
        del want[k]


def test_composition_oracle_detects_a_flipped_angle():
    # The oracle tells theta from -theta: turning the zeros the wrong way
    # moves the map and its fixed point by O(1).
    phi = BlaschkeProduct(0.4, 0, [(0.5, 1), (-0.3 + 0.6j, 1)])
    theta = 0.8
    assert _rotation_defect_at(phi, conjugated_by_rotation(phi, theta), theta) <= 1e-13
    assert _rotation_defect_at(phi, conjugated_by_rotation(phi, -theta), theta) > 1e-2
    assert _moved_fixed_point(phi, conjugated_by_rotation(phi, theta), theta)[2] <= 1e-12
    assert _moved_fixed_point(phi, conjugated_by_rotation(phi, -theta), theta)[2] > 1e-2
