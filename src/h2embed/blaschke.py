"""Solving B(z) = beta for finite Blaschke products, and what hangs off it:
Frostman transforms, conjugation by a disk automorphism, and fixed points
in the disk.

A finite Blaschke product of degree N takes every value of the disk exactly
N times; writing B = P/Q turns B(z) = beta into the polynomial equation
P - beta Q = 0, which is how everything here is computed.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSymbol, DomainError, ResidualFailure
from .polynomials import (
    DEFAULT_BOUNDARY_TOL,
    Polynomial,
    RootSet,
    poly_mul,
    poly_roots,
    poly_scale,
    poly_sub,
)
from .symbols import BlaschkeProduct, MobiusMap

__all__ = [
    "PreimageSet",
    "solve_blaschke_equation",
    "frostman_transform",
    "conjugate_by_automorphism",
    "fixed_points_in_disk",
    "interior_fixed_point",
]

# |B(z) - beta| accepted at a computed preimage: the companion roots' backward
# error eps ||P - beta Q||_1 puts it near 1e-15, and 1e-10 leaves room for the
# degree and for merged multiple roots
_PREIMAGE_RESIDUAL = 1e-10
_CONJUGATION_RESIDUAL = 1e-9  # looser than _PREIMAGE_RESIDUAL: alpha is itself a computed root
_ORIGIN_TOL = 1e-9  # far above the rounding of a merged root at the origin
# interior_fixed_point: orbits to an interior point converge geometrically
_ORBIT_STEPS, _ORBIT_TOL, _ORBIT_MARGIN = 400, 1e-12, 1e-6
_FIXED_POINT_RESIDUAL = 1e3 * _ORBIT_TOL  # |f(z) - z| accepted after the Newton polish
# |f'(z) - 1| below this ends the polish: the Newton step would multiply the
# orbit's last move by more than 1e14
_NEWTON_FLOOR = 1e-14
_ANCHOR_FLOOR = 1e-12  # |B| below this at every probe leaves target/B no digits of the rotation


@dataclass
class PreimageSet:
    """Solutions of B(z) = target inside the disk, counted with multiplicity."""

    target: complex
    solutions: RootSet
    all_distinct: bool


def solve_blaschke_equation(
    b: BlaschkeProduct, beta, tol: float = _PREIMAGE_RESIDUAL
) -> PreimageSet:
    """All deg(B) preimages of ``beta`` under ``b``, with multiplicities.

    Raises :class:`ResidualFailure` if a claimed root fails |B(z) - beta| <= tol.
    """
    beta = complex(beta)
    if b.degree < 1:
        raise DegenerateSymbol("preimages need a nonconstant Blaschke product")
    if abs(beta) >= 1.0:
        raise DomainError("target values must lie in the open disk")
    p, q = b.numerator_denominator()
    rs = poly_roots(poly_sub(p, poly_scale(q, beta)))
    if rs.total_multiplicity != b.degree:
        raise ResidualFailure(
            f"expected {b.degree} preimages, root finder produced "
            f"{rs.total_multiplicity}"
        )
    worst = max(abs(complex(b(v)) - beta) for v, _ in rs.roots)
    if worst > tol:
        raise ResidualFailure(
            f"preimage residual {worst:.3e} exceeds tolerance {tol:.3e}"
        )
    return PreimageSet(beta, rs, all(m == 1 for _, m in rs.roots))


def _fit_rotation(origin_order, zeros, target) -> BlaschkeProduct:
    """Blaschke product with the given zeros whose rotation matches ``target``."""
    bare = BlaschkeProduct(rotation=0.0, origin_order=origin_order, zeros=zeros)
    probes = np.concatenate(
        ([0.0 + 0.0j], 0.4 * np.exp(2j * np.pi * (np.arange(8) + 0.3) / 8))
    )
    bv = np.asarray(bare(probes))
    k = int(np.argmax(np.abs(bv)))
    if abs(bv[k]) < _ANCHOR_FLOOR:
        raise ResidualFailure("could not anchor the rotation: candidate vanishes")
    ratio = complex(np.asarray(target(probes[k]))) / complex(bv[k])
    return BlaschkeProduct(
        rotation=float(np.angle(ratio)), origin_order=origin_order, zeros=zeros
    )


def _split_origin(rs: RootSet):
    origin = 0
    zeros = []
    for v, m in rs.roots:
        if abs(v) < _ORIGIN_TOL:
            origin += m
        else:
            zeros.append((v, m))
    return origin, zeros


def frostman_transform(b: BlaschkeProduct, lam, tol: float = 1e-8):
    """tau_lam . b as a Blaschke product, plus a simple-zero flag.

    The zeros of the transform are the preimages of ``lam`` under ``b``;
    they are simple exactly when b' does not vanish at any of them
    (|b'| > tol is the numerical test).  The rotation is fitted so the
    result evaluates equal to tau_lam(b(z)).
    """
    lam = complex(lam)
    if abs(lam) >= 1.0:
        raise DomainError("Frostman parameter must lie in the open disk")
    pre = solve_blaschke_equation(b, lam, tol=max(tol, _PREIMAGE_RESIDUAL))
    origin, zeros = _split_origin(pre.solutions)
    tau = MobiusMap.disk_involution(lam)
    result = _fit_rotation(origin, zeros, lambda z: tau(b(z)))
    simple = all(abs(complex(b.derivative(v))) > tol for v in pre.solutions.values())
    return result, simple


def conjugate_by_automorphism(b: BlaschkeProduct, alpha) -> BlaschkeProduct:
    """tau_alpha . b . tau_alpha as a Blaschke product.

    Its zeros are tau_alpha applied to the preimages of ``alpha``; in
    particular a fixed point alpha of ``b`` maps to an origin zero, so the
    conjugate fixes 0.
    """
    alpha = complex(alpha)
    tau = MobiusMap.disk_involution(alpha)
    pre = solve_blaschke_equation(b, alpha, tol=_CONJUGATION_RESIDUAL)
    moved = RootSet(
        [(complex(tau(v)), m) for v, m in pre.solutions.roots],
        pre.solutions.residual_bound,
    )
    origin, zeros = _split_origin(moved)
    return _fit_rotation(origin, zeros, lambda z: tau(b(tau(z))))


def fixed_points_in_disk(phi: BlaschkeProduct):
    """Solutions of phi(z) = z inside the disk, off the ``DEFAULT_BOUNDARY_TOL``
    band at the circle, with phi'(z) at each.

    ``phi`` is a Blaschke product, so the fixed points are polynomial
    roots.  A holomorphic self-map has at most one interior fixed point;
    more than one signals a numerical anomaly and is warned.
    """
    if not isinstance(phi, BlaschkeProduct):
        raise TypeError("fixed points are computed for Blaschke products")
    p, q = phi.numerator_denominator()
    fp = poly_sub(p, poly_mul(Polynomial([0.0, 1.0]), q))
    if fp.is_zero:
        raise DegenerateSymbol("identity map: every point is fixed")
    if fp.degree == 0:
        return []
    rs = poly_roots(fp)
    out = [
        (v, complex(phi.derivative(v)))
        for v, _ in rs.roots
        if abs(v) < 1.0 - DEFAULT_BOUNDARY_TOL
    ]
    if len(out) > 1:
        warnings.warn(
            "more than one interior fixed point found; "
            "the input is numerically inconsistent with a disk self-map"
        )
    return out


def interior_fixed_point(f, derivative):
    """Attracting interior fixed point of a non-automorphic self-map, or None.

    Plain forward iteration from 0 (the orbit converges to the attracting
    point whenever it lies inside), followed by a few Newton polish steps.
    Returns None when the orbit drifts to the boundary instead.
    """
    z = 0.0 + 0.0j
    for _ in range(_ORBIT_STEPS):
        nz = complex(np.asarray(f(z)))
        if abs(nz) > 1.0 - _ORBIT_MARGIN:
            return None
        if abs(nz - z) < 1e2 * _ORBIT_TOL:
            z = nz
            break
        z = nz
    else:
        return None
    for _ in range(4):
        fz = complex(np.asarray(f(z)))
        dz = complex(np.asarray(derivative(z)))
        denom = dz - 1.0
        if abs(denom) < _NEWTON_FLOOR:
            break
        z = z - (fz - z) / denom
    if abs(complex(np.asarray(f(z))) - z) > _FIXED_POINT_RESIDUAL:
        return None
    return z
