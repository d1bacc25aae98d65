"""Complex polynomial arithmetic and root finding.

Coefficients are stored in ascending degree order; an empty coefficient
array is the zero polynomial.  Root finding goes through the companion
matrix (``numpy.polynomial.polyroots``) followed by a cluster merge, so
that multiple roots are reported once with their multiplicity together
with an honest residual bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import ZeroPolynomial

__all__ = [
    "Polynomial",
    "RootSet",
    "DiskPartition",
    "poly_sub",
    "poly_mul",
    "poly_scale",
    "poly_pow",
    "poly_derivative",
    "poly_roots",
    "roots_in_disk",
]

DEFAULT_BOUNDARY_TOL = 1e-9
_SCATTER_FACTOR = 2.0  # measured spread of k-fold roots, k = 2..7: at most 1.06 r_k


@dataclass
class Polynomial:
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex)).ravel()
        n = c.size
        while n > 0 and c[n - 1] == 0:
            n -= 1
        self.coeffs = c[:n].copy()

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if self.is_zero:
            return np.zeros_like(z)
        return npoly.polyval(z, self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )


def _coeffs(p) -> np.ndarray:
    if isinstance(p, Polynomial):
        c = p.coeffs
    else:
        c = np.atleast_1d(np.asarray(p, dtype=complex)).ravel()
    return c if c.size else np.zeros(1, dtype=complex)


def poly_sub(p, q) -> Polynomial:
    return Polynomial(npoly.polysub(_coeffs(p), _coeffs(q)))


def poly_mul(p, q) -> Polynomial:
    return Polynomial(npoly.polymul(_coeffs(p), _coeffs(q)))


def poly_scale(p, c) -> Polynomial:
    return Polynomial(_coeffs(p) * complex(c))


def poly_pow(p, k: int) -> Polynomial:
    if k < 0:
        raise ValueError("nonnegative power required")
    return Polynomial(npoly.polypow(_coeffs(p), k))


def poly_derivative(p) -> Polynomial:
    p = p if isinstance(p, Polynomial) else Polynomial(p)
    if p.degree <= 0:
        return Polynomial([])
    return Polynomial(npoly.polyder(p.coeffs))


@dataclass
class RootSet:
    """Roots with multiplicities plus the worst residual |p(root)| observed."""

    roots: list  # (value, multiplicity) pairs, sorted by (real, imag)
    residual_bound: float

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)

    def values(self):
        return [v for v, _ in self.roots]


def _is_one_root(raw: list, group: list, lead: complex, norm: float) -> bool:
    """The merge rule of :func:`poly_roots` for the roots raw[i], i in group."""
    pts = [raw[i] for i in group]
    c = sum(pts) / len(pts)
    q = lead  # the cofactor q(c)
    for i, z in enumerate(raw):
        if i not in group:
            q *= c - z
    scatter = np.finfo(float).eps * norm * sum(abs(c) ** i for i in range(len(raw) + 1))
    return (max(abs(z - c) for z in pts) / _SCATTER_FACTOR) ** len(pts) * abs(q) <= scatter


def poly_roots(p) -> RootSet:
    """All roots of ``p`` with multiplicity, and max |p(root)| over them.

    The companion roots are the exact roots of some p + dp with ||dp||_1
    about eps ||p||_1 (Edelman-Murakami, Math. Comp. 64, 1995), so the k
    computed roots of a k-fold root, p = (z - z0)^k q, scatter within
    r_k = (eps ||p||_1 sum_i |c|^i / |q(c)|)^(1/k) of their centroid c.  From
    the top of the single-linkage merge tree down, the largest clusters within
    ``_SCATTER_FACTOR`` r_k of c become one root at c: a triple root
    (scatter 1e-5) merges, two simple roots 1e-4 apart stay two.
    """
    p = p if isinstance(p, Polynomial) else Polynomial(p)
    if p.is_zero:
        raise ZeroPolynomial("cannot extract roots of the zero polynomial")
    if p.degree == 0:
        return RootSet([], 0.0)
    raw = npoly.polyroots(p.coeffs).tolist()
    d = len(raw)
    # node i < d is root i; each later node joins the two nodes that hold
    # the next closest pair of roots in different nodes
    members, kids, top = [[i] for i in range(d)], [()] * d, list(range(d))
    for _, i, j in sorted((abs(raw[i] - raw[j]), i, j) for i in range(d) for j in range(i)):
        if top[i] != top[j]:
            kids.append((top[i], top[j]))
            members.append(members[top[i]] + members[top[j]])
            for m in members[-1]:
                top[m] = len(members) - 1
    lead, norm = complex(p.coeffs[-1]), sum(map(abs, p.coeffs.tolist()))
    groups, todo = [], [len(members) - 1]
    while todo:
        node = todo.pop()
        if kids[node] and not _is_one_root(raw, members[node], lead, norm):
            todo.extend(kids[node])
        else:
            groups.append(members[node])

    roots = [(complex(np.mean([raw[i] for i in g])), len(g)) for g in groups]
    roots.sort(key=lambda vm: (vm[0].real, vm[0].imag))
    residual = max(abs(complex(p(v))) for v, _ in roots)
    return RootSet(roots, float(residual))


@dataclass
class DiskPartition:
    """Roots split by position relative to the unit circle."""

    inside: list
    boundary: list
    outside: list


def roots_in_disk(rs: RootSet, tol: float = DEFAULT_BOUNDARY_TOL) -> DiskPartition:
    """Classify roots against the unit disk with a boundary band of width ``tol``."""
    inside, boundary, outside = [], [], []
    for v, m in rs.roots:
        r = abs(v)
        if abs(r - 1.0) <= tol:
            boundary.append((v, m))
        elif r < 1.0 - tol:
            inside.append((v, m))
        else:
            outside.append((v, m))
    return DiskPartition(inside, boundary, outside)
