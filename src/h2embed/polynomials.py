"""Complex polynomial arithmetic and root finding.

Coefficients are stored in ascending degree order; an empty coefficient
array is the zero polynomial.  The kernels are plain numpy: products by
``np.convolve``, values by Horner's rule, roots as the sorted eigenvalues
of the companion matrix followed by a cluster merge, so that multiple
roots are reported once with their multiplicity together with an honest
residual bound.  Each kernel performs the floating-point operations of its
counterpart in numpy's polynomial package (polymul, polysub, polypow,
polyder, polyval, polyroots) in the same order, so results agree bit for
bit, signed zeros included.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
_EPS = float(np.finfo(float).eps)


@dataclass
class Polynomial:
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).ravel()
        n = c.size
        while n and c[n - 1] == 0:
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
        return _horner(self.coeffs, z)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )


def _horner(c: np.ndarray, z):
    """c[0] + c[1] z + ... at the points ``z`` (an array), by Horner's rule.

    The start c[-1] + z * 0 has the shape of ``z`` and carries the signs of
    zero that numpy's polyval gives."""
    v = c[-1] + z * 0
    for k in range(c.size - 2, -1, -1):
        v = c[k] + v * z
    return v


def _coeffs(p) -> np.ndarray:
    if isinstance(p, Polynomial):
        c = p.coeffs
    else:
        c = np.atleast_1d(np.asarray(p, dtype=complex)).ravel()
    return c if c.size else np.zeros(1, dtype=complex)


def _series(p) -> np.ndarray:
    """The coefficients as numpy's polynomial functions read them: trailing
    zeros dropped, one entry kept."""
    c = _coeffs(p)
    if isinstance(p, Polynomial):
        return c  # trimmed already
    n = c.size
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def poly_sub(p, q) -> Polynomial:
    a, b = _series(p), _series(q)
    if a.size > b.size:
        out = a.copy()
        out[: b.size] -= b
    else:  # -q + p, as numpy's polysub adds: past p the tail is -q, with -0 for +0
        out = -b
        out[: a.size] += a
    return Polynomial(out)


def poly_mul(p, q) -> Polynomial:
    return Polynomial(np.convolve(_series(p), _series(q)))


def poly_scale(p, c) -> Polynomial:
    return Polynomial(_coeffs(p) * complex(c))


def poly_pow(p, k: int) -> Polynomial:
    if k < 0 or int(k) != k:
        raise ValueError("nonnegative integer power required")
    c = _series(p)
    out = c if k else np.ones(1, dtype=complex)
    for _ in range(int(k) - 1):
        out = np.convolve(out, c)
    return Polynomial(out)


def poly_derivative(p) -> Polynomial:
    p = p if isinstance(p, Polynomial) else Polynomial(p)
    if p.degree <= 0:
        return Polynomial([])
    c = p.coeffs * 1  # the unit scale, a complex product that can flip a zero's sign
    return Polynomial(np.arange(1, c.size) * c[1:])


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
    scatter = _EPS * norm * sum(abs(c) ** i for i in range(len(raw) + 1))
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
    raw = _companion_roots(p.coeffs).tolist()
    # a cluster's centroid is np.mean's, which adds a lone root to +0
    roots = [
        (raw[g[0]] + 0j if len(g) == 1 else complex(np.mean([raw[i] for i in g])), len(g))
        for g in _root_clusters(raw, p.coeffs)
    ]
    roots.sort(key=lambda vm: (vm[0].real, vm[0].imag))
    residual = max(map(abs, p(np.array([v for v, _ in roots])).tolist()))
    return RootSet(roots, residual)


def _root_clusters(raw: list, c: np.ndarray) -> list:
    """The merge of :func:`poly_roots`: lists of indices into ``raw``, the
    computed roots of the coefficients ``c``, each list one root."""
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
    lead, norm = complex(c[-1]), sum(map(abs, c.tolist()))
    groups, todo = [], [len(members) - 1]
    while todo:
        node = todo.pop()
        if kids[node] and not _is_one_root(raw, members[node], lead, norm):
            todo.extend(kids[node])
        else:
            groups.append(members[node])
    return groups


def _companion_roots(c: np.ndarray) -> np.ndarray:
    """Roots of the trimmed coefficients ``c`` (degree >= 1), sorted: the
    eigenvalues of the companion matrix with last column -c[:-1]/c[-1]."""
    if c.size == 2:
        return np.array([-c[0] / c[1]])
    n = c.size - 1
    mat = np.zeros((n, n), dtype=complex)
    mat.reshape(-1)[n :: n + 1] = 1
    mat[:, -1] -= c[:-1] / c[-1]  # 0 - x, not -x: +0 where x is +0
    r = np.linalg.eigvals(mat)
    r.sort()
    return r


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
