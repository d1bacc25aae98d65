"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports the program.  Verdicts follow from the symbol's
parameters by the paper's criteria; roots come from this file's own
Weierstrass iteration; flow coefficients come from closed forms (binomial
series of F**t, Laguerre series of S**t) rather than from recurrences or
FFTs like the program's.
"""
from __future__ import annotations

import cmath
import csv
import math

import numpy as np

# The program's default tolerance (`--tol`), used wherever a check compares
# numbers the program computed in floating point with an exact value.
TOL = 1e-8

# --------------------------------------------------------------------------
# polynomials (coefficient lists, lowest degree first)
# --------------------------------------------------------------------------


def poly_mul(p, q):
    out = [0j] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_eval(p, z):
    acc = 0j
    for c in reversed(p):
        acc = acc * z + c
    return acc


def poly_roots(coeffs, iterations=500):
    """All roots of a polynomial by Weierstrass (Durand-Kerner) iteration,
    polished by Newton steps on the original polynomial."""
    p = [complex(c) for c in coeffs]
    while p and p[-1] == 0:
        p.pop()
    deg = len(p) - 1
    if deg < 1:
        return []
    monic = [c / p[-1] for c in p]
    radius = 1.0 + max(abs(c) for c in monic[:-1])
    roots = [radius * cmath.exp(2j * math.pi * (k + 0.25) / deg) for k in range(deg)]
    for _ in range(iterations):
        worst = 0.0
        for i in range(deg):
            den = 1.0 + 0j
            for j in range(deg):
                if j != i:
                    den *= roots[i] - roots[j]
            step = poly_eval(monic, roots[i]) / den
            roots[i] -= step
            worst = max(worst, abs(step))
        if worst < 1e-15 * radius:
            break
    dp = [k * c for k, c in enumerate(p)][1:]
    for i in range(deg):
        for _ in range(3):
            d = poly_eval(dp, roots[i])
            if d == 0:
                break
            roots[i] -= poly_eval(p, roots[i]) / d
    return roots


# --------------------------------------------------------------------------
# symbol documents
# --------------------------------------------------------------------------


def cplx(obj) -> complex:
    return complex(obj.get("re", 0.0), obj.get("im", 0.0))


def blaschke_parts(doc):
    """(phase, origin order, [(zero, multiplicity)]) of a Blaschke document;
    each factor is (a - z)/(1 - conj(a) z)."""
    zeros = [(cplx(z), int(z["mult"])) for z in doc.get("zeros", [])]
    return cmath.exp(1j * doc.get("rotation", 0.0)), int(doc.get("origin_order", 0)), zeros


def blaschke_degree(doc) -> int:
    _, k, zeros = blaschke_parts(doc)
    return k + sum(m for _, m in zeros)


def blaschke_eval(doc, z):
    phase, k, zeros = blaschke_parts(doc)
    z = np.asarray(z, dtype=complex)
    out = phase * z**k
    for a, m in zeros:
        out = out * ((a - z) / (1.0 - np.conj(a) * z)) ** m
    return out


def blaschke_num_den(doc):
    """Polynomials P, Q with B = P / Q."""
    phase, k, zeros = blaschke_parts(doc)
    num = [0j] * k + [phase]
    den = [1 + 0j]
    for a, m in zeros:
        for _ in range(m):
            num = poly_mul(num, [a, -1.0])
            den = poly_mul(den, [1.0, -a.conjugate()])
    return num, den


def blaschke_preimages(doc, beta):
    """Solutions of B(z) = beta in the disk: roots of P - beta Q."""
    num, den = blaschke_num_den(doc)
    den = den + [0j] * (len(num) - len(den))
    return poly_roots([p - beta * q for p, q in zip(num, den)])


def disk_involution(alpha):
    """tau_alpha(z) = (alpha - z)/(1 - conj(alpha) z) as a callable."""
    alpha = complex(alpha)
    return lambda z: (alpha - z) / (1.0 - np.conj(alpha) * z)


# --------------------------------------------------------------------------
# verdicts by the paper's criteria
# --------------------------------------------------------------------------


def toeplitz_verdict(doc):
    """Verdict and governing token of the analytic Toeplitz operator of
    B * S * F: an inner symbol embeds iff it is not a finite Blaschke
    product; a zero-free symbol embeds through its flows; a finite Blaschke
    factor times a non-inner outer factor has finite nonzero image
    codimension; Blaschke times singular times outer is open."""
    b = doc.get("blaschke")
    has_b = bool(b) and blaschke_degree(b) > 0
    has_s = bool(doc.get("singular")) and bool(doc["singular"].get("atoms"))
    outer = doc.get("outer")
    has_f = False
    if outer:
        constant = cplx(outer.get("constant", {"re": 1.0}))
        has_f = bool(outer.get("conjugate_factors") or outer.get("exterior_zeros"))
        has_f = has_f or abs(abs(constant) - 1.0) > 1e-12
    if doc.get("declared_infinite_blaschke"):
        if has_f:
            return "Unknown", "blaschke-nonvanishing-open-question"
        return "Embeddable", "inner-toeplitz-dichotomy"
    if not has_f:
        if has_s:
            return "Embeddable", "inner-toeplitz-dichotomy"
        return "NotEmbeddable", "inner-toeplitz-dichotomy"
    if not has_b:
        if has_s:
            return "Embeddable", "inner-outer-product-flow"
        return "Embeddable", "outer-symbol-flow"
    if not has_s:
        return "NotEmbeddable", "finite-codimension-obstruction"
    return "Unknown", "blaschke-nonvanishing-open-question"


def polynomial_verdict(coeffs):
    """A polynomial Toeplitz operator embeds iff no zero lies in the disk."""
    inside = [r for r in poly_roots(coeffs) if abs(r) < 1.0]
    return ("NotEmbeddable" if inside else "Embeddable"), "polynomial-zero-criterion", inside


def mobius_fixed_points(a, b, c, d):
    """Finite fixed points of z -> (a z + b)/(c z + d): roots of
    c z^2 + (d - a) z - b (one root escapes to infinity when c = 0)."""
    if abs(c) < 1e-15:
        return [b / (d - a)] if abs(d - a) > 1e-15 else []
    disc = cmath.sqrt((d - a) ** 2 + 4 * b * c)
    return [((a - d) + disc) / (2 * c), ((a - d) - disc) / (2 * c)]


def is_self_map(a, b, c, d, margin=0.0):
    """Cowen-MacCluer criterion for (a z + b)/(c z + d) to map the disk into
    itself: |b conj(d) - a conj(c)| + |a d - b c| <= |d|^2 - |c|^2."""
    lhs = abs(b * np.conj(d) - a * np.conj(c)) + abs(a * d - b * c)
    return lhs <= (abs(d) ** 2 - abs(c) ** 2) * (1.0 - margin)


def spiral_sides(a, b, c, d):
    """Both sides of the spiral inequality |conj(alpha) - 1/beta| * l <=
    |phi'(alpha)| * |1 - alpha/beta| for an attractive elliptic map, with
    alpha the interior fixed point, beta the other one (1/beta = 0 at
    infinity) and l the length |Log lam| / (-Re Log lam) of the spiral
    of the multiplier lam = phi'(alpha)."""
    alpha, *others = sorted(mobius_fixed_points(a, b, c, d), key=abs)
    inv_beta = 1.0 / others[0] if others else 0.0
    lam = (a * d - b * c) / (c * alpha + d) ** 2
    log_lam = cmath.log(lam)
    length = abs(log_lam) / (-log_lam.real)
    return abs(np.conj(alpha) - inv_beta) * length, abs(lam) * abs(1.0 - alpha * inv_beta), alpha


def lfm_verdict(a, b, c, d):
    lhs, rhs, _ = spiral_sides(a, b, c, d)
    return ("Embeddable" if lhs <= rhs else "NotEmbeddable"), "attractive-elliptic-spiral-condition"


def singular_inner_fixed_point(atoms, steps=2000):
    """Attracting fixed point of S = exp(-sum mass (zeta + z)/(zeta - z)) by
    iteration from 0 (Denjoy-Wolff), or None when the orbit nears the circle."""
    zetas = [(cmath.exp(1j * a["angle"]), a["mass"]) for a in atoms]
    z = 0j
    for _ in range(steps):
        nxt = cmath.exp(-sum(m * (zeta + z) / (zeta - z) for zeta, m in zetas))
        if abs(nxt) > 1.0 - 1e-6:
            return None
        if abs(nxt - z) < 1e-15:
            return nxt
        z = nxt
    return None


# --------------------------------------------------------------------------
# Wold levels of z -> z**k
# --------------------------------------------------------------------------


def zk_level_supports(k: int, n: int):
    """Supports of the Wold levels of C_{z^k} on H^2_n: level j holds the
    monomials z^(k^j m) below n with k not dividing m, m >= 1."""
    levels = []
    step = 1
    while step < n:
        levels.append([step * m for m in range(1, n) if m % k and step * m < n])
        step *= k
    return levels


# --------------------------------------------------------------------------
# closed-form flow coefficients
# --------------------------------------------------------------------------


def binomial_series(w, t, n):
    """Taylor coefficients of (1 - w z)**t, principal branch (value 1 at 0)."""
    out = np.zeros(n, dtype=complex)
    coef = 1.0 + 0j
    for k in range(n):
        out[k] = coef * (-w) ** k
        coef = coef * (t - k) / (k + 1)
    return out


def laguerre_minus_one(k_max, x):
    """L_k^(-1)(x) for k = 0..k_max-1 by the three-term recurrence."""
    out = np.zeros(k_max)
    out[0] = 1.0
    if k_max > 1:
        out[1] = -x
    for k in range(1, k_max - 1):
        out[k + 1] = ((2 * k - x) * out[k] - (k - 1) * out[k - 1]) / (k + 1)
    return out


def convolve(p, q, n):
    return np.convolve(p, q)[:n]


def outer_power(outer_doc, t, n):
    """F**t for F = c prod(1 - conj(a) z) prod(z - beta), anchored at the
    principal logarithm of F(0) = c prod(-beta)."""
    constant = cplx(outer_doc.get("constant", {"re": 1.0}))
    conj = [cplx(a) for a in outer_doc.get("conjugate_factors", [])]
    ext = [cplx(b) for b in outer_doc.get("exterior_zeros", [])]
    f0 = constant
    for beta in ext:
        f0 *= -beta
    out = np.zeros(n, dtype=complex)
    # Principal branch, arg in (-pi, pi]: a negative F(0) takes +i pi
    # whatever the sign of its zero imaginary part.
    out[0] = cmath.exp(t * cmath.log(complex(f0.real, f0.imag + 0.0)))
    for a in conj:
        out = convolve(out, binomial_series(a.conjugate(), t, n), n)
    for beta in ext:
        out = convolve(out, binomial_series(1.0 / beta, t, n), n)
    return out


def singular_power(atoms, t, n):
    """S**t for S = exp(-sum mass (zeta + z)/(zeta - z)): per atom
    exp(-x) sum_k L_k^(-1)(2 x) (z/zeta)^k with x = t * mass."""
    out = np.zeros(n, dtype=complex)
    out[0] = 1.0
    for atom in atoms:
        x = t * atom["mass"]
        zeta_bar = cmath.exp(-1j * atom["angle"])
        series = math.exp(-x) * laguerre_minus_one(n, 2 * x) * zeta_bar ** np.arange(n)
        out = convolve(out, series, n)
    return out


def toeplitz_power(doc, t, n):
    """Taylor coefficients of symbol**t for a zero-free Toeplitz document
    (singular part times outer part), or of a polynomial document."""
    if doc["kind"] == "polynomial":
        coeffs = [cplx(c) for c in doc["polynomial"]["coeffs"]]
        roots = poly_roots(coeffs)
        outer = {
            "constant": {"re": coeffs[-1].real, "im": coeffs[-1].imag},
            "exterior_zeros": [{"re": r.real, "im": r.imag} for r in roots],
        }
        return outer_power(outer, t, n)
    out = np.zeros(n, dtype=complex)
    out[0] = 1.0
    if doc.get("singular"):
        out = convolve(out, singular_power(doc["singular"]["atoms"], t, n), n)
    if doc.get("outer"):
        out = convolve(out, outer_power(doc["outer"], t, n), n)
    return out


def lower_toeplitz(c):
    n = len(c)
    i, j = np.indices((n, n))
    return np.where(i >= j, np.asarray(c)[np.clip(i - j, 0, None)], 0.0)


# --------------------------------------------------------------------------
# sample files
# --------------------------------------------------------------------------


def read_matrix_csv(path):
    """A matrix dump: header ``re_ij,im_ij``, then the entries of a square
    matrix row-major, one ``re,im`` pair per line."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["re_ij", "im_ij"]:
        raise ValueError(f"{path}: bad header {rows[:1]}")
    vals = np.array([[float(r), float(i)] for r, i in rows[1:]])
    n = math.isqrt(len(vals))
    if n * n != len(vals):
        raise ValueError(f"{path}: {len(vals)} entries do not form a square matrix")
    return (vals[:, 0] + 1j * vals[:, 1]).reshape(n, n)


def law_defect(ops: dict):
    """max spectral norm of V(t+s) - V(t) V(s) over sampled t, s > 0."""
    worst = 0.0
    times = sorted(ops)
    for t in times:
        for s in times:
            u = t + s
            match = [v for v in times if abs(v - u) < 1e-12]
            if t > 0 and s > 0 and match:
                gap = ops[match[0]] - ops[t] @ ops[s]
                worst = max(worst, float(np.linalg.norm(gap, 2)))
    return worst
