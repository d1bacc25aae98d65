"""Property checks over sampled operator semigroups.

Every check returns a :class:`VerificationRecord`: a named defect, the
threshold it was held to, witnesses for the worst offenders, and a pass
flag.  Thresholds are parameters, except the Wold check's wandering bound,
the one its basis is built to, and the continuity check's monotonicity
slack.  A check that does not apply to a sample (isometry of a
non-isometric flow, Wold reconstruction of an automorphism) reports
``applicable=False`` and never fails.  A defect that is not finite (an
operator holding NaN or infinity) counts as +inf, so its check fails.  The
law check takes the Frobenius norm, an upper bound of the operator norm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AutomorphismInput
from .operators import DEFAULT_RANK_TOL, LowerToeplitz
from .semigroups import (
    OperatorSemigroupSample,
    embed_isometric_composition,
    wold_comparison_defect,
)

__all__ = [
    "VerificationRecord",
    "check_semigroup_law",
    "check_isometry",
    "check_noncompactness_proxy",
    "check_strong_continuity",
    "check_wold_reconstruction",
]

_NORM_VECTORS = 9  # the lowest-degree resolved vectors, which truncation disturbs least
_CONTINUITY_VECTORS = 4  # test vectors of the continuity check
_MONOTONE_SLACK = 1e-10  # rise of ||V_t x - x|| toward t = 0 forgiven as rounding


@dataclass
class VerificationRecord:
    name: str
    max_defect: float
    threshold: float
    passed: bool
    witnesses: list = field(default_factory=list)
    applicable: bool = True
    details: dict = field(default_factory=dict)


def _worst(defects) -> float:
    """The largest of ``defects``, or +inf when any is not finite: a NaN
    loses every comparison, so ``max`` would let it pass."""
    defects = np.asarray(defects, dtype=float)
    return float(np.max(defects)) if np.isfinite(defects).all() else math.inf


def _record(name: str, witnesses: list, tol: float, worst: float = 0.0) -> VerificationRecord:
    """The record of ``witnesses`` (label, defect) held to ``tol``, with the
    five worst witnesses, worst first.  Its defect is the largest witness
    defect floored at ``worst``: 0.0 unless given, as a noncompactness
    defect can be negative."""
    worst = max([worst] + [defect for _, defect in witnesses])
    witnesses = sorted(witnesses, key=lambda w: -w[1])[:5]
    return VerificationRecord(name, worst, tol, worst <= tol, witnesses)


def _inapplicable(name: str, threshold: float, reason: str) -> VerificationRecord:
    return VerificationRecord(
        name=name,
        max_defect=0.0,
        threshold=threshold,
        passed=True,
        applicable=False,
        details={"reason": reason},
    )


def check_semigroup_law(
    sample: OperatorSemigroupSample, pairs, tol: float
) -> VerificationRecord:
    """max over pairs (t, s) of the Frobenius norm, an upper bound of the
    operator norm, of V(t+s) - V(t) V(s) on the sample's own space, at least
    the gap on any subspace an isometry embeds.  The operator norm would
    take an SVD.

    The gap of a pair costs what its operators' kinds allow (see
    :class:`OperatorSemigroupSample`):

    * three index operators (row-gather arrays ``src``) compose as
      indices: V_t V_s reads row a_i = src_s[src_t[i]], or 0 where either
      is -1 (a_i = -1).  Row i of the gap is e_b - e_a with b_i =
      src_{t+s}[i]: 0 where a_i = b_i, one unit entry where one of them is
      -1, two otherwise.  So the squared Frobenius norm is the integer
      #{a_i != b_i} + #{a_i != b_i, a_i >= 0, b_i >= 0}, and the gap is
      exact and costs O(dim), with no matrix formed;
    * three :class:`LowerToeplitz` operators with columns c_t, c_s and
      c_{t+s} have the lower-triangular Toeplitz gap T(d) with
      d = c_{t+s} - (c_t * c_s)[:n], the truncated convolution, whose
      Frobenius norm is sqrt(sum_k (n - k) |d_k|^2) exactly, in O(n^2);
    * any other pair takes the dense product, in O(dim^3).

    A time the sample does not hold raises :class:`MissingTime`."""
    witnesses = []
    for t, s in pairs:
        ops = op_t, op_s, op_ts = [sample.operator_at(x) for x in (t, s, t + s)]
        if op_t.ndim == op_s.ndim == op_ts.ndim == 1:
            a = np.where(op_t >= 0, op_s[op_t], -1)
            miss = a != op_ts
            both = np.count_nonzero(miss & (a >= 0) & (op_ts >= 0))
            defect = math.sqrt(np.count_nonzero(miss) + both)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # judged by _worst
                if all(isinstance(op, LowerToeplitz) for op in ops):
                    n = op_ts.column.size
                    d = op_ts.column - np.convolve(op_t.column, op_s.column)[:n]
                    defect = _worst(math.sqrt(np.dot(np.arange(n, 0, -1.0), d.real**2 + d.imag**2)))
                else:
                    gap = sample.apply(t + s) - sample.apply(t, sample.apply(s))
                    defect = _worst(np.linalg.norm(gap))
        witnesses.append(((t, s), defect))
    return _record("semigroup-law", witnesses, tol)


def _column_norm_record(
    name: str, sample: OperatorSemigroupSample, tol: float, defect_of
) -> VerificationRecord:
    """Worst ``defect_of(||V_t x||)`` over sampled times and the first resolved
    test vectors; not applicable to samples not isometric by construction."""
    if not sample.isometric:
        return _inapplicable(name, tol, "sample is not isometric by construction")
    vecs = sample.test_vectors(_NORM_VECTORS)
    witnesses = []
    for t in sample.times:
        with np.errstate(over="ignore", invalid="ignore"):  # judged by _worst
            norms = np.linalg.norm(sample.apply(t, vecs), axis=0)
        witnesses.append((f"t={t}", _worst(defect_of(norms))))
    return _record(name, witnesses, tol)


def check_isometry(sample: OperatorSemigroupSample, tol: float) -> VerificationRecord:
    """max over sampled times and resolved test vectors of | ||V_t x|| - 1 |.

    Not applicable to samples that are not isometric by construction."""
    return _column_norm_record("isometry", sample, tol, lambda norms: np.abs(norms - 1.0))


def check_noncompactness_proxy(
    sample: OperatorSemigroupSample, tol: float
) -> VerificationRecord:
    """Certifies ||V_t e_n|| >= 1 - tol on the resolved orthonormal vectors:
    the uniform lower bound a compact operator cannot sustain."""
    return _column_norm_record("noncompactness-proxy", sample, tol, lambda norms: 1.0 - norms)


def check_strong_continuity(sample: OperatorSemigroupSample, tol: float) -> VerificationRecord:
    """Along the sample's times sorted downward, ||V_t x - x|| must be
    nonincreasing (within ``_MONOTONE_SLACK``) and end below the tolerance,
    for the first ``_CONTINUITY_VECTORS`` resolved test vectors x."""
    times = sorted((t for t in sample.times if t > 0), reverse=True)
    if len(times) < 2:
        return _inapplicable(
            "strong-continuity", tol, "need at least two positive times"
        )
    vecs = sample.test_vectors(_CONTINUITY_VECTORS)
    witnesses = []
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # judged by _worst
        # one application per time; row j of each block is V_t x_j - x_j
        moved = [(sample.apply(t, vecs) - vecs).T.copy() for t in times]
        for j in range(vecs.shape[1]):
            defects = [float(np.linalg.norm(m[j])) for m in moved]
            increase = _worst(np.diff(defects))  # +inf when any defect is not finite
            witnesses.append((f"vector {j}", _worst([defects[-1], increase])))
            if increase > _MONOTONE_SLACK:
                worst = max(worst, tol + increase)  # monotonicity violation fails outright
    return _record("strong-continuity", witnesses, tol, worst)


def check_wold_reconstruction(psi, n: int, tol: float) -> VerificationRecord:
    """Orthonormality, wandering and time-1 agreement of the
    Wold/shift embedding of C_psi.  Automorphism symbols are inapplicable
    (their composition operator is unitary: no wandering part to
    reconstruct).

    The wandering witness is max ||c^* w|| over the wandering basis, the
    distance of each w from W = H^2 (-) ran C_psi; it is held to
    ``DEFAULT_RANK_TOL``, the bound the basis is built to, and the other
    witnesses to ``tol``.  ``details`` says how many resolved columns the
    time-1 comparison covered, out of all of them.  The sample holds times
    0 and 1, so its grid, the coarsest that holds every time, has one cell
    per unit of time (h = 1)."""
    try:
        sample = embed_isometric_composition(psi, (0.0, 1.0), n)
    except AutomorphismInput as exc:
        return _inapplicable("wold-reconstruction", tol, str(exc))
    wold = sample.meta["wold"]
    ortho = wold.orthonormality_defect
    c, w = wold.comp, wold.wandering_basis
    wandering = float(np.max(np.linalg.norm(c.conj().T @ w, axis=0)))
    agree, compared = wold_comparison_defect(sample, 1)
    worst = max(ortho, agree)
    return VerificationRecord(
        "wold-reconstruction",
        worst,
        tol,
        worst <= tol and wandering <= DEFAULT_RANK_TOL,
        witnesses=[
            ("orthonormality", ortho),
            ("wandering", wandering),
            ("time-1 agreement", agree),
        ],
        details={
            "level_dims": wold.level_dims,
            "residual_dim": wold.residual_dim,
            "wandering_bound": DEFAULT_RANK_TOL,
            "compared_columns": compared,
            "resolved_columns": 1 + sum(wold.level_dims),
        },
    )
