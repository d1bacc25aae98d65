"""Seeded inputs and fixed job lists of the four workloads.

A workload is a list of jobs, each one call of ``h2embed.cli.main(argv)``
with a check of its output.  Every run attempts whole rounds of the list,
so the share of failed jobs is the same in every run.  The seed chooses
symbol parameters (rotations, zeros, atoms, targets) and the job order;
it never changes how many jobs of each kind a round holds, their
truncation orders, or the inputs of a job family that fails today.

Jobs that fail at this commit because of a known fault of the program
carry the fault's tag (see README.md); their inputs do not depend on the
seed.
"""
from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc

SAMPLE_DIR = "h2embed-semigroup-out"  # the CLI's default `semigroup` output
SAMPLE_TIMES = [0.0, 0.5, 1.0]  # the CLI's default `semigroup --times`
WORKLOADS = ("wold-verify", "flow-verify", "sample-roundtrip", "decide-mix")


@dataclass
class Outcome:
    rc: int | None
    out: str
    err: str
    exc: str | None = None


@dataclass
class Job:
    family: str
    argv: list
    check: Callable[[Outcome], str | None]  # None when the output is right
    fault: str | None = None  # tag of the known fault that makes it fail
    before: Callable[[], None] | None = None  # untimed preparation


@dataclass
class Workload:
    name: str
    jobs: list
    warmups: list  # one argv per command the workload runs


# --------------------------------------------------------------------------
# symbol documents
# --------------------------------------------------------------------------


def cx(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def blaschke(rotation=0.0, origin=0, zeros=()):
    return {
        "rotation": rotation,
        "origin_order": origin,
        "zeros": [dict(cx(a), mult=m) for a, m in zeros],
    }


def composition(b):
    return {"kind": "composition", "blaschke": b}


def mobius(a, b, c, d, kind="mobius"):
    return {"kind": kind, "mobius": {"a": cx(a), "b": cx(b), "c": cx(c), "d": cx(d)}}


def atoms(*pairs):
    return {"atoms": [{"angle": a, "mass": m} for a, m in pairs]}


def outer(constant, conjugate=(), exterior=()):
    return {
        "constant": cx(constant),
        "conjugate_factors": [cx(a) for a in conjugate],
        "exterior_zeros": [cx(b) for b in exterior],
    }


def toeplitz(blaschke=None, singular=None, outer=None, infinite=False):
    return {
        "kind": "toeplitz",
        "blaschke": blaschke,
        "singular": singular,
        "outer": outer,
        "declared_infinite_blaschke": infinite,
    }


def polynomial(coeffs):
    return {"kind": "polynomial", "polynomial": {"coeffs": [cx(c) for c in coeffs]}}


def polar(rng, r_lo, r_hi):
    return rng.uniform(r_lo, r_hi) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def tau_composed_rotation(alpha, theta):
    """Coefficients of tau_alpha . (z -> e^{i theta} z) . tau_alpha."""
    t = np.array([[-1.0, alpha], [-np.conj(alpha), 1.0]])
    r = np.array([[cmath.exp(1j * theta), 0.0], [0.0, 1.0]])
    return (t @ r @ t).ravel()


# Inputs of job families that fail today: fixed, whatever the seed.
SINGULAR = toeplitz(singular=atoms((0.0, 1.0)))  # S = exp(-(1+z)/(1-z))
TWO_Z_MINUS_2 = toeplitz(outer=outer(2.0, exterior=[2.0]))
Z_MINUS_105 = toeplitz(outer=outer(1.0, exterior=[1.05]))
TAU_04 = mobius(-1.0, 0.4, -0.4, 1.0, kind="composition")  # (0.4 - z)/(1 - 0.4 z)
HALF_Z = mobius(0.5, 0.2, 0.0, 1.0)  # z -> z/2 + 0.2
SINGULAR_COMPOSITIONS = [
    {"kind": "composition", "singular": atoms((0.0, 1.0))},
    {"kind": "composition", "singular": atoms((1.0, 0.5), (-2.0, 0.25))},
]
PSI = composition(blaschke(math.pi, 1, [(0.5, 1)]))  # z (z - 1/2)/(1 - z/2)
DEG3 = composition(blaschke(0.0, 1, [(0.2 + 0.3j, 1), (-0.4 + 0.1j, 1)]))


def flow_symbols(rng):
    """The eight flow symbols: name -> document.  Three zero-free families
    take seeded parameters chosen well inside the region where the program
    is right; the five that fail today are fixed."""
    rho = rng.uniform(0.8, 1.5)  # F(0) of the outer symbol, a positive real
    beta = polar(rng, 1.8, 2.6)
    beta2 = polar(rng, 2.0, 3.0)
    theta = rng.uniform(-math.pi, math.pi)
    return {
        "singular-inner": SINGULAR,
        "2(z-2)": TWO_Z_MINUS_2,
        "outer": toeplitz(outer=outer(-rho / beta, [polar(rng, 0.2, 0.5)], [beta])),
        "z-1.05": Z_MINUS_105,
        "inner-outer": toeplitz(
            singular=atoms((rng.uniform(-math.pi, math.pi), rng.uniform(0.3, 0.5))),
            outer=outer(-rng.uniform(0.8, 1.2) / beta2, exterior=[beta2]),
        ),
        "3+z+z^2/2": polynomial([3.0, cmath.exp(1j * theta), 0.5 * cmath.exp(2j * theta)]),
        "tau0.4": TAU_04,
        "z/2+0.2": HALF_Z,
    }


def wold_symbols(rng):
    """Inner composition symbols with an interior fixed point.  The seed
    rotates those fixing the origin, which moves neither the fixed point
    nor the sizes of the Wold levels."""
    rot = lambda: rng.uniform(-math.pi, math.pi)
    return {
        "z^2": composition(blaschke(rot(), 2)),
        "z^3": composition(blaschke(rot(), 3)),
        "psi": composition(blaschke(math.pi + rot(), 1, [(0.5, 1)])),
        "deg3": composition(blaschke(rot(), 1, [(0.2 + 0.3j, 1), (-0.4 + 0.1j, 1)])),
        "conj-square": composition(blaschke(0.0, 0, [(0.3, 2)])),  # fixed point 0.0598
    }


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


def _failed_exit(o: Outcome):
    if o.exc is not None:
        return o.exc
    if o.rc != 0:
        return f"exit {o.rc}: {o.err.strip()[:200]}"
    return None


def check_records(expected_names):
    """verify output: the named checks ran, and each applicable one passed
    within its threshold."""

    def check(o):
        bad = _failed_exit(o)
        if bad:
            return bad
        records = json.loads(o.out)["records"]
        names = [r["check"] for r in records]
        if names != expected_names:
            return f"checks {names}, expected {expected_names}"
        for r in records:
            if r["applicable"] and not (r["passed"] and r["max_defect"] <= r["threshold"]):
                return f"{r['check']} failed: {r['max_defect']:.3e} > {r['threshold']:.1e}"
        return None

    return check


VERIFY_CHECKS = ["semigroup-law", "isometry", "noncompactness-proxy", "strong-continuity"]


def check_sample(doc, n):
    """semigroup output: the sample directory holds the stated matrices;
    flow samples obey the CSV contract, the identity at t = 0, the closed
    form of symbol**t for Toeplitz flows and the semigroup law."""

    def check(o):
        bad = _failed_exit(o)
        if bad:
            return bad
        out = Path(SAMPLE_DIR)
        meta = json.loads((out / "meta.json").read_text())
        if json.loads(o.out) != meta:
            return "printed document differs from meta.json"
        if meta["times"] != SAMPLE_TIMES or len(meta["matrices"]) != len(SAMPLE_TIMES):
            return f"times {meta['times']} with {len(meta['matrices'])} matrices"
        if meta["construction"].startswith("wold-shift"):
            # Read back only through `verify --sample`, whatever the format.
            missing = [m for m in meta["matrices"] if not (out / m).is_file()]
            return f"missing {missing}" if missing else None
        if meta["dim"] != n:
            return f"dim {meta['dim']} != {n}"
        ops = {t: orc.read_matrix_csv(out / m) for t, m in zip(meta["times"], meta["matrices"])}
        if any(op.shape != (n, n) for op in ops.values()):
            return "matrix shape"
        if not np.array_equal(ops[0.0], np.eye(n)):
            return "operator at t = 0 is not the identity"
        if doc["kind"] in ("toeplitz", "polynomial"):
            for t in SAMPLE_TIMES[1:]:
                want = orc.lower_toeplitz(orc.toeplitz_power(doc, t, n))
                err = float(np.max(np.abs(ops[t] - want)))
                if err > orc.TOL * max(1.0, float(np.max(np.abs(want)))):
                    return f"t = {t}: {err:.3e} from the closed form"
        law = orc.law_defect(ops)
        if law > meta["tolerance"]:
            return f"semigroup law defect {law:.3e} > {meta['tolerance']:.1e}"
        return None

    return check


def check_verdict(verdict, token, details=None):
    def check(o):
        bad = _failed_exit(o)
        if bad:
            return bad
        doc = json.loads(o.out)
        if (doc["verdict"], doc["governing_result"]) != (verdict, token):
            return f"{doc['verdict']}/{doc['governing_result']}, expected {verdict}/{token}"
        for key, want in (details or {}).items():
            got = orc.cplx(doc["details"][key]) if isinstance(want, complex) else doc["details"][key]
            if abs(got - want) > 1e-9:
                return f"details.{key} = {got}, expected {want}"
        return None

    return check


def check_polynomial(coeffs):
    verdict, token, inside = orc.polynomial_verdict(coeffs)

    def check(o):
        bad = check_verdict(verdict, token)(o)
        if bad:
            return bad
        got = len(json.loads(o.out)["details"]["interior_zeros"])
        return None if got == len(inside) else f"{got} interior zeros, expected {len(inside)}"

    return check


def check_solve(bdoc, beta):
    degree = orc.blaschke_degree(bdoc)

    def check(o):
        bad = _failed_exit(o)
        if bad:
            return bad
        roots = json.loads(o.out)["roots"]
        if sum(r["mult"] for r in roots) != degree:
            return f"{len(roots)} roots for degree {degree}"
        for r in roots:
            z = complex(r["re"], r["im"])
            miss = abs(complex(orc.blaschke_eval(bdoc, z)) - beta)
            if abs(z) >= 1.0 or miss > orc.TOL:
                return f"root {z}: |B - beta| = {miss:.3e}"
        return None

    return check


def check_frostman(bdoc, lam):
    grid = 0.7 * np.exp(2j * np.pi * np.arange(32) / 32)
    want = orc.disk_involution(lam)(orc.blaschke_eval(bdoc, grid))

    def check(o):
        bad = _failed_exit(o)
        if bad:
            return bad
        doc = json.loads(o.out)
        result = blaschke(doc["rotation"], doc["origin_order"],
                          [(complex(z["re"], z["im"]), z["mult"]) for z in doc["zeros"]])
        if orc.blaschke_degree(result) != orc.blaschke_degree(bdoc):
            return "degree changed"
        err = float(np.max(np.abs(orc.blaschke_eval(result, grid) - want)))
        if err > orc.TOL or not doc["simple_zeros"]:
            return f"grid mismatch {err:.3e}, simple_zeros {doc['simple_zeros']}"
        return None

    return check


def check_wold(n, k=None):
    """wold output: complete and orthonormal; for z^k the levels are the
    monomials z^(k^j m), k not dividing m."""
    want = orc.zk_level_supports(k, n) if k else None

    def check(o):
        bad = _failed_exit(o)
        if bad:
            return bad
        doc = json.loads(o.out)
        if 1 + sum(doc["level_dims"]) + doc["residual_dim"] != n:
            return f"levels {doc['level_dims']} + residual {doc['residual_dim']} miss H^2_{n}"
        if doc["orthonormality_defect"] > orc.TOL:
            return f"orthonormality defect {doc['orthonormality_defect']:.3e}"
        if want is None:
            return None
        got = [sorted(i for sup in level for i in sup) for level in doc["level_supports"]]
        if got != want or any(len(sup) != 1 for lv in doc["level_supports"] for sup in lv):
            return f"levels {doc['level_dims']}, expected {[len(w) for w in want]}"
        return None

    return check


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Files:
    """Writes symbol documents under the work directory."""

    def __init__(self, workdir: Path):
        self.dir = workdir / "symbols"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def __call__(self, doc) -> str:
        self.count += 1
        path = self.dir / f"s{self.count:03d}.json"
        path.write_text(json.dumps(doc))
        return str(path)


def _clear_sample_dir():
    out = Path(SAMPLE_DIR)
    if out.is_dir():
        for f in out.iterdir():
            f.unlink()


FLOW_NS = (32, 64, 96, 128)


def wold_verify(rng, files):
    syms = wold_symbols(rng)
    # z^3 at 12, psi at 24, z^2 at 14 and deg3 at 17 take 60-100 ms each, so
    # the median job of the 21 sits among four of like size.
    plan = [("z^2", (12, 14, 16, 20, 24, 32)), ("z^3", (12, 16, 20)), ("psi", (12, 16, 20, 24)),
            ("deg3", (12, 16, 17, 20)), ("conj-square", (12, 16, 20, 24))]
    jobs = []
    for name, ns in plan:
        path = files(syms[name])
        for n in ns:
            jobs.append(Job(f"verify {name} n={n}", ["verify", "--input", path, "--n", str(n)],
                            check_records(VERIFY_CHECKS)))
    warm = [["verify", "--input", files(composition(blaschke(0.0, 2))), "--n", "8"]]
    return jobs, warm


def flow_verify_fault(name, n):
    if name == "singular-inner":
        return "F2"
    if name == "2(z-2)":
        return "F1"
    if name == "tau0.4":
        return "F1+F3"
    if name == "z/2+0.2" and n >= 64:
        return "F3"
    if name == "z-1.05" and n > 64:
        return "F4"
    return None


def flow_verify(rng, files):
    jobs = []
    for name, doc in flow_symbols(rng).items():
        path = files(doc)
        for n in FLOW_NS:
            jobs.append(Job(f"verify {name} n={n}", ["verify", "--input", path, "--n", str(n)],
                            check_records(VERIFY_CHECKS), flow_verify_fault(name, n)))
    warm = [["verify", "--input", files(toeplitz(outer=outer(1.5, [0.3]))), "--n", "16"]]
    return jobs, warm


def roundtrip_fault(name, n, command):
    if name == "tau0.4":
        return "F3"
    if name == "z-1.05" and n > 64:
        return "F4"
    if name == "singular-inner" and command == "verify":
        return "F2"
    return None


def sample_roundtrip(rng, files):
    """Pairs of `semigroup` then `verify --sample` on what it wrote; a pair
    stays together when the seed shuffles the job order."""
    pairs = []
    cases = [(name, doc, n) for name, doc in flow_symbols(rng).items() for n in (32, 64, 128)]
    wold = wold_symbols(rng)
    cases += [(name, wold[name], n) for name, ns in
              (("z^2", (12, 16)), ("z^3", (12,)), ("psi", (12, 16))) for n in ns]
    for name, doc, n in cases:
        path = files(doc)
        pairs.append([
            Job(f"semigroup {name} n={n}", ["semigroup", "--input", path, "--n", str(n)],
                check_sample(doc, n), roundtrip_fault(name, n, "semigroup"), _clear_sample_dir),
            Job(f"verify --sample {name} n={n}", ["verify", "--sample", SAMPLE_DIR],
                check_records(["semigroup-law"] + (["isometry"] if name == "singular-inner" else [])),
                roundtrip_fault(name, n, "verify")),
        ])
    warm_path = files(toeplitz(outer=outer(1.5, [0.3])))
    warm = [["semigroup", "--input", warm_path, "--n", "16"], ["verify", "--sample", SAMPLE_DIR]]
    return pairs, warm


def _separated_blaschke(rng, degree, origin, value_radius):
    """A Blaschke product and a target value whose preimages are simple,
    pairwise well apart and away from the origin, so that neither the
    program's root clustering nor the simple-zero test is near its limit."""
    while True:
        zeros = [(polar(rng, 0.15, 0.75), 1) for _ in range(degree - origin)]
        bdoc = blaschke(rng.uniform(-math.pi, math.pi), origin, zeros)
        target = polar(rng, 0.05, value_radius)
        pre = orc.blaschke_preimages(bdoc, target)
        gaps = [abs(p - q) for i, p in enumerate(pre) for q in pre[i + 1:]]
        if min(gaps) > 0.05 and min(abs(p) for p in pre) > 0.05:
            return bdoc, target


def _lfm(rng, embeddable):
    """A non-automorphic linear fractional self-map with attracting interior
    fixed point, built from its fixed points and multiplier, whose spiral
    inequality holds (or fails) with a 5 % margin."""
    while True:
        alpha = polar(rng, 0.0, 0.5)
        lam = polar(rng, 0.2, 0.8)
        if rng.random() < 0.3:  # second fixed point at infinity
            a, b, c, d = lam, alpha * (1 - lam), 0.0, 1.0
        else:
            beta = polar(rng, 1.5, 4.0)
            m = np.array([[1.0, -alpha], [1.0, -beta]])
            a, b, c, d = (np.linalg.inv(m) @ np.diag([lam, 1.0]) @ m).ravel()
        if not orc.is_self_map(a, b, c, d, margin=0.03):
            continue
        lhs, rhs, _ = orc.spiral_sides(a, b, c, d)
        if (lhs < 0.95 * rhs) if embeddable else (lhs > 1.05 * rhs):
            return a, b, c, d


def _polynomial(rng, degree, interior):
    roots = [polar(rng, 0.2, 0.8) if i < interior else polar(rng, 1.25, 3.0) for i in range(degree)]
    coeffs = [polar(rng, 0.5, 2.0)]
    for r in roots:
        coeffs = orc.poly_mul(coeffs, [-r, 1.0])
    return coeffs


def decide_mix(rng, files):
    jobs = []

    def add(family, argv, check, fault=None):
        jobs.append(Job(family, argv, check, fault))

    def analyze(doc, check, family, fault=None):
        add(f"analyze {family}", ["analyze", "--input", files(doc)], check, fault)

    def angle():
        return rng.uniform(-math.pi, math.pi)

    b2 = blaschke(angle(), 1, [(polar(rng, 0.2, 0.8), 1)])
    s1 = atoms((angle(), rng.uniform(0.2, 2.0)))
    s2 = atoms((angle(), rng.uniform(0.2, 1.0)), (angle(), rng.uniform(0.2, 1.0)))
    f1 = outer(polar(rng, 0.5, 2.0), [polar(rng, 0.1, 0.9)], [polar(rng, 1.1, 3.0)])
    f2 = outer(polar(rng, 0.5, 2.0), exterior=[polar(rng, 1.1, 3.0), polar(rng, 1.1, 3.0)])
    for doc in (
        toeplitz(blaschke=b2),
        toeplitz(singular=s2),
        toeplitz(blaschke=b2, singular=s1),
        toeplitz(outer=f1),
        toeplitz(singular=s1, outer=f2),
        toeplitz(blaschke=b2, outer=f1),
        toeplitz(blaschke=b2, singular=s1, outer=f2),
        toeplitz(singular=s1, infinite=True),
        toeplitz(outer=f2, infinite=True),
    ):
        verdict, token = orc.toeplitz_verdict(doc)
        analyze(doc, check_verdict(verdict, token), f"toeplitz {token}")
    for degree, interior in ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (2, 0)):
        coeffs = _polynomial(rng, degree, interior)
        analyze(polynomial(coeffs), check_polynomial(coeffs), f"polynomial deg {degree}")
    for embeddable in (True, False, True, False, True, False):
        a, b, c, d = _lfm(rng, embeddable)
        verdict, token = orc.lfm_verdict(a, b, c, d)
        analyze(mobius(a, b, c, d), check_verdict(verdict, token), "linear-fractional")
    for degree in (2, 3):
        zeros = [(polar(rng, 0.2, 0.8), 1) for _ in range(degree - 1)]
        bdoc = blaschke(angle(), 1, zeros)
        mult = cmath.exp(1j * bdoc["rotation"]) * np.prod([a for a, _ in zeros])
        analyze(composition(bdoc), check_verdict(
            "Embeddable", "similar-isometry-shift-embedding",
            {"fixed_point": 0j, "multiplier": complex(mult)}), f"composition blaschke deg {degree}")
    for _ in range(2):
        alpha, theta = polar(rng, 0.1, 0.6), rng.choice((-1, 1)) * rng.uniform(0.4, 2.6)
        analyze(mobius(*tau_composed_rotation(alpha, theta), kind="composition"), check_verdict(
            "Embeddable", "elliptic-automorphism-semiflow",
            {"fixed_point": complex(alpha), "theta": theta}), "composition elliptic automorphism")
    for doc in SINGULAR_COMPOSITIONS:
        alpha = orc.singular_inner_fixed_point(doc["singular"]["atoms"])
        check = (check_verdict("OutOfScope", "boundary-fixed-point-unscoped") if alpha is None else
                 check_verdict("Embeddable", "similar-isometry-shift-embedding", {"fixed_point": alpha}))
        analyze(doc, check, "composition singular inner", "F5")
    for degree, origin in ((2, 0), (2, 1), (3, 0), (3, 1), (4, 1), (4, 0)):
        bdoc, beta = _separated_blaschke(rng, degree, origin, 0.7)
        add(f"solve deg {degree}", ["solve", "--input", files(composition(bdoc)),
                                    f"--beta={beta.real!r},{beta.imag!r}"], check_solve(bdoc, beta))
    for degree, origin in ((2, 0), (2, 1), (3, 0), (3, 1), (4, 1), (4, 0)):
        bdoc, lam = _separated_blaschke(rng, degree, origin, 0.7)
        add(f"frostman deg {degree}", ["frostman", "--input", files(composition(bdoc)),
                                       f"--lam={lam.real!r},{lam.imag!r}"], check_frostman(bdoc, lam))
    syms = wold_symbols(rng)
    for name, k, doc, fault in (("z^2", 2, syms["z^2"], None), ("z^3", 3, syms["z^3"], None),
                                ("psi", None, PSI, "F6"), ("deg3", None, DEG3, "F6")):
        path = files(doc)
        for n in (64, 128):
            add(f"wold {name} n={n}", ["wold", "--input", path, "--n", str(n)], check_wold(n, k), fault)
    warm_b = files(composition(blaschke(0.3, 1, [(0.5, 1)])))
    warm = [["analyze", "--input", files(toeplitz(outer=outer(1.5, [0.3])))],
            ["solve", "--input", warm_b, "--beta", "0.2"],
            ["frostman", "--input", warm_b, "--lam", "0.2"],
            ["wold", "--input", files(composition(blaschke(0.0, 2))), "--n", "16"]]
    return jobs, warm


BUILDERS = {
    "wold-verify": wold_verify,
    "flow-verify": flow_verify,
    "sample-roundtrip": sample_roundtrip,
    "decide-mix": decide_mix,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's jobs in this seed's order, with its symbol files
    written under ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    units, warmups = BUILDERS[name](rng, Files(workdir))
    units = [u if isinstance(u, list) else [u] for u in units]
    rng.shuffle(units)
    return Workload(name, [job for unit in units for job in unit], warmups)
