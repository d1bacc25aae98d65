"""Embeddability of composition and analytic Toeplitz operators on the
Hardy space of the disk into strongly continuous operator semigroups:
decision engine, explicit semigroup constructions, and numerical
verification on truncated operator matrices."""

from .errors import (
    AutomorphismInput,
    BranchFailure,
    DegenerateMap,
    DegenerateSymbol,
    DomainError,
    H2EmbedError,
    HorizonOverflow,
    IllConditioned,
    IsometryDefect,
    MissingTime,
    NonCommuting,
    NotInner,
    PoleHit,
    ResidualFailure,
    ZeroPolynomial,
)
from .polynomials import (
    DiskPartition,
    Polynomial,
    RootSet,
    poly_derivative,
    poly_mul,
    poly_pow,
    poly_roots,
    poly_scale,
    poly_sub,
    roots_in_disk,
)
from .symbols import (
    BlaschkeProduct,
    ConjugatedSymbol,
    FactoredSymbol,
    MobiusMap,
    PowerSeries,
    ProductSymbol,
    RationalOuter,
    SingularInner,
    SingularMeasure,
    circle_eval,
    taylor_coefficients,
)
from .blaschke import (
    PreimageSet,
    conjugate_by_automorphism,
    fixed_points_in_disk,
    frostman_transform,
    interior_fixed_point,
    solve_blaschke_equation,
)
from .operators import (
    WoldDecomposition,
    boundary_gram,
    composition_matrix,
    lower_toeplitz,
    toeplitz_matrix,
    wold_decompose,
)
from .semigroups import (
    ConstantFlow,
    MultiplicationFlow,
    OperatorSemigroupSample,
    OuterFlow,
    ProductFlow,
    SingularInnerFlow,
    SpiralFlow,
    WoldShiftFlow,
    embed_isometric_composition,
    sample_multiplication_flow,
    sample_spiral_flow,
    wold_comparison_defect,
)
from .decisions import (
    EmbeddabilityReport,
    SpiralData,
    Verdict,
    decide_composition,
    decide_lfm,
    decide_polynomial_toeplitz,
    decide_toeplitz,
    spiral_length,
)
from .verify import (
    VerificationRecord,
    check_isometry,
    check_noncompactness_proxy,
    check_semigroup_law,
    check_strong_continuity,
    check_wold_reconstruction,
)

__version__ = "0.1.0"
