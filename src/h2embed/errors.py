"""Exception and warning types shared across the library."""

__all__ = [
    "H2EmbedError", "ZeroPolynomial", "PoleHit", "DomainError", "DegenerateMap",
    "DegenerateSymbol", "IllConditioned", "ResidualFailure", "IsometryDefect",
    "AutomorphismInput", "NonCommuting", "BranchFailure", "HorizonOverflow", "MissingTime",
    "NotInner", "BoundaryZeroWarning",
]


class H2EmbedError(Exception):
    """Base class for every library-specific failure."""


class ZeroPolynomial(H2EmbedError):
    """Root finding was asked for the identically-zero polynomial."""


class PoleHit(H2EmbedError):
    """Evaluation landed on (or within rounding of) a pole."""


class DomainError(H2EmbedError):
    """Argument outside the domain the operation is defined on."""


class DegenerateMap(H2EmbedError):
    """Mobius coefficients with vanishing determinant."""


class DegenerateSymbol(H2EmbedError):
    """A constant (or otherwise trivial) symbol where a nonconstant one is required."""


class IllConditioned(H2EmbedError):
    """A computation cannot reach its accuracy at this truncation: coefficient
    extraction would amplify rounding beyond the error budget, or no
    direction is resolved to the requested tolerance."""


class ResidualFailure(H2EmbedError):
    """A claimed root fails its residual check; the root finder broke down."""


class IsometryDefect(H2EmbedError):
    """A symbol that must induce an isometry fails the Gram-matrix test."""


class AutomorphismInput(H2EmbedError):
    """Operation requires a non-automorphic symbol."""


class NonCommuting(H2EmbedError):
    """Product flows need commuting (multiplication-type) factors."""


class BranchFailure(H2EmbedError):
    """Logarithm branch cannot be anchored (symbol vanishes at the origin)."""


class HorizonOverflow(H2EmbedError):
    """A half-line shift would push mass past the discretisation horizon."""


class MissingTime(H2EmbedError):
    """A semigroup sample lacks an operator at a requested time."""


class NotInner(H2EmbedError):
    """Symbol claimed inner but its boundary modulus/Gram test fails."""


class BoundaryZeroWarning(UserWarning):
    """A zero sits in the boundary tolerance band; classification may be fragile."""
