"""Embeddability of composition and analytic Toeplitz operators on the
Hardy space of the disk into strongly continuous operator semigroups:
decision engine, explicit semigroup constructions, and numerical
verification on truncated operator matrices.  Each library module's
``__all__`` is the one list of its public names re-exported here."""

from .errors import *
from .polynomials import *
from .symbols import *
from .blaschke import *
from .operators import *
from .semigroups import *
from .decisions import *
from .verify import *

__version__ = "0.1.0"
