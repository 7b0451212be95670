"""hhverify: a verification workbench for Hermite-Hadamard-type trapezoid
bounds on co-ordinated convex function classes.

The package computes every quantity those bounds are made of - identity
terms, kink-moment constants, theorem left/right sides - and checks them
against an exact rational oracle, classical reductions, and sampling-based
convexity-class refuters.
"""

from .bounds import (
    AS_WRITTEN,
    CLASSICAL,
    DIRECT,
    HOLDER,
    HOLDS,
    POWER_MEAN,
    PROOF_FORM,
    BoundReport,
    bound,
    bound_table,
    deviation_terms,
    hh_chain_2d,
    identity_report,
    kink_moment,
)
from .convexity import (
    NO_VIOLATION,
    VIOLATED,
    MembershipSweep,
    SamplingPlan,
)
from .errors import (
    ConvergenceError,
    NonFiniteError,
    OutOfDomainError,
    ParameterError,
)
from .geometry import GenParams, Rect
from .oracle import RationalPoly2, poly_integral_2d_exact
from .quadrature import (
    Tolerance,
    integrate_1d,
    integrate_2d,
)
from .surfaces import (
    Surface,
    corpus,
    eval_mixed_partial,
    poly_surface,
)

__version__ = "0.1.0"
