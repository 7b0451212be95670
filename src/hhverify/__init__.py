"""hhverify: a verification workbench for Hermite-Hadamard-type trapezoid
bounds on co-ordinated convex function classes.

The package computes every quantity those bounds are made of - identity
terms, kink-moment constants, theorem left/right sides - and checks them
against an exact rational oracle, classical reductions, and sampling-based
convexity-class refuters.
"""

from .bounds import (
    AS_WRITTEN,
    HOLDS,
    PROOF_FORM,
    BoundReport,
    bound_classical,
    bound_direct,
    bound_holder,
    bound_power_mean,
    deviation_terms,
    hh_chain_2d,
    identity_report,
    kink_moment,
)
from .convexity import (
    NO_VIOLATION,
    VIOLATED,
    SamplingPlan,
    check_class_first,
    check_class_second,
    check_def1_coordinated,
    margin_class_first,
    margin_class_second,
)
from .errors import (
    ConvergenceError,
    NonFiniteError,
    OutOfDomainError,
    ParameterError,
)
from .geometry import GenParams, Rect, scaled_eval_hull
from .oracle import (
    RationalPoly1,
    RationalPoly2,
    deviation_exact,
    identity_residual_exact,
    poly_integral_2d_exact,
)
from .quadrature import (
    Tolerance,
    integrate_1d,
    integrate_2d,
    panel_1d,
    panel_2d,
)
from .surfaces import (
    Surface,
    constant_surface,
    corpus,
    crosscheck_mixed_partial,
    eval_mixed_partial,
    get_surface,
    poly_surface,
)

__version__ = "0.1.0"
