"""Exact characteristic classes of singular hypersurface intersections in P^n.

Computes Schwartz-MacPherson, Fulton-Johnson and Milnor classes of
hypersurfaces of projective space and of their transversal
intersections, each Milnor class along several routes, and
cross-validates the routes exactly (arbitrary-precision integer
arithmetic throughout).

The names from ``identities`` resolve on first access, so a process that
never checks the identities never imports that module.
"""

from .bundles import (
    chern_cotangent,
    chern_line,
    chern_tangent,
    chern_twist,
    fundamental_class_ci,
    segre_smooth,
)
from .chow import ChowClass, format_class, h_power, make_class, one, zero
from .engine import (
    ALUFFI_GLOBAL_SIGN,
    CONVENTIONS,
    ROUTE_ORDER,
    ClassReport,
    VarietyReport,
    cfj_ci,
    compute_report,
    csm_inclusion_exclusion,
    csm_intersection_inclusion_exclusion,
    csm_smooth_ci,
    csm_smooth_ci_degrees,
    gamma_weights,
    local_milnor_number,
    milnor_definition,
    milnor_expansion,
    milnor_from_mu,
    milnor_from_strata,
    milnor_from_strata_ci,
    milnor_product,
    milnor_telescope,
    mu_class,
    product_rule,
)
from .varieties import (
    Arrangement,
    CompleteIntersectionSpec,
    HypersurfaceSpec,
    LinearLocus,
    Smooth,
    SmoothLocus,
    Stratification,
    Stratified,
    Stratum,
    ValidationError,
    csm_linear_subspace,
    strata_topological_order,
    validate,
)

__version__ = "0.1.0"

_IDENTITIES = ("IdentityReport", "RandomInstance", "check_expansion_identity", "check_identities",
               "check_telescope_identity", "sweep")


def __getattr__(name):
    if name in _IDENTITIES:
        from . import identities
        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_IDENTITIES})
