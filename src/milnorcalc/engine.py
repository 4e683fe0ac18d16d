"""Characteristic classes of hypersurfaces and their intersections.

Every class on a subvariety X of P^n is computed as its pushforward to
the ambient ring Q[H]/(H^(n+1)); cap products and refined intersection
products then both become truncated polynomial multiplication.  The
Milnor class of X is computed along several independent routes and the
report records whether they agree after pushforward:

* ``definition``  (-1)^dim(X) (c^FJ(X) - c^SM(X)), with c^SM obtained
  by inclusion-exclusion over arrangement components or supplied
  explicitly.
* ``thm1``        the product rule: divide the product of the factors'
  classes by c(TP^n)^(r-1).
* ``expansion``   the same rule expanded factor by factor into a signed
  sum over mixed products of Milnor and SM classes.
* ``cor11``       the telescoped form of the expansion, one Milnor
  class per summand.
* ``aluffi``      from the mu-class of the singular locus (single
  hypersurfaces only).
* ``pp``          from per-stratum Milnor-fibre data.

The product-rule routes assume the inputs intersect their strata
transversally.  That hypothesis is recorded, never verified; the
shipped quadric/tangent-plane fixture shows them disagreeing with the
definition route when it fails.

Two sign conventions are calibrated here and pinned by tests, because
the dual/tensor regrading is ambient-codimension based (see ``chow``):
``ALUFFI_GLOBAL_SIGN`` and the Milnor-number exponent, which is the
dimension of the hypersurface, not of the ambient space.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import prod
from operator import mul

# chern_cotangent, chern_line and chern_twist are not called here, but
# stay in this namespace: the benchmark's tracer (perfbench/tracer.py) wraps
# them where engine looks them up.
from .bundles import (
    chern_cotangent,
    chern_line,
    chern_tangent,
    chern_twist,
    fundamental_class_ci,
    segre_smooth,
)
from .chow import ChowClass, _sign, h_power, line_power, one, zero
from .records import Record, replace
from .varieties import (
    Arrangement,
    CompleteIntersectionSpec,
    HypersurfaceSpec,
    LinearLocus,
    Smooth,
    SmoothLocus,
    Stratification,
    Stratum,
    containment_map,
    open_stratum,
    strata_topological_order,
    validate,
    with_csm,
)

ROUTE_ORDER = ("definition", "thm1", "expansion", "cor11", "aluffi", "pp")
PRODUCT_ROUTES = ("thm1", "expansion", "cor11", "pp")  # assume transversality

#: Global sign multiplying the classical mu-class formula for the
#: Milnor class, calibrated so the ambient-codimension grading of
#: dual/tensor reproduces the known value for a pair of hyperplanes in
#: P^4.  Cross-checked on odd-dimensional ambient spaces too.
ALUFFI_GLOBAL_SIGN = -1

CONVENTIONS = {
    "grading": "codimension in the ambient projective space",
    "dual_tensor_grading": "ambient codimension",
    "aluffi_global_sign": ALUFFI_GLOBAL_SIGN,
    "milnor_number_exponent": "dim of the hypersurface",
    "comparison": "routes compared after pushforward to the ambient ring",
}


class IntegralityError(ValueError):
    """A reported class came out non-integral; the route or input is wrong.

    The message names the first non-integral codimension, not the class,
    whose digits can run past what Python converts to a string."""

    def __init__(self, variety: str, label: str, value: ChowClass):
        self.variety = variety
        self.label = label
        self.value = value
        codim = next(j for j, a in enumerate(value.coeffs) if a.denominator != 1)
        super().__init__(
            f"{variety}: {label} has non-integral coefficients, the first in codimension {codim}"
        )


# ---------------------------------------------------------------------------
# direct class computations


def _degrees(spec) -> tuple[int, tuple[int, ...]]:
    if isinstance(spec, HypersurfaceSpec):
        return spec.ambient_dim, (spec.degree,)
    if isinstance(spec, CompleteIntersectionSpec):
        return spec.ambient_dim, tuple(h.degree for h in spec.hypersurfaces)
    raise TypeError(f"expected a variety spec, got {type(spec).__name__}")


def _lines(n: int, degrees) -> ChowClass:
    """c(O(d_1) + ... + O(d_r)) = prod_d (1 + dH)^(k_d), k_d the number of
    d_i equal to d: at most r + 1 nonzero terms, so cheap to divide by."""
    lines = [line_power(n, d, degrees.count(d)) for d in set(degrees)]
    return _prod(lines) if lines else one(n)


def _cfj(n: int, degrees) -> ChowClass:
    """c(TP^n) c(N)^(-1) [X], N the sum of the O(d_i)."""
    return chern_tangent(n).total / _lines(n, degrees) * fundamental_class_ci(n, degrees)


def cfj_ci(spec) -> ChowClass:
    """Chern class of the virtual tangent bundle, capped with [X].

    Depends only on the ambient dimension and the degrees, never on the
    singularities.
    """
    n, degrees = _degrees(validate(spec))
    return _cfj(n, degrees)


def csm_smooth_ci_degrees(n: int, degrees) -> ChowClass:
    """SM class of a smooth transversal complete intersection.

    For smooth X the SM class is the Chern class of the honest tangent
    bundle, which the virtual one computes: the closed form of
    ``_csm_intersection_of_unions`` with one component per factor,
    c(TP^n) prod_i d_iH/(1 + d_iH).  More hypersurfaces than n cut out
    the empty variety, and the product vanishes past H^n.
    """
    return _csm_intersection_of_unions(n, [(d,) for d in degrees])


def csm_smooth_ci(spec) -> ChowClass:
    n, degrees = _degrees(validate(spec))
    specs = [spec] if isinstance(spec, HypersurfaceSpec) else spec.hypersurfaces
    if not all(isinstance(h.singularity, Smooth) for h in specs):
        raise ValueError("csm_smooth_ci needs every hypersurface marked smooth")
    return csm_smooth_ci_degrees(n, degrees)


def _csm_intersection_of_unions(n: int, per_factor) -> ChowClass:
    """SM class of the intersection of unions of smooth components.

    The complement U of a divisor with normal crossings has
    c^SM(U) = c(TP^n) / prod_i (1 + d_iH) (Aluffi, "Differential forms
    with logarithmic poles and Chern-Schwartz-MacPherson classes of
    singular varieties", C. R. Acad. Sci. Paris 329, 1999).  SM classes
    are additive, so the indicator of the intersection, prod_j (1 - 1_U_j),
    gives c(TP^n) prod_j (1 - prod_d (1 + dH)^(-k_jd)), with k_jd the
    components of degree d in factor j.  Memoised on the sorted degrees
    of each factor, in sorted order (classes are immutable).
    """
    return _csm_of_sorted_unions(n, tuple(sorted(tuple(sorted(f)) for f in per_factor)))


@lru_cache(maxsize=1024)
def _csm_of_sorted_unions(n: int, per_factor: tuple[tuple[int, ...], ...]) -> ChowClass:
    # 1 - L^(-1) = (L - 1) / L, so one division serves every factor
    lines = [_lines(n, degrees) for degrees in per_factor]
    if not lines:  # no factors cut anything out of P^n
        return chern_tangent(n).total
    return chern_tangent(n).total * _prod([c - one(n) for c in lines]) / _prod(lines)


def csm_inclusion_exclusion(h: HypersurfaceSpec) -> ChowClass:
    """SM class of an arrangement D of components in general position:
    c(TP^n) (1 - prod_i (1 + d_iH)^(-1)), the inclusion-exclusion over
    component subsets summed in closed form."""
    validate(h)
    if not isinstance(h.singularity, Arrangement):
        raise ValueError(f"{h.name}: not an arrangement")
    return _csm_intersection_of_unions(h.ambient_dim, [h.singularity.component_degrees])


def _component_degrees(h: HypersurfaceSpec) -> tuple[int, ...] | None:
    """Degrees of the smooth pieces a hypersurface decomposes into."""
    if isinstance(h.singularity, Smooth):
        return (h.degree,)
    if isinstance(h.singularity, Arrangement):
        return h.singularity.component_degrees
    return None


def csm_intersection_inclusion_exclusion(ci: CompleteIntersectionSpec) -> ChowClass:
    """SM class of the intersection, via its decomposition into smooth pieces.

    The closed form of ``_csm_intersection_of_unions``, one ring product
    per factor.  Valid under the same genericity the arrangement mode
    asserts.
    """
    validate(ci)
    per_factor = [_component_degrees(h) for h in ci.hypersurfaces]
    if any(c is None for c in per_factor):
        raise ValueError("every factor must be smooth or an arrangement")
    return _csm_intersection_of_unions(ci.ambient_dim, per_factor)


# ---------------------------------------------------------------------------
# Milnor class routes


def milnor_definition(cfj: ChowClass, csm: ChowClass, dim_x: int) -> ChowClass:
    """(-1)^dim(X) (c^FJ - c^SM)."""
    if cfj.ambient_dim != csm.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return _sign(dim_x) * (cfj - csm)


@lru_cache(maxsize=64)
def _tangent_correction(n: int, r: int) -> ChowClass:
    """c(TP^n restricted, summed r-1 times)^(-1) = (1+H)^(-(n+1)(r-1))."""
    return line_power(n, 1, -(n + 1) * (r - 1))


def _corrected(c: ChowClass, r: int) -> ChowClass:
    """c divided by c(TP^n)^(r-1); one factor needs no product."""
    return c if r == 1 else _tangent_correction(c.ambient_dim, r) * c


def _prod(classes: list) -> ChowClass:
    return prod(classes[1:], start=classes[0])


def product_rule(classes, n: int) -> ChowClass:
    """Class of a transversal intersection from its factors' classes:
    their product divided by c(TP^n)^(r-1).  Holds for SM and for
    virtual (Fulton-Johnson) classes alike."""
    classes = list(classes)
    if not classes:
        raise ValueError("need at least one class")
    return _corrected(_prod(classes), len(classes))


def milnor_product(cfj_list, csm_list, n: int, dim_x: int) -> ChowClass:
    """(-1)^dim(X) (prod c^FJ_i - prod c^SM_i), divided once by c(TP^n)^(r-1)."""
    cfj_list, csm_list = list(cfj_list), list(csm_list)
    if len(cfj_list) != len(csm_list):
        raise ValueError("need one virtual and one SM class per factor")
    if not cfj_list:
        raise ValueError("need at least one class")
    diff = _corrected(_prod(cfj_list) - _prod(csm_list), len(cfj_list))
    return -diff if dim_x % 2 else diff


def _signed(classes, codims, parity: int) -> list[ChowClass]:
    """Each class times (-1)^(parity - codim)."""
    return [c if (parity - d) % 2 == 0 else -c for c, d in zip(classes, codims)]


def milnor_expansion(m_list, csm_list, codims, n: int) -> ChowClass:
    """The product rule expanded into 2^r - 1 signed mixed products.

    Each summand picks the Milnor or the SM class of every factor (the
    all-SM choice is excluded) and carries (-1)^(n - codim_i) per SM
    factor picked.  ``codims`` are the codimensions of the factors:
    1 for every hypersurface.  Only their parity matters.

    The choices are enumerated factor by factor, each partial product
    formed once and extended by m_i and by the signed SM class of
    factor i; every mixed product is still formed and summed on its own.
    """
    m_list, csm_list, codims = list(m_list), list(csm_list), list(codims)
    if not len(m_list) == len(csm_list) == len(codims):
        raise ValueError("need a Milnor class, an SM class and a codimension per factor")
    r = len(m_list)
    if r == 0:
        return zero(n)
    signed = _signed(csm_list, codims, n)
    mixed = [m_list[0]]
    # zip stops on m_list first, so the full all-SM product is never formed
    for m, s, all_sm in zip(m_list[1:], signed[1:], itertools.accumulate(signed, mul)):
        mixed = [p * c for p in mixed for c in (m, s)] + [all_sm * m]
    total = _corrected(sum(mixed[1:], mixed[0]), r)
    return -total if (n * r - n) % 2 else total


def milnor_telescope(m_list, csm_list, cfj_list, codims, n: int) -> ChowClass:
    """Telescoped form: one summand per factor, each with a single
    Milnor class flanked by virtual classes on one side and SM classes
    on the other: a running product of the first i virtual classes,
    m_i, and a precomputed product of the SM classes after i.  The sign
    (-1)^(sum of the other codims) is folded into those flanking classes.
    """
    m_list, csm_list, cfj_list, codims = map(list, (m_list, csm_list, cfj_list, codims))
    if not len(m_list) == len(csm_list) == len(cfj_list) == len(codims):
        raise ValueError("factor lists must all have the same length")
    r = len(m_list)
    if r == 0:
        return zero(n)
    heads = [None, *itertools.accumulate(_signed(cfj_list[:-1], codims, 0), mul)]
    tails = [None, *itertools.accumulate(_signed(csm_list[:0:-1], codims[:0:-1], 0), mul)]
    acc = zero(n)
    for head, m, tail in zip(heads, m_list, reversed(tails)):
        acc += prod([c for c in (head, tail) if c is not None], start=m)
    return _corrected(acc, r)


# ---------------------------------------------------------------------------
# mu-class route


def mu_class(n: int, degree: int, locus) -> ChowClass:
    """c(T*P^n (x) O(degree)) times the Segre class of the singular locus.

    The Euler sequence twisted by O(d) gives
    c(T*P^n (x) O(d)) = (1 + (d-1)H)^(n+1) / (1 + dH).  A linear locus of
    dimension k has normal bundle O(1)^(n-k), so its Segre class is
    (1 + H)^(k-n) H^(n-k).
    """
    if locus is None:
        return zero(n)
    if isinstance(locus, LinearLocus):
        k = locus.dim
        segre = line_power(n, 1, k - n) * h_power(n, n - k)
    elif isinstance(locus, SmoothLocus):
        segre = segre_smooth(locus.normal, locus.locus_class)
    else:
        raise ValueError(f"unsupported singular-locus descriptor {locus!r}")
    return line_power(n, degree - 1, n + 1) / line_power(n, degree, 1) * segre


def milnor_from_mu(mu: ChowClass, degree: int, n: int) -> ChowClass:
    """Milnor class of a hypersurface from the mu-class of its singular locus.

    sign * (1+dH)^(n-1) * (mu dualised, then twisted by O(d)), with the
    regrading done by ambient codimension and the overall sign being
    ALUFFI_GLOBAL_SIGN * (-1)^(n-1).
    """
    value = line_power(n, degree, n - 1) * mu.dual().tensor_line(degree)
    return (ALUFFI_GLOBAL_SIGN * _sign(n - 1)) * value


# ---------------------------------------------------------------------------
# stratification route


def local_milnor_number(chi_fiber: int, dim_x: int) -> int:
    """(-1)^dim(X) (chi(F) - 1); zero at smooth points where chi(F) = 1.

    The exponent is the dimension of the hypersurface.  Using the
    ambient dimension instead flips the sign for even-dimensional
    hypersurfaces and breaks route agreement; a test pins this.
    """
    return _sign(dim_x) * (chi_fiber - 1)


def gamma_weights(strat: Stratification) -> Stratification:
    """Fill the mu and gamma fields of every stratum.

    gamma peels off the contributions of every stratum whose closure
    contains the given one, working from the open stratum downward.
    """
    order = strata_topological_order(strat)
    dim_x = order[0].dim
    above = containment_map(strat)
    mu: dict[str, int] = {}
    gamma: dict[str, int] = {}
    for s in order:
        mu[s.name] = local_milnor_number(s.chi_fiber, dim_x)
        gamma[s.name] = mu[s.name] - sum(gamma[name] for name in above[s.name])
    strata = tuple(replace(s, mu=mu[s.name], gamma=gamma[s.name]) for s in strat.strata)
    return Stratification(strata, strat.closure_order)


def milnor_from_strata(strat: Stratification, degree: int, n: int) -> ChowClass:
    """Milnor class of a hypersurface as a gamma-weighted sum of
    c(O(d))^(-1) times the SM classes of the stratum closures.  The open
    stratum, where gamma is 0, is left out."""
    reg = open_stratum(strat)
    acc = zero(n)
    for s in strat.strata:
        if s is reg:
            continue
        if s.gamma is None:
            raise ValueError(f"stratum {s.name}: gamma not computed yet")
        if s.gamma == 0:
            continue
        if s.csm_closure is None:
            raise ValueError(f"stratum {s.name}: SM class of the closure is missing")
        acc += s.gamma * s.csm_closure
    return acc if acc.is_zero() else acc / line_power(n, degree, 1)


def trivial_stratification(n: int, degree: int, csm: ChowClass) -> Stratification:
    """The stratification of a smooth hypersurface: one open stratum."""
    reg = Stratum(
        "reg",
        n - 1,
        chi_fiber=1,
        closure_class=degree * h_power(n, 1),
        csm_closure=csm,
        mu=0,
        gamma=0,
    )
    return Stratification((reg,))


def milnor_from_strata_ci(strats, degrees, n: int) -> ChowClass:
    """Milnor class of an intersection from per-factor stratifications.

    Sums over tuples of strata, one per factor, other than the tuple of
    open strata.  A tuple's term is a product over the factors: gamma_s
    times the SM class of the closure of a non-open s, and
    o_i = (-1)^(n-1) c(O(d_i)) times the SM class of the closure of the
    open stratum.  So the sum is prod_i (A_i + o_i) - prod_i o_i, with A_i
    the gamma-weighted sum over the non-open strata of factor i.  It is
    divided by c(O(d_1) + ... + O(d_r)), one c(O(d_i)) per factor, which
    turns A_i into the factor's own ``milnor_from_strata``, and corrected
    like every other product-rule route.

    A class is read only where a tuple of nonzero weight reads it, so o_i
    only when another factor has a non-open stratum of nonzero gamma.
    Missing data is reported as the sum over tuples, in order, would
    first meet it.
    """
    strats, degrees = list(strats), list(degrees)
    if len(strats) != len(degrees):
        raise ValueError("need one stratification per degree")
    if not strats:
        raise ValueError("need at least one factor")
    r = len(strats)
    opens = [open_stratum(s) for s in strats]
    _raise_first_failure(strats, opens)
    with_open, all_open = [], []
    for strat, reg, d in zip(strats, opens, degrees):
        # An open class is missing only where no tuple of nonzero weight
        # reads it; o_i then cancels from the difference.
        o = zero(n) if reg.csm_closure is None else _sign(n - 1) * reg.csm_closure
        with_open.append(milnor_from_strata(strat, d, n) + o)
        all_open.append(o)
    total = _corrected(_prod(with_open) - _prod(all_open), r)
    return -total if (n * r - n) % 2 else total


def _raise_first_failure(strats, opens) -> None:
    """Raise the error that the sum over strata tuples, taken in the order
    of ``itertools.product``, meets first, if it meets one.  A tuple other
    than the all-open one fails on a non-open entry without gamma, else on
    a missing closure class unless a non-open entry has gamma 0."""

    @lru_cache(maxsize=None)
    def first(i, singular, zero_weight, no_gamma, missing):
        """The first failing completion by factors i.., or None."""
        if i == len(strats):
            return () if singular and (no_gamma or (missing and not zero_weight)) else None
        for s in strats[i].strata:
            non_open = s is not opens[i]
            rest = first(
                i + 1,
                singular or non_open,
                zero_weight or (non_open and s.gamma == 0),
                no_gamma or (non_open and s.gamma is None),
                missing or s.csm_closure is None,
            )
            if rest is not None:
                return (s, *rest)
        return None

    chosen = first(0, False, False, False, False)
    if chosen is None:
        return
    for s, reg in zip(chosen, opens):
        if s is not reg and s.gamma is None:
            raise ValueError(f"stratum {s.name}: gamma not computed yet")
    s = next(s for s in chosen if s.csm_closure is None)
    raise ValueError(f"stratum {s.name}: SM class of the closure is missing")


# ---------------------------------------------------------------------------
# report assembly


class RouteValue(Record):
    route: str
    value: ChowClass


class SkippedRoute(Record):
    route: str
    reason: str


class VarietyReport(Record):
    name: str
    kind: str  # "hypersurface" or "intersection"
    dim: int
    cfj: ChowClass
    csm: ChowClass | None
    csm_route: str | None
    milnor: tuple[RouteValue, ...]
    skipped: tuple[SkippedRoute, ...] = ()

    @cached_property
    def agree(self) -> bool:
        values = [rv.value for rv in self.milnor]
        return all(v == values[0] for v in values[1:])

    @property
    def consensus(self) -> ChowClass | None:
        if not self.milnor or not self.agree:
            return None
        return self.milnor[0].value


class ClassReport(Record):
    ambient_dim: int
    transversality_asserted: bool
    varieties: tuple[VarietyReport, ...]
    conventions: dict = None

    def __post_init__(self):
        if self.conventions is None:
            object.__setattr__(self, "conventions", dict(CONVENTIONS))

    @property
    def all_agree(self) -> bool:
        return all(v.agree for v in self.varieties)

    @property
    def used_product_routes(self) -> bool:
        """True when a route that assumes transversality ran on an
        actual intersection; single hypersurfaces never need it."""
        return any(
            rv.route in PRODUCT_ROUTES
            for v in self.varieties
            if v.kind == "intersection"
            for rv in v.milnor
        )


class _Factor(Record):
    spec: HypersurfaceSpec
    cfj: ChowClass
    csm: ChowClass | None
    csm_route: str | None
    milnor: dict
    skipped: dict
    reference: RouteValue | None
    strat: Stratification | None


def _factor_csm(h: HypersurfaceSpec, cfj: ChowClass):
    if isinstance(h.singularity, Smooth):
        return cfj, "smooth model"
    if isinstance(h.singularity, Arrangement):
        return csm_inclusion_exclusion(h), "inclusion-exclusion"
    supplied = open_stratum(h.strata).csm_closure
    if supplied is not None:
        return supplied, "supplied"
    return None, None


def _factor_stratification(h: HypersurfaceSpec, csm):
    """Gamma-filled stratification, with the open stratum's closure class
    backfilled from the hypersurface's own SM class when known."""
    n = h.ambient_dim
    if h.strata is not None:
        strat = gamma_weights(h.strata)
        reg = open_stratum(strat)
        if reg.csm_closure is None and csm is not None:
            strat = with_csm(strat, reg.name, csm)
        return strat
    if isinstance(h.singularity, Smooth):
        return trivial_stratification(n, h.degree, csm)
    return None


def _analyze_factor(h: HypersurfaceSpec) -> _Factor:
    n = h.ambient_dim
    cfj = _cfj(n, [h.degree])
    csm, csm_route = _factor_csm(h, cfj)
    strat = _factor_stratification(h, csm)
    milnor: dict = {}
    skipped: dict = {}

    if csm is not None:
        milnor["definition"] = milnor_definition(cfj, csm, n - 1)
        milnor["thm1"] = milnor_product([cfj], [csm], n, n - 1)
    else:
        reason = "no SM class without arrangement or supplied data"
        skipped["definition"] = reason
        skipped["thm1"] = reason

    if isinstance(h.singularity, Smooth):
        milnor["aluffi"] = zero(n)
    elif h.sing_locus is not None:
        milnor["aluffi"] = milnor_from_mu(mu_class(n, h.degree, h.sing_locus), h.degree, n)
    else:
        skipped["aluffi"] = "no singular-locus descriptor"

    if strat is not None:
        try:
            milnor["pp"] = milnor_from_strata(strat, h.degree, n)
        except ValueError as exc:
            skipped["pp"] = str(exc)
    else:
        skipped["pp"] = "no stratification"

    reference = None
    for route in ("definition", "pp", "aluffi"):
        if route in milnor:
            reference = RouteValue(route, milnor[route])
            break

    if reference is not None:
        csm_or_zero = csm if csm is not None else zero(n)
        milnor["expansion"] = milnor_expansion(
            [reference.value], [csm_or_zero], [1], n
        )
        milnor["cor11"] = milnor_telescope(
            [reference.value], [csm_or_zero], [cfj], [1], n
        )
    else:
        skipped["expansion"] = "no Milnor class available for the factor"
        skipped["cor11"] = "no Milnor class available for the factor"

    return _Factor(h, cfj, csm, csm_route, milnor, skipped, reference, strat)


def _intersection_report(ci, factors, intersection_csm, methods):
    n = ci.ambient_dim
    r = len(factors)
    degrees = [f.spec.degree for f in factors]
    cfj = _cfj(n, degrees)
    milnor: dict = {}
    skipped: dict = {}

    if intersection_csm is not None:
        csm, csm_route = intersection_csm, "supplied"
    elif all(_component_degrees(f.spec) is not None for f in factors) and (
        ci.transversality_asserted or r == 0
    ):
        csm, csm_route = csm_intersection_inclusion_exclusion(ci), "inclusion-exclusion"
    else:
        csm, csm_route = None, None

    if csm is not None:
        milnor["definition"] = milnor_definition(cfj, csm, n - r)
    else:
        skipped["definition"] = "no SM class for the intersection"

    if r == 0:
        skipped.update(dict.fromkeys(PRODUCT_ROUTES, "no factors"))
    elif not ci.transversality_asserted:
        skipped.update(dict.fromkeys(PRODUCT_ROUTES, "transversality not asserted"))
    else:
        if all(f.csm is not None for f in factors):
            milnor["thm1"] = milnor_product(
                [f.cfj for f in factors], [f.csm for f in factors], n, n - r
            )
        else:
            skipped["thm1"] = "a factor is missing its SM class"

        if all(f.reference is not None and f.csm is not None for f in factors):
            m_list = [f.reference.value for f in factors]
            csm_list = [f.csm for f in factors]
            milnor["expansion"] = milnor_expansion(m_list, csm_list, [1] * r, n)
            milnor["cor11"] = milnor_telescope(
                m_list, csm_list, [f.cfj for f in factors], [1] * r, n
            )
        else:
            reason = "a factor is missing its Milnor or SM class"
            skipped["expansion"] = reason
            skipped["cor11"] = reason

        if all(f.strat is not None for f in factors):
            try:
                milnor["pp"] = milnor_from_strata_ci(
                    [f.strat for f in factors], degrees, n
                )
            except ValueError as exc:
                skipped["pp"] = str(exc)
        else:
            skipped["pp"] = "a factor is missing its stratification"

    skipped["aluffi"] = "mu-class route covers single hypersurfaces only"

    name = " ∩ ".join(f.spec.name for f in factors) if factors else f"P^{n}"
    return _build_row(name, "intersection", n - r, cfj, csm, csm_route,
                      milnor, skipped, methods)


def _build_row(name, kind, dim, cfj, csm, csm_route, milnor, skipped, methods):
    values = tuple(
        RouteValue(route, milnor[route])
        for route in ROUTE_ORDER
        if route in milnor and (methods is None or route in methods)
    )
    dropped = tuple(
        SkippedRoute(route, skipped[route])
        for route in ROUTE_ORDER
        if route in skipped and (methods is None or route in methods)
    )
    return VarietyReport(name, kind, dim, cfj, csm, csm_route, values, dropped)


def _check_integral(row: VarietyReport) -> VarietyReport:
    if not row.cfj.is_integral():
        raise IntegralityError(row.name, "c^FJ", row.cfj)
    if row.csm is not None and not row.csm.is_integral():
        raise IntegralityError(row.name, f"c^SM ({row.csm_route} route)", row.csm)
    for rv in row.milnor:
        if not rv.value.is_integral():
            raise IntegralityError(row.name, f"Milnor class ({rv.route} route)", rv.value)
    return row


def compute_report(
    ci: CompleteIntersectionSpec,
    methods=None,
    intersection_csm: ChowClass | None = None,
) -> ClassReport:
    """Run every requested route on every variety in the spec.

    ``methods`` restricts the routes (None means all).  A single
    hypersurface yields one row; an intersection of r >= 2 adds a row
    per factor plus one for the intersection itself.  Any non-integral
    reported class aborts with IntegralityError.
    """
    validate(ci)
    if methods is not None:
        unknown = set(methods) - set(ROUTE_ORDER)
        if unknown:
            raise ValueError(f"unknown routes: {sorted(unknown)}")
    # Check each row once built: a non-integral factor stops the later ones.
    factors, rows = [], []
    for h in ci.hypersurfaces:
        f = _analyze_factor(h)
        factors.append(f)
        rows.append(_check_integral(_build_row(
            h.name, "hypersurface", ci.ambient_dim - 1, f.cfj, f.csm,
            f.csm_route, f.milnor, f.skipped, methods,
        )))
    if len(factors) != 1:
        rows.append(_check_integral(
            _intersection_report(ci, factors, intersection_csm, methods)
        ))
    return ClassReport(
        ci.ambient_dim, ci.transversality_asserted, tuple(rows)
    )
