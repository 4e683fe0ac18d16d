"""Characteristic classes of hypersurfaces and their intersections.

Every class on a subvariety X of P^n is computed as its pushforward to
the ambient ring Q[H]/(H^(n+1)); cap products and refined intersection
products then both become truncated polynomial multiplication.  The
Milnor class of X is computed along several routes, three of them
restatements of the product rule, and the report records whether they
agree after pushforward:

* ``definition``  (-1)^dim(X) (c^FJ(X) - c^SM(X)), with c^SM obtained
  by inclusion-exclusion over arrangement components or supplied
  explicitly.
* ``thm1``        the product rule: divide the product of the factors'
  classes by c(TP^n)^(r-1).
* ``expansion``   the same rule on the factors' Milnor and SM classes, as
  2^r - 1 mixed products; with m_i the factor's ``definition`` value,
  m_i + (-1)^(n-1) c^SM_i = (-1)^(n-1) c^FJ_i, so the sum is thm1's class.
* ``cor11``       the telescoped form of that sum: thm1's class again.
  ``milnor_expansion`` and ``milnor_telescope`` form each term on its own
  and sum all in one ``chow.dot`` accumulator, with the term's sign as its
  integer weight, so no class is negated; ``milnor_product`` takes its
  difference the same way.  ``identities`` checks them against the
  product rule.
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

Classes that integers fix are computed once per process: c^FJ by its
degrees, the arrangement or smooth c^SM by sorted component degrees and
the ``aluffi`` route of a linear singular locus by (n, degree, dim), in
caches of at most 1,024 entries each; the tangent correction in one of
64; and c(TP^n) in ``bundles.chern_tangent``'s, of 128.  Nothing is keyed
on user-supplied coefficients.  Cached classes are immutable and
shared between reports.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import prod
from operator import mul

# chern_cotangent, chern_line and chern_twist are not called here, but
# stay in this namespace while the benchmark's tracer (perfbench/tracer.py)
# wraps them where engine looks them up.
from .bundles import (
    chern_cotangent,
    chern_line,
    chern_tangent,
    chern_twist,
    fundamental_class_ci,
    segre_smooth,
)
from .chow import ChowClass, _sign, dot, h_power, line_power, one, zero
from .records import Record
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
    validate,
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
    return _prod(lines, n)


def _cfj(n: int, degrees) -> ChowClass:
    """c(TP^n) c(N)^(-1) [X], N the sum of the O(d_i).  Memoised on the
    sorted degrees (classes are immutable)."""
    return _cfj_of_sorted(n, tuple(sorted(degrees)))


@lru_cache(maxsize=1024)
def _cfj_of_sorted(n: int, degrees: tuple[int, ...]) -> ChowClass:
    return chern_tangent(n) / _lines(n, degrees) * fundamental_class_ci(n, degrees)


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
    lines = [_lines(n, degrees) for degrees in per_factor]  # none: P^n itself
    return chern_tangent(n) * _prod([c - one(n) for c in lines], n) / _prod(lines, n)


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


def _prod(classes, n: int) -> ChowClass:
    """The product of the classes; one(n) for none."""
    return prod(classes[1:], start=classes[0]) if classes else one(n)


def product_rule(classes, n: int) -> ChowClass:
    """Class of a transversal intersection from its factors' classes:
    their product divided by c(TP^n)^(r-1).  Holds for SM and for
    virtual (Fulton-Johnson) classes alike."""
    classes = list(classes)
    if not classes:
        raise ValueError("need at least one class")
    return _corrected(_prod(classes, n), len(classes))


def milnor_product(cfj_list, csm_list, n: int, dim_x: int) -> ChowClass:
    """(-1)^dim(X) (prod c^FJ_i - prod c^SM_i), divided once by c(TP^n)^(r-1):
    the report's one product-rule kernel, for thm1, expansion, cor11 and pp,
    evaluated once per intersection row when pp's inputs are thm1's.
    One ``dot`` pairs each product but its last factor with that factor,
    weighted by the sign."""
    cfj_list, csm_list = list(cfj_list), list(csm_list)
    if len(cfj_list) != len(csm_list):
        raise ValueError("need one virtual and one SM class per factor")
    if not cfj_list:
        raise ValueError("need at least one class")
    sign = _sign(dim_x)
    pairs = [(_prod(cfj_list[:-1], n), cfj_list[-1], sign), (_prod(csm_list[:-1], n), csm_list[-1], -sign)]
    return _corrected(dot(pairs, n), len(cfj_list))


def _choice_products(m_list, csm_list, signs, n: int) -> list[tuple[ChowClass, int]]:
    """(product, sign) for each choice of the Milnor class or the SM class,
    with its sign, of every factor; the all-SM choice comes last."""
    classes = itertools.product(*zip(m_list, csm_list))
    weights = itertools.product(*[(1, s) for s in signs])
    return [(_prod(c, n), prod(w)) for c, w in zip(classes, weights)]


def milnor_expansion(m_list, csm_list, codims, n: int) -> ChowClass:
    """The product rule expanded into 2^r - 1 signed mixed products.

    Each summand picks the Milnor or the SM class of every factor (the
    all-SM choice is excluded) and carries (-1)^(n - codim_i) per SM
    factor picked, and the sum carries (-1)^(n(r - 1)).  ``codims`` are
    the codimensions of the factors: 1 for every hypersurface.  Only their
    parity matters.

    The choice products of the first r // 2 factors, and of the rest, are
    formed once each with their signs (the all-SM product last); every
    mixed product is then a (left, right) pair, and one ``dot`` forms each
    of the 2^r - 1 products on its own and sums them in one accumulator,
    each weighted by its sign.
    """
    m_list, csm_list, codims = list(m_list), list(csm_list), list(codims)
    if not len(m_list) == len(csm_list) == len(codims):
        raise ValueError("need a Milnor class, an SM class and a codimension per factor")
    r = len(m_list)
    if r == 0:
        return zero(n)
    signs, h = [_sign(n - d) for d in codims], r // 2
    left, right = (_choice_products(m_list[i:j], csm_list[i:j], signs[i:j], n) for i, j in ((0, h), (h, r)))
    sign = _sign(n * (r - 1))
    pairs = [(x, y, sign * s * t) for x, s in left for y, t in right][:-1]  # all but the all-SM pair
    return _corrected(dot(pairs, n), r)


def milnor_telescope(m_list, csm_list, cfj_list, codims, n: int) -> ChowClass:
    """Telescoped form: one summand per factor, each with a single
    Milnor class flanked by virtual classes on one side and SM classes
    on the other: a running product of the virtual classes before i,
    m_i, and a precomputed product of the SM classes after i, with the
    sign (-1)^(sum of the other codims).  One ``dot`` sums the r pairs
    (head m_i, tail), or (head, m_r) last, each weighted by its sign.
    """
    m_list, csm_list, cfj_list, codims = map(list, (m_list, csm_list, cfj_list, codims))
    if not len(m_list) == len(csm_list) == len(cfj_list) == len(codims):
        raise ValueError("factor lists must all have the same length")
    r = len(m_list)
    if r == 0:
        return zero(n)
    heads = list(itertools.accumulate(cfj_list[:-1], mul))
    tails = list(itertools.accumulate(csm_list[:0:-1], mul))[::-1]
    total = sum(codims)
    signs = [_sign(total - d) for d in codims]
    pairs = [(m_list[0], tails[0] if tails else one(n), signs[0]),
             *zip(map(mul, heads, m_list[1:-1]), tails[1:], signs[1:-1])]
    if heads:
        pairs.append((heads[-1], m_list[-1], signs[-1]))
    return _corrected(dot(pairs, n), r)


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


@lru_cache(maxsize=1024)
def _aluffi_of_linear_locus(n: int, degree: int, k: int) -> ChowClass:
    """The ``aluffi`` route of a hypersurface singular along a P^k.  A
    smooth locus carries a user-supplied class, so it is never memoised."""
    return milnor_from_mu(mu_class(n, degree, LinearLocus(k)), degree, n)


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
    """Validate the stratification, then fill the mu and gamma fields of every stratum.

    gamma peels off the contributions of every stratum whose closure
    contains the given one, working from the open stratum downward.
    """
    return _filled(validate(strat), None)


def _filled(strat: Stratification, csm: ChowClass | None) -> Stratification:
    """``gamma_weights`` of a valid stratification, not validated again,
    with ``csm`` as the open stratum's closure class where that is
    missing.  Each stratum is built once."""
    above = containment_map(strat)  # the open stratum first, then downward
    by_name = {s.name: s for s in strat.strata}
    reg = next(iter(above))
    dim_x = by_name[reg].dim
    mu: dict[str, int] = {}
    gamma: dict[str, int] = {}
    for name, uppers in above.items():
        mu[name] = local_milnor_number(by_name[name].chi_fiber, dim_x)
        gamma[name] = mu[name] - sum(gamma[upper] for upper in uppers)
    strata = tuple(
        Stratum(s.name, s.dim, s.chi_fiber, s.closure_class,
                csm if s.csm_closure is None and s.name == reg else s.csm_closure, mu[s.name], gamma[s.name])
        for s in strat.strata
    )
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
    turns A_i into the factor's own ``milnor_from_strata`` m_i and o_i into
    (-1)^(n-1) c_i, c_i the SM class of the open stratum's closure: so with
    v_i = c_i + (-1)^(n-1) m_i it is ``milnor_product(v, c, n, n - r)``.

    Missing data is reported factor by factor.  Each factor in order
    first raises its own ``milnor_from_strata`` error.  Then a missing c_i
    is reported for the first factor whose c_i is read: o_i is read only
    when another factor has a non-open stratum of nonzero gamma, and
    otherwise cancels from the difference.  ``_strata_product_inputs``
    takes these steps and returns (v, c); a report's intersection row
    calls it on the m_i its factor rows already hold, and takes thm1's
    class when (v, c) are thm1's inputs (c^FJ_i, c^SM_i).
    """
    strats, degrees = list(strats), list(degrees)
    if len(strats) != len(degrees):
        raise ValueError("need one stratification per degree")
    if not strats:
        raise ValueError("need at least one factor")
    m_list = [milnor_from_strata(s, d, n) for s, d in zip(strats, degrees)]
    return milnor_product(*_strata_product_inputs(strats, m_list, n), n, n - len(strats))


def _strata_product_inputs(strats, m_list, n: int) -> tuple[list, list]:
    """(v_list, c_list) of ``milnor_from_strata_ci``, from each m_i or the message of its error."""
    failed = next((m for m in m_list if not isinstance(m, ChowClass)), None)
    if failed is not None:
        raise ValueError(failed)
    opens = [open_stratum(s) for s in strats]
    weighted = [any(s is not reg and s.gamma for s in strat.strata) for strat, reg in zip(strats, opens)]
    for i, reg in enumerate(opens):
        if reg.csm_closure is None and any(weighted[:i] + weighted[i + 1:]):
            raise ValueError(f"stratum {reg.name}: SM class of the closure is missing")
    c_list = [zero(n) if reg.csm_closure is None else reg.csm_closure for reg in opens]
    return [c + _sign(n - 1) * m for c, m in zip(c_list, m_list)], c_list


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
    """One row per variety; every report follows the module's ``CONVENTIONS``."""
    ambient_dim: int
    transversality_asserted: bool
    varieties: tuple[VarietyReport, ...]

    @property
    def conventions(self) -> dict:
        """A copy of ``CONVENTIONS``."""
        return dict(CONVENTIONS)

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
    """A hypersurface with its classes, its gamma-filled stratification and
    ``routes``: each route's Milnor class, or the reason it was skipped."""
    spec: HypersurfaceSpec
    cfj: ChowClass
    csm: ChowClass | None
    csm_route: str | None
    routes: dict
    strat: Stratification | None


def _factor_csm(h: HypersurfaceSpec, cfj: ChowClass):
    if isinstance(h.singularity, Smooth):
        return cfj, "smooth model"
    if isinstance(h.singularity, Arrangement):
        pieces = [h.singularity.component_degrees]
        return _csm_intersection_of_unions(h.ambient_dim, pieces), "inclusion-exclusion"
    supplied = open_stratum(h.strata).csm_closure
    if supplied is not None:
        return supplied, "supplied"
    return None, None


def _factor_stratification(h: HypersurfaceSpec, csm):
    """Gamma-filled stratification, with the open stratum's closure class
    backfilled from the hypersurface's own SM class when known."""
    if h.strata is not None:
        return _filled(h.strata, csm)  # compute_report validated the spec
    if isinstance(h.singularity, Smooth):
        return trivial_stratification(h.ambient_dim, h.degree, csm)
    return None


def _or_reason(route, *args):
    """The route's class, or the message of the ValueError it raises."""
    try:
        return route(*args)
    except ValueError as exc:
        return str(exc)


def _analyze_factor(h: HypersurfaceSpec) -> _Factor:
    n = h.ambient_dim
    cfj = _cfj(n, [h.degree])
    csm, csm_route = _factor_csm(h, cfj)
    strat = _factor_stratification(h, csm)
    routes: dict = {}
    if csm is not None:
        # with one factor the product rule is the definition
        routes["definition"] = routes["thm1"] = milnor_definition(cfj, csm, n - 1)
    else:
        routes["definition"] = routes["thm1"] = "no SM class without arrangement or supplied data"
    if isinstance(h.sing_locus, LinearLocus):
        routes["aluffi"] = _aluffi_of_linear_locus(n, h.degree, h.sing_locus.dim)
    elif h.sing_locus is not None:
        routes["aluffi"] = milnor_from_mu(mu_class(n, h.degree, h.sing_locus), h.degree, n)
    elif isinstance(h.singularity, Smooth):  # validation rejects a locus on a smooth one
        routes["aluffi"] = zero(n)
    else:
        routes["aluffi"] = "no singular-locus descriptor"
    routes["pp"] = (
        "no stratification" if strat is None else _or_reason(milnor_from_strata, strat, h.degree, n)
    )
    # A one-term expansion or telescoped sum is its term: the reference.
    routes["expansion"] = routes["cor11"] = next(
        (routes[route] for route in ("definition", "pp", "aluffi") if isinstance(routes[route], ChowClass)),
        "no Milnor class available for the factor",
    )
    return _Factor(h, cfj, csm, csm_route, routes, strat)


def _intersection_report(ci, factors, intersection_csm, selected):
    n = ci.ambient_dim
    r = len(factors)
    degrees = [f.spec.degree for f in factors]
    cfj = _cfj(n, degrees)
    pieces = [_component_degrees(f.spec) for f in factors]
    if intersection_csm is not None:
        csm, csm_route = intersection_csm, "supplied"
    elif None not in pieces and (ci.transversality_asserted or r == 0):
        csm, csm_route = _csm_intersection_of_unions(n, pieces), "inclusion-exclusion"
    else:
        csm, csm_route = None, None
    routes = {
        "definition": "no SM class for the intersection" if csm is None
        else milnor_definition(cfj, csm, n - r),
        "aluffi": "mu-class route covers single hypersurfaces only",
    }
    if r == 0 or not ci.transversality_asserted:
        reason = "no factors" if r == 0 else "transversality not asserted"
        routes.update(dict.fromkeys(PRODUCT_ROUTES, reason))
    else:
        cfj_list, csm_list = [f.cfj for f in factors], [f.csm for f in factors]
        if all(c is not None for c in csm_list):
            # A factor's m_i is its definition value, so the expansion and
            # its telescoped form sum to thm1's class (module docstring).
            routes["thm1"] = routes["expansion"] = routes["cor11"] = milnor_product(cfj_list, csm_list, n, n - r)
        else:
            routes["thm1"] = "a factor is missing its SM class"
            routes["expansion"] = routes["cor11"] = "a factor is missing its Milnor or SM class"
        inputs = (
            _or_reason(_strata_product_inputs, [f.strat for f in factors], [f.routes["pp"] for f in factors], n)
            if all(f.strat is not None for f in factors)
            else "a factor is missing its stratification"
        )
        if isinstance(inputs, str):
            routes["pp"] = inputs
        elif inputs == (cfj_list, csm_list):  # the kernel is pure: thm1's inputs give thm1's class
            routes["pp"] = routes["thm1"]
        else:
            routes["pp"] = milnor_product(*inputs, n, n - r)

    name = " ∩ ".join(f.spec.name for f in factors) if factors else f"P^{n}"
    return _build_row(name, "intersection", n - r, cfj, csm, csm_route, routes, selected)


def _build_row(name, kind, dim, cfj, csm, csm_route, routes, selected):
    """The report row: each selected route read once from ``routes``, as a
    class or a skip reason; a route missing there raises KeyError.  The
    first non-integral class, in row order, raises IntegralityError."""
    if not cfj.is_integral():
        raise IntegralityError(name, "c^FJ", cfj)
    if csm is not None and not csm.is_integral():
        raise IntegralityError(name, f"c^SM ({csm_route} route)", csm)
    values, dropped = [], []
    for route in selected:
        value = routes[route]
        if not isinstance(value, ChowClass):
            dropped.append(SkippedRoute(route, value))
        elif value.is_integral():
            values.append(RouteValue(route, value))
        else:
            raise IntegralityError(name, f"Milnor class ({route} route)", value)
    return VarietyReport(name, kind, dim, cfj, csm, csm_route, tuple(values), tuple(dropped))


def compute_report(
    ci: CompleteIntersectionSpec,
    methods=None,
    intersection_csm: ChowClass | None = None,
) -> ClassReport:
    """Run every requested route on every variety in the spec.

    ``methods`` restricts the routes (None means all).  A single
    hypersurface yields one row; an intersection of r >= 2 adds a row
    per factor plus one for the intersection itself, whose SM class
    ``intersection_csm`` supplies (ValueError on a single hypersurface).
    Any non-integral reported class aborts with IntegralityError.
    """
    validate(ci)
    if methods is not None:
        unknown = set(methods) - set(ROUTE_ORDER)
        if unknown:
            raise ValueError(f"unknown routes: {sorted(unknown)}")
    if intersection_csm is not None and len(ci.hypersurfaces) == 1:
        raise ValueError("intersection_csm: a single hypersurface has no intersection row")
    selected = [route for route in ROUTE_ORDER if methods is None or route in methods]
    # Each row is checked once built: a non-integral factor stops the later ones.
    factors, rows = [], []
    for h in ci.hypersurfaces:
        factors.append(f := _analyze_factor(h))
        rows.append(_build_row(h.name, "hypersurface", ci.ambient_dim - 1, f.cfj, f.csm,
                               f.csm_route, f.routes, selected))
    if len(factors) != 1:
        rows.append(_intersection_report(ci, factors, intersection_csm, selected))
    return ClassReport(ci.ambient_dim, ci.transversality_asserted, tuple(rows))
