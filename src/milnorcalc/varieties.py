"""Input model for hypersurfaces, intersections and Whitney stratifications.

Everything here is data plus validation.  Defining equations are never
stored: degrees, singular-locus descriptors and per-stratum Milnor
fibre data are all the class formulas need.  Transversality is an
assertion made by the user; it cannot be checked from degree data, so
the calculator records it and warns instead of deciding it.
"""

from __future__ import annotations

from .chow import ChowClass, _from_ints, line_power
from .records import Record


class Smooth(Record):
    """No singularities."""


class Arrangement(Record):
    """Union of smooth hypersurfaces in general position.

    Component degrees must sum to the total degree.  Only the pairwise
    transversal regime is supported.
    """

    component_degrees: tuple[int, ...]


class Stratified(Record):
    """Singularities described only by an attached stratification."""


class LinearLocus(Record):
    """A linear subspace P^k, used as a smooth singular-locus model."""

    dim: int


class SmoothLocus(Record):
    """A smooth singular locus given by its class and by the rank and
    total Chern class of its normal bundle."""

    locus_class: ChowClass
    normal_rank: int
    normal: ChowClass

    def __post_init__(self):
        # Checked on the integer numerators: building the Fraction view of
        # the normal class would cost more than the rest of the record.
        num, den = self.normal._num, self.normal._den
        if self.normal_rank < 0:
            raise ValueError("rank must be non-negative")
        if num[0] != den:
            raise ValueError("a total Chern class has constant term 1")
        for j in range(self.normal_rank + 1, len(num)):
            if num[j] != 0:
                raise ValueError(f"rank-{self.normal_rank} bundle cannot have c_{j} != 0")


class Stratum(Record):
    name: str
    dim: int
    chi_fiber: int = 1
    closure_class: ChowClass | None = None
    csm_closure: ChowClass | None = None
    mu: int | None = None
    gamma: int | None = None


class Stratification(Record):
    """Strata plus the closure partial order.

    ``closure_order`` lists pairs (upper, lower) meaning the closure of
    ``upper`` contains ``lower``.  The open stratum is the unique one of
    top dimension; its closure implicitly contains every other stratum,
    so those pairs may be omitted.
    """

    strata: tuple[Stratum, ...]
    closure_order: tuple[tuple[str, str], ...] = ()


class HypersurfaceSpec(Record):
    """A degree-d hypersurface of P^n with its singularity description.

    ``strata`` may accompany any singularity kind; the ``Stratified``
    marker just says the stratification is the only description given.
    ``sing_locus`` feeds the mu-class route.
    """

    name: str
    ambient_dim: int
    degree: int
    singularity: Smooth | Arrangement | Stratified
    sing_locus: LinearLocus | SmoothLocus | None = None
    strata: Stratification | None = None


class CompleteIntersectionSpec(Record):
    ambient_dim: int
    hypersurfaces: tuple[HypersurfaceSpec, ...]
    transversality_asserted: bool = False


class ValidationError(ValueError):
    """Carries every invariant violation, each tagged with a field path."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


def validate(spec):
    """Check all invariants; return the spec unchanged or raise."""
    errors = validation_errors(spec)
    if errors:
        raise ValidationError(errors)
    return spec


def validation_errors(spec) -> list[str]:
    if isinstance(spec, CompleteIntersectionSpec):
        return _ci_errors(spec)
    if isinstance(spec, HypersurfaceSpec):
        return _hypersurface_errors(spec, path=spec.name or "hypersurface")
    if isinstance(spec, Stratification):
        return _stratification_errors(spec, path="strata")
    raise TypeError(f"cannot validate {type(spec).__name__}")


def _ci_errors(ci: CompleteIntersectionSpec) -> list[str]:
    errors = []
    n = ci.ambient_dim
    if n < 1:
        errors.append("ambient_dim: must be at least 1")
    r = len(ci.hypersurfaces)
    if r > n >= 1:
        errors.append(
            f"hypersurfaces: {r} hypersurfaces in P^{n} give dim X = {n - r} < 0"
        )
    names = [h.name for h in ci.hypersurfaces]
    if len(set(names)) != len(names):
        errors.append("hypersurfaces: names must be distinct")
    for i, h in enumerate(ci.hypersurfaces):
        path = f"hypersurfaces[{i}]"
        if h.ambient_dim != n:
            errors.append(f"{path}.ambient_dim: {h.ambient_dim} != ambient {n}")
        errors.extend(_hypersurface_errors(h, path))
    return errors


def _hypersurface_errors(h: HypersurfaceSpec, path: str) -> list[str]:
    errors = []
    n = h.ambient_dim
    if n < 1:
        errors.append(f"{path}.ambient_dim: must be at least 1")
        return errors
    if h.degree < 1:
        errors.append(f"{path}.degree: must be positive")
    sing = h.singularity
    if isinstance(sing, Arrangement):
        degs = sing.component_degrees
        if not degs:
            errors.append(f"{path}.singularity.components: need at least one")
        elif any(d < 1 for d in degs):
            errors.append(f"{path}.singularity.components: degrees must be positive")
        elif sum(degs) != h.degree:
            errors.append(
                f"{path}.singularity.components: degrees sum to {sum(degs)}, "
                f"not the total degree {h.degree}"
            )
    elif isinstance(sing, Stratified):
        if h.strata is None:
            errors.append(f"{path}.strata: required for stratified singularities")
    elif not isinstance(sing, Smooth):
        errors.append(f"{path}.singularity: unknown kind {type(sing).__name__}")
    if isinstance(sing, Smooth) and h.strata is not None and len(h.strata.strata) > 1:
        errors.append(f"{path}.strata: a smooth hypersurface has only its open stratum")
    if isinstance(sing, Smooth) and h.sing_locus is not None:
        errors.append(f"{path}.sing_locus: a smooth hypersurface has no singular locus")
    if isinstance(sing, (Smooth, Arrangement)) and h.strata is not None and h.strata.strata:
        reg = open_stratum(h.strata)
        if reg.closure_class is not None or reg.csm_closure is not None:
            errors.append(f"{path}.strata.{reg.name}.closure: the open stratum's closure is the "
                          "hypersurface, whose classes are derived")
    locus = h.sing_locus
    if isinstance(locus, LinearLocus) and not 0 <= locus.dim <= n - 2:
        errors.append(
            f"{path}.sing_locus.dim: must lie in [0, {n - 2}] for a reduced "
            f"hypersurface of P^{n}"
        )
    if isinstance(locus, SmoothLocus):
        m, num = locus.normal_rank, locus.locus_class._num
        if locus.locus_class.ambient_dim != n:
            errors.append(f"{path}.sing_locus.class: wrong ambient dimension")
        if locus.normal.ambient_dim != n:
            errors.append(f"{path}.sing_locus.normal: wrong ambient dimension")
        if not 2 <= m <= n:
            errors.append(
                f"{path}.sing_locus.normal.rank: must lie in [2, {n}] for a reduced "
                f"hypersurface of P^{n}"
            )
        elif locus.locus_class.ambient_dim == n and ([j for j, a in enumerate(num) if a] != [m] or num[m] < 0):
            errors.append(f"{path}.sing_locus.class: must be a positive multiple of H^{m}, "
                          f"the codimension of a locus with a rank-{m} normal bundle")
    if h.strata is not None:
        errors.extend(
            _stratification_errors(
                h.strata, path=f"{path}.strata", ambient_dim=n, variety_dim=n - 1
            )
        )
    return errors


def _stratification_errors(
    strat: Stratification, path: str, ambient_dim=None, variety_dim=None
) -> list[str]:
    errors = []
    if not strat.strata:
        errors.append(f"{path}: need at least one stratum")
        return errors
    names = [s.name for s in strat.strata]
    if len(set(names)) != len(names):
        errors.append(f"{path}: stratum names must be distinct")
        return errors
    by_name = {s.name: s for s in strat.strata}
    top = max(s.dim for s in strat.strata)
    open_candidates = [s for s in strat.strata if s.dim == top]
    if len(open_candidates) != 1:
        errors.append(
            f"{path}: exactly one open stratum expected, found "
            f"{len(open_candidates)} of top dimension {top}"
        )
    else:
        reg = open_candidates[0]
        if variety_dim is not None and reg.dim != variety_dim:
            errors.append(
                f"{path}.{reg.name}.dim: open stratum must have dimension {variety_dim}"
            )
        if reg.chi_fiber != 1:
            errors.append(
                f"{path}.{reg.name}.chiF: the Milnor fibre at a smooth point "
                "has Euler characteristic 1"
            )
        if any(lower == reg.name for _, lower in strat.closure_order):
            errors.append(f"{path}: the open stratum cannot lie below another stratum")
    # Dimensions must strictly decrease along every pair, so an order
    # that passes these checks has no cycle.
    for upper, lower in strat.closure_order:
        if upper not in by_name or lower not in by_name:
            errors.append(f"{path}.closure_order: unknown stratum in ({upper}, {lower})")
            continue
        if upper == lower:
            errors.append(f"{path}.closure_order: cycle at {upper}")
        elif by_name[upper].dim <= by_name[lower].dim:
            errors.append(
                f"{path}.closure_order: dimensions must strictly decrease, "
                f"({upper}, {lower}) does not"
            )
    for s in strat.strata:
        if s.dim < 0:
            errors.append(f"{path}.{s.name}.dim: must be non-negative")
        if variety_dim is not None and s.dim > variety_dim:
            errors.append(f"{path}.{s.name}.dim: exceeds the variety dimension")
        if s.closure_class is not None and ambient_dim is not None:
            if s.closure_class.ambient_dim != ambient_dim:
                errors.append(f"{path}.{s.name}.closure: wrong ambient dimension")
            else:
                codim = ambient_dim - s.dim
                for j, a in enumerate(s.closure_class._num):
                    if j != codim and a != 0:
                        errors.append(
                            f"{path}.{s.name}.closure: class must be concentrated "
                            f"in codimension {codim}"
                        )
                        break
    return errors


def open_stratum(strat: Stratification) -> Stratum:
    return max(strat.strata, key=lambda s: s.dim)


def containment_map(strat: Stratification) -> dict[str, frozenset[str]]:
    """Names of the strata strictly above each stratum, keyed in
    ``strata_topological_order``'s order.

    Transitive closure of the declared pairs, plus the open stratum
    above everything else (its closure is the whole variety).  On a
    valid stratification dimensions strictly decrease along every pair,
    so in that order a stratum's uppers are closed before it.
    """
    reg, *rest = _by_dimension(strat)
    uppers = {s.name: [] for s in strat.strata}
    for upper, lower in strat.closure_order:
        uppers[lower].append(upper)
    above = {reg.name: frozenset()}
    for s in rest:
        out = {reg.name, *uppers[s.name]}
        for upper in uppers[s.name]:
            out |= above[upper]
        above[s.name] = frozenset(out)
    return above


def _by_dimension(strat: Stratification) -> list[Stratum]:
    return sorted(strat.strata, key=lambda s: (-s.dim, s.name))


def strata_topological_order(strat: Stratification) -> tuple[Stratum, ...]:
    """Open stratum first, then strictly decreasing dimension, names
    breaking ties.  This is a linear extension of the closure order
    because dimensions strictly decrease along it."""
    validate(strat)
    return tuple(_by_dimension(strat))


def csm_linear_subspace(n: int, k: int) -> ChowClass:
    """Pushforward of the SM class of a linear P^k inside P^n.

    Smooth model: (1+H)^(k+1) H^(n-k), the binomial row of (1+H)^(k+1)
    shifted up by n-k with no ring product; its integral is chi(P^k) = k+1.
    """
    if not 0 <= k <= n:
        raise ValueError(f"no P^{k} inside P^{n}")
    return _from_ints(n, (0,) * (n - k) + line_power(k, 1, k + 1)._num)
