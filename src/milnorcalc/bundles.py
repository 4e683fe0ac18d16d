"""Total Chern classes of bundles on P^n and the standard operations.

A bundle is recorded by its rank and its total Chern class.  The rank
matters even when high Chern components are killed by truncation: the
twist formula needs it.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .chow import ChowClass, _degree_one_scalar, h_power, line_power, one
from .records import Record


class BundleChern(Record):
    """Rank plus total Chern class (constant term 1) on P^n."""

    ambient_dim: int
    rank: int
    total: ChowClass

    def __post_init__(self):
        # Checked on the integer numerators: building the Fraction view of
        # every total class would cost more than the rest of the record.
        num, den = self.total._num, self.total._den
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        if self.total.ambient_dim != self.ambient_dim:
            raise ValueError("total class lives on the wrong ambient space")
        if num[0] != den:
            raise ValueError("a total Chern class has constant term 1")
        for j in range(self.rank + 1, self.ambient_dim + 1):
            if num[j] != 0:
                raise ValueError(
                    f"rank-{self.rank} bundle cannot have c_{j} != 0"
                )


@lru_cache(maxsize=128)
def chern_tangent(n: int) -> BundleChern:
    """c(TP^n) = (1+H)^(n+1), truncated.  Memoised (the result is immutable)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return BundleChern(n, n, line_power(n, 1, n + 1))


def chern_cotangent(n: int) -> BundleChern:
    """c(T*P^n) = (1-H)^(n+1), truncated."""
    if n < 1:
        raise ValueError("need n >= 1")
    return BundleChern(n, n, line_power(n, -1, n + 1))


def chern_line(n: int, d: int) -> BundleChern:
    """The line bundle O(d); any integer d is allowed."""
    return BundleChern(n, 1, line_power(n, d, 1))


def chern_sum(bundles) -> BundleChern:
    """Direct sum via the Whitney formula: ranks add, totals multiply."""
    bundles = list(bundles)
    if not bundles:
        raise ValueError("need at least one bundle")
    n = bundles[0].ambient_dim
    if any(b.ambient_dim != n for b in bundles):
        raise ValueError("ambient dimensions differ")
    total = prod((b.total for b in bundles), start=one(n))
    return BundleChern(n, sum(b.rank for b in bundles), total)


def chern_twist(e: BundleChern, c1) -> BundleChern:
    """Tensor by a line bundle with first Chern class c1.

    Components shift along the Chern roots:
    c_j(E (x) L) = sum_i C(rank-i, j-i) c_i(E) c1^(j-i), the H^j part of
    sum_i c_i(E) (1+c1)^(rank-i) = (1+c1)^rank c(E).tensor_line(c1).
    """
    t = _degree_one_scalar(e.ambient_dim, c1)
    total = line_power(e.ambient_dim, t, e.rank) * e.total.tensor_line(t)
    return BundleChern(e.ambient_dim, e.rank, total)


def segre_smooth(normal: BundleChern, z_class: ChowClass) -> ChowClass:
    """Segre class of a smooth subvariety: c(N)^(-1) times its class."""
    if normal.ambient_dim != z_class.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return z_class / normal.total


def fundamental_class_ci(n: int, degrees) -> ChowClass:
    """[X] = (prod d_i) H^r for a complete intersection of r hypersurfaces."""
    degrees = list(degrees)
    if any(d < 1 for d in degrees):
        raise ValueError("hypersurface degrees must be positive")
    if len(degrees) > n:
        raise ValueError(f"{len(degrees)} hypersurfaces do not cut P^{n}")
    return prod(degrees, start=1) * h_power(n, len(degrees))
