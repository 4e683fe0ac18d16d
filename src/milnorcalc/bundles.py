"""Total Chern classes of bundles on P^n and the standard operations.

The formulas read a bundle only through its total Chern class, so each
function here returns a ``ChowClass``.  The twist formula needs the rank
too, even when truncation kills high components: it takes it as an argument.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .chow import ChowClass, _degree_one_scalar, _from_ints, line_power


@lru_cache(maxsize=128)
def chern_tangent(n: int) -> ChowClass:
    """c(TP^n) = (1+H)^(n+1), truncated.  Memoised (the result is immutable)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return line_power(n, 1, n + 1)


def chern_cotangent(n: int) -> ChowClass:
    """c(T*P^n) = (1-H)^(n+1), truncated."""
    if n < 1:
        raise ValueError("need n >= 1")
    return line_power(n, -1, n + 1)


def chern_line(n: int, d: int) -> ChowClass:
    """c(O(d)) = 1 + dH; any integer d is allowed."""
    return line_power(n, d, 1)


def chern_twist(total: ChowClass, rank: int, c1) -> ChowClass:
    """c(E (x) L) for E of rank ``rank`` >= 0 and total class ``total``, and
    a line bundle L with first Chern class c1.

    Components shift along the Chern roots:
    c_j(E (x) L) = sum_i C(rank-i, j-i) c_i(E) c1^(j-i), the H^j part of
    sum_i c_i(E) (1+c1)^(rank-i) = (1+c1)^rank c(E).tensor_line(c1).
    """
    t = _degree_one_scalar(total.ambient_dim, c1)
    return line_power(total.ambient_dim, t, rank) * total.tensor_line(t)


def segre_smooth(normal: ChowClass, z_class: ChowClass) -> ChowClass:
    """Segre class of a smooth subvariety: its class divided by c(N)."""
    return z_class / normal


def fundamental_class_ci(n: int, degrees) -> ChowClass:
    """[X] = (prod d_i) H^r for a complete intersection of r hypersurfaces."""
    degrees = list(degrees)
    if any(d < 1 for d in degrees):
        raise ValueError("hypersurface degrees must be positive")
    if len(degrees) > n:
        raise ValueError(f"{len(degrees)} hypersurfaces do not cut P^{n}")
    return _from_ints(n, (0,) * len(degrees) + (prod(degrees, start=1),) + (0,) * (n - len(degrees)))
