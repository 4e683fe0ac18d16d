import pytest
from hypothesis import given
from hypothesis import strategies as st

from milnorcalc.bundles import (
    chern_cotangent,
    chern_line,
    chern_tangent,
    chern_twist,
    fundamental_class_ci,
    segre_smooth,
)
from milnorcalc.chow import h_power, make_class, one
from milnorcalc.varieties import SmoothLocus


def cls(n, *coeffs):
    return make_class(n, list(coeffs))


def test_tangent_totals():
    assert chern_tangent(4) == cls(4, 1, 5, 10, 10, 5)
    assert chern_tangent(1) == cls(1, 1, 2)
    assert chern_tangent(3) == cls(3, 1, 4, 6, 4)
    with pytest.raises(ValueError):
        chern_tangent(0)


def test_cotangent_totals():
    assert chern_cotangent(4) == cls(4, 1, -5, 10, -10, 5)
    assert chern_cotangent(1) == cls(1, 1, -2)
    assert chern_cotangent(2) == cls(2, 1, -3, 3)


def test_line_bundles():
    assert chern_line(4, 2) == cls(4, 1, 2)
    assert chern_line(4, 0) == one(4)
    assert chern_line(3, -1) == cls(3, 1, -1)


def test_honest_bundle_rank_guard():
    """A singular locus's normal bundle is checked where it is declared."""
    with pytest.raises(ValueError):
        SmoothLocus(h_power(3, 2), 1, cls(3, 1, 1, 1))
    with pytest.raises(ValueError):
        SmoothLocus(h_power(3, 2), 2, cls(3, 0, 1))  # constant term must be 1


def test_twist_cotangent_example():
    assert chern_twist(chern_cotangent(4), 4, 2) == cls(4, 1, 3, 4, 2, 1)


def test_twist_by_zero_is_identity():
    e = chern_cotangent(5)
    assert chern_twist(e, 5, 0) == e


def test_twist_line_bundle_adds_degrees():
    assert chern_twist(chern_line(4, 3), 1, 2) == chern_line(4, 5)


@given(st.integers(2, 8), st.integers(1, 6))
def test_twist_consistency_two_derivations(n, d):
    # rank-n twist formula against (1+(d-1)H)^(n+1)/(1+dH)
    lhs = chern_twist(chern_cotangent(n), n, d)
    rhs = make_class(n, [1, d - 1]) ** (n + 1) * chern_line(n, d).invert()
    assert lhs == rhs


@given(st.integers(1, 6), st.integers(-4, 4), st.integers(-4, 4))
def test_twist_composes(n, u, v):
    e, rank = (chern_cotangent(n), n) if n > 1 else (chern_line(n, 2), 1)
    assert chern_twist(chern_twist(e, rank, u), rank, v) == chern_twist(e, rank, u + v)


def test_whitney_formula_is_the_product():
    """(E + F) (x) L = E (x) L + F (x) L: the twist of a product of total
    classes, at the summed rank, is the product of the twists."""
    a, b = chern_tangent(4), chern_line(4, 3)
    for t in (-2, 0, 3):
        assert chern_twist(a * b, 5, t) == chern_twist(a, 4, t) * chern_twist(b, 1, t)


def test_segre_examples():
    normal = cls(4, 1, 1) ** 2
    assert segre_smooth(normal, h_power(4, 2)) == cls(4, 0, 0, 1, -2, 3)
    assert segre_smooth(one(4), one(4)) == one(4)
    point_normal = cls(2, 1, 1) ** 2
    assert segre_smooth(point_normal, h_power(2, 2)) == h_power(2, 2)


def test_segre_times_normal_recovers_class():
    normal = cls(4, 1, 1) ** 2
    z = h_power(4, 2)
    assert segre_smooth(normal, z) * normal == z


def test_fundamental_class_ci():
    assert fundamental_class_ci(4, [2]) == cls(4, 0, 2)
    assert fundamental_class_ci(4, [2, 1]) == cls(4, 0, 0, 2)
    assert fundamental_class_ci(3, [1, 1, 1]) == h_power(3, 3)
    with pytest.raises(ValueError):
        fundamental_class_ci(2, [1, 1, 1])
    with pytest.raises(ValueError):
        fundamental_class_ci(3, [0])
