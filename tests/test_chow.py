import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milnorcalc.chow import ChowClass, dot, format_class, h_power, line_power, make_class, one, zero
from milnorcalc.cli import _coeff_strings

from conftest import classes, coefficients, unit_classes


def cls(n, *coeffs):
    return make_class(n, list(coeffs))


# -- construction -----------------------------------------------------------

def test_make_class_pads_short_input():
    assert cls(4, 0, 2, 6, 8, 4).coeffs == cls(4, 0, 2, 6, 8, 4).coeffs
    assert make_class(3, []) == zero(3)
    assert make_class(3, [1, 2]).coeffs == (1, 2, 0, 0)


def test_make_class_rejects_overlong_input():
    with pytest.raises(ValueError):
        make_class(2, [1, 5, 7, 9])


def test_make_class_rejects_negative_dimension():
    with pytest.raises(ValueError):
        make_class(-1, [1])


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        make_class(2, [0.5])


def test_string_coefficients_parse_exactly():
    assert make_class(2, ["1", "2/3"]).coeffs == (1, Fraction(2, 3), 0)


# -- arithmetic -------------------------------------------------------------

def test_add_sub_examples():
    a = cls(3, 0, 0, 1, 1)   # H^2 + H^3
    b = cls(3, 0, 0, 0, 1)   # H^3
    assert a + b == cls(3, 0, 0, 1, 2)
    assert a + (-a) == zero(3)
    cfj = cls(4, 0, 2, 6, 8, 4)
    csm = cls(4, 0, 2, 7, 9, 5)
    assert cfj - csm == cls(4, 0, 0, -1, -1, -1)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        cls(3, 1) + cls(4, 1)
    with pytest.raises(ValueError):
        cls(3, 1) * cls(4, 1)


def test_mul_examples():
    a = cls(4, 0, 1, 4, 6, 4)
    b = cls(4, 0, 0, 1, 1, 1)
    assert a * b == cls(4, 0, 0, 0, 1, 5)
    assert a * one(4) == a
    assert cls(4, 0, 0, 2) * cls(4, 0, 0, 0, 1) == zero(4)  # truncation


def test_invert_examples():
    assert cls(4, 1, 2).invert() == cls(4, 1, -2, 4, -8, 16)
    assert one(5).invert() == one(5)
    with pytest.raises(ValueError):
        h_power(3, 1).invert()


def test_invert_scales_any_unit_constant():
    u = cls(3, 2, 2)
    assert u * u.invert() == one(3)


def test_pow_examples():
    assert cls(4, 1, 1) ** 5 == cls(4, 1, 5, 10, 10, 5)
    assert cls(4, 1, 2) ** 3 == cls(4, 1, 6, 12, 8)
    assert cls(4, 3, 1) ** 0 == one(4)
    assert cls(2, 1, 1) ** -2 == cls(2, 1, 1).invert() ** 2


def test_dual_examples():
    assert cls(4, 0, 0, 1, 1, 1).dual() == cls(4, 0, 0, 1, -1, 1)
    assert one(4).dual() == one(4)


def test_tensor_line_example():
    a = cls(4, 0, 0, 1, -1, 1)
    assert a.tensor_line(2) == cls(4, 0, 0, 1, -5, 19)
    assert a.tensor_line(0) == a
    degree_one = cls(4, 0, 2)
    assert a.tensor_line(degree_one) == a.tensor_line(2)


def test_tensor_line_rejects_mixed_degree():
    with pytest.raises(ValueError):
        cls(3, 1).tensor_line(cls(3, 0, 1, 1))


def test_component_and_integral():
    a = cls(4, 0, 2, 7)
    assert a.component(2) == cls(4, 0, 0, 7)
    with pytest.raises(ValueError):
        a.component(5)
    assert cls(4, 0, 2, 7, 9, 5).integral() == 5
    assert zero(4).integral() == 0


def test_integer_coeff_check():
    assert cls(2, 1, 2).is_integral()
    assert not cls(2, Fraction(1, 2)).is_integral()
    with pytest.raises(ValueError):
        cls(2, Fraction(1, 2)).integer_coeffs()


# -- formatting -------------------------------------------------------------

@pytest.mark.parametrize(
    "value,text",
    [
        (cls(4, 0, 2, 6, 8, 4), "2H + 6H^2 + 8H^3 + 4H^4"),
        (cls(4, 0, 0, 1, -5, 19), "H^2 - 5H^3 + 19H^4"),
        (cls(3, 0, 0, 0, -1), "-H^3"),
        (cls(2, 1, 0, -3), "1 - 3H^2"),
        (cls(2, Fraction(1, 2), 1), "(1/2) + H"),
        (zero(3), "0"),
    ],
)
def test_format_class(value, text):
    assert format_class(value) == text


def format_class_by_fractions(c: ChowClass) -> str:
    """The earlier ``format_class``, which read every coefficient as a
    ``Fraction``: the oracle for the one that reads the numerators."""
    def fmt(q):
        return str(q) if q.denominator == 1 else f"({q})"

    parts = []
    for j, a in enumerate(c.coeffs):
        if a == 0:
            continue
        mag = abs(a)
        if j == 0:
            body = fmt(mag)
        else:
            h = "H" if j == 1 else f"H^{j}"
            body = h if mag == 1 else f"{fmt(mag)}{h}"
        parts.append((a < 0, body))
    if not parts:
        return "0"
    negative, body = parts[0]
    text = ("-" if negative else "") + body
    for negative, body in parts[1:]:
        text += (" - " if negative else " + ") + body
    return text


format_coefficients = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**40),
    st.builds(Fraction, st.integers(-(10**60), 10**60), st.integers(1, 10**60)),
)


@settings(max_examples=300)
@given(st.integers(0, 64).flatmap(lambda n: st.lists(format_coefficients, max_size=n + 1).map(
    lambda cs: make_class(n, cs))))
@example(zero(0))
@example(make_class(3, [-1, 1, -1]))
@example(make_class(2, [0, Fraction(-2, 1), Fraction(1, 3)]))
@example(make_class(64, [Fraction(7, 10**50), 0, Fraction(-1, 10**50)]))
def test_format_class_matches_the_fraction_oracle(c):
    assert format_class(c) == format_class_by_fractions(c)
    assert _coeff_strings(c) == [str(a) for a in c.coeffs]


# -- ring laws (hypothesis) -------------------------------------------------

@given(classes(count=3))
def test_ring_axioms(abc):
    a, b, c = abc
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    n = a.ambient_dim
    assert a * one(n) == a
    assert a + zero(n) == a


def rational_class(n):
    """A class over its own denominator, so the pairs' denominators differ."""
    return st.builds(lambda den, nums: ChowClass(n, [Fraction(a, den) for a in nums]),
                     st.integers(1, 12), st.lists(st.integers(-50, 50), min_size=n + 1, max_size=n + 1))


@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(rational_class(n), rational_class(n)), max_size=6))))
def test_dot_is_the_sum_of_the_products(case):
    n, pairs = case
    assert dot(pairs, n) == sum((x * y for x, y in pairs), zero(n))
    assert dot(iter(pairs), n) == dot(pairs, n)


def weighted_pairs(n):
    """(x, y, w) triples over mixed denominators, or all integral, with weights
    -1, 1 and other integers."""
    weights = st.sampled_from([-1, 1]) | st.integers(-10**6, 10**6)
    integral = st.builds(lambda nums: ChowClass(n, nums),
                         st.lists(st.integers(-50, 50), min_size=n + 1, max_size=n + 1))
    return st.sampled_from([rational_class(n), integral]).flatmap(
        lambda c: st.lists(st.tuples(c, c, weights), max_size=6))


@given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.just(n), weighted_pairs(n))))
def test_weighted_dot_is_the_weighted_sum_of_the_products(case):
    n, triples = case
    assert dot(triples, n) == sum((w * (x * y) for x, y, w in triples), zero(n))
    plain = [(x, y) for x, y, _ in triples]
    assert dot(plain, n) == dot([(x, y, 1) for x, y in plain], n) == sum((x * y for x, y in plain), zero(n))
    assert dot([t if i % 2 else t[:2] for i, t in enumerate(triples)], n) == sum(
        ((w if i % 2 else 1) * (x * y) for i, (x, y, w) in enumerate(triples)), zero(n))


def test_dot_of_no_pairs_is_zero_and_mixed_dimensions_raise():
    assert dot([], 3) == zero(3)
    with pytest.raises(ValueError):
        dot([(cls(3, 1), cls(4, 1))], 3)
    with pytest.raises(ValueError):
        dot([(cls(3, 1), cls(3, 1)), (cls(4, 1), cls(4, 1))], 3)


@given(unit_classes())
def test_invert_is_inverse(u):
    assert u * u.invert() == one(u.ambient_dim)


@given(classes())
def test_dual_involution(a):
    assert a.dual().dual() == a


@given(classes(count=2))
def test_dual_is_multiplicative(ab):
    a, b = ab
    assert (a * b).dual() == a.dual() * b.dual()


@given(classes(min_dim=1), st.integers(-4, 4), st.integers(-4, 4))
def test_tensor_line_composes(a, u, v):
    assert a.tensor_line(u).tensor_line(v) == a.tensor_line(u + v)


@given(classes(min_dim=1), st.integers(-4, 4))
def test_dual_tensor_compatibility(a, u):
    assert a.tensor_line(u).dual() == a.dual().tensor_line(-u)


def test_invert_sweep_200_units_per_dimension():
    rng = random.Random(20260811)
    for n in range(2, 9):
        for _ in range(200):
            coeffs = [rng.randint(-9, 9) for _ in range(n + 1)]
            coeffs[0] = rng.choice([q for q in range(-9, 10) if q])
            u = make_class(n, coeffs)
            assert u * u.invert() == one(n)


def test_docstring_examples():
    import doctest

    import milnorcalc.chow as chow

    results = doctest.testmod(chow)
    assert results.failed == 0 and results.attempted >= 3


# -- integer-numerator kernel against Fraction loops ------------------------
#
# Reference implementations on plain tuples of Fractions: the coefficient
# by coefficient loops the ring kernel used before it stored numerators
# over one common denominator.  They share no code with ``chow``.

def ref_mul(a, b):
    n = len(a) - 1
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j in range(n + 1 - i):
            if b[j] != 0:
                out[i + j] += x * b[j]
    return tuple(out)


def ref_invert(a):
    n = len(a) - 1
    inv = [Fraction(1) / a[0]] + [Fraction(0)] * n
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += a[i] * inv[k - i]
        inv[k] = -acc / a[0]
    return tuple(inv)


def ref_div(a, b):
    """Long division: the quotient's H^k coefficient clears degree k."""
    q = []
    for k in range(len(a)):
        q.append((a[k] - sum(b[i] * q[k - i] for i in range(1, k + 1))) / b[0])
    return tuple(q)


def ref_pow(a, k):
    if k < 0:
        return ref_pow(ref_invert(a), -k)
    result = (Fraction(1),) + (Fraction(0),) * (len(a) - 1)
    for _ in range(k):
        result = ref_mul(result, a)
    return result


def ref_line(n, t):
    """1 + tH in P^n."""
    return ((Fraction(1), Fraction(t)) + (Fraction(0),) * n)[: n + 1]


def ref_tensor_line(a, t):
    n = len(a) - 1
    base = ref_invert(ref_line(n, t))
    acc = [Fraction(0)] * (n + 1)
    power = (Fraction(1),) + (Fraction(0),) * n
    for j in range(n + 1):
        if j > 0:
            power = ref_mul(power, base)
        for k in range(j, n + 1):
            acc[k] += a[j] * power[k - j]
    return tuple(acc)


nonzero_rationals = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-5, max_value=5, max_denominator=6)
).filter(lambda q: q != 0)
line_scalars = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=5)
)


@st.composite
def kernel_operands(draw):
    """Two classes, integral or mixed, and a unit with any nonzero
    rational constant term (negative and non-unit included), in one P^n."""
    coeff = draw(st.sampled_from([st.integers(-9, 9), coefficients]))
    a, b = draw(classes(count=2, coeff=coeff))
    n = a.ambient_dim
    rest = draw(st.lists(coeff, min_size=n, max_size=n))
    u = ChowClass(n, (draw(nonzero_rationals), *rest))
    return a, b, u


def _same(kernel, reference):
    """Equal as classes (so canonical) and equal Fraction coefficients."""
    assert all(type(c) is Fraction for c in kernel.coeffs)
    assert kernel.coeffs == reference
    assert kernel == ChowClass(kernel.ambient_dim, reference)


@settings(max_examples=200, deadline=None)
@given(kernel_operands(), line_scalars, st.integers(-3, 5), nonzero_rationals)
@example(
    (make_class(0, [Fraction(-3, 2)]), make_class(0, [4]), make_class(0, [Fraction(-2, 3)])),
    Fraction(-1, 2),
    -3,
    Fraction(5, 4),
)
@example(
    (make_class(3, [Fraction(1, 6), 2, 0, Fraction(-5, 4)]), zero(3),
     make_class(3, [Fraction(-3, 2), 0, Fraction(7, 10)])),
    Fraction(2, 3),
    5,
    -1,
)
def test_kernel_matches_fraction_reference(operands, t, k, q):
    """``u`` has a negative or rational constant term in some examples, and
    ``a`` and ``u`` have different denominators."""
    a, b, u = operands
    n = a.ambient_dim
    _same(a * b, ref_mul(a.coeffs, b.coeffs))
    _same(u.invert(), ref_invert(u.coeffs))
    _same(a / u, ref_div(a.coeffs, u.coeffs))
    assert a / u == a * u.invert() and a / u * u == a
    _same(u ** k, ref_pow(u.coeffs, k))
    _same(a.tensor_line(t), ref_tensor_line(a.coeffs, t))
    _same(a + b, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
    _same(a - b, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))
    _same(-a, tuple(-x for x in a.coeffs))
    _same(a.scale(q), tuple(Fraction(q) * x for x in a.coeffs))
    _same(a.dual(), tuple(x if j % 2 == 0 else -x for j, x in enumerate(a.coeffs)))
    for e in (k, 0, n // 2, n + 1):  # the row of e >= 0 stops at its last nonzero term
        _same(line_power(n, t, e), ref_pow(ref_line(n, t), e))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.data())
def test_sum_matches_fraction_reference_for_any_denominators(n, data):
    """Integral summands add their numerators directly; integral with
    rational, and rational with rational, go through the common
    denominator.  Each pairing matches the Fraction sum."""
    kinds = [st.integers(-9, 9), coefficients]
    a, b = (
        ChowClass(n, data.draw(st.lists(data.draw(st.sampled_from(kinds)), min_size=n + 1, max_size=n + 1)))
        for _ in range(2)
    )
    _same(a + b, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
    _same(b + a, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
    _same(a - b, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))
    _same(a + -a, (Fraction(0),) * (n + 1))


def test_representation_is_canonical():
    half = ChowClass(2, (Fraction(2, 4), 1, 0))
    assert half == ChowClass(2, (Fraction(1, 2), 1, 0))
    assert hash(half) == hash(ChowClass(2, (Fraction(1, 2), 1, 0)))
    assert all(type(c) is Fraction for c in half.coeffs)
    assert half.coeffs == (Fraction(1, 2), 1, 0)
    assert half - half == zero(2) and hash(half - half) == hash(zero(2))
    assert 2 * half == make_class(2, [1, 2]) and (2 * half).is_integral()
    assert half.integral() == 0 and not half.is_integral()


def test_classes_are_immutable():
    c = make_class(2, [1, 2])
    with pytest.raises(AttributeError):
        c.coeffs = (Fraction(0),) * 3
    with pytest.raises(AttributeError):
        c.ambient_dim = 3
    assert c == make_class(2, [1, 2])


def test_integer_coeffs_are_ints():
    for c in (
        make_class(3, [1, 2, -3]),
        make_class(3, [1, 2]) * make_class(3, [1, -1]) ** -2,
        ChowClass(2, (Fraction(4, 2), "6/3", Fraction(0))),
    ):
        values = c.integer_coeffs()
        assert all(type(v) is int for v in values)
        assert values == tuple(int(x) for x in c.coeffs)


def test_line_power_closed_form():
    assert line_power(4, 1, 5) == make_class(4, [1, 1]) ** 5
    assert line_power(4, -1, 5) == make_class(4, [1, -5, 10, -10, 5])
    assert line_power(3, Fraction(1, 2), 2) == make_class(3, [1, 1, Fraction(1, 4)])
    assert line_power(3, 2, -1) == make_class(3, [1, 2]).invert()
    assert line_power(0, 7, 3) == one(0)
    assert line_power(3, 2, -2) == make_class(3, [1, -4, 12, -32])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64), line_scalars, st.integers(0, 64))
@example(63, Fraction(-5, 3), 63)
@example(64, 1000, 64)
def test_negative_line_power_is_the_inverse(n, t, j):
    """The generalized binomial row of (1 + tH)^e, e = -(n+1)..-1, equals
    the inverse of the positive power, in both parities of n."""
    e = -1 - j % (n + 1)
    assert line_power(n, t, e) == line_power(n, t, -e).invert()


@st.composite
def sparse_units(draw):
    """A class in P^n, n = 1..64, with a nonzero rational constant term and
    at most three other nonzero terms, anywhere."""
    n = draw(st.integers(1, 64))
    coeffs = [draw(nonzero_rationals)] + [0] * n
    for j in draw(st.lists(st.integers(1, n), max_size=3)):
        coeffs[j] = draw(coefficients)
    return ChowClass(n, coeffs)


@settings(max_examples=100, deadline=None)
@given(sparse_units())
@example(ChowClass(63, [Fraction(-5, 6), 0, 3] + [0] * 60 + [Fraction(1, 2)]))
@example(ChowClass(64, [Fraction(7, 2), 1000] + [0] * 63))
def test_sparse_invert_matches_fraction_reference(u):
    _same(u.invert(), ref_invert(u.coeffs))


def test_division_needs_a_unit_in_the_same_ambient_space():
    with pytest.raises(ValueError):
        make_class(3, [1, 2]) / h_power(3, 1)
    with pytest.raises(ValueError):
        make_class(3, [1, 2]) / make_class(4, [1, 2])
    with pytest.raises(ValueError):
        one(2) / zero(2)
