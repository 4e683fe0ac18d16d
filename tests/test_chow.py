import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milnorcalc import chow
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
    assert make_class(2, ["1", "-23"]).coeffs == (1, -23, 0)
    assert all(type(c) is int for c in make_class(2, ["1", "-23"]).coeffs)


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(2, 1), "1/2", "3/3", 0.5, 2.0, "1_000", " 1", "1 ",
                                   "+1", "", "-", "--1", "1e5", "\u0661", "\uff11"])
def test_only_ints_and_digit_strings_are_coefficients(value):
    """The ring is Z[H]/(H^(n+1)): a coefficient is an int or a [-]digits string."""
    with pytest.raises(TypeError):
        make_class(2, [1, value])


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


def test_invert_takes_either_unit_constant():
    for u in (cls(3, 1, 2), cls(3, -1, 2, 0, 5)):
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
    """Every class is integral; the two names stay for the benchmark."""
    assert cls(2, 1, 2).is_integral()
    assert cls(2, 1, 2).integer_coeffs() == cls(2, 1, 2).coeffs == (1, 2, 0)


# -- formatting -------------------------------------------------------------

@pytest.mark.parametrize(
    "value,text",
    [
        (cls(4, 0, 2, 6, 8, 4), "2H + 6H^2 + 8H^3 + 4H^4"),
        (cls(4, 0, 0, 1, -5, 19), "H^2 - 5H^3 + 19H^4"),
        (cls(3, 0, 0, 0, -1), "-H^3"),
        (cls(2, 1, 0, -3), "1 - 3H^2"),
        (cls(2, -1, 1), "-1 + H"),
        (zero(3), "0"),
    ],
)
def test_format_class(value, text):
    assert format_class(value) == text


def format_class_by_fractions(c: ChowClass) -> str:
    """The earlier ``format_class``, which read every coefficient as a
    ``Fraction``: the oracle for the one that reads the integers."""
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
    st.integers(-(10**60), 10**60),
)


@settings(max_examples=300)
@given(st.integers(0, 64).flatmap(lambda n: st.lists(format_coefficients, max_size=n + 1).map(
    lambda cs: make_class(n, cs))))
@example(zero(0))
@example(make_class(3, [-1, 1, -1]))
@example(make_class(2, [0, -2, 1]))
@example(make_class(64, [7 * 10**50, 0, -(10**50)]))
def test_format_class_matches_the_fraction_oracle(c):
    assert format_class(c) == format_class_by_fractions(c)
    assert _coeff_strings(c) == [str(a) for a in c.coeffs]
    assert make_class(c.ambient_dim, _coeff_strings(c)) == c  # output strings read back


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


def integer_class(n):
    """A class with coefficients up to 50 in size."""
    return st.builds(lambda nums: ChowClass(n, nums), st.lists(st.integers(-50, 50), min_size=n + 1, max_size=n + 1))


@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(integer_class(n), integer_class(n)), max_size=6))))
def test_dot_is_the_sum_of_the_products(case):
    n, pairs = case
    assert dot(pairs, n) == sum((x * y for x, y in pairs), zero(n))
    assert dot(iter(pairs), n) == dot(pairs, n)


def weighted_pairs(n):
    """(x, y, w) triples with weights -1, 1 and other integers."""
    weights = st.sampled_from([-1, 1]) | st.integers(-10**6, 10**6)
    return st.lists(st.tuples(integer_class(n), integer_class(n), weights), max_size=6)


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
            coeffs[0] = rng.choice([1, -1])
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
# by coefficient loops of the rational ring the kernel once was, fed
# integers.  They share no code with ``chow``.

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
        q.append((Fraction(a[k]) - sum(b[i] * q[k - i] for i in range(1, k + 1))) / b[0])
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


units = st.sampled_from([1, -1])
nonzero_integers = st.integers(-9, 9).filter(lambda q: q != 0)
line_scalars = st.integers(-4, 4)


@st.composite
def kernel_operands(draw):
    """Two classes and a unit, with constant term 1 or -1, in one P^n."""
    coeff = draw(st.sampled_from([st.integers(-9, 9), st.integers(-10**6, 10**6)]))
    a, b = draw(classes(count=2, coeff=coeff))
    n = a.ambient_dim
    rest = draw(st.lists(coeff, min_size=n, max_size=n))
    u = ChowClass(n, (draw(units), *rest))
    return a, b, u


def _same(kernel, reference):
    """Equal as classes and equal to the Fraction coefficients, as ints."""
    assert all(type(c) is int for c in kernel.coeffs)
    assert kernel.coeffs == reference


@settings(max_examples=200, deadline=None)
@given(kernel_operands(), line_scalars, st.integers(-3, 5), nonzero_integers)
@example(
    (make_class(0, [-3]), make_class(0, [4]), make_class(0, [-1])),
    -1,
    -3,
    5,
)
@example(
    (make_class(3, [1, 2, 0, -5]), zero(3), make_class(3, [-1, 0, 7])),
    2,
    5,
    -1,
)
def test_kernel_matches_fraction_reference(operands, t, k, q):
    """``u`` has constant term -1 in some examples."""
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
def test_sum_matches_fraction_reference(n, data):
    """Small and large coefficients, in either order, match the Fraction sum."""
    kinds = [st.integers(-9, 9), st.integers(-10**40, 10**40)]
    a, b = (
        ChowClass(n, data.draw(st.lists(data.draw(st.sampled_from(kinds)), min_size=n + 1, max_size=n + 1)))
        for _ in range(2)
    )
    _same(a + b, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
    _same(b + a, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
    _same(a - b, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))
    _same(a + -a, (Fraction(0),) * (n + 1))


def test_representation_is_canonical():
    c = ChowClass(2, ("-2", 1, 0))
    assert c == ChowClass(2, (-2, 1, 0))
    assert hash(c) == hash(ChowClass(2, (-2, 1, 0)))
    assert c.coeffs == (-2, 1, 0) and all(type(a) is int for a in c.coeffs)
    assert c - c == zero(2) and hash(c - c) == hash(zero(2))
    assert 2 * c == make_class(2, [-4, 2])
    assert c.integral() == 0 and type((3 * h_power(2, 2)).integral()) is int


def test_classes_are_immutable():
    c = make_class(2, [1, 2])
    with pytest.raises(AttributeError):
        c.coeffs = (0,) * 3
    with pytest.raises(AttributeError):
        c.ambient_dim = 3
    assert c == make_class(2, [1, 2])


def test_integer_coeffs_are_ints():
    for c in (
        make_class(3, [1, 2, -3]),
        make_class(3, [1, 2]) * make_class(3, [1, -1]) ** -2,
        ChowClass(2, ("2", "-6", 0)),
    ):
        values = c.integer_coeffs()
        assert all(type(v) is int for v in values)
        assert values == tuple(int(x) for x in c.coeffs)


def test_line_power_closed_form():
    assert line_power(4, 1, 5) == make_class(4, [1, 1]) ** 5
    assert line_power(4, -1, 5) == make_class(4, [1, -5, 10, -10, 5])
    assert line_power(3, -2, 2) == make_class(3, [1, -4, 4])
    assert line_power(3, 2, -1) == make_class(3, [1, 2]).invert()
    assert line_power(0, 7, 3) == one(0)
    assert line_power(3, 2, -2) == make_class(3, [1, -4, 12, -32])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64), line_scalars, st.integers(0, 64))
@example(63, -4, 63)
@example(64, 1000, 64)
def test_negative_line_power_is_the_inverse(n, t, j):
    """The generalized binomial row of (1 + tH)^e, e = -(n+1)..-1, equals
    the inverse of the positive power, in both parities of n."""
    e = -1 - j % (n + 1)
    assert line_power(n, t, e) == line_power(n, t, -e).invert()


@st.composite
def sparse_units(draw):
    """A class in P^n, n = 1..64, with constant term 1 or -1 and at most
    three other nonzero terms, anywhere."""
    n = draw(st.integers(1, 64))
    coeffs = [draw(units)] + [0] * n
    for j in draw(st.lists(st.integers(1, n), max_size=3)):
        coeffs[j] = draw(coefficients)
    return ChowClass(n, coeffs)


@settings(max_examples=100, deadline=None)
@given(sparse_units())
@example(ChowClass(63, [-1, 0, 3] + [0] * 60 + [5]))
@example(ChowClass(64, [1, 1000] + [0] * 63))
def test_sparse_invert_matches_fraction_reference(u):
    _same(u.invert(), ref_invert(u.coeffs))


def test_division_needs_a_unit_in_the_same_ambient_space():
    with pytest.raises(ValueError):
        make_class(3, [1, 2]) / h_power(3, 1)
    with pytest.raises(ValueError):
        make_class(3, [1, 2]) / make_class(4, [1, 2])
    with pytest.raises(ValueError):
        one(2) / zero(2)


@pytest.mark.parametrize("c0", [2, -2, 3, -9, 10**20])
def test_division_by_a_non_unit_raises(c0):
    """Only a class with constant term 1 or -1 divides: any other quotient,
    even an exact one such as (2 + 2H) / (2 + 2H), is refused."""
    u = make_class(3, [c0, 2])
    for divide in (lambda: make_class(3, [1, 2]) / u, lambda: u / u, u.invert, lambda: u ** -1):
        with pytest.raises(ValueError, match="constant term 1 or -1"):
            divide()


# -- the packed product kernel: Kronecker substitution against the loop -----------
#
# ``*`` and ``dot`` evaluate a sum of products at X = 2^B when every operand
# has at least 12 nonzero terms and every pair's bit lengths sum to at most
# 192; ``classes()`` stops at n = 6, below that, so these draw n = 11..64.

PACKED_BITS = [1, 8, 40, 64, 95, 96, 100]


def ref_dot(triples, n):
    """The sum of w x y over the (x, y, w) triples, by ``ref_mul``."""
    out = [Fraction(0)] * (n + 1)
    for x, y, w in triples:
        out = [a + w * b for a, b in zip(out, ref_mul(x.coeffs, y.coeffs))]
    return tuple(out)


@st.composite
def wide_classes(draw, n):
    """A class in P^n with coefficients of at most a drawn number of bits,
    often at the extremes +-(2^bits - 1): dense, or with a drawn number of
    nonzero terms, often 11 or 12, just below and at the packing threshold."""
    top = 2 ** draw(st.sampled_from(PACKED_BITS)) - 1
    coeff = st.sampled_from([top, -top]) | st.integers(-top, top).filter(bool)
    terms = draw(st.sampled_from([n + 1, 11, 12]) | st.integers(0, n + 1))
    coeffs = [0] * (n + 1)
    for j in draw(st.permutations(range(n + 1)))[:terms]:
        coeffs[j] = draw(coeff)
    return ChowClass(n, coeffs)


dims_11_64 = st.integers(11, 64)
packed_weights = st.sampled_from([1, -1]) | st.sampled_from([3, -3, 2**20 - 1]) | st.integers(-10**6, 10**6)


@settings(max_examples=150, deadline=None)
@given(dims_11_64.flatmap(lambda n: st.tuples(wide_classes(n), wide_classes(n))))
def test_products_in_high_dimension_match_fraction_reference(ab):
    a, b = ab
    _same(a * b, ref_mul(a.coeffs, b.coeffs))
    _same(b * a, ref_mul(a.coeffs, b.coeffs))


@settings(max_examples=100, deadline=None)
@given(dims_11_64.flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(wide_classes(n), wide_classes(n), packed_weights), min_size=1, max_size=4))))
def test_dot_in_high_dimension_matches_the_weighted_sum_reference(case):
    n, triples = case
    _same(dot(triples, n), ref_dot(triples, n))


INSIDE = 2**95 - 1  # 95 bits: a product of two with weight 1 has bit lengths summing to 191


def _terms(n, count, value=1):
    """``count`` nonzero terms spread over P^n, the rest zero."""
    return ChowClass(n, [value if j < count else 0 for j in range(n + 1)])


@pytest.mark.parametrize("n, pairs, packed", [
    # every coefficient -1 against every coefficient 1: each digit is
    # negative and borrows from the next; the weighted square likewise
    (32, [(make_class(32, [-1] * 33), make_class(32, [1] * 33), 1)], True),
    (40, [(make_class(40, [-1] * 41), make_class(40, [-1] * 41), -1)], True),
    # +-(2^95 - 1), just inside the bound, in alternating and uniform signs
    (64, [(make_class(64, [INSIDE * (-1) ** j for j in range(65)]), make_class(64, [INSIDE] * 65), 1)], True),
    (64, [(make_class(64, [-INSIDE] * 65), make_class(64, [INSIDE] * 65), 1)], True),
    # weight 3 fills the bound, 192 bits, and m * pairs = 31 fills its bit
    # length: the top coefficient exceeds 2^(B-2), so the sign bit is needed
    (30, [(make_class(30, [INSIDE] * 31), make_class(30, [INSIDE] * 31), 3)], True),
    (20, [(make_class(20, [INSIDE] * 21), make_class(20, [-INSIDE] * 21), -3)] * 3, True),
    # one bit over the bound on either operand or on the weight
    (32, [(make_class(32, [2 * (INSIDE + 1)] * 33), make_class(32, [INSIDE] * 33), 1)], False),
    (32, [(make_class(32, [INSIDE] * 33), make_class(32, [INSIDE] * 33), 4)], False),
    # a zero operand, in a product and among packed pairs
    (32, [(zero(32), make_class(32, [5] * 33), 1)], False),
    (32, [(make_class(32, [7] * 33), make_class(32, [-9] * 33), 1), (zero(32), make_class(32, [5] * 33), 1)], False),
    # exactly 11 and exactly 12 nonzero terms, on either side
    (32, [(_terms(32, 11, -3), make_class(32, [2] * 33), 1)], False),
    (32, [(make_class(32, [2] * 33), _terms(32, 11, -3), 1)], False),
    (32, [(_terms(32, 12, -3), make_class(32, [2] * 33), 1)], True),
    (11, [(_terms(11, 12, -1), _terms(11, 12, 1), 1)], True),
    (11, [(_terms(11, 11, -1), _terms(11, 12, 1), 1)], False),
], ids=["minus-ones", "minus-ones-squared", "inside-alternating", "inside-uniform", "inside-weight-3",
        "inside-three-pairs", "operand-over", "weight-over", "zero-operand", "zero-among-pairs", "eleven-terms-left",
        "eleven-terms-right", "twelve-terms", "twelve-terms-n11", "eleven-terms-n11"])
def test_packing_threshold_examples(n, pairs, packed):
    """Each example is exact, and takes the path that the threshold gives it."""
    assert bool(chow._digit_bits(n + 1, [(x.coeffs, y.coeffs, w) for x, y, w in pairs])) is packed
    _same(dot(pairs, n), ref_dot(pairs, n))
    if len(pairs) == 1 and pairs[0][2] == 1:
        x, y, _ = pairs[0]
        _same(x * y, ref_mul(x.coeffs, y.coeffs))
