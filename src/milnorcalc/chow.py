"""Exact arithmetic in the truncated ring Q[H]/(H^(n+1)).

H is the hyperplane class of complex projective n-space.  A class has
one exact rational coefficient per codimension 0..n, so the pushed
forward fundamental class of a k-plane is H^(n-k) and the class of a
point is H^n.  Products drop everything above H^n.  There is no
floating point anywhere in this module.

A class is stored as integer numerators over one positive common
denominator in lowest terms (zero over 1), like FLINT's ``fmpq_poly``.
Ring operations (``+``, ``-``, ``*``, and ``/`` by a class with nonzero
constant term) work on the integers and reduce once per result, and
``coeffs`` builds the ``Fraction`` view on first use.

``fractions`` (which loads ``decimal`` and ``numbers``) is imported by
``_rationals`` at the first non-integer: a non-int coefficient or scalar,
the ``coeffs`` view, ``integral()``, or the text of a class whose
denominator is not 1.  Integer inputs and classes never load it.

The regrading operations ``dual`` and ``tensor_line`` act on the
codimension-j piece by (-1)^j and by division by (1 + c1)^j.  Grading
always means codimension in the ambient space, never in a subvariety;
reports expose this convention.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from math import gcd, lcm
from operator import add, mul, sub


@cache
def _rationals():
    """``(Fraction, numbers.Rational)``, imported on the first call."""
    from fractions import Fraction
    from numbers import Rational
    return Fraction, Rational


def _coerce(value) -> int | Fraction:
    """Exact coercion to an int or a Fraction; floats are rejected on purpose."""
    if isinstance(value, int):
        return value
    Fraction, Rational = _rationals()
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (str, Rational)):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as an exact rational coefficient")


def _is_scalar(value) -> bool:
    return isinstance(value, int) or isinstance(value, _rationals()[0])


def _sign(exponent: int) -> int:
    return 1 if exponent % 2 == 0 else -1


_new = object.__new__


def _from_ints(n: int, num: tuple[int, ...], den: int = 1) -> "ChowClass":
    """Unchecked: numerators over a positive denominator, in lowest terms."""
    c = _new(ChowClass)
    _set_dim(c, n)
    _set_num(c, num)
    _set_den(c, den)
    _set_coeffs(c, None)
    return c


def _reduced(n: int, num, den: int) -> "ChowClass":
    """A class from numerators over a positive denominator, reduced by one gcd."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    return _from_ints(n, tuple(num), den)


def _accumulate(out: list, x: tuple, y: tuple, f: int) -> None:
    """Add f x y, truncated above H^n, into ``out``: the one loop of ``*`` and ``dot``.
    Row i of x meets only the first n + 1 - i entries of y; zeros are skipped."""
    m = len(out)
    for i, a in enumerate(x):
        if a:
            a *= f
            j = i
            for b in y[:m - i]:
                if b:
                    out[j] += a * b
                j += 1


class ChowClass:
    """A class in Q[H]/(H^(n+1)), graded by ambient codimension.

    Immutable.  Stored as integer numerators over one positive common
    denominator in lowest terms; ``coeffs`` gives them as ``Fraction``s.

    >>> print(make_class(4, [0, 2, 6, 8, 4]))
    2H + 6H^2 + 8H^3 + 4H^4
    """

    __slots__ = ("ambient_dim", "_num", "_den", "_coeffs")

    def __new__(cls, ambient_dim: int, coeffs):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be non-negative")
        coeffs = tuple(map(_coerce, coeffs))
        if len(coeffs) != ambient_dim + 1:
            raise ValueError(
                f"need exactly {ambient_dim + 1} coefficients for "
                f"P^{ambient_dim}, got {len(coeffs)}"
            )
        # The lcm of lowest-terms denominators leaves the numerators coprime to it.
        den = lcm(*(c.denominator for c in coeffs))
        return _from_ints(
            ambient_dim, tuple(c.numerator * (den // c.denominator) for c in coeffs), den
        )

    def __setattr__(self, name, value=None):
        raise AttributeError(f"ChowClass is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            den, Fraction = self._den, _rationals()[0]
            view = map(Fraction, self._num) if den == 1 else (Fraction(a, den) for a in self._num)
            _set_coeffs(self, tuple(view))
        return self._coeffs

    def __eq__(self, other):
        if other.__class__ is not ChowClass:
            return NotImplemented
        return (self.ambient_dim, self._den, self._num) == (
            other.ambient_dim, other._den, other._num
        )

    def __hash__(self):
        return hash((self.ambient_dim, self._num, self._den))

    def __repr__(self) -> str:
        return f"ChowClass(ambient_dim={self.ambient_dim!r}, coeffs={self.coeffs!r})"

    def _check_compatible(self, other: "ChowClass") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __add__(self, other):
        if other.__class__ is not ChowClass:
            return NotImplemented
        if other.ambient_dim != self.ambient_dim:
            self._check_compatible(other)
        if self._den == 1 == other._den:
            return _from_ints(self.ambient_dim, tuple(map(add, self._num, other._num)))
        den = lcm(self._den, other._den)
        f, g = den // self._den, den // other._den
        return _reduced(
            self.ambient_dim, [f * a + g * b for a, b in zip(self._num, other._num)], den
        )

    def __sub__(self, other):
        if other.__class__ is not ChowClass:
            return NotImplemented
        if self._den == 1 == other._den and other.ambient_dim == self.ambient_dim:
            return _from_ints(self.ambient_dim, tuple(map(sub, self._num, other._num)))
        return self + -other

    def __neg__(self):
        return _from_ints(self.ambient_dim, tuple(-a for a in self._num), self._den)

    def scale(self, q) -> "ChowClass":
        q = _coerce(q)
        return _reduced(
            self.ambient_dim, [q.numerator * a for a in self._num], q.denominator * self._den
        )

    def __mul__(self, other):
        if other.__class__ is not ChowClass:
            return self.scale(other) if _is_scalar(other) else NotImplemented
        n = self.ambient_dim
        if other.ambient_dim != n:
            self._check_compatible(other)
        out = [0] * (n + 1)
        _accumulate(out, self._num, other._num, 1)
        return _reduced(n, out, self._den * other._den)

    def __rmul__(self, other):
        return self.scale(other) if _is_scalar(other) else NotImplemented

    def __truediv__(self, other):
        """Exact quotient by a class with nonzero constant term, solved
        degree by degree over the integers.

        With c0 the constant numerator of ``other``, the numerator quotient
        has H^k coefficient g_k / c0^(k+1), where the integer
        g_k = c0^k a_k - sum_(i >= 1) b_i c0^(i-1) g_(k-i) sums over the
        nonzero b_i only, so a divisor with t of them costs O(n t).

        >>> print(make_class(4, [1, 3, 2]) / make_class(4, [1, 1]))
        1 + 2H
        """
        if other.__class__ is not ChowClass:
            return NotImplemented
        self._check_compatible(other)
        n, c0 = self.ambient_dim, other._num[0]
        if c0 == 0:
            raise ValueError("cannot divide by a class with zero constant term")
        powers = list(accumulate([c0] * n, mul, initial=1))
        terms = [(i, b * powers[i - 1]) for i, b in enumerate(other._num) if i and b]
        g = []
        for k, a in enumerate(self._num):
            s = a * powers[k]
            for i, w in terms:
                if i > k:
                    break
                s -= w * g[k - i]
            g.append(s)
        sign = 1 if c0 > 0 or n % 2 else -1  # the sign of c0^(n+1)
        num = [sign * other._den * x * powers[n - k] for k, x in enumerate(g)]
        return _reduced(n, num, sign * c0 * powers[n] * self._den)

    def invert(self) -> "ChowClass":
        """Multiplicative inverse: ``one(n) / self``.

        >>> print(make_class(4, [1, 2]).invert())
        1 - 2H + 4H^2 - 8H^3 + 16H^4
        """
        return one(self.ambient_dim) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.invert() ** (-k)
        result, base = one(self.ambient_dim), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def dual(self) -> "ChowClass":
        """Multiply the codimension-j piece by (-1)^j."""
        num = tuple(-a if j % 2 else a for j, a in enumerate(self._num))
        return _from_ints(self.ambient_dim, num, self._den)

    def tensor_line(self, c1) -> "ChowClass":
        """Divide the codimension-j piece by (1 + c1)^j.

        ``c1`` is the first Chern class of a line bundle: either a class
        concentrated in degree 1 or a bare rational t standing for tH.
        The H^m coefficient of (1 + tH)^(-j) is (-t)^m C(j+m-1, m), a
        running sum over the row for j-1; t = p/q puts all over q^n.

        >>> print(make_class(4, [0, 0, 1, -1, 1]).tensor_line(2))
        H^2 - 5H^3 + 19H^4
        """
        n = self.ambient_dim
        t = _degree_one_scalar(n, c1)
        p, q = -t.numerator, t.denominator
        powers = [p**m * q ** (n - m) for m in range(n + 1)]
        out = [0] * (n + 1)
        row = [1] + [0] * n  # C(j+m-1, m) for m = 0..n, starting at j = 0
        for j, a in enumerate(self._num):
            if j:
                row = list(accumulate(row))
            if a:
                for m in range(n + 1 - j):
                    out[j + m] += a * row[m] * powers[m]
        return _reduced(n, out, self._den * q**n)

    def component(self, j: int) -> "ChowClass":
        if not 0 <= j <= self.ambient_dim:
            raise ValueError(f"component {j} out of range for P^{self.ambient_dim}")
        out = [a if i == j else 0 for i, a in enumerate(self._num)]
        return _reduced(self.ambient_dim, out, self._den)

    def integral(self) -> Fraction:
        """Degree of the zero-dimensional piece (the H^n coefficient)."""
        return _rationals()[0](self._num[-1], self._den)

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_integral(self) -> bool:
        return self._den == 1

    def integer_coeffs(self) -> tuple[int, ...]:
        if self._den != 1:
            raise ValueError(f"non-integral coefficients in {self}")
        return self._num

    def __str__(self) -> str:
        return format_class(self)


# Each slot's own descriptor, bound once: about half the cost of object.__setattr__.
_set_dim, _set_num, _set_den, _set_coeffs = (ChowClass.__dict__[s].__set__ for s in ChowClass.__slots__)


def dot(pairs, n: int) -> ChowClass:
    """The sum of w * x * y over the pairs (x, y, w) of classes in P^n and
    ints w; a pair (x, y) has weight 1.  The products are accumulated in
    one list of integer numerators over the lcm of the pairs' denominators
    and reduced once: no class is built per product, nor for a weight such
    as a sign.  Integral pairs need no lcm and no division.

    >>> a, b = make_class(2, ["1/2", 1]), make_class(2, [1, 0, "1/3"])
    >>> print(dot([(a, a), (b, h_power(2, 1))], 2))
    (1/4) + 2H + H^2
    >>> print(dot([(a, a, 4), (b, h_power(2, 1), -1)], 2))
    1 + 3H + 4H^2
    """
    rows, den = [], 1
    for pair in pairs:
        x, y = pair[0], pair[1]
        if x.ambient_dim != n or y.ambient_dim != n:
            raise ValueError(f"ambient dimensions differ from {n}")
        d = x._den * y._den
        if d != 1:
            den = lcm(den, d)
        rows.append((x._num, y._num, pair[2] if len(pair) > 2 else 1, d))
    out = [0] * (n + 1)
    for x, y, w, d in rows:
        _accumulate(out, x, y, w if d == den else w * (den // d))
    return _reduced(n, out, den)


def make_class(n: int, coeffs) -> ChowClass:
    """Build sum(coeffs[j] H^j) in P^n; short inputs are zero padded.

    Inputs longer than n+1 are rejected rather than truncated, since
    over-long input almost always means a wrong ambient dimension.
    """
    coeffs = list(coeffs)
    if n >= 0 and len(coeffs) > n + 1:  # ChowClass rejects n < 0 and coerces each coefficient
        raise ValueError(f"{len(coeffs)} coefficients do not fit in P^{n}")
    return ChowClass(n, coeffs + [0] * (n + 1 - len(coeffs)))


def zero(n: int) -> ChowClass:
    return _from_ints(n, (0,) * (n + 1))


def one(n: int) -> ChowClass:
    return _from_ints(n, (1,) + (0,) * n)


def h_power(n: int, j: int) -> ChowClass:
    """The class H^j, e.g. the fundamental class of a codimension-j plane."""
    if not 0 <= j <= n:
        raise ValueError(f"H^{j} is not a class on P^{n}")
    return _from_ints(n, (0,) * j + (1,) + (0,) * (n - j))


def line_power(n: int, t, e: int) -> ChowClass:
    """(1 + tH)^e in P^n, for any integer e: C(e, m) t^m over q^n when
    t = p/q.  The row C(e, m) = C(e, m-1) (e - m + 1) / m is exact in
    integers, and for e < 0 it is the generalized binomial row
    (-1)^m C(m - e - 1, m), so no inversion is needed.  For e >= 0 the
    row stops after its e + 1 nonzero terms."""
    t = _coerce(t)
    p, q = t.numerator, t.denominator
    top = n if e < 0 else min(n, e)
    num, c, pm = [1], 1, 1
    for m in range(top):
        c, pm = c * (e - m) // (m + 1), pm * p
        num.append(c * pm)
    if q != 1:
        num = [a * q ** (top - m) for m, a in enumerate(num)]
    return _reduced(n, num + [0] * (n - top), q**top)


def _degree_one_scalar(n: int, c1) -> int | Fraction:
    if not isinstance(c1, ChowClass):
        return _coerce(c1)
    if c1.ambient_dim != n:
        raise ValueError("ambient dimensions differ")
    if any(a for j, a in enumerate(c1._num) if j != 1):
        raise ValueError("expected a class concentrated in degree 1")
    return 0 if n < 1 else c1._num[1] if c1._den == 1 else c1.coeffs[1]


def format_class(c: ChowClass) -> str:
    """Render like ``2H + 7H^2 - 5H^3``, omitting zero terms; a coefficient
    that is not an integer shows as ``(p/q)``."""
    den, terms = c._den, []
    for j, a in enumerate(c._num):
        if a:
            mag = abs(a) if den == 1 else _rationals()[0](abs(a), den)
            h = "" if j == 0 else "H" if j == 1 else f"H^{j}"
            coeff = "" if h and mag == 1 else str(mag) if mag.denominator == 1 else f"({mag})"
            terms.append(("- " if a < 0 else "+ ") + coeff + h)
    text = " ".join(terms) or "+ 0"  # e.g. "+ 2H - 5H^3"; a leading "+ " is dropped
    return text[2:] if text[0] == "+" else "-" + text[2:]
