"""Exact arithmetic in the truncated ring Q[H]/(H^(n+1)).

H is the hyperplane class of complex projective n-space.  A class has
one exact rational coefficient per codimension 0..n, so the pushed
forward fundamental class of a k-plane is H^(n-k) and the class of a
point is H^n.  Products drop everything above H^n.  There is no
floating point anywhere in this module.

A class is stored as integer numerators over one positive common
denominator in lowest terms (zero over 1), like FLINT's ``fmpq_poly``.
Ring operations work on the integers and reduce once per result, and
``coeffs`` builds the ``Fraction`` view on first use.

The regrading operations ``dual`` and ``tensor_line`` act on the
codimension-j piece by (-1)^j and by division by (1 + c1)^j.  Grading
always means codimension in the ambient space, never in a subvariety;
reports expose this convention.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm
from numbers import Rational
from operator import add


def _coerce(value) -> int | Fraction:
    """Exact coercion to an int or a Fraction; floats are rejected on purpose."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, (str, Rational)):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as an exact rational coefficient")


def _sign(exponent: int) -> int:
    return 1 if exponent % 2 == 0 else -1


_new, _set = object.__new__, object.__setattr__


def _from_ints(n: int, num: tuple[int, ...], den: int = 1) -> "ChowClass":
    """Unchecked: numerators over a positive denominator, in lowest terms."""
    c = _new(ChowClass)
    _set(c, "ambient_dim", n)
    _set(c, "_num", num)
    _set(c, "_den", den)
    _set(c, "_coeffs", None)
    return c


def _reduced(n: int, num, den: int) -> "ChowClass":
    """A class from numerators over a positive denominator, reduced by one gcd."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    return _from_ints(n, tuple(num), den)


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
            den = self._den
            view = map(Fraction, self._num) if den == 1 else (Fraction(a, den) for a in self._num)
            _set(self, "_coeffs", tuple(view))
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
        if not isinstance(other, ChowClass):
            return NotImplemented
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
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        n = self.ambient_dim
        if other.ambient_dim != n:
            self._check_compatible(other)
        out = [0] * (n + 1)
        terms = [(j, b) for j, b in enumerate(other._num) if b]
        for i, a in enumerate(self._num):
            if a:
                for j, b in terms:
                    if i + j > n:
                        break
                    out[i + j] += a * b
        return _reduced(n, out, self._den * other._den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def invert(self) -> "ChowClass":
        """Multiplicative inverse, solved degree by degree over the integers.

        Any nonzero rational constant term is accepted.  With c0 the
        constant numerator, the inverse of the numerator polynomial has
        H^k coefficient q_k / c0^(k+1) with q_k an integer.

        >>> print(make_class(4, [1, 2]).invert())
        1 - 2H + 4H^2 - 8H^3 + 16H^4
        """
        c0 = self._num[0]
        if c0 == 0:
            raise ValueError("cannot invert a class with zero constant term")
        n = self.ambient_dim
        weights = [a * c0 ** (i - 1) for i, a in enumerate(self._num) if i]
        q = [1]
        for k in range(1, n + 1):
            q.append(-sum(weights[i] * q[k - 1 - i] for i in range(k) if weights[i]))
        top = c0 ** (n + 1)
        sign = 1 if top > 0 else -1
        return _reduced(
            n, [sign * self._den * b * c0 ** (n - k) for k, b in enumerate(q)], sign * top
        )

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
        return Fraction(self._num[-1], self._den)

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


def make_class(n: int, coeffs) -> ChowClass:
    """Build sum(coeffs[j] H^j) in P^n; short inputs are zero padded.

    Inputs longer than n+1 are rejected rather than truncated, since
    over-long input almost always means a wrong ambient dimension.
    """
    if n < 0:
        raise ValueError("ambient dimension must be non-negative")
    coeffs = [_coerce(c) for c in coeffs]
    if len(coeffs) > n + 1:
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
    """(1 + tH)^e in P^n: C(e, m) t^m over q^n when t = p/q and e >= 0,
    the inverse of (1 + tH)^(-e) when e < 0."""
    if e < 0:
        return line_power(n, t, -e).invert()
    t = _coerce(t)
    p, q = t.numerator, t.denominator
    return _reduced(n, [comb(e, m) * p**m * q ** (n - m) for m in range(n + 1)], q**n)


def _degree_one_scalar(n: int, c1) -> int | Fraction:
    if not isinstance(c1, ChowClass):
        return _coerce(c1)
    if c1.ambient_dim != n:
        raise ValueError("ambient dimensions differ")
    if any(a for j, a in enumerate(c1._num) if j != 1):
        raise ValueError("expected a class concentrated in degree 1")
    return c1.coeffs[1] if n >= 1 else 0


def _fmt_coeff(q: Fraction) -> str:
    return str(q) if q.denominator == 1 else f"({q})"


def format_class(c: ChowClass) -> str:
    """Render like ``2H + 7H^2 - 5H^3``, omitting zero terms."""
    parts = []
    for j, a in enumerate(c.coeffs):
        if a == 0:
            continue
        mag = abs(a)
        if j == 0:
            body = _fmt_coeff(mag)
        else:
            h = "H" if j == 1 else f"H^{j}"
            body = h if mag == 1 else f"{_fmt_coeff(mag)}{h}"
        parts.append((a < 0, body))
    if not parts:
        return "0"
    negative, body = parts[0]
    text = ("-" if negative else "") + body
    for negative, body in parts[1:]:
        text += (" - " if negative else " + ") + body
    return text
