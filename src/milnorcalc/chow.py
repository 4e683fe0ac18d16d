"""Exact arithmetic in the truncated ring Z[H]/(H^(n+1)).

H is the hyperplane class of complex projective n-space.  A class has
one integer coefficient per codimension 0..n, so the pushed forward
fundamental class of a k-plane is H^(n-k) and the class of a point is
H^n.  Products drop everything above H^n.  There is no floating point
anywhere in this module, and no rational number either: the classes of
the paper are integral, and every report divides only by a unit, a class
whose constant term is 1 or -1, which ``/`` alone accepts.

A coefficient is an int or a string of ASCII digits with an optional
leading minus sign, the form in which reports write them.

The regrading operations ``dual`` and ``tensor_line`` act on the
codimension-j piece by (-1)^j and by division by (1 + c1)^j.  Grading
always means codimension in the ambient space, never in a subvariety;
reports expose this convention.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, sub


def _coerce(value) -> int:
    """An int, or the int a ``[-]digits`` string spells; anything else
    (floats, rationals, "1/2", "1_000", " 1", non-ASCII digits) is rejected."""
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        digits = value[1:] if value[:1] == "-" else value
        if digits.isascii() and digits.isdigit():
            return int(value)
    raise TypeError(f"cannot use {value!r} as an integer coefficient")


def _sign(exponent: int) -> int:
    return 1 if exponent % 2 == 0 else -1


_new = object.__new__


def _from_ints(n: int, coeffs: tuple[int, ...]) -> "ChowClass":
    """Unchecked: a class from its n + 1 integer coefficients."""
    c = _new(ChowClass)
    _set_dim(c, n)
    _set_coeffs(c, coeffs)
    return c


def _accumulate(out: list, x: tuple, y: tuple, f: int) -> None:
    """Add f x y, truncated above H^n, into ``out``: the loop of ``_products``.
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


# Kronecker substitution beats the loop (measured on CPython 3.11) only on
# operands with at least this many nonzero terms, and only up to this many
# bits per product: past it CPython's Karatsuba multiply loses.
_PACKED_MIN_TERMS = 12
_PACKED_MAX_BITS = 192


def _digit_bits(m: int, triples: list) -> int:
    """The one choice between the paths of ``_products``: the digit width B,
    or 0 for the loop.  Each operand needs 12 nonzero terms and each pair
    bitlen(max |x|) + bitlen(max |y|) + bitlen(|w|) <= 192; B is the largest
    such sum s plus bitlen(m * pairs) + 1.  A truncated coefficient sums at
    most m * pairs terms below 2^s in size, so it is below 2^(B-1)."""
    if m < _PACKED_MIN_TERMS:
        return 0
    top = 0
    for x, y, w in triples:
        if len(x) - x.count(0) < _PACKED_MIN_TERMS or len(y) - y.count(0) < _PACKED_MIN_TERMS:
            return 0
        size = max(max(x), -min(x)).bit_length() + max(max(y), -min(y)).bit_length()
        top = max(top, size + abs(w).bit_length())
    if top > _PACKED_MAX_BITS:
        return 0
    return top + (m * len(triples)).bit_length() + 1


def _pack(x: tuple, bits: int) -> int:
    """x at X = 2^bits, by Horner's rule."""
    v = 0
    for a in reversed(x):
        v = (v << bits) + a
    return v


def _products(m: int, triples: list) -> tuple:
    """The first m coefficients of the sum of w x y over the triples (x, y, w)
    of coefficient tuples and ints: the one kernel of ``*`` and ``dot``.
    Packed, the sum is one big-integer multiply per pair at X = 2^B, cut to
    its low m digits and read back as signed digits, a negative digit
    borrowing one from the next; else ``_accumulate`` runs per pair."""
    bits = _digit_bits(m, triples)
    if not bits:
        out = [0] * m
        for x, y, w in triples:
            _accumulate(out, x, y, w)
        return tuple(out)
    v = sum(w * _pack(x, bits) * _pack(y, bits) for x, y, w in triples) & ((1 << m * bits) - 1)
    low, half, out = (1 << bits) - 1, 1 << (bits - 1), []
    for _ in range(m):
        d = v & low
        v >>= bits
        if d >= half:
            d -= low + 1
            v += 1
        out.append(d)
    return tuple(out)


class ChowClass:
    """A class in Z[H]/(H^(n+1)), graded by ambient codimension.

    Immutable; ``coeffs`` is the tuple of integer coefficients.

    >>> print(make_class(4, [0, 2, 6, 8, 4]))
    2H + 6H^2 + 8H^3 + 4H^4
    """

    __slots__ = ("ambient_dim", "coeffs")

    def __new__(cls, ambient_dim: int, coeffs):
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be non-negative")
        coeffs = tuple(map(_coerce, coeffs))
        if len(coeffs) != ambient_dim + 1:
            raise ValueError(
                f"need exactly {ambient_dim + 1} coefficients for "
                f"P^{ambient_dim}, got {len(coeffs)}"
            )
        return _from_ints(ambient_dim, coeffs)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"ChowClass is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not ChowClass:
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ambient_dim, self.coeffs))

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
        return _from_ints(self.ambient_dim, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if other.__class__ is not ChowClass:
            return NotImplemented
        if other.ambient_dim != self.ambient_dim:
            self._check_compatible(other)
        return _from_ints(self.ambient_dim, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return _from_ints(self.ambient_dim, tuple(-a for a in self.coeffs))

    def scale(self, q) -> "ChowClass":
        q = _coerce(q)
        return _from_ints(self.ambient_dim, tuple(q * a for a in self.coeffs))

    def __mul__(self, other):
        if other.__class__ is not ChowClass:
            return self.scale(other) if isinstance(other, int) else NotImplemented
        n = self.ambient_dim
        if other.ambient_dim != n:
            self._check_compatible(other)
        return _from_ints(n, _products(n + 1, [(self.coeffs, other.coeffs, 1)]))

    def __rmul__(self, other):
        return self.scale(other) if isinstance(other, int) else NotImplemented

    def __truediv__(self, other):
        """Exact quotient by a unit, a class with constant term c0 = 1 or -1,
        solved degree by degree: the H^k coefficient is
        c0 (a_k - sum_(i >= 1) b_i q_(k-i)), summed over the nonzero b_i
        only, so a divisor with t of them costs O(n t).  Any other divisor
        raises ValueError: its quotient need not be integral.

        >>> print(make_class(4, [1, 3, 2]) / make_class(4, [1, 1]))
        1 + 2H
        """
        if other.__class__ is not ChowClass:
            return NotImplemented
        self._check_compatible(other)
        c0 = other.coeffs[0]
        if c0 != 1 and c0 != -1:
            raise ValueError("can divide only by a class with constant term 1 or -1")
        terms = [(i, b) for i, b in enumerate(other.coeffs) if i and b]
        q = []
        for k, a in enumerate(self.coeffs):
            for i, b in terms:
                if i > k:
                    break
                a -= b * q[k - i]
            q.append(a if c0 == 1 else -a)
        return _from_ints(self.ambient_dim, tuple(q))

    def invert(self) -> "ChowClass":
        """Multiplicative inverse of a unit: ``one(n) / self``.

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
        return _from_ints(self.ambient_dim, tuple(-a if j % 2 else a for j, a in enumerate(self.coeffs)))

    def tensor_line(self, c1) -> "ChowClass":
        """Divide the codimension-j piece by (1 + c1)^j.

        ``c1`` is the first Chern class of a line bundle: either a class
        concentrated in degree 1 or a bare integer t standing for tH.
        The H^m coefficient of (1 + tH)^(-j) is (-t)^m C(j+m-1, m), a
        running sum over the row for j-1.

        >>> print(make_class(4, [0, 0, 1, -1, 1]).tensor_line(2))
        H^2 - 5H^3 + 19H^4
        """
        n = self.ambient_dim
        t = _degree_one_scalar(n, c1)
        powers = [(-t) ** m for m in range(n + 1)]
        out = [0] * (n + 1)
        row = [1] + [0] * n  # C(j+m-1, m) for m = 0..n, starting at j = 0
        for j, a in enumerate(self.coeffs):
            if j:
                row = list(accumulate(row))
            if a:
                for m in range(n + 1 - j):
                    out[j + m] += a * row[m] * powers[m]
        return _from_ints(n, tuple(out))

    def component(self, j: int) -> "ChowClass":
        if not 0 <= j <= self.ambient_dim:
            raise ValueError(f"component {j} out of range for P^{self.ambient_dim}")
        return _from_ints(self.ambient_dim, tuple(a if i == j else 0 for i, a in enumerate(self.coeffs)))

    def integral(self) -> int:
        """Degree of the zero-dimensional piece (the H^n coefficient)."""
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_integral(self) -> bool:  # always true; kept for the benchmark (perfbench/workloads.py)
        return True

    def integer_coeffs(self) -> tuple[int, ...]:  # ``coeffs``; kept for perfbench/workloads.py and capture_oracle.py
        return self.coeffs

    def __str__(self) -> str:
        return format_class(self)


# Each slot's own descriptor, bound once: about half the cost of object.__setattr__.
_set_dim, _set_coeffs = (ChowClass.__dict__[s].__set__ for s in ChowClass.__slots__)


def dot(pairs, n: int) -> ChowClass:
    """The sum of w * x * y over the pairs (x, y, w) of classes in P^n and
    ints w; a pair (x, y) has weight 1.  The products are summed by the
    kernel of ``*`` on coefficient tuples: no class is built per product,
    nor for a weight such as a sign.

    >>> a, b = make_class(2, [1, 1]), make_class(2, [1, 0, 3])
    >>> print(dot([(a, a), (b, h_power(2, 1))], 2))
    1 + 3H + H^2
    >>> print(dot([(a, a, 4), (b, h_power(2, 1), -1)], 2))
    4 + 7H + 4H^2
    """
    triples = []
    for pair in pairs:
        x, y = pair[0], pair[1]
        if x.ambient_dim != n or y.ambient_dim != n:
            raise ValueError(f"ambient dimensions differ from {n}")
        triples.append((x.coeffs, y.coeffs, pair[2] if len(pair) > 2 else 1))
    return _from_ints(n, _products(n + 1, triples))


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
    """(1 + tH)^e in P^n, for any integer e: C(e, m) t^m.  The row
    C(e, m) = C(e, m-1) (e - m + 1) / m is exact in integers, and for
    e < 0 it is the generalized binomial row (-1)^m C(m - e - 1, m), so no
    inversion is needed.  For e >= 0 the row stops after its e + 1
    nonzero terms."""
    t = _coerce(t)
    top = n if e < 0 else min(n, e)
    coeffs, c, tm = [1], 1, 1
    for m in range(top):
        c, tm = c * (e - m) // (m + 1), tm * t
        coeffs.append(c * tm)
    return _from_ints(n, tuple(coeffs) + (0,) * (n - top))


def _degree_one_scalar(n: int, c1) -> int:
    if not isinstance(c1, ChowClass):
        return _coerce(c1)
    if c1.ambient_dim != n:
        raise ValueError("ambient dimensions differ")
    if any(a for j, a in enumerate(c1.coeffs) if j != 1):
        raise ValueError("expected a class concentrated in degree 1")
    return 0 if n < 1 else c1.coeffs[1]


def format_class(c: ChowClass) -> str:
    """Render like ``2H + 7H^2 - 5H^3``, omitting zero terms."""
    terms = []
    for j, a in enumerate(c.coeffs):
        if a:
            h = "" if j == 0 else "H" if j == 1 else f"H^{j}"
            terms.append(("- " if a < 0 else "+ ") + ("" if h and (a == 1 or a == -1) else str(abs(a))) + h)
    text = " ".join(terms) or "+ 0"  # e.g. "+ 2H - 5H^3"; a leading "+ " is dropped
    return text[2:] if text[0] == "+" else "-" + text[2:]
