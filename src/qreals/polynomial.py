"""Dense polynomials over the integers in the formal variable q.

A polynomial is represented by a tuple of int coefficients in ascending
order of exponent with no trailing zeros; the zero polynomial is the empty
tuple.  Instances are immutable and hashable.  Coefficient arithmetic is
plain Python int arithmetic, so there is no overflow and no rounding.

The gcd returned by poly_gcd is primitive (content 1) and normalized so
that its lowest-order nonzero coefficient is positive.
"""

from fractions import Fraction
from math import gcd as _int_gcd


class IntPolynomial:
    """Immutable dense polynomial with int coefficients."""

    __slots__ = ('_coeffs',)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f'int coefficient expected, got {type(c).__name__}')
        self._coeffs = tuple(coeffs)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def monomial(cls, coeff, exponent):
        if exponent < 0:
            raise ValueError(f'negative exponent {exponent}')
        if coeff == 0:
            return cls()
        return cls((0,) * exponent + (coeff,))

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def is_zero(self):
        return not self._coeffs

    @property
    def degree(self):
        """Degree, with the convention deg 0 = -1."""
        return len(self._coeffs) - 1

    @property
    def valuation(self):
        """Smallest exponent with nonzero coefficient; undefined for 0."""
        if not self._coeffs:
            raise ValueError('the zero polynomial has no valuation')
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        raise AssertionError  # unreachable: trailing zeros are stripped

    def coefficient(self, k):
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return 0

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == (IntPolynomial((other,)))._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial([-c for c in self._coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return IntPolynomial()
            return IntPolynomial([other * c for c in self._coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, IntPolynomial.one())

    def __call__(self, x):
        """Evaluate at x (int or Fraction) by Horner's rule."""
        acc = 0 if isinstance(x, int) else Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def shift(self, k):
        """Multiply by q**k; k must be >= 0."""
        if k < 0:
            raise ValueError(f'negative shift {k}')
        if not self._coeffs:
            return self
        return IntPolynomial((0,) * k + self._coeffs)

    def reversed(self):
        """Coefficient reversal: q**deg * p(1/q)."""
        return IntPolynomial(tuple(reversed(self._coeffs)))

    def content(self):
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self._coeffs:
            g = _int_gcd(g, abs(c))
            if g == 1:
                break
        return g

    def primitive_part(self):
        """self / content, with unchanged signs; zero stays zero."""
        g = self.content()
        if g <= 1:
            return self
        return IntPolynomial([c // g for c in self._coeffs])

    def divide_exact(self, divisor):
        """Exact quotient self / divisor over the integers.

        Raises ValueError if the division leaves a remainder or a
        non-integer coefficient would be produced.
        """
        if divisor.is_zero:
            raise ZeroDivisionError('polynomial division by zero')
        if self.is_zero:
            return self
        a = list(self._coeffs)
        b = divisor._coeffs
        db = len(b) - 1
        lead = b[-1]
        n = len(a) - 1 - db
        if n < 0:
            raise ValueError('not divisible: degree too small')
        out = [0] * (n + 1)
        for i in range(n, -1, -1):
            c = a[i + db]
            if c % lead:
                raise ValueError('not divisible over the integers')
            c //= lead
            out[i] = c
            if c:
                for j, bj in enumerate(b):
                    a[i + j] -= c * bj
        if any(a):
            raise ValueError('not divisible: nonzero remainder')
        return IntPolynomial(out)

    def __str__(self):
        return format_terms(
            ((k, c) for k, c in enumerate(self._coeffs) if c))

    def __repr__(self):
        return f'IntPolynomial({self._coeffs!r})'


def _power(x, n, one):
    """x ** n by square-and-multiply, for an int n >= 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f'power must be a nonnegative int, got {n!r}')
    result = one
    while n:
        if n & 1:
            result = result * x
        x = x * x
        n >>= 1
    return result


def _plain_coefficient(c, alone):
    # a fractional coefficient in front of a power of q is parenthesized
    # so '(1/2)q^3' stays unambiguous
    if alone or not (isinstance(c, Fraction) and c.denominator != 1):
        return str(c)
    return f'({c})'


def format_terms(terms, var='q', coefficient=_plain_coefficient,
                 power='{}^{}'):
    """Render (exponent, coefficient) pairs ascending, like '1 + 2q + q^3'.

    Coefficients may be ints or Fractions.  coefficient(c, alone) renders
    a positive coefficient other than a unit in front of a power (alone
    is true for the constant term, which is always rendered), and
    power.format(var, k) renders var^k for k other than 0 and 1.
    """
    parts = []
    for k, c in terms:
        if c == 0:
            continue
        sign = '-' if c < 0 else '+'
        mag = -c if c < 0 else c
        if k == 0:
            body = coefficient(mag, True)
        else:
            var_part = var if k == 1 else power.format(var, k)
            body = var_part if mag == 1 else \
                coefficient(mag, False) + var_part
        parts.append((sign, body))
    if not parts:
        return '0'
    first_sign, first_body = parts[0]
    out = ('-' if first_sign == '-' else '') + first_body
    for sign, body in parts[1:]:
        out += f' {sign} {body}'
    return out


def _pseudo_remainder(a, b):
    """prem(a, b): lc(b)^(deg a - deg b + 1) * a reduced mod b, over Z."""
    ra = list(a._coeffs)
    rb = b._coeffs
    db = len(rb) - 1
    lead = rb[-1]
    steps = len(ra) - len(rb) + 1
    for i in range(steps - 1, -1, -1):
        top = ra[i + db]
        if top:
            for j in range(len(ra)):
                ra[j] *= lead
            for j, bj in enumerate(rb):
                ra[i + j] -= top * bj
        # ra[i + db] is now 0; keep list length, stripped by constructor
        ra[i + db] = 0
    return IntPolynomial(ra[:db] if db else ())


def _signed_primitive(p):
    """Primitive part with positive lowest-order coefficient."""
    if p.is_zero:
        return p
    p = p.primitive_part()
    if p.coeffs[p.valuation] < 0:
        p = -p
    return p


def poly_gcd(a, b):
    """Greatest common divisor in Z[q], primitive and sign-normalized.

    Uses the primitive polynomial remainder sequence, which keeps
    coefficient growth tame at these degrees.  gcd(0, 0) = 0.
    """
    if a.is_zero:
        return _signed_primitive(b)
    if b.is_zero:
        return _signed_primitive(a)
    va, vb = a.valuation, b.valuation
    v = min(va, vb)
    if va:
        a = IntPolynomial(a.coeffs[va:])
    if vb:
        b = IntPolynomial(b.coeffs[vb:])
    a = a.primitive_part()
    b = b.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        if b.degree == 0:
            a = IntPolynomial.one()
            break
        r = _pseudo_remainder(a, b)
        a, b = b, r.primitive_part()
    return _signed_primitive(a).shift(v)
