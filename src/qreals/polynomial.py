"""Dense polynomials over the integers in the formal variable q.

A polynomial is represented by a tuple of int coefficients in ascending
order of exponent with no trailing zeros; the zero polynomial is the empty
tuple.  Instances are immutable and hashable.  Coefficient arithmetic is
plain Python int arithmetic, so there is no overflow and no rounding.

The gcd returned by poly_gcd is primitive (content 1), normalized so
that its lowest-order nonzero coefficient is positive, and carries the
common power of q of its operands.

poly_gcd is GCDHEU (Char, Geddes and Gonnet, "GCDHEU: heuristic
polynomial GCD algorithm based on integer GCD computation", J. Symbolic
Comput. 7, 1989).  With the common power of q and the contents stripped,
a and b are evaluated at an integer ξ, one integer gcd
h = gcd(a(ξ), b(ξ)) is taken, and the balanced ξ-adic digits of h, each
in (-ξ/2, ξ/2], are read as the coefficients of a candidate G.  The
theorem: if ξ > 2 min(|a|_inf, |b|_inf) + 2 and the primitive part of G
divides both a and b, it is their gcd.  So a candidate is accepted only
after exact trial division.  It can fail when h is the true gcd's value
times an integer s shared by the cofactors' values at ξ and the product
does not fit in the digits; s divides the cofactors' resultant, so a
large enough ξ always succeeds.

Any ξ above the bound serves, so ξ = 2^k for the least k that clears it.
Evaluation is then a Kronecker pack (shift and add, _pack) and reading
the digits a signed unpack (_unpack).  A rejected candidate squares ξ,
at most GCD_TRIES times; after that the primitive polynomial remainder
sequence (_prs_gcd) decides, so every call ends under a fixed budget.
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
        # a constant equals its int, so it hashes as that int
        if len(self._coeffs) < 2:
            return hash(self._coeffs[0]) if self._coeffs else 0
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
        return _int_gcd(*self._coeffs)

    def primitive_part(self):
        """self / content, with unchanged signs; zero stays zero."""
        g = self.content()
        if g <= 1:
            return self
        return IntPolynomial([c // g for c in self._coeffs])

    def divide_exact(self, divisor):
        """Exact quotient self / divisor over the integers.

        Raises ValueError if divisor does not divide self in Z[q].
        """
        if divisor.is_zero:
            raise ZeroDivisionError('polynomial division by zero')
        if self.is_zero:
            return self
        out = _quotient(self._coeffs, divisor._coeffs)
        if out is None:
            raise ValueError('not divisible over the integers')
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


# the ξ = 2^k values poly_gcd tries before it falls back to the primitive PRS
GCD_TRIES = 6


def _pack(coeffs, k):
    """The integer sum of c_i 2^(k i): coeffs evaluated at q = 2^k."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << k) + c
    return acc


def _unpack(n, k):
    """Balanced base-2^k digits of n, lowest first, for k >= 2.

    Each digit lies in (-2^(k-1), 2^(k-1)], so _pack(_unpack(n, k), k)
    is n, and _unpack(_pack(c, k), k) is c when every |c_i| < 2^(k-1).
    """
    mask = (1 << k) - 1
    half = 1 << (k - 1)
    out = []
    while n:
        d = n & mask
        n >>= k
        if d > half:
            d -= mask + 1
            n += 1
        out.append(d)
    return out


def _quotient(a, b):
    """Coefficients of a / b when b divides a in Z[q], else None."""
    db = len(b) - 1
    n = len(a) - 1 - db
    if n < 0:
        return None
    a = list(a)
    lead = b[-1]
    out = [0] * (n + 1)
    for i in range(n, -1, -1):
        c, r = divmod(a[i + db], lead)
        if r:
            return None
        out[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return None if any(a) else out


def _primitive(coeffs):
    """coeffs divided by their gcd, as a tuple, signs unchanged."""
    g = _int_gcd(*coeffs)
    if g == 1:
        return tuple(coeffs)
    return tuple([c // g for c in coeffs])


def _positive_lowest(coeffs):
    return coeffs if coeffs[0] > 0 else tuple([-c for c in coeffs])


def _signed_primitive(p):
    """Primitive part with positive lowest-order coefficient."""
    if p.is_zero:
        return p
    p = p.primitive_part()
    if p.coeffs[p.valuation] < 0:
        p = -p
    return p


def _xi_bits(a, b):
    """Least k with 2^k > 2 min(|a|_inf, |b|_inf) + 2, the GCDHEU bound."""
    return (2 * min(max(map(abs, a)), max(map(abs, b))) + 2).bit_length()


def _heu_gcd(a, b):
    """gcd of primitive a, b (nonconstant, nonzero constant terms) by
    GCDHEU, or None when GCD_TRIES values of ξ gave no candidate that
    divides both."""
    k = _xi_bits(a, b)
    for _ in range(GCD_TRIES):
        # h > 0: ξ exceeds every root of the operand of least norm
        h = _int_gcd(_pack(a, k), _pack(b, k))
        g = _primitive(_unpack(h, k))
        if len(g) == 1:
            return (1,)
        if g[0] and _quotient(a, g) is not None \
                and _quotient(b, g) is not None:
            return _positive_lowest(g)
        k += k
    return None


def _pseudo_remainder(a, b):
    """prem(a, b): lc(b)^(deg a - deg b + 1) * a reduced mod b, over Z,
    on coefficient sequences with len(a) >= len(b)."""
    ra = list(a)
    db = len(b) - 1
    lead = b[-1]
    for i in range(len(ra) - len(b), -1, -1):
        top = ra[i + db]
        if top:
            for j in range(len(ra)):
                ra[j] *= lead
            for j, bj in enumerate(b):
                ra[i + j] -= top * bj
    del ra[db:]
    while ra and not ra[-1]:
        ra.pop()
    return ra


def _prs_gcd(a, b):
    """gcd of primitive a, b (nonconstant, nonzero constant terms) by the
    primitive polynomial remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            return _positive_lowest(b)
        a, b = b, _primitive(r)
    return (1,)


def poly_gcd(a, b):
    """Greatest common divisor in Z[q], primitive and sign-normalized.

    GCDHEU, as the module docstring describes: one integer gcd at
    ξ = 2^k above the theorem's bound, a candidate kept only if it
    divides both operands, ξ squared up to GCD_TRIES times, then the
    primitive PRS.  Once the common power of q is stripped, a constant
    operand gives gcd 1 with no evaluation.  gcd(0, b) is b made
    primitive, and gcd(0, 0) = 0.
    """
    if a.is_zero:
        return _signed_primitive(b)
    if b.is_zero:
        return _signed_primitive(a)
    va, vb = a.valuation, b.valuation
    a, b = a._coeffs[va:], b._coeffs[vb:]
    if len(a) == 1 or len(b) == 1:
        return IntPolynomial((0,) * min(va, vb) + (1,))
    a, b = _primitive(a), _primitive(b)
    g = _heu_gcd(a, b) or _prs_gcd(a, b)
    return IntPolynomial((0,) * min(va, vb) + g)
