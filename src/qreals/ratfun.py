"""Rational functions in q with a canonical exponent-field form.

A value is q**e * num(q) / den(q) where e is an integer and num, den are
integer polynomials with nonzero constant terms (all powers of q are pulled
into e), gcd(num, den) = 1 including integer content, and den(0) > 0.  The
zero element is (e=0, num=0, den=1).  With this normalization two equal
values have identical field tuples, so equality is structural, and e is
exactly the order of vanishing at q=0.

Construct values through ratfun(), which normalizes, or through the
classmethod constructors; the raw __init__ trusts its arguments.

Each + and * reduces its result with up to two gcds, by Henrici's
pairwise method (Knuth, TAOCP vol. 2, 4.5.1).  A sum or product of many
values reduces once instead: ratfun_product multiplies all numerators
and all denominators as balanced product trees and takes one gcd, and
ratfun_sum forms each term's product unreduced, puts the terms over the
largest term denominator, adds the numerators and takes one gcd.  A
term whose denominator does not divide the largest one goes through +.
The catalog's sums nest: the denominator of binom(f + m, k)_q is D^k
times the Phi_d^floor(k/d) that have no class (qbinomial docstring), so
it does not depend on m and divides the one at k + 1, and the Gaussian
factors of each term have denominator 1.  Canonical forms are unique,
so these give exactly the fields of a left fold of + or *.
"""

from fractions import Fraction
from math import gcd as _int_gcd

from .polynomial import (IntPolynomial, _from_ints, _gcd_cofactors, _power,
                         _product_tree, _quotient, format_terms)

_ONE = IntPolynomial.one()


class QRationalFunction:
    """Immutable canonical rational function q**e * num/den."""

    __slots__ = ('_e', '_num', '_den')

    def __init__(self, e, num, den):
        self._e = e
        self._num = num
        self._den = den

    @classmethod
    def zero(cls):
        return cls(0, IntPolynomial.zero(), _ONE)

    @classmethod
    def one(cls):
        return cls(0, _ONE, _ONE)

    @classmethod
    def from_polynomial(cls, p):
        return ratfun(0, p, _ONE)

    @classmethod
    def from_integer(cls, n):
        return ratfun(0, IntPolynomial((n,)), _ONE)

    @classmethod
    def q_power(cls, e):
        """The monomial q**e (e may be negative)."""
        return cls(e, _ONE, _ONE)

    @property
    def e(self):
        return self._e

    @property
    def num(self):
        return self._num

    @property
    def den(self):
        return self._den

    @property
    def is_zero(self):
        return self._num.is_zero

    @property
    def order(self):
        """The q-adic order; +inf for the zero function."""
        if self._num.is_zero:
            return float('inf')
        return self._e

    def __bool__(self):
        return not self._num.is_zero

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self._e == other._e and self._num == other._num
                and self._den == other._den)

    def __hash__(self):
        # a polynomial value equals its IntPolynomial (and through it an
        # int), so it hashes as that polynomial
        if self._e >= 0 and self._den == _ONE:
            return hash(self._num.shift(self._e))
        return hash((self._e, self._num, self._den))

    def __neg__(self):
        return QRationalFunction(self._e, -self._num, self._den)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        e = min(self._e, other._e)
        n1 = self._num.shift(self._e - e)
        n2 = other._num.shift(other._e - e)
        d1, d2 = self._den, other._den
        if d1 == d2:
            # over a shared denominator only the sum's own gcd is left
            return ratfun(e, n1 + n2, d1)
        g, d1_red, d2_red = _gcd_cofactors(d1, d2)
        if g == _ONE:
            return ratfun(e, n1 * d2 + n2 * d1, d1 * d2, reduced=True)
        t = n1 * d2_red + n2 * d1_red
        g2, t_red, g_red = _gcd_cofactors(t, g)
        if g2 != _ONE:
            t = t_red
            d1 = g_red * d1_red
        # Knuth 4.5.1: t and d1*d2_red now share at most integer content
        return ratfun(e, t, d1 * d2_red, reduced=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return QRationalFunction.zero()
        # both operands are canonical, so a product with q^e only adds e
        if other._num == _ONE and other._den == _ONE:
            return QRationalFunction(self._e + other._e, self._num, self._den)
        if self._num == _ONE and self._den == _ONE:
            return QRationalFunction(self._e + other._e, other._num,
                                     other._den)
        _, n1, d2 = _gcd_cofactors(self._num, other._den)
        _, n2, d1 = _gcd_cofactors(other._num, self._den)
        return ratfun(self._e + other._e, n1 * n2, d1 * d2, reduced=True)

    __rmul__ = __mul__

    def reciprocal(self):
        if self.is_zero:
            raise ZeroDivisionError('reciprocal of zero rational function')
        num, den = self._den, self._num
        if den.coeffs[0] < 0:
            num, den = -num, -den
        return QRationalFunction(-self._e, num, den)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.reciprocal()

    def __pow__(self, n):
        if isinstance(n, int) and n < 0:
            return self.reciprocal() ** (-n)
        if isinstance(n, int) and n > 0:
            # coprime num and den stay coprime, contents included (Gauss's
            # lemma), so the power takes no gcd
            return QRationalFunction(self._e * n, self._num ** n,
                                     self._den ** n)
        return _power(self, n, QRationalFunction.one())

    def substitute_q_inverse(self):
        """The value at q -> 1/q, renormalized."""
        if self.is_zero:
            return self
        num = self._num.reversed()
        den = self._den.reversed()
        e = -self._e - self._num.degree + self._den.degree
        if den.coeffs[0] < 0:
            num, den = -num, -den
        return QRationalFunction(e, num, den)

    def evaluate(self, x):
        """Value at a nonzero rational x."""
        x = Fraction(x)
        if x == 0:
            raise ZeroDivisionError('evaluation at 0 is the series order, not a value')
        d = self._den(x)
        if d == 0:
            raise ZeroDivisionError(f'denominator vanishes at {x}')
        return Fraction(self._num(x)) / d * x ** self._e

    def to_json(self):
        return {'e': self._e,
                'num': list(self._num.coeffs),
                'den': list(self._den.coeffs)}

    def __str__(self):
        if self.is_zero:
            return '0'
        parts = []
        if self._e:
            parts.append(f'q^{self._e}' if self._e != 1 else 'q')
        if self._num != _ONE or not parts:
            num_s = str(self._num)
            if self._num.degree > 0 and (parts or self._den != _ONE):
                num_s = f'({num_s})'
            parts.append(num_s)
        head = ' '.join(parts)
        if self._den == _ONE:
            return head
        return f'{head} / ({self._den})'

    def __repr__(self):
        return f'QRationalFunction(e={self._e}, num={self._num!r}, den={self._den!r})'


def _coerce(x):
    if isinstance(x, QRationalFunction):
        return x
    if isinstance(x, int):
        return QRationalFunction.from_integer(x)
    if isinstance(x, IntPolynomial):
        return QRationalFunction.from_polynomial(x)
    return NotImplemented


def ratfun(e, num, den, reduced=False):
    """Normalize (e, num, den) into canonical form.

    reduced=True promises num and den share no polynomial factor, which
    skips the gcd; valuations, contents, and signs are always fixed up.
    """
    if isinstance(num, int):
        num = IntPolynomial((num,))
    if isinstance(den, int):
        den = IntPolynomial((den,))
    if den.is_zero:
        raise ZeroDivisionError('zero denominator')
    if num.is_zero:
        return QRationalFunction.zero()
    vn, vd = num.valuation, den.valuation
    if vn:
        num = IntPolynomial(num.coeffs[vn:])
    if vd:
        den = IntPolynomial(den.coeffs[vd:])
    e += vn - vd
    if not reduced:
        _, num, den = _gcd_cofactors(num, den)
    c = _int_gcd(num.content(), den.content())
    if c > 1:
        num = IntPolynomial([x // c for x in num.coeffs])
        den = IntPolynomial([x // c for x in den.coeffs])
    if den.coeffs[0] < 0:
        num, den = -num, -den
    return QRationalFunction(e, num, den)


def _unreduced(factors):
    """(e, N, D) with q^e N / D the product of factors (ints, polynomials
    or rational functions), N and D balanced product trees, no gcd."""
    e, nums, dens = 0, [], []
    for x in factors:
        if isinstance(x, int):
            x = IntPolynomial((x,))
        if isinstance(x, IntPolynomial):
            x = QRationalFunction(0, x, _ONE)
        elif not isinstance(x, QRationalFunction):
            raise TypeError(f'cannot multiply by {type(x).__name__}')
        e += x._e
        if x._num != _ONE:
            nums.append(x._num)
        if x._den != _ONE:
            dens.append(x._den)
    return e, _product_tree(nums), _product_tree(dens)


def ratfun_product(factors):
    """The product of factors, reduced once (module docstring)."""
    return ratfun(*_unreduced(factors))


def ratfun_sum(terms):
    """The sum of terms, each a tuple of factors, reduced once.

    Every term whose unreduced denominator divides the largest one is put
    over it; the rest go through + (module docstring).
    """
    terms = [t for t in map(_unreduced, terms) if t[1]]
    if not terms:
        return QRationalFunction.zero()
    top = max((d for _, _, d in terms), key=lambda d: d.degree)
    e = min(t[0] for t in terms)
    total, rest = IntPolynomial.zero(), QRationalFunction.zero()
    for te, num, den in terms:
        num = num.shift(te - e)
        if den == top:
            total += num
            continue
        c = _quotient(top.coeffs, den.coeffs)
        if c is None:
            rest += ratfun(e, num, den)
        else:
            total += num * _from_ints(c)
    return ratfun(e, total, top) + rest
