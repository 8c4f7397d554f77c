"""Laurent series in q with explicit precision tracking.

A series stores its coefficients for exponents order..precision-1 as a
tuple of Fractions; everything at or above `precision` is unknown.
precision may be math.inf (every coefficient is known, i.e. the value is
an exact Laurent polynomial).  A series with no known nonzero coefficient has order
math.inf and no stored coefficients; with finite precision that means
"zero as far as we can see", with infinite precision it is exactly zero.

Stored coefficients always start and end with a nonzero value, so `order`
is the true q-adic order whenever the series is nonzero.  Arithmetic
propagates precision pessimistically:

    add:  min(p1, p2)
    mul:  min(p1 + ord2, p2 + ord1)      (unknown tails shift by the
                                          other factor's order)
    div:  min(p1 - ord2, p2 - 2*ord2 + ord1)

where a series with no known coefficient contributes its precision in
place of its order.  Division of two exact series is refused unless the
divisor is a monomial, since the quotient would in general need
infinitely many terms; truncate() an operand first.

Multiplication and division do not compute in Fraction.  Each operand is
brought to integer numerators over one common denominator, the product
or quotient is formed in int, skipping zero coefficients, and each output
coefficient becomes a Fraction once, at the end.  series_from_ratfun
expands a rational function through the same division kernel.

Builders that lose precision to negative orders size their working
precision up front where the loss is known in closed form; the others
go through _with_precision_pad, the one capped retry loop.
"""

import math
from fractions import Fraction

from .errors import InsufficientPrecisionError
from .polynomial import IntPolynomial, format_terms


class LaurentSeries:
    __slots__ = ('_order', '_coeffs', '_precision')

    def __init__(self, order, coeffs, precision):
        self._order = order
        self._coeffs = coeffs
        self._precision = precision

    @classmethod
    def zero(cls, precision=math.inf):
        return cls(math.inf, (), precision)

    @classmethod
    def one(cls):
        return cls(0, (Fraction(1),), math.inf)

    @classmethod
    def constant(cls, c):
        return series(0, [c])

    @classmethod
    def q_power(cls, k, coefficient=1):
        return series(k, [coefficient])

    @classmethod
    def from_polynomial(cls, p):
        return series(0, p.coeffs)

    @property
    def order(self):
        return self._order

    @property
    def precision(self):
        return self._precision

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def is_zero(self):
        """No known nonzero coefficient.  Exactly zero iff also exact."""
        return not self._coeffs

    @property
    def is_exact(self):
        return self._precision == math.inf

    def _eff_order(self):
        # order for precision propagation: unknown-zero series behave
        # like q**precision * (unknown)
        return self._order if self._coeffs else self._precision

    def coefficient(self, k):
        if k >= self._precision:
            raise InsufficientPrecisionError(
                f'coefficient of q^{k} unknown at precision {self._precision}')
        if not self._coeffs or k < self._order:
            return Fraction(0)
        i = k - self._order
        if i >= len(self._coeffs):
            return Fraction(0)
        return self._coeffs[i]

    def coefficients(self, start, stop):
        """Coefficients of q^start .. q^(stop-1) as a list."""
        return [self.coefficient(k) for k in range(start, stop)]

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self._order == other._order and self._coeffs == other._coeffs
                and self._precision == other._precision)

    def __hash__(self):
        return hash((self._order, self._coeffs, self._precision))

    def agrees_with(self, other, below):
        """True when both series have the same coefficients below q^below."""
        if below > min(self._precision, other._precision):
            raise InsufficientPrecisionError(
                f'cannot compare below q^{below} at precisions '
                f'{self._precision}, {other._precision}')
        if below == math.inf:
            # both exact; agreement everywhere means identical terms
            return (self._order, self._coeffs) == (other._order, other._coeffs)
        start = min(self._order, other._order, below)
        if start == math.inf:
            return True
        return all(self.coefficient(k) == other.coefficient(k)
                   for k in range(start, below))

    def __neg__(self):
        return LaurentSeries(self._order, tuple(-c for c in self._coeffs),
                             self._precision)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = min(self._precision, other._precision)
        lo = min(self._order, other._order)
        if lo == math.inf:
            return LaurentSeries.zero(p)
        hi = max(self._support_end(), other._support_end())
        if hi > p:
            hi = p
        return series(lo, [self.coefficient(k) + other.coefficient(k)
                           for k in range(lo, hi)], p)

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
        p = min(self._precision + other._eff_order(),
                other._precision + self._eff_order())
        if not self._coeffs or not other._coeffs:
            return LaurentSeries.zero(p)
        o = self._order + other._order
        n = min(len(self._coeffs) + len(other._coeffs) - 1, p - o)
        a, da = _integer_form(self._coeffs[:n])
        b, db = _integer_form(other._coeffs[:n])
        return _normalized(o, _multiply(a, da, b, db, n), p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._coeffs:
            if other.is_exact:
                raise ZeroDivisionError('division by exact zero series')
            raise InsufficientPrecisionError(
                f'divisor has no known nonzero coefficient below '
                f'q^{other._precision}')
        o2 = other._order
        p = min(self._precision - o2,
                other._precision - 2 * o2 + self._eff_order())
        if not self._coeffs:
            return LaurentSeries.zero(p)
        o = self._order - o2
        if p == math.inf:
            if len(other._coeffs) > 1:
                raise InsufficientPrecisionError(
                    'division of exact series would need infinitely many '
                    'terms; truncate() an operand to a finite precision '
                    'first')
            n = len(self._coeffs)
        else:
            n = p - o
        a, da = _integer_form(self._coeffs[:n])
        b, db = _integer_form(other._coeffs[:n])
        return _normalized(o, _divide(a, da, b, db, n), p)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        assert isinstance(n, int) and n >= 0
        result = LaurentSeries.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k):
        """Multiply by q**k."""
        if not self._coeffs:
            return LaurentSeries.zero(self._precision + k)
        return LaurentSeries(self._order + k, self._coeffs,
                             self._precision + k)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return LaurentSeries.zero(self._precision)
        return LaurentSeries(self._order, tuple(c * a for a in self._coeffs),
                             self._precision)

    def truncate(self, precision):
        """Forget coefficients at or above q**precision."""
        if precision >= self._precision:
            return self
        kept = self._coeffs
        if self._order != math.inf and self._order + len(kept) > precision:
            kept = kept[:max(precision - self._order, 0)]
        return series(self._order if kept else math.inf, kept, precision)

    def _support_end(self):
        if not self._coeffs:
            return -math.inf
        return self._order + len(self._coeffs)

    def to_json(self):
        return {
            'order': None if self._order == math.inf else self._order,
            'precision': (None if self._precision == math.inf
                          else self._precision),
            'coeffs': [[c.numerator, c.denominator] for c in self._coeffs],
        }

    def __str__(self):
        body = format_terms(
            ((self._order + i, c) for i, c in enumerate(self._coeffs)))
        if self._precision == math.inf:
            return body
        tail = f'O(q^{self._precision})'
        return tail if body == '0' else f'{body} + {tail}'

    def __repr__(self):
        return (f'LaurentSeries(order={self._order}, coeffs={self._coeffs},'
                f' precision={self._precision})')


def _coerce(x):
    if isinstance(x, LaurentSeries):
        return x
    if isinstance(x, (int, Fraction)):
        if x == 0:
            return LaurentSeries.zero()
        return LaurentSeries(0, (Fraction(x),), math.inf)
    if isinstance(x, IntPolynomial):
        return LaurentSeries.from_polynomial(x)
    return NotImplemented


def series(order, coeffs, precision=math.inf):
    """Normalize into a LaurentSeries, stripping zero fringes."""
    s = _normalized(order, [Fraction(c) for c in coeffs], precision)
    if s._support_end() > precision:
        raise ValueError(
            f'coefficients reach q^{s._support_end() - 1} but precision '
            f'is {precision}')
    return s


def series_from_ratfun(rf, precision):
    """Expand an exact rational function at q=0 to the given precision.

    The zero function expands to the exact zero series regardless of the
    requested precision.
    """
    if rf.is_zero:
        return LaurentSeries.zero()
    n = precision - rf.e
    if n <= 0:
        return LaurentSeries.zero(precision)
    return _normalized(rf.e, _divide(rf.num.coeffs, 1, rf.den.coeffs, 1, n),
                       precision)


def _with_precision_pad(build, precision, pad, width=1):
    """build(precision + pad), doubling pad while it falls short.

    The one retry loop for results whose precision loss has no known
    bound: build raises InsufficientPrecisionError when its working
    precision was eaten, and pad then grows to max(2 * pad, 4).  Past
    64 * width * (precision + 1) the last error propagates; width lets
    a builder whose loss grows with a degree scale that cap.
    """
    while True:
        try:
            return build(precision + pad)
        except InsufficientPrecisionError:
            if pad > 64 * width * (precision + 1):
                raise
            pad = max(2 * pad, 4)


def _normalized(order, coeffs, precision):
    """series() for a list of Fractions that needs no re-wrapping."""
    lo, hi = 0, len(coeffs)
    while lo < hi and not coeffs[lo]:
        lo += 1
    while hi > lo and not coeffs[hi - 1]:
        hi -= 1
    if lo == hi:
        return LaurentSeries.zero(precision)
    return LaurentSeries(order + lo, tuple(coeffs[lo:hi]), precision)


def _integer_form(coeffs):
    """Integer numerators over one common denominator: (nums, den)."""
    den = math.lcm(*[c.denominator for c in coeffs])
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _multiply(a, da, b, db, n):
    """The first n coefficients of (a/da) * (b/db) as Fractions.

    a and b are int sequences; the convolution runs in int and skips the
    zero coefficients of both.
    """
    acc = [0] * n
    nonzero_b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero_b:
                if i + j >= n:
                    break
                acc[i + j] += x * y
    den = da * db
    if den == 1:
        return list(map(Fraction, acc))
    return [Fraction(c, den) for c in acc]


def _divide(a, da, b, db, n):
    """The first n coefficients of (a/da) / (b/db) as Fractions.

    a and b are int sequences with b[0] != 0.  The quotient of the
    integer sequences has coefficients y_k / b0^(k+1), where

        y_k = a_k b0^k - sum_{j>=1} b_j b0^(j-1) y_(k-j),

    so the recurrence stays in int whatever the lead b0 is.  The powers
    of b0 are carried only when a later divisor term below q^n feeds the
    recurrence; otherwise one factor of b0 in the denominator does.
    """
    lead = b[0]
    tail = [(j, c) for j, c in enumerate(b[:n]) if j and c]
    carry = lead if tail else 1
    tail = [(j, c * carry ** (j - 1)) for j, c in tail]
    ys = []
    power = 1
    for k in range(n):
        s = a[k] * power if k < len(a) else 0
        for j, c in tail:
            if j > k:
                break
            y = ys[k - j]
            if y:
                s -= c * y
        ys.append(s)
        power *= carry
    den = da * lead
    if den == 1 and carry == 1:
        return [Fraction(y * db) for y in ys]
    out = []
    for y in ys:
        out.append(Fraction(y * db, den))
        den *= carry
    return out
