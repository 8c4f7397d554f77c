"""Laurent series in q with explicit precision tracking.

A series knows its coefficients for exponents below `precision`;
everything at or above it is unknown.  precision may be math.inf (every
coefficient is known, i.e. the value is an exact Laurent polynomial).  A
series with no known nonzero coefficient has order math.inf and no stored
coefficients; with finite precision that means "zero as far as we can
see", with infinite precision it is exactly zero.

Storage is the one FLINT uses for fmpq_poly: integer numerators over one
common denominator.  A series is (order, nums, den, precision), and the
coefficient of q^(order + i) is nums[i] / den.  The form is canonical:

    nums is a tuple of ints whose first and last entries are nonzero,
    den is a positive int, and gcd(den, *nums) == 1,

so `order` is the true q-adic order whenever the series is nonzero, and
two equal series have equal fields, which is what __eq__ and __hash__
compare.  Every operation computes in int and ends in _canonical, which
strips the zero fringes, fixes the sign and divides out one gcd.  For
rational input almost every series is integral (den == 1); Gamma's
(1-q)^(1-a) factor brings in powers of the denominator of a.  Fractions
exist only at the edges: `coeffs` and `coefficient(k)` build them on
demand, rendering and to_json read them, and series(), scale() and
_coerce() accept them as input.

Arithmetic propagates precision pessimistically:

    add:  min(p1, p2)
    mul:  min(p1 + ord2, p2 + ord1)      (unknown tails shift by the
                                          other factor's order)
    div:  min(p1 - ord2, p2 - 2*ord2 + ord1)
    times_ratio:  self * num / den for an exact den,
          min(p_self + ord num, p_num + ord self) - ord den

where a series with no known coefficient contributes its precision in
place of its order; _mul_precision and _div_precision state the rules
once.  A divisor with no known coefficient is refused, and so is the
division of two exact series unless the divisor is a monomial, since the
quotient would in general need infinitely many terms; truncate() an
operand first.  times_ratio is the composition of mul and div, and
refuses what div refuses; it runs one multiply and one division on the
raw product and forms one canonical series at the end, and the builders
apply their exact shift-law factors with it.

Multiplication works on the numerators, over the product of the
denominators.  An exact one-term factor c q^e / d is a shift by e and a
scale by c / d, with no convolution: that is how substitute_x by q^n
and the constant 1 of an XSeries multiply.  Otherwise _multiply takes
one Kronecker product (polynomial's module docstring) when both
operands have more than one nonzero term and the product of their
nonzero counts reaches polynomial.KRONECKER_SIZE: the operands are
packed at q = 2^k, k one more than the bit length of |a|_inf |b|_inf
min(len a, len b), and only the low n balanced digits of the integer
product are read back, from its residue mod 2^(k n), since a series
product keeps only its first n terms.  Sparse and small products
convolve, skipping zero coefficients.

Division runs the quotient recurrence in int; a divisor lead other than
+-1 puts powers of the lead in the common denominator.
series_from_ratfun expands a rational function through the same
division kernel.

Tuples are built from lists, tuple([...]), not from generators: CPython
builds tuple(<generator>) in an over-allocated tuple and shrinks it in
place, and freed tuples of the shrunk sizes then fill their free lists
(up to 2000 tuples per size), memory that only a full garbage collection
gives back and that this integer code, which allocates little, rarely
triggers.

There is no retry loop.  A builder that loses precision to negative
orders sizes its working precision up front from the closed-form orders
of what it multiplies and divides, and raises InsufficientPrecisionError
if the result still falls short.  _Shape, a series known only by its
order and precision, obeys the rules above through the same functions,
so an identity checker runs the side it compares on shapes of those
orders first, and the precision they lose is its pad.
"""

import math
from fractions import Fraction

from .errors import InsufficientPrecisionError
from .polynomial import (KRONECKER_SIZE, IntPolynomial, _low_digits,
                         _pack, _power, _unpack, format_terms)


class LaurentSeries:
    __slots__ = ('_order', '_nums', '_den', '_precision')

    def __init__(self, order, nums, den, precision):
        # trusts its arguments: they must already be in canonical form
        self._order = order
        self._nums = nums
        self._den = den
        self._precision = precision

    @classmethod
    def zero(cls, precision=math.inf):
        return cls(math.inf, (), 1, precision)

    @classmethod
    def one(cls):
        return cls(0, (1,), 1, math.inf)

    @classmethod
    def constant(cls, c):
        return series(0, [c])

    @classmethod
    def q_power(cls, k, coefficient=1):
        return series(k, [coefficient])

    @classmethod
    def from_polynomial(cls, p):
        return _canonical(0, p.coeffs, 1, math.inf)

    @property
    def order(self):
        return self._order

    @property
    def precision(self):
        return self._precision

    @property
    def coeffs(self):
        """The stored coefficients as a tuple of Fractions."""
        den = self._den
        return tuple([Fraction(c, den) for c in self._nums])

    @property
    def is_zero(self):
        """No known nonzero coefficient.  Exactly zero iff also exact."""
        return not self._nums

    @property
    def is_exact(self):
        return self._precision == math.inf

    @property
    def is_integral(self):
        """Every known coefficient is an integer."""
        return self._den == 1

    def _eff_order(self):
        # order for precision propagation: unknown-zero series behave
        # like q**precision * (unknown)
        return self._order if self._nums else self._precision

    def coefficient(self, k):
        if k >= self._precision:
            raise InsufficientPrecisionError(
                f'coefficient of q^{k} unknown at precision {self._precision}')
        i = k - self._order
        if 0 <= i < len(self._nums):
            return Fraction(self._nums[i], self._den)
        return Fraction(0)

    def coefficients(self, start, stop):
        """Coefficients of q^start .. q^(stop-1) as a list."""
        return [self.coefficient(k) for k in range(start, stop)]

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self._order == other._order and self._nums == other._nums
                and self._den == other._den
                and self._precision == other._precision)

    def __hash__(self):
        return hash((self._order, self._nums, self._den, self._precision))

    def agrees_with(self, other, below):
        """True when both series have the same coefficients below q^below."""
        if below > min(self._precision, other._precision):
            raise InsufficientPrecisionError(
                f'cannot compare below q^{below} at precisions '
                f'{self._precision}, {other._precision}')
        # canonical truncations are equal exactly when the values are
        a, b = self.truncate(below), other.truncate(below)
        return (a._order, a._nums, a._den) == (b._order, b._nums, b._den)

    def __neg__(self):
        return LaurentSeries(self._order, tuple([-c for c in self._nums]),
                             self._den, self._precision)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = min(self._precision, other._precision)
        if not other._nums:
            return self.truncate(p)
        if not self._nums:
            return other.truncate(p)
        a, b = (self, other) if self._order <= other._order else (other, self)
        lo = a._order
        hi = min(max(a._support_end(), b._support_end()), p)
        if hi <= lo:
            return LaurentSeries.zero(p)
        # a/da + b/db over den = lcm(da, db)
        da, db = a._den, b._den
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        den = da * ma
        acc = list(a._nums[:hi - lo])
        if ma != 1:
            acc = [x * ma for x in acc]
        acc.extend([0] * (hi - lo - len(acc)))
        off = b._order - lo
        for i, y in enumerate(b._nums[:max(hi - b._order, 0)]):
            acc[off + i] += y * mb
        return _canonical(lo, acc, den, p)

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
        p = _mul_precision(self, other)
        if not self._nums or not other._nums:
            return LaurentSeries.zero(p)
        o = self._order + other._order
        for x, y in ((self, other), (other, self)):
            if len(y._nums) == 1 and y._precision == math.inf:
                # an exact c q^e / d: shift x by e and scale it by c / d
                c, d = y._nums[0], y._den
                if c == 1 and d == 1:
                    return LaurentSeries(o, x._nums, x._den, p)
                return _canonical(o, [c * v for v in x._nums], x._den * d, p)
        n = min(len(self._nums) + len(other._nums) - 1, p - o)
        if n <= 0:
            return LaurentSeries.zero(p)
        return _canonical(o, _multiply(self._nums[:n], other._nums[:n], n),
                          self._den * other._den, p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = _div_precision(self, other)
        if not self._nums:
            return LaurentSeries.zero(p)
        o = self._order - other._order
        n = _quotient_terms(p, o, other, len(self._nums))
        if n <= 0:
            return LaurentSeries.zero(p)
        # (a/da) / (b/db) = (a/b) * db / da
        nums, den = _divide(self._nums[:n], other._nums[:n], n)
        db = other._den
        if db != 1:
            nums = [y * db for y in nums]
        return _canonical(o, nums, den * self._den, p)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def times_ratio(self, num, den):
        """self * num / den for an exact den, in one integer pass.

        One _multiply and one _divide on the raw product, with no
        canonical form in between; the precision is the composition of
        the two rules (module docstring), and an exact self and num with
        a divisor that is not a monomial raise as __truediv__ does.
        """
        if den._precision != math.inf:
            raise ValueError('times_ratio needs an exact divisor')
        product = _Shape(self._order + num._order, _mul_precision(self, num))
        p = _div_precision(product, den)
        if not self._nums or not num._nums:
            return LaurentSeries.zero(p)
        o = product._order - den._order
        n = _quotient_terms(p, o, den, len(self._nums) + len(num._nums) - 1)
        if n <= 0:
            return LaurentSeries.zero(p)
        a, b = self._nums[:n], num._nums[:n]
        prod = _multiply(a, b, min(len(a) + len(b) - 1, n))
        nums, d = _divide(prod, den._nums[:n], n)
        db = den._den
        if db != 1:
            nums = [y * db for y in nums]
        return _canonical(o, nums, d * self._den * num._den, p)

    def __pow__(self, n):
        return _power(self, n, LaurentSeries.one())

    def shift(self, k):
        """Multiply by q**k."""
        if not self._nums:
            return LaurentSeries.zero(self._precision + k)
        return LaurentSeries(self._order + k, self._nums, self._den,
                             self._precision + k)

    def scale(self, c):
        c = Fraction(c)
        if not c or not self._nums:
            return LaurentSeries.zero(self._precision)
        return _canonical(self._order,
                          [c.numerator * a for a in self._nums],
                          self._den * c.denominator, self._precision)

    def truncate(self, precision):
        """Forget coefficients at or above q**precision."""
        if precision >= self._precision:
            return self
        n = precision - self._order
        if n <= 0:
            return LaurentSeries.zero(precision)
        if n >= len(self._nums):
            return LaurentSeries(self._order, self._nums, self._den,
                                 precision)
        return _canonical(self._order, self._nums[:n], self._den, precision)

    def _support_end(self):
        if not self._nums:
            return -math.inf
        return self._order + len(self._nums)

    def to_json(self):
        return {
            'order': None if self._order == math.inf else self._order,
            'precision': (None if self._precision == math.inf
                          else self._precision),
            'coeffs': [[c.numerator, c.denominator] for c in self.coeffs],
        }

    def __str__(self):
        body = format_terms(
            ((self._order + i, c) for i, c in enumerate(self.coeffs)))
        if self._precision == math.inf:
            return body
        tail = f'O(q^{self._precision})'
        return tail if body == '0' else f'{body} + {tail}'

    def __repr__(self):
        return (f'LaurentSeries(order={self._order}, coeffs={self.coeffs},'
                f' precision={self._precision})')


def _mul_precision(x, y):
    return min(x._precision + y._eff_order(), y._precision + x._eff_order())


def _div_precision(x, y):
    o = y._eff_order()
    if o == y._precision:   # y has no known coefficient
        if o == math.inf:
            raise ZeroDivisionError('division by exact zero series')
        raise InsufficientPrecisionError(
            f'divisor has no known nonzero coefficient below q^{o}')
    return min(x._precision - o, y._precision - 2 * o + x._eff_order())


def _quotient_terms(p, o, divisor, exact_terms):
    # an exact quotient keeps exact_terms, which needs a monomial divisor
    if p != math.inf:
        return p - o
    if len(divisor._nums) > 1:
        raise InsufficientPrecisionError(
            'division of exact series would need infinitely many terms; '
            'truncate() an operand to a finite precision first')
    return exact_terms


def _shape_rule(rule):
    # a _Shape operator; an int or LaurentSeries operand acts as its shape
    def op(x, y):
        if not isinstance(y, _Shape):
            y = _coerce(y)
            if y is NotImplemented:
                return y
            y = _Shape(y._order, y._precision)
        return rule(x, y)
    return op


class _Shape:
    """A series known only by its order and precision: it follows the
    rules of LaurentSeries and assumes that no sum cancels."""

    __slots__ = ('_order', '_precision')
    order, precision = LaurentSeries.order, LaurentSeries.precision

    def __init__(self, order, precision):
        self._order = order if order < precision else math.inf
        self._precision = precision

    @property
    def is_zero(self):
        return self._order == math.inf

    def _eff_order(self):
        return min(self._order, self._precision)

    def __neg__(self):
        return self

    def truncate(self, precision):
        return _Shape(self._order, min(self._precision, precision))

    __add__ = __radd__ = __sub__ = __rsub__ = _shape_rule(
        lambda x, y: _Shape(min(x._order, y._order),
                            min(x._precision, y._precision)))
    __mul__ = __rmul__ = _shape_rule(
        lambda x, y: _Shape(x._order + y._order, _mul_precision(x, y)))
    __truediv__ = _shape_rule(
        lambda x, y: _Shape(x._order - y._order, _div_precision(x, y)))
    __rtruediv__ = _shape_rule(lambda x, y: y / x)


def _coerce(x):
    if isinstance(x, LaurentSeries):
        return x
    if isinstance(x, (int, Fraction)):
        if x == 0:
            return LaurentSeries.zero()
        return LaurentSeries(0, (x.numerator,), x.denominator, math.inf)
    if isinstance(x, IntPolynomial):
        return LaurentSeries.from_polynomial(x)
    return NotImplemented


def series(order, coeffs, precision=math.inf):
    """Normalize into a LaurentSeries, stripping zero fringes."""
    values = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
    den = math.lcm(*[c.denominator for c in values])
    s = _canonical(order,
                   [c.numerator * (den // c.denominator) for c in values],
                   den, precision)
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
    nums, den = _divide(rf.num.coeffs, rf.den.coeffs, n)
    return _canonical(rf.e, nums, den, precision)


def _canonical(order, nums, den, precision):
    """The canonical series sum_i nums[i] q^(order + i) / den.

    nums is a sequence of ints and den a nonzero int: strip the zero
    fringes, make den positive and divide out gcd(den, *nums).
    """
    lo, hi = 0, len(nums)
    while lo < hi and not nums[lo]:
        lo += 1
    while hi > lo and not nums[hi - 1]:
        hi -= 1
    if lo == hi:
        return LaurentSeries.zero(precision)
    nums = tuple(nums[lo:hi])
    if den != 1:
        if den < 0:
            nums, den = tuple([-c for c in nums]), -den
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = tuple([c // g for c in nums]), den // g
    return LaurentSeries(order + lo, nums, den, precision)


def _multiply(a, b, n):
    """The first n coefficients of a * b, for int sequences a and b.

    With nnz(a) nnz(b) >= KRONECKER_SIZE nonzero terms and more than one
    in each, one Kronecker product whose low n balanced digits are read
    back (module docstring); otherwise a convolution that skips the zero
    coefficients of both.
    """
    nnz_a, nnz_b = len(a) - a.count(0), len(b) - b.count(0)
    if nnz_a > 1 and nnz_b > 1 and nnz_a * nnz_b >= KRONECKER_SIZE:
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        k = bound.bit_length() + 1
        out = _unpack(_low_digits(_pack(a, k) * _pack(b, k), k, n), k)
        return out + [0] * (n - len(out))
    acc = [0] * n
    nonzero_b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero_b:
                k = i + j
                if k >= n:
                    break
                acc[k] += x * y
    return acc


def _divide(a, b, n):
    """The first n coefficients of a / b as (nums, den), n >= 1.

    a and b are int sequences with b[0] != 0, and the k-th quotient
    coefficient is nums[k] / den.  With b0 = b[0], the quotient of the
    integer sequences has coefficients y_k / b0^(k+1), where

        y_k = a_k b0^k - sum_{j>=1} b_j b0^(j-1) y_(k-j),

    so the recurrence stays in int whatever the lead b0 is, and den is
    b0^n.  The powers of b0 are carried only when a later divisor term
    below q^n feeds the recurrence; otherwise den is b0.
    """
    lead = b[0]
    tail = [(j, c) for j, c in enumerate(b[:n]) if j and c]
    carry = lead if tail else 1
    tail = [(j, c * carry ** (j - 1)) for j, c in tail]
    ys = []
    power = 1
    la = len(a)
    for k in range(n):
        s = a[k] * power if k < la else 0
        for j, c in tail:
            if j > k:
                break
            y = ys[k - j]
            if y:
                s -= c * y
        ys.append(s)
        power *= carry
    if carry == 1:
        return ys, lead
    # y_k / (b0 b0^k) = y_k b0^(n-1-k) / b0^n
    scale = 1
    for k in range(n - 1, -1, -1):
        ys[k] *= scale
        scale *= carry
    return ys, lead * scale // carry
