"""Power series in x over Laurent series in q.

The main clients are the two q-deformed binomial series.  With braces
{a}_q = 1 + (q-1)[a]_q, the deformation of (1+x)^a is

    sum_k q^(k(k-1)/2) binom(a, k)_q x^k
        = (1 + x)(1 + qx)(1 + q^2 x)... / (1 + {a}x)(1 + {a+1}x)...

and the deformation of 1/(1-x)^a is

    sum_k binom(a+k-1, k)_q x^k
        = (1 - {a}x)(1 - {a+1}x)... / (1 - x)(1 - qx)(1 - q^2 x)...

Both hold coefficientwise in x as identities of Laurent series, for any
real a, and both specialize at q = 1 to the classical binomial series.

An XSeries keeps a fixed number of x-coefficients (math.inf for exact
polynomials in x, where every higher coefficient is known to vanish)
and one shared q-precision; all arithmetic tracks what remains known.

How they are built.  The product routes keep the brace as a formal
variable y: since {a+j}_q = q^j {a}_q, every factor is 1 + s q^j x or
1 + s q^j y x, and multiplying or dividing by it shifts and adds the
x^k y^m coefficients, integer power series in q, in O(N) each.  The
product is then a polynomial in y of degree xdeg per power of x, and
{a}_q is substituted once at the end through its first xdeg powers; one
code path serves rational and irrational braces.  The sum routes
advance binom(a, k) -> binom(a, k+1) (or binom(a+k-1, k) ->
binom(a+k, k+1)) by the short factors of qbinomial.binomial_run, one
run for every a: exact for rational a, and built from one series for
[a]_q for irrational a.

Precision policy: the series and product builders return exactly the
q-precision they are given, sized up front.  With d = max(0, -ord {a}_q),
the product routes need the x^k y^m coefficient to precision + m d, and
the brace to precision + (xdeg - 1) d, since its m-th power loses
(m - 1) d; d comes from floor(a), so the brace is expanded once.  The
sum routes get one binomial_run, sized from the closed-form orders of
the binomials' factors, which for irrational a also size its single
read of [a]_q; binomials that vanish (integer a) stay exact zeros.  A
result that still falls short raises InsufficientPrecisionError;
nothing is retried.
"""

import math
import operator
from fractions import Fraction

from . import _cache
from .errors import DomainError, InsufficientPrecisionError
from .polynomial import IntPolynomial
from .qbinomial import binomial_run, q_binomial
from .qcore import (DEFAULT_PRECISION, _as_rational, _floor_and_order,
                    q_brace_series)
from .ratfun import QRationalFunction
from .series import LaurentSeries, _coerce, _Shape, series


def _coerce_coeff(c):
    s = c if isinstance(c, _Shape) else _coerce(c)
    if s is NotImplemented:
        raise TypeError(f'cannot use {type(c).__name__} as a coefficient')
    return s


class XSeries:
    """Truncated power series in x with Laurent series coefficients, or
    with series._Shape ones, on which it predicts what series would keep."""

    __slots__ = ('_coeffs', '_xlength', '_precision')

    def __init__(self, coeffs, xlength, precision):
        self._coeffs = coeffs
        self._xlength = xlength
        self._precision = precision

    @property
    def xlength(self):
        """Number of known x-coefficients (math.inf when exact in x)."""
        return self._xlength

    @property
    def precision(self):
        """Shared q-precision of the coefficients."""
        return self._precision

    @classmethod
    def one(cls):
        return cls((LaurentSeries.one(),), math.inf, math.inf)

    @property
    def is_zero(self):
        return self._xlength == math.inf and not self._coeffs

    def coefficient(self, j):
        if j < 0:
            raise IndexError(f'negative x-exponent {j}')
        if j >= self._xlength:
            raise InsufficientPrecisionError(
                f'coefficient of x^{j} is not known (length {self._xlength})')
        if j >= len(self._coeffs):
            return LaurentSeries.zero(math.inf)
        return self._coeffs[j]

    def coefficients(self, count=None):
        if count is None:
            count = len(self._coeffs)
        return tuple([self.coefficient(j) for j in range(count)])

    def _known_valuation(self):
        # exactly-zero x-prefix; a coefficient that merely has no known
        # terms may still hide content below its precision
        for j, c in enumerate(self._coeffs):
            if not (c.is_zero and c.precision == math.inf):
                return j
        return self._xlength

    def __eq__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        return (self._xlength == other._xlength
                and self._precision == other._precision
                and self._coeffs == other._coeffs)

    def __hash__(self):
        return hash((self._coeffs, self._xlength, self._precision))

    def agrees_with(self, other, xbelow, qbelow=None):
        """Coefficientwise agreement below x^xbelow (and q^qbelow)."""
        if xbelow > min(self._xlength, other._xlength):
            raise InsufficientPrecisionError(
                f'cannot compare through x^{xbelow - 1}')
        if qbelow is None:
            qbelow = min(self._precision, other._precision)
        return all(self.coefficient(j).agrees_with(other.coefficient(j),
                                                   qbelow)
                   for j in range(xbelow))

    def __add__(self, other):
        other = _coerce_operand(other)
        if other is None:
            return NotImplemented
        length = min(self._xlength, other._xlength)
        if length == math.inf:
            n = max(len(self._coeffs), len(other._coeffs))
        else:
            n = length
        coeffs = tuple([self.coefficient(j) + other.coefficient(j)
                        for j in range(n)])
        return _normalize(coeffs, length)

    __radd__ = __add__

    def __neg__(self):
        return XSeries(tuple([-c for c in self._coeffs]), self._xlength,
                       self._precision)

    def __sub__(self, other):
        other = _coerce_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_operand(other)
        if other is None:
            return NotImplemented
        v1, v2 = self._known_valuation(), other._known_valuation()
        length = min(self._xlength + v2, other._xlength + v1)
        if length == math.inf:
            if self.is_zero or other.is_zero:
                return XSeries((), math.inf, math.inf)
            n = len(self._coeffs) + len(other._coeffs) - 1
        else:
            n = length
        coeffs = []
        for k in range(n):
            acc = None
            lo = max(v1, k - (len(other._coeffs) - 1)) if other._coeffs else 0
            hi = min(k - v2, len(self._coeffs) - 1)
            for j in range(lo, hi + 1):
                term = self._coeffs[j] * other._coeffs[k - j]
                acc = term if acc is None else acc + term
            if acc is None:
                acc = LaurentSeries.zero(math.inf)
            coeffs.append(acc)
        return _normalize(tuple(coeffs), length)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_operand(other)
        if other is None:
            return NotImplemented
        if not other._coeffs:
            raise ZeroDivisionError('division by the zero series')
        if other._xlength == math.inf and len(other._coeffs) == 1:
            scalar = other._coeffs[0]
            return _normalize(tuple([c / scalar for c in self._coeffs]),
                              self._xlength)
        length = min(self._xlength, other._xlength)
        if length == math.inf:
            raise InsufficientPrecisionError(
                'division of exact series may not terminate; '
                'truncate in x first')
        lead = other._coeffs[0]
        out = []
        for k in range(length):
            acc = self.coefficient(k)
            for j in range(1, min(k, len(other._coeffs) - 1) + 1):
                acc = acc - other._coeffs[j] * out[k - j]
            out.append(acc / lead)
        return _normalize(tuple(out), length)

    def substitute_x(self, c):
        """Substitute x -> c*x for a scalar c (a series in q)."""
        c = _coerce_coeff(c)
        coeffs = []
        power = LaurentSeries.one()
        for a in self._coeffs:
            coeffs.append(a * power)
            power = power * c
        return _normalize(tuple(coeffs), self._xlength)

    def truncate_x(self, n):
        if n == self._xlength:
            return self
        if n > self._xlength:
            raise InsufficientPrecisionError(
                f'only {self._xlength} x-coefficients are known')
        if self._xlength == math.inf:
            pad = (LaurentSeries.zero(math.inf),) * (n - len(self._coeffs))
            return _normalize((self._coeffs + pad)[:n], n)
        return _normalize(self._coeffs[:n], n)

    def truncate_q(self, precision):
        if precision >= self._precision:
            return self
        return _normalize(self._coeffs, self._xlength, precision)

    def to_json(self):
        return {
            'xlength': None if self._xlength == math.inf else self._xlength,
            'precision': None if self._precision == math.inf
                         else self._precision,
            'coefficients': [c.to_json() for c in self._coeffs],
        }

    def __str__(self):
        lines = [f'[x^{j}]  {c}' for j, c in enumerate(self._coeffs)]
        if self._xlength != math.inf:
            lines.append(f'+ O(x^{self._xlength})')
        elif not self._coeffs:
            lines.append('0')
        return '\n'.join(lines)

    def __repr__(self):
        return (f'XSeries(xlength={self._xlength}, '
                f'precision={self._precision}, terms={len(self._coeffs)})')


def _normalize(coeffs, xlength, precision=None):
    if xlength == math.inf:
        while coeffs and coeffs[-1].is_zero \
                and coeffs[-1].precision == math.inf:
            coeffs = coeffs[:-1]
    if precision is None:
        precision = math.inf
        for c in coeffs:
            precision = min(precision, c.precision)

    def align(c):
        if c.precision <= precision:
            return c
        if c.is_zero and c.precision == math.inf:
            return c  # exact zeros stay exact
        return c.truncate(precision)

    return XSeries(tuple([align(c) for c in coeffs]), xlength, precision)


def _coerce_operand(other):
    if isinstance(other, XSeries):
        return other
    try:
        c = _coerce_coeff(other)
    except TypeError:
        return None
    if c.is_zero and c.precision == math.inf:
        return XSeries((), math.inf, math.inf)
    return XSeries((c,), math.inf, c.precision)


def xseries(coeffs, xlength=None):
    """Build an XSeries from explicit coefficients.

    With xlength=None the series is exact in x (a polynomial whose
    higher coefficients are known to vanish); pass the known length
    explicitly for a truncated series.
    """
    coeffs = tuple([_coerce_coeff(c) for c in coeffs])
    if xlength is None:
        xlength = math.inf
    elif xlength < len(coeffs):
        raise ValueError('more coefficients than the known length')
    else:
        coeffs = coeffs + (LaurentSeries.zero(math.inf),) * (
            xlength - len(coeffs))
    return _normalize(coeffs, xlength)


def binomial_coefficients(r, count):
    """Exact x-coefficients of the deformed (1+x)^r, for rational r.

    The k-th coefficient is q^(k(k-1)/2) binom(r, k)_q.
    """
    r = Fraction(r)
    return tuple([QRationalFunction.q_power(k * (k - 1) // 2)
                  * q_binomial(r, k) for k in range(count)])


def negative_binomial_coefficients(r, count):
    """Exact x-coefficients of the deformed 1/(1-x)^r: binom(r+k-1, k)_q."""
    r = Fraction(r)
    return tuple([q_binomial(r + k - 1, k) for k in range(count)])


def _binomial_sum(value, xdeg, precision, sign, weight):
    if xdeg < 0:
        raise DomainError(f'x-degree must be nonnegative, got {xdeg}')
    shifts = [weight(k) for k in range(xdeg + 1)]
    run = binomial_run(value, shifts, precision, sign)
    return _normalize(tuple([c.shift(w) for c, w in zip(run, shifts)]),
                      xdeg + 1, precision)


def binomial_series(value, xdeg=8, precision=DEFAULT_PRECISION):
    """Deformation of (1+x)^value as a sum over binomials.

    The x^k coefficient is q^(k(k-1)/2) binom(value, k)_q; value may be
    a rational or any real specification accepted by q_real_series.
    """
    return _binomial_sum(value, xdeg, precision, -1,
                         lambda k: k * (k - 1) // 2)


def negative_binomial_series(value, xdeg=8, precision=DEFAULT_PRECISION):
    """Deformation of 1/(1-x)^value; x^k coefficient binom(value+k-1, k)_q."""
    return _binomial_sum(value, xdeg, precision, 1, lambda k: 0)


def _product_form(value, xdeg, precision, sign, braces_on_top):
    if xdeg < 0:
        raise DomainError(f'x-degree must be nonnegative, got {xdeg}')
    r = _as_rational(value)
    if r is None:
        # a real spec: no value to key on, so expanded every call
        return _product_table.__wrapped__(value, xdeg, precision, sign,
                                          braces_on_top)
    return _product_table(r, xdeg, precision, sign, braces_on_top)


# The identity suite's product routes repeat few keys: the first 13 000
# identity-series cases of seed 13 make 1 734 calls with 46 distinct keys
# (Fraction, xdeg, precision, sign, braces_on_top), about 0.2 MB kept.
# The cases cycle through their blocks, so an LRU needs the whole working
# set: 40% hits at 16 entries, 97% at 64.  An XSeries is immutable, so
# callers share an entry safely.
@_cache.table(64)
def _product_table(value, xdeg, precision, sign, braces_on_top):
    # d = -ord {a}_q sizes the brace's working precision, since its m-th
    # power loses (m - 1) d; ord {a}_q = floor(a), as {a + n}_q =
    # q^n {a}_q and {f}_q = 1 + O(q) for 0 <= f < 1.  Known to less than
    # q^0, an unknown brace would lose to each power what it lacks
    d = max(0, -_floor_and_order(value)[0])
    brace = q_brace_series(value, max(precision + max(0, xdeg - 1) * d, 0))
    out = _expand_product(brace, xdeg, precision, sign, braces_on_top)
    if out.precision < precision:
        raise InsufficientPrecisionError(
            f'product for {value} reached precision {out.precision}, '
            f'not {precision}')
    return out.truncate_q(precision)


def _expand_product(brace, xdeg, work, sign, braces_on_top):
    # Write y for the brace, so that {a + j} = q^j y.  The x^k y^m
    # coefficient c[k][m] of the product in y is an integer power series
    # in q, and multiplying or dividing by a factor 1 + s q^j x or
    # 1 + s q^j y x adds q^j times c[k-1][m] or c[k-1][m-1] into c[k][m].
    # y = brace is substituted at the end, where y^m has order -m d, so
    # c[k][m] is needed to work + m d.  While factors with j < d remain,
    # they can still carry a coefficient up one power of y for q^j, less
    # than the d that power costs, hence the extra (xdeg - k)(d - j).
    d = max(0, -brace.order)
    # at least c[0][0]'s 1; a coefficient needed to cap <= 0 is unknown
    top = max(work + xdeg * d, 1)
    c = [[[0] * top for m in range(k + 1)] for k in range(xdeg + 1)]
    c[0][0][0] = 1
    grow, shrink = (operator.add, operator.sub) if sign > 0 \
        else (operator.sub, operator.add)
    for j in range(top):
        lag = max(0, d - j)
        for dm, divide in ((0, braces_on_top), (1, not braces_on_top)):
            # multiply in place from the top x-degree down, divide from
            # the bottom up so each step sees the updated lower degree
            op = shrink if divide else grow
            for k in (range(1, xdeg + 1) if divide
                      else range(xdeg, 0, -1)):
                for m in range(dm, k + dm):
                    cap = work + m * d + (xdeg - k) * lag
                    if j < cap:
                        src, dst = c[k - 1][m - dm], c[k][m]
                        dst[j:cap] = map(op, dst[j:cap], src[:cap - j])
    powers = [LaurentSeries.one()]
    for m in range(xdeg):
        powers.append(powers[-1] * brace)
    coeffs = []
    for k in range(xdeg + 1):
        acc = LaurentSeries.zero()
        for m in range(k + 1):
            cap = work + m * d
            acc = acc + series(0, c[k][m][:max(cap, 0)], cap) * powers[m]
        coeffs.append(acc)
    return _normalize(tuple(coeffs), xdeg + 1)


def binomial_product(value, xdeg=8, precision=DEFAULT_PRECISION):
    """Product route to the deformed (1+x)^value:

        (1 + x)(1 + qx)(1 + q^2 x)... / (1 + {a}x)(1 + {a+1}x)...
    """
    return _product_form(value, xdeg, precision, 1, False)


def negative_binomial_product(value, xdeg=8, precision=DEFAULT_PRECISION):
    """Product route to the deformed 1/(1-x)^value:

        (1 - {a}x)(1 - {a+1}x)... / (1 - x)(1 - qx)(1 - q^2 x)...
    """
    return _product_form(value, xdeg, precision, -1, True)


def generalized_pochhammer(value, xdeg=8, precision=DEFAULT_PRECISION):
    """(x; q)_value, the Pochhammer symbol with real length:

        (1 - x)(1 - qx)... / (1 - {a}x)(1 - {a+1}x)...

    Restricts to the ordinary (x; q)_n for positive integers, and is
    the reciprocal of the deformed 1/(1-x)^value.
    """
    return _product_form(value, xdeg, precision, -1, False)


def q_derivative(f):
    """The difference quotient (f(qx) - f(x)) / ((q-1)x).

    Expanding coefficientwise, the x^j coefficient of the quotient is
    exactly [j+1]_q times the x^(j+1) coefficient of f, so the result
    loses one known x-coefficient and no q-precision.
    """
    if f.xlength == math.inf:
        n = len(f.coefficients())
        length = math.inf
    else:
        n = f.xlength
        length = max(f.xlength - 1, 0)
    coeffs = tuple([f.coefficient(j) * IntPolynomial((1,) * j)
                    for j in range(1, n)])
    return _normalize(coeffs, length)

