"""A Gamma function for the deformed rationals.

For arguments >= 1 the definition is the product of two pieces: the
alternating kernel

    sum_k (-1)^k q^(k(k+1)/2) binom(a - 1, k)_q

(the binomial series evaluated at x = -q, regrouped by q-order) and the
classical power series for (1-q)^(1-a).  Each kernel term sits at q-order
k(k+1)/2 + ord(binom(a-1, k)), which grows strictly once k passes
floor(a-1), so finitely many terms settle any finite precision.
Arguments below 1 are reached through gamma(a) = gamma(a+1) / [a]_q,
which leaves poles at the nonpositive integers: gamma(a + m) on [1, 2)
divided by the exact factors [a + j]_q, j < m, of the shift law.

The Gamma values of non-integer rationals are full Laurent series with
unbounded rational coefficients, yet the reflection product
gamma(a) gamma(1-a) and the power gamma(a/b)^b collapse to integer
coefficients; the helpers here assert that collapse and raise
IntegralityError if it ever fails, since a violation can only mean an
arithmetic bug.

Every factor the kernel, the descent below 1 and the Pochhammer product
apply is exact, and all come from the brace law {a + j}_q = q^j {a}_q
through the shift-law numerators of qbinomial.shift_numerator:
(1 - q) D [a + t]_q = f(t) and (1 - q) D [s]_q = g(s), so a ratio of
deformed factors is one LaurentSeries.times_ratio by f / g.  The kernel
is the Horner nest H_k = 1 - q^(k+1) H_(k+1) f(-k) / g(k + 1) of its
binomial factors [a - k]_q / [k + 1]_q, from the last term down to
H_0, the sum; the descent divides by [a + j]_q as g(1) / f(j); and
the Pochhammer factor 1 - q^j {a}_q, which is (1 - q)[a + j]_q, enters
as g(j) / f(j).  An exact factor moves a series' precision by exactly
its order.

Precision policy: each function returns a series known to exactly the
precision it is given, and none of them retries.  The precision after
every factor is known in closed form, so each builds once at a working
precision sized up front: the kernel nest from its terms' orders, the
Pochhammer product from its order (_pochhammer_order), gamma_reflection
and gamma_power from the Gamma orders (_gamma_order: 0 on [1, oo),
minus the orders of the [a + j]_q divided out below 1).  A result that
still falls short raises InsufficientPrecisionError.
"""

import itertools
import math
from fractions import Fraction

from .errors import DomainError, InsufficientPrecisionError, IntegralityError
from .qcore import DEFAULT_PRECISION, _factor_order, _floor_and_order
from .qbinomial import binomial_order, shift_numerator
from .series import LaurentSeries, _canonical


def scalar_binomial_series(value, precision):
    """(1-q)^(1-value) as a power series with exact rational coefficients.

    The coefficient of q^n is the classical (not deformed) binomial
    coefficient binom(value + n - 2, n), prod_{i<=n} (a + (i - 2) b)/(i b)
    for value = a/b, built as integer numerators over the common
    denominator prod_{i<N} i b for N coefficients.
    """
    r = Fraction(value)
    a, b = r.numerator, r.denominator
    count = max(precision, 0)
    nums = [1]
    for i in range(1, count):
        nums.append(nums[-1] * (a + (i - 2) * b))
    # bring nums[n] / prod_{i<=n} (i b) over the common denominator
    den = 1
    for n in range(count - 1, 0, -1):
        nums[n] *= den
        den *= n * b
    nums[0] = den
    return _canonical(0, nums[:count], den, precision)


def gamma_convergence_report(value, count=8):
    """Whether the kernel sum for gamma(value) is a genuine series.

    Returns (ok, orders) where orders[k] is the q-order of the k-th
    kernel term, k(k+1)/2 + ord(binom(value-1, k)).  For value >= 1 the
    orders increase strictly beyond floor(value - 1); below 1 they
    plateau (half-integers down to 0) or run off to -infinity, so the
    sum does not converge coefficientwise and the recursion is used
    instead.
    """
    a = Fraction(value) - 1
    orders = tuple(k * (k + 1) // 2 + binomial_order(a, k)
                   for k in range(count))
    return a >= 0, orders


def _kernel_series(a, precision):
    # sum over k < K of (-1)^k q^(k(k+1)/2) binom(a, k)_q, for a >= 0, as
    # the Horner nest H_k = 1 - q^(k+1) H_(k+1) [a - k]_q / [k + 1]_q
    # with H_(K-1) = 1 and the sum H_0.  Term k sits at order low_k =
    # k(k+1)/2 + ord binom(a, k), which grows strictly with k for a >= 0,
    # so K is the first k whose term vanishes or has low_k >= precision.
    # Nest k is needed to precision - low_k, and each exact factor moves
    # the precision by its order, low_(k+1) - low_k - (k + 1), so the
    # nest started at precision - low_(K-1) ends at precision.
    n, b = _floor_and_order(a)
    lows = [0]
    for k in itertools.count():
        o = _factor_order(n, b, -k)
        low = lows[-1] + k + 1 + o
        if o == math.inf or low >= precision:
            break
        lows.append(low)
    base, numerator = shift_numerator(a)
    nest = LaurentSeries.one().truncate(precision - lows[-1])
    for k in range(len(lows) - 2, -1, -1):
        step = nest.times_ratio(numerator(-k), base(k + 1)).shift(k + 1)
        nest = 1 - step
    if nest.precision < precision:
        raise InsufficientPrecisionError(
            f'Gamma kernel of {a} reached precision {nest.precision}, '
            f'not {precision}')
    return nest.truncate(precision)


def q_gamma(value, precision=DEFAULT_PRECISION):
    """The deformed Gamma of a rational argument, as a Laurent series.

    gamma(1) = 1, gamma(a+1) = [a]_q gamma(a), and gamma(n+1) = [n]_q!
    for nonnegative integers n.  Nonpositive integers are poles.
    """
    r = Fraction(value)
    if r.denominator == 1 and r <= 0:
        raise DomainError(f'gamma has a pole at the nonpositive integer {r}')
    if r >= 1:
        kernel = _kernel_series(r - 1, precision)
        return (kernel * scalar_binomial_series(r, precision)) \
            .truncate(precision)
    # climb to [1, 2) and divide by the skipped factors [r + j]_q =
    # f(j) / ((1 - q) D); they are exact, so only their combined q-order
    # -_gamma_order(r) is consumed from the precision
    m = math.ceil(1 - r)
    out = q_gamma(r + m, precision + max(0, -_gamma_order(r)))
    base, numerator = shift_numerator(r)
    for j in range(m):
        out = out.times_ratio(base(1), numerator(j))
    return out.truncate(precision)


def pochhammer_at_q(value, precision):
    """The infinite Pochhammer product evaluated at x = q.

    Expands prod_{j>=1} (1 - q^j) / (1 - q^j {value}_q) to the given
    precision.  Both factor families tend to 1, the denominator at rate
    j + ord({value}_q), so only finitely many factors matter.  For
    nonnegative integers the product telescopes to (1-q)(1-q^2)...;
    negative integers make a denominator factor vanish identically.
    """
    r = Fraction(value)
    if r.denominator == 1 and r < 0:
        raise DomainError(
            f'Pochhammer product at q diverges for negative integer {r}')
    # 1 - q^j {r}_q = (1 - q)[r + j]_q = f(j) / D exactly, so each factor
    # is g(j) / f(j), with g(j) = (1 - q^j) D; only the divisions move
    # the order, which ends at _pochhammer_order(r)
    base, numerator = shift_numerator(r)
    order = _pochhammer_order(r)
    work = precision - order
    if work <= 0:
        return LaurentSeries.zero(precision)
    # factor j differs from 1 at q-order min(j, j + ord {r}) on a
    # product of order `order`, so the factors from work + d on are
    # invisible; ord {r}_q = floor(r), as in the brace law
    d = max(0, -math.floor(r))
    out = LaurentSeries.one().truncate(work)
    for j in range(1, work + d):
        out = out.times_ratio(base(j), numerator(j))
    if out.precision < precision:
        raise InsufficientPrecisionError(
            f'Pochhammer product at q for {value} will not reach '
            f'precision {precision}')
    return out.truncate(precision)


def gamma_reflection(value, precision=DEFAULT_PRECISION):
    """gamma(value) gamma(1 - value), checked to have integer coefficients.

    The two factors separately have unbounded rational coefficients;
    their product collapsing to integers is the point, so any
    non-integer coefficient is reported as an error rather than
    returned.
    """
    r = Fraction(value)
    if r.denominator == 1:
        raise DomainError(
            f'reflection at integer {r} hits a pole of one factor')
    # each factor is known to precision + pad and the product keeps the
    # smaller of precision + pad + ord(other factor)
    pad = max(0, -_gamma_order(r), -_gamma_order(1 - r))
    out = q_gamma(r, precision + pad) * q_gamma(1 - r, precision + pad)
    return _integer_result(out, precision, f'reflection product at {r}')


def gamma_power(a, b, precision=DEFAULT_PRECISION):
    """gamma(a/b)^b, checked to have integer coefficients."""
    if b < 1:
        raise DomainError(f'power denominator must be positive, got {b}')
    r = Fraction(a, b)
    if r.denominator == 1 and r <= 0:
        raise DomainError(f'gamma has a pole at the nonpositive integer {r}')
    # a b-th power of a series with order o known to precision p is
    # known to p + (b - 1) o
    pad = (b - 1) * max(0, -_gamma_order(r))
    out = q_gamma(r, precision + pad) ** b
    return _integer_result(out, precision, f'gamma({a}/{b})^{b}')


def _pochhammer_order(r):
    # pochhammer_at_q is prod_{j>=1} [j]_q / [r + j]_q, and [r + j]_q has
    # order 0 once r + j >= 1, that is once j > -floor(r)
    n, b = _floor_and_order(r)
    return -sum(_factor_order(n, b, j) for j in range(1, 1 - n))


def _gamma_order(r):
    # q_gamma has order 0 on [1, oo); below 1 it divides by [r + j]_q
    # for each unit step up to 1: the Pochhammer factors and [r]_q
    return _pochhammer_order(r) - _factor_order(*_floor_and_order(r), 0)


def _integer_result(out, precision, what):
    if out.precision < precision:
        raise InsufficientPrecisionError(
            f'{what} reached precision {out.precision}, not {precision}')
    out = out.truncate(precision)
    _require_integer_coefficients(out, what)
    return out


def _require_integer_coefficients(s, what):
    if s.is_integral:
        return
    for i, c in enumerate(s.coeffs):
        if c.denominator != 1:
            raise IntegralityError(
                f'{what}: coefficient of q^{s.order + i} is {c}, '
                f'not an integer')
