"""A Gamma function for the deformed rationals.

Two identities carry every value here.  The q-binomial theorem at
x = -q turns the binomial series into the Pochhammer product at q:

    sum_k (-1)^k q^(k(k+1)/2) binom(a, k)_q
        = prod_(j>=1) (1 - q^j) / (1 - q^j {a}_q),

and the Gamma function is that product times the classical power
series for (1-q)^(1-a):

    gamma(a) = P(a - 1) (1 - q)^(1 - a),

with P the Pochhammer product (Morier-Genoud and Ovsienko, Forum Math.
Sigma 8, 2020; Gasper and Rahman, Basic Hypergeometric Series, ch. 1).
gamma(1) = 1, gamma(a + 1) = [a]_q gamma(a), and the nonpositive
integers are poles.

Both come from one walk.  For a >= 0 the sum on the left is the
alternating sum of one qbinomial.binomial_run: term k sits at q-order
k(k+1)/2 + ord binom(a, k) >= k, so the terms k <= P settle precision
P, and the run stops by itself once no later term shows.  Below 0 the
sum does not converge, and the brace law {a + m}_q = q^m {a}_q gives
the descent instead: P(a) is P(a + m), m = ceil(-a), divided by its
first m factors 1 - q^j {a}_q = (1 - q)[a + j]_q = f(j) / D, with
f(j) from qbinomial.shift_numerator and D the denominator of [a]_q,
both exact.  An exact factor moves a series' precision by exactly its
order.

The Gamma values of non-integer rationals are full Laurent series with
unbounded rational coefficients, yet the reflection product
gamma(a) gamma(1-a) and the power gamma(a/b)^b collapse to integer
coefficients; the helpers here assert that collapse and raise
IntegralityError if it ever fails, since a violation can only mean an
arithmetic bug.

Precision policy: each function returns a series known to exactly the
precision it is given, and none of them retries.  The precision after
every factor is known in closed form, so each builds once at a working
precision sized up front from the orders of the products
(_pochhammer_order) and of the Gamma values (_gamma_order, the order of
P(a - 1)).  A binomial that falls short raises
InsufficientPrecisionError.  A precision below 0 is the build at
precision 0, truncated.

Caching: every public routine is a plain function that runs its domain
check and then reads a table of the library's cache registry (_cache),
keyed on the exact argument (a Fraction) and the precision:
_gamma_table (128 entries) behind q_gamma, _reflection_table and
_power_table (64 each) behind gamma_reflection and gamma_power, and
_pochhammer_product (512) behind pochhammer_at_q.  A Gamma value that
is not in its table reads P(a - 1) through pochhammer_at_q, so the
products, the binomial sums for a >= 0 among them, are built once
whichever route asks for them.  _cache.info() reports every table and
_cache.clear() empties them all.  An identity suite asks for few
distinct keys over and over, and a LaurentSeries is immutable, so an
entry is safely shared.  Errors are not cached: the domain check runs
on every call, before the table.  The public names stay plain
functions, so wrappers that look for functions, such as the
benchmark's tracer, still see every call.
"""

import math
from fractions import Fraction

from . import _cache
from .errors import DomainError, InsufficientPrecisionError, IntegralityError
from .qcore import (DEFAULT_PRECISION, _factor_order, _floor_and_order,
                    q_rational)
from .qbinomial import binomial_order, binomial_run, shift_numerator
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
    sum does not converge coefficientwise and the descent is used
    instead.
    """
    a = Fraction(value) - 1
    orders = tuple(k * (k + 1) // 2 + binomial_order(a, k)
                   for k in range(count))
    return a >= 0, orders


def _kernel_series(a, precision):
    # sum_k (-1)^k q^(k(k+1)/2) binom(a, k)_q for a >= 0, the terms
    # k <= precision of one binomial run (module docstring)
    shifts = [k * (k + 1) // 2 for k in range(precision + 1)]
    terms = binomial_run(a, shifts, precision)
    return sum((-t if k % 2 else t).shift(s)
               for k, (s, t) in enumerate(zip(shifts, terms))) \
        .truncate(precision)


def q_gamma(value, precision=DEFAULT_PRECISION):
    """The deformed Gamma of a rational argument, as a Laurent series.

    gamma(1) = 1, gamma(a+1) = [a]_q gamma(a), and gamma(n+1) = [n]_q!
    for nonnegative integers n.  Nonpositive integers are poles.
    """
    r = Fraction(value)
    if r.denominator == 1 and r <= 0:
        raise DomainError(f'gamma has a pole at the nonpositive integer {r}')
    return _gamma_table(r, max(precision, 0)).truncate(precision)


# Bounded above what the workloads keep: the first 13 000
# identity-series cases of seed 13 ask for 85 distinct (r, precision)
# keys.
@_cache.table(128)
def _gamma_table(r, precision):
    # gamma(r) = P(r - 1) (1 - q)^(1 - r); the power series has order 0,
    # so it is needed beyond precision by the product's negative order
    pad = max(0, -_gamma_order(r))
    return (pochhammer_at_q(r - 1, precision)
            * scalar_binomial_series(r, precision + pad)).truncate(precision)


def pochhammer_at_q(value, precision=DEFAULT_PRECISION):
    """The infinite Pochhammer product evaluated at x = q.

    Expands prod_{j>=1} (1 - q^j) / (1 - q^j {value}_q) to the given
    precision: for value >= 0 as the q-binomial series at x = -q, below
    0 by the descent of the module docstring.  For nonnegative integers
    the product telescopes to (1-q)(1-q^2)...; negative integers make a
    denominator factor vanish identically.
    """
    r = Fraction(value)
    if r.denominator == 1 and r < 0:
        raise DomainError(
            f'Pochhammer product at q diverges for negative integer {r}')
    return _pochhammer_product(r, max(precision, 0)).truncate(precision)


# Bounded well above what the workloads keep: the first 13 000
# identity-series cases of seed 13 ask for 109 distinct (r, precision)
# keys, the products behind the Gamma values among them.
@_cache.table(512)
def _pochhammer_product(r, precision):
    if r >= 0:
        return _kernel_series(r, precision)
    # P(r) = P(r + m) / prod_(j<=m) f(j)/D, whose divisors have order
    # -_pochhammer_order(r) together
    m = math.ceil(-r)
    out = _pochhammer_product(
        r + m, precision + max(0, -_pochhammer_order(r)))
    _, numerator = shift_numerator(r)
    den = LaurentSeries.from_polynomial(q_rational(r).den)
    for j in range(1, m + 1):
        out = out.times_ratio(den, numerator(j))
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
    return _reflection_table(r, max(precision, 0)).truncate(precision)


# The first 13 000 identity-series cases of seed 13 ask for 13 distinct
# (r, precision) keys.
@_cache.table(64)
def _reflection_table(r, precision):
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
    return _power_table(r, b, max(precision, 0)).truncate(precision)


# The first 13 000 identity-series cases of seed 13 ask for 15 distinct
# (r, b, precision) keys.
@_cache.table(64)
def _power_table(r, b, precision):
    # a b-th power of a series with order o known to precision p is
    # known to p + (b - 1) o
    pad = (b - 1) * max(0, -_gamma_order(r))
    out = q_gamma(r, precision + pad) ** b
    return _integer_result(out, precision, f'gamma({r * b}/{b})^{b}')


def _pochhammer_order(r):
    # pochhammer_at_q is prod_{j>=1} [j]_q / [r + j]_q, and [r + j]_q has
    # order 0 once r + j >= 1, that is once j > -floor(r)
    n, b = _floor_and_order(r)
    return -sum(_factor_order(n, b, j) for j in range(1, 1 - n))


def _gamma_order(r):
    # gamma(r) = P(r - 1) (1 - q)^(1 - r), and the power series has
    # order 0
    return _pochhammer_order(r - 1)


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
