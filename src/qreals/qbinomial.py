"""q-binomial coefficients with arbitrary rational or real upper index.

The generalization keeps the falling-factorial shape

    binom(r, k)_q = [r]_q [r-1]_q ... [r-k+1]_q / [k]_q!

whose factors are deformed rationals, so the result is a rational
function of q for rational r and a Laurent series for irrational r.
binom(r, k) is zero for k < 0 by convention, which the Pascal-style
recurrences rely on.

As series, the binomials of any upper index come from one run of short
factors.  The shift law [x + t]_q = [t]_q + q^t [x]_q holds for every
real x (Morier-Genoud and Ovsienko, "q-deformed rationals and
q-continued fractions", Forum Math. Sigma 8, 2020), so with D = 1 for
irrational x and [x]_q = q^e N / D for rational x,

    (1 - q) D [x + t]_q = (1 - q^t) D + q^t (1 - q) D [x]_q

for every integer t.  For rational x that is a Laurent polynomial with
about deg N + deg D terms, and for irrational x it needs one series for
[x]_q, read once.  One step of binom(x, k) -> binom(x, k+1) multiplies
by the numerator at t = -k and divides by D and by 1 - q^(k+1): O(N
(deg N + deg D)) for N known coefficients, and no exact rational
function or gcd is formed.
"""

import itertools
import math
from fractions import Fraction

from .errors import DomainError, InsufficientPrecisionError
from .polynomial import IntPolynomial
from .qcore import (DEFAULT_PRECISION, _as_rational, _factor_order,
                    _floor_and_order, q_rational, q_real_series)
from .ratfun import QRationalFunction
from .series import LaurentSeries

_ONE_MINUS_Q = LaurentSeries.from_polynomial(IntPolynomial((1, -1)))


def q_factorial(n):
    """[n]_q! as a polynomial (wrapped as a rational function)."""
    return QRationalFunction.from_polynomial(q_factorial_poly(n))


def q_factorial_poly(n):
    if n < 0:
        raise DomainError(f'factorial of negative integer {n}')
    out = IntPolynomial.one()
    for j in range(2, n + 1):
        out = out * IntPolynomial((1,) * j)
    return out


def q_pochhammer(x, n, inverse_base=False):
    """Finite Pochhammer product (x; q)_n = (1-x)(1-qx)...(1-q^(n-1)x).

    With inverse_base=True the base is 1/q, giving (x; 1/q)_n.
    x may be an integer, a polynomial, or a rational function of q.
    """
    if n < 0:
        raise DomainError(f'Pochhammer length must be nonnegative, got {n}')
    if not isinstance(x, QRationalFunction):
        x = QRationalFunction.from_polynomial(x) if isinstance(
            x, IntPolynomial) else QRationalFunction.from_integer(x)
    out = QRationalFunction.one()
    for i in range(n):
        e = -i if inverse_base else i
        out = out * (1 - QRationalFunction.q_power(e) * x)
    return out


def q_binomial(r, k):
    """binom(r, k)_q for rational r and integer k, exact."""
    if k < 0:
        return QRationalFunction.zero()
    r = Fraction(r)
    num = QRationalFunction.one()
    for j in range(k):
        num = num * q_rational(r - j)
        if num.is_zero:
            return num
    return num / q_factorial(k)


def shift_numerator(value, precision=None, **kwargs):
    """The numerators of the shift law for [x + t]_q.

    Returns (D, f) with [x + t]_q = f(t) / ((1 - q) D) for every integer
    t, where f(t) = (1 - q^t) D + q^t (1 - q) D [x]_q.  For rational
    x, with [x]_q = q^e N / D, D and f(t) are exact.  For irrational x, D
    is 1 and [x]_q is read once, to `precision` (kwargs go to
    q_real_series), so f(t) is known below q^(precision + t).
    """
    r = _as_rational(value)
    if r is None:
        den = LaurentSeries.one()
        top = _ONE_MINUS_Q * q_real_series(value, precision, **kwargs)
    else:
        rf = q_rational(r)
        den = LaurentSeries.from_polynomial(rf.den)
        top = LaurentSeries.from_polynomial(
            rf.num * IntPolynomial((1, -1))).shift(rf.e)
    return den, lambda t: den - den.shift(t) + top.shift(t)


def binomial_run(value, shifts, precision, sign=-1, **kwargs):
    """Binomials of a rational or real x, each to be placed at q^shifts[k].

    With sign -1 these are binom(x, k)_q, with sign +1 binom(x+k-1, k)_q,
    for k < len(shifts).  Each is known at least to precision - shifts[k]
    (a shift of math.inf asks for nothing: that binomial is only a step
    towards later ones).  A vanishing binomial is the exact zero series;
    once no remaining binomial shows below q^precision the run stops, and
    the rest are zero series known to their orders.

    Step k multiplies by [x + sign k]_q / [k+1]_q as f(sign k) / D /
    (1 - q^(k+1)) (shift_numerator), and the orders of these factors come
    from the floor of x and the order of its fractional part.  A binomial
    known to w beyond its order keeps that w through an exact factor, and
    w is cut before every step to what the remaining binomials need.  For
    irrational x, f(t) is known to P + t - ord [x + t]_q beyond its order
    when [x]_q is read to P, and a product keeps the smaller of its
    factors' (series.py: mul is min(p1 + ord2, p2 + ord1)), so [x]_q is
    read once, to the largest w + ord [x + t]_q - t of the steps taken.
    A binomial that still falls short raises InsufficientPrecisionError;
    with the exact orders of rationals and periodic continued fractions
    none does.
    """
    n, b = _floor_and_order(value, **kwargs)
    steps = [_factor_order(n, b, sign * k) for k in range(len(shifts) - 1)]
    orders = list(itertools.accumulate(steps, initial=0))
    lows = [o + s for o, s in zip(orders, shifts)]
    works = [max(0, precision - min(lows[k:])) for k in range(len(lows))]
    if not works:
        return []
    taken = next((k for k in range(len(steps)) if not works[k + 1]),
                 len(steps))
    run = LaurentSeries.one().truncate(works[0])
    out = [run]
    if taken:
        den, numerator = shift_numerator(
            value, max(works[k + 1] + steps[k] - sign * k
                       for k in range(taken)), **kwargs)
    for k in range(taken):
        run = run.truncate(run.precision - works[k] + works[k + 1])
        run = (run * numerator(sign * k) / den
               / (1 - LaurentSeries.q_power(k + 1)))
        if run.precision < precision - shifts[k + 1]:
            raise InsufficientPrecisionError(
                f'binomial {k + 1} of {value} reached precision '
                f'{run.precision}, not {precision - shifts[k + 1]}')
        out.append(run)
    return out + [LaurentSeries.zero(o) for o in orders[len(out):]]


def binomial_order(value, k):
    """q-adic order of binom(value, k)_q, the sum of its factors' orders.

    Returns math.inf when the coefficient vanishes (integer value with
    0 <= value < k).  Used to drive series truncation, so it must be
    exact: it is for rationals and periodic continued fractions.
    """
    if k < 0:
        return math.inf
    n, b = _floor_and_order(value)
    return sum(_factor_order(n, b, -j) for j in range(k))


def q_binomial_series(value, k, precision=DEFAULT_PRECISION, **kwargs):
    """binom(value, k)_q as a Laurent series, for real or rational value.

    The last binomial of one binomial_run, so an irrational upper index
    reads its deformation once, whatever k is.
    """
    if k < 0:
        return LaurentSeries.zero()
    if k == 0:
        return LaurentSeries.one()
    run = binomial_run(value, [math.inf] * k + [0], precision, **kwargs)
    return run[-1].truncate(precision)
