"""q-binomial coefficients with arbitrary rational or real upper index.

The generalization keeps the falling-factorial shape

    binom(r, k)_q = [r]_q [r-1]_q ... [r-k+1]_q / [k]_q!

whose factors are deformed rationals, so the result is a rational
function of q for rational r and a Laurent series for irrational r.
binom(r, k) is zero for k < 0 by convention, which the Pascal-style
recurrences rely on.

As series, the binomials of a rational r come from one run of exact
short factors.  With [r]_q = q^e N / D, the shift law
[r + t]_q = [t]_q + q^t [r]_q gives, for every integer t,

    (1 - q) D [r + t]_q = (1 - q^t) D + q^t q^e (1 - q) N,

a Laurent polynomial with about deg N + deg D terms, so one step of
binom(r, k) -> binom(r, k+1) multiplies by the numerator at t = -k and
divides by D and by 1 - q^(k+1): O(N (deg N + deg D)) for N known
coefficients, and no exact rational function or gcd is formed.
"""

import math
from fractions import Fraction

from .errors import DomainError, InsufficientPrecisionError
from .polynomial import IntPolynomial
from .qcore import DEFAULT_PRECISION, q_rational, q_real_series
from .ratfun import QRationalFunction
from .series import LaurentSeries, _with_precision_pad


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


def shift_numerator(r):
    """The exact numerators of the shift law for [r + t]_q.

    Returns (D, f): D is [r]_q's denominator as an exact series and
    f(t) is the exact series (1 - q^t) D + q^t q^e (1 - q) N, so that
    [r + t]_q = f(t) / ((1 - q) D) for every integer t.
    """
    rf = q_rational(r)
    den = LaurentSeries.from_polynomial(rf.den)
    top = LaurentSeries.from_polynomial(
        rf.num * IntPolynomial((1, -1))).shift(rf.e)
    return den, lambda t: den - den.shift(t) + top.shift(t)


def binomial_run(r, shifts, precision, sign=-1):
    """Binomials of a rational r, each to be placed at q^shifts[k].

    With sign -1 these are binom(r, k)_q, with sign +1 binom(r+k-1, k)_q,
    for k < len(shifts).  Each is known at least to precision - shifts[k],
    and a vanishing binomial is the exact zero series.  Step k multiplies
    by [r + sign k]_q / [k+1]_q in exact factors, so a binomial known to
    w plus its order (binomial_order) passes that w on; w is cut to what
    the remaining binomials need before every step.
    """
    lows = [binomial_order(r + k - 1 if sign > 0 else r, k) + shift
            for k, shift in enumerate(shifts)]
    works = [max(0, precision - min(lows[k:])) for k in range(len(lows))]
    if not works:
        return []
    den, numerator = shift_numerator(r)
    run = LaurentSeries.one().truncate(works[0])
    out = [run]
    for k in range(len(works) - 1):
        run = run.truncate(run.precision - works[k] + works[k + 1])
        run = (run * numerator(sign * k) / den
               / (1 - LaurentSeries.q_power(k + 1)))
        out.append(run)
    return out


def binomial_order(r, k):
    """q-adic order of binom(r, k)_q, computed from the order of [r]_q.

    Returns math.inf when the coefficient vanishes (integer r with
    0 <= r < k).  Used to drive series truncation, so it must be exact.
    """
    if k < 0:
        return math.inf
    if k == 0:
        return 0
    r = Fraction(r)
    n = math.floor(r)
    if r.denominator == 1:
        return 0 if k <= n else (math.inf if n >= 0 else n * k - k * (k - 1) // 2)
    if k <= n:
        return 0
    if n >= 0:
        b = q_rational(r - n).order
        return b - (k - n) * (k - n - 1) // 2
    return n * k - k * (k - 1) // 2


def q_binomial_series(value, k, precision=DEFAULT_PRECISION, **kwargs):
    """binom(value, k)_q as a Laurent series, for real or rational value.

    A single stabilized series for [value]_q is reused for every factor
    [value - j]_q through the integer shift law, so irrational upper
    indices cost one stabilization run regardless of k.
    """
    if k < 0:
        return LaurentSeries.zero()
    if k == 0:
        return LaurentSeries.one()
    # negative orders of the factors erode precision in the product;
    # start with a generous pad and verify afterwards
    def build(work):
        top = q_real_series(value, work, **kwargs)
        out = top
        for j in range(1, k):
            top = (top - 1).shift(-1)  # [v - j] from [v - j + 1]
            out = out * top
        out = out / LaurentSeries.from_polynomial(
            q_factorial_poly(k)).truncate(work)
        if out.precision < precision:
            raise InsufficientPrecisionError(
                f'binomial series for {value}, k={k} will not reach '
                f'precision {precision}')
        return out.truncate(precision)
    return _with_precision_pad(build, precision, k + k * (k + 1) // 2 + 4,
                              width=k + 1)
