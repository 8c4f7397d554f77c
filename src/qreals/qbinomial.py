"""q-binomial coefficients with arbitrary rational or real upper index.

The generalization keeps the falling-factorial shape

    binom(r, k)_q = [r]_q [r-1]_q ... [r-k+1]_q / [k]_q!

whose factors are deformed rationals, so the result is a rational
function of q for rational r and a Laurent series for irrational r.
binom(r, k) is zero for k < 0 by convention, which the Pascal-style
recurrences rely on.
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
