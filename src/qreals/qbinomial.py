"""q-binomial coefficients with arbitrary rational or real upper index.

The generalization keeps the falling-factorial shape

    binom(r, k)_q = [r]_q [r-1]_q ... [r-k+1]_q / [k]_q!

whose factors are deformed rationals, so the result is a rational
function of q for rational r and a Laurent series for irrational r.
binom(r, k) is zero for k < 0 by convention, which the Pascal-style
recurrences rely on.

Both routes rest on the shift law [x + t]_q = [t]_q + q^t [x]_q, which
holds for every real x (Morier-Genoud and Ovsienko, "q-deformed
rationals and q-continued fractions", Forum Math. Sigma 8, 2020), in its
brace form {x + t}_q = q^t {x}_q.  Writing {x}_q = -q^lo C / D, and with
(1 - q)[t]_q = 1 - q^t, it reads

    (1 - q) D [x + t]_q = D + q^(lo + t) C

for every integer t.  For rational x with [x]_q = q^e N / D, lo =
min(0, e) and C = (1 - q) q^(e - lo) N - q^(-lo) D are exact, with
about deg N + deg D terms (qcore._shift_law); for irrational x, D = 1,
lo = 0 and C is -{x}_q, a series read once.

Exactly, 1 - q divides C + q^(j - lo) D, so [r - j]_q = q^(lo - j) h_j
/ D with the polynomial h_j = (C + q^(j - lo) D) / (1 - q), and

    binom(r, k)_q = q^(k lo - C(k, 2)) h_0 ... h_(k-1) / (D^k [k]_q!)

with [k]_q! = prod_(2 <= d <= k) Phi_d^floor(k/d).  N and D share no
factor but a power of q, so no h_j (which is q^(e - lo) N modulo D)
shares one with D, and the only cancellation left is by the cyclotomic
Phi_d, which are divided out of the short h_j.  No gcd is taken, and
the factors are never reduced rational functions of their own.

For each d >= 2 the h_j that Phi_d divides form one residue class of j
mod d, or there are none.  Proof: (1 - q) h_j = C + q^(j - lo) D, so
Phi_d | h_j exactly when C(z) + z^(j - lo) D(z) = 0 at a primitive d-th
root of unity z.  Then D(z) != 0, or C(z) = 0 too and Phi_d would
divide the coprime C and D, so z^(j - lo) = -C(z)/D(z), and since z
has order d this fixes j mod d.  So testing h_0 ... h_(d-1) finds the
class, and floor(k/d) of its members each give up one Phi_d.

As series, the binomials of any upper index come from one run of short
factors.  One step of binom(x, k) -> binom(x, k+1) multiplies by the
numerator at t = -k and divides once by D(1 - q^(k+1)), in one
LaurentSeries.times_ratio: O(N (deg N + deg D)) for N known
coefficients, and no exact rational function or gcd is formed.  Both
factor polynomials are offset sums of the integer coefficients of D and
C.
"""

import itertools
import math
from functools import lru_cache

from .errors import DomainError, InsufficientPrecisionError
from .polynomial import IntPolynomial
from .qcore import (DEFAULT_PRECISION, _as_rational, _factor_order,
                    _floor_and_order, _shift_law, q_brace_series)
from .ratfun import QRationalFunction, ratfun
from .series import LaurentSeries, _canonical


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


@lru_cache(maxsize=128)
def _cyclotomic(d):
    """Phi_d, q^d - 1 divided by Phi_e for every proper divisor e of d."""
    p = IntPolynomial((-1,) + (0,) * (d - 1) + (1,))
    for e in range(1, d):
        if d % e == 0:
            p = p.divide_exact(_cyclotomic(e))
    return p


def _has_cyclotomic_factor(p, d):
    """Whether Phi_d divides p.

    Phi_d divides q^d - 1, so it divides p exactly when it divides p mod
    q^d - 1, which has degree below d: fold p, then reduce the fold by
    the monic Phi_d.
    """
    c = p.coeffs
    rem = [sum(c[i::d]) for i in range(d)]
    phi = _cyclotomic(d).coeffs
    n = len(phi) - 1
    for i in range(d - 1, n - 1, -1):
        top = rem[i]
        if top:
            for j in range(n):
                rem[i - n + j] -= top * phi[j]
    return not any(rem[:n])


def q_binomial(r, k):
    """binom(r, k)_q for rational r and integer k, exact.

    The polynomials h_j of the module docstring, from _shift_law, over
    D^k [k]_q!.  For each 2 <= d <= k, the h_j that Phi_d divides are
    one residue class of j mod d, or none: Phi_d | h_j exactly when
    C(z) + z^(j - lo) D(z) = 0 at a primitive d-th root of unity z,
    where D(z) != 0 (else C(z) = 0 and Phi_d divides the coprime C and
    D), and z has order d, so z^(j - lo) = -C(z)/D(z) fixes j mod d.
    The first of h_0 ... h_(d-1) that Phi_d divides names the class,
    which has at least floor(k/d) members below k, and divide_exact
    takes Phi_d once out of each of the first floor(k/d); with no
    class, Phi_d^floor(k/d) joins D^k, and the bottom is multiplied as
    a balanced product tree.  Numerator and denominator are then
    coprime, so no gcd is taken.  A vanishing h_j (an integer
    0 <= r < k) makes the binomial the exact zero.
    """
    if k < 0:
        return QRationalFunction.zero()
    if k == 0:
        return QRationalFunction.one()
    lo, den, factors = _shift_factors(r, k)
    if not all(factors):
        return QRationalFunction.zero()
    bottom = [den ** k]
    for d in range(2, k + 1):
        phi, uses = _cyclotomic(d), k // d
        first = next((j for j in range(d)
                      if _has_cyclotomic_factor(factors[j], d)), None)
        if first is None:
            bottom.append(phi ** uses)
        else:
            for j in range(first, first + uses * d, d):
                factors[j] = factors[j].divide_exact(phi)
    return ratfun(k * lo - k * (k - 1) // 2, _product_tree(factors),
                  _product_tree(bottom), reduced=True)


def _shift_factors(r, k):
    """(lo, D, [h_0, ..., h_(k-1)]) for rational r (module docstring)."""
    lo, den, c = _shift_law(r)
    # h_j = (C + q^(j - lo) D) / (1 - q), an exact quotient, so the
    # running sum of the coefficients
    return lo, den, [IntPolynomial(itertools.accumulate(
        (c + den.shift(j - lo)).coeffs)) for j in range(k)]


def _product_tree(factors):
    # a balanced product tree: each product pairs operands of like size
    while len(factors) > 1:
        factors = [factors[i] * factors[i + 1] if i + 1 < len(factors)
                   else factors[i] for i in range(0, len(factors), 2)]
    return factors[0]


def shift_numerator(value, precision=None):
    """The numerators of the shift law for [x + t]_q and for [s]_q.

    Returns (g, f) with (1 - q) D [s]_q = g(s) = D - q^s D and
    (1 - q) D [x + t]_q = f(t) = D + q^(lo + t) C for all integers s and
    t (module docstring), so every ratio [x + t]_q / [s]_q is f(t) /
    g(s).  g(s) is exact.  For rational x, f(t) is exact too
    (_shift_law), and both are offset sums of integer coefficients.  For
    irrational x, D is 1 and q^lo C = -{x}_q is read once, to
    `precision`, so f(t) is known below q^(precision + t).
    """
    r = _as_rational(value)
    if r is None:
        top = -q_brace_series(value, precision)
        return _q_integer_numerator((1,)), lambda t: top.shift(t) + 1
    lo, den, c = _shift_law(r)
    d, c = den.coeffs, c.coeffs
    return _q_integer_numerator(d), lambda t: _offset_sum(d, c, lo + t)


def _q_integer_numerator(d):
    # s -> D - q^s D for D with int coefficients d
    minus_d = tuple([-x for x in d])
    return lambda s: _offset_sum(d, minus_d, s)


def _offset_sum(a, b, s):
    """The exact series a + q^s b of two int coefficient sequences."""
    lo = min(0, s)
    acc = [0] * (max(len(a), s + len(b)) - lo)
    acc[-lo:len(a) - lo] = a
    for i, y in enumerate(b, s - lo):
        acc[i] += y
    return _canonical(lo, acc, 1, math.inf)


def binomial_run(value, shifts, precision, sign=-1):
    """Binomials of a rational or real x, each to be placed at q^shifts[k].

    With sign -1 these are binom(x, k)_q, with sign +1 binom(x+k-1, k)_q,
    for k < len(shifts).  Each is known at least to precision - shifts[k]
    (a shift of math.inf asks for nothing: that binomial is only a step
    towards later ones).  A vanishing binomial is the exact zero series;
    once no remaining binomial shows below q^precision the run stops, and
    the rest are zero series known to their orders.

    Step k multiplies by [x + sign k]_q / [k+1]_q as f(sign k) / g(k + 1)
    (shift_numerator), one division by D(1 - q^(k+1)) in one
    LaurentSeries.times_ratio, and the orders of these factors come
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
    n, b = _floor_and_order(value)
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
        base, numerator = shift_numerator(
            value, max(works[k + 1] + steps[k] - sign * k
                       for k in range(taken)))
    for k in range(taken):
        run = run.truncate(run.precision - works[k] + works[k + 1])
        run = run.times_ratio(numerator(sign * k), base(k + 1))
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


def q_binomial_series(value, k, precision=DEFAULT_PRECISION):
    """binom(value, k)_q as a Laurent series, for real or rational value.

    The last binomial of one binomial_run, so an irrational upper index
    reads its deformation once, whatever k is.
    """
    if k < 0:
        return LaurentSeries.zero()
    if k == 0:
        return LaurentSeries.one()
    run = binomial_run(value, [math.inf] * k + [0], precision)
    return run[-1].truncate(precision)
