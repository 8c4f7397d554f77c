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

Every binomial of upper index r = f + m, with m = floor(r) and
0 <= f < 1, is built from the law of f alone (the fractional-part
lemma).  The law of f has lo = 0, and that of r is f's with q^m moved
into the power of q (qcore._shift_law), so with h_i(f) = (C + q^i D) /
(1 - q) for every integer i, a Laurent polynomial for i < 0,

    [r - j]_q = [f - (j - m)]_q = q^-max(0, j - m) g_(j - m) / D

where g_i = q^-min(0, i) h_i(f) is a polynomial.  Only f's law is
kept, once per fractional part.

For each d >= 2 the i with Phi_d | h_i(f) form one residue class mod d,
or there are none.  Proof: Phi_d | h_i exactly when C(z) + z^i D(z) = 0
at a primitive d-th root of unity z.  Then D(z) != 0, or C(z) = 0 too
and Phi_d would divide the coprime C and D, so z^i = -C(z)/D(z), and
since z has order d this fixes i mod d.  So the first of h_0 ... h_(d-1)
that Phi_d divides names f's class c, found once per (f, d); for
r = f + m the class of j is (c + m) mod d, and floor(k/d) of its
members below k each give up one Phi_d.

An integer upper index needs no law.  For n >= k >= 0 binom(n, k)_q is
the Gaussian polynomial [n]_q! / ([k]_q! [n - k]_q!), the product of the
Phi_d with floor(n/d) - floor(k/d) - floor((n - k)/d) = 1 (the
difference is 0 or 1).  It is built as binom(n - k + i, i)_q for
i = 1, 2, ..., k, each from the last by one multiplication by
1 - q^(n - k + i) and one exact division by 1 - q^i, both single passes
over the coefficients; the cyclotomic product itself would need a Phi_d
for every d <= n.  For n = -p < 0, [-p - j]_q = -q^(-p - j) [p + j]_q
gives binom(-p, k)_q = (-1)^k q^(-kp - C(k, 2)) binom(p + k - 1, k)_q.

As series, the binomials of any upper index come from one run that
reads one series {x}_q.  By the brace form of the shift law, (1 - q)
[x + t]_q = 1 - q^t {x}_q, so one step of binom(x, k) -> binom(x, k+1)
multiplies by (1 - q^(-k) {x}_q) / (1 - q^(k+1)): one product of the
run with {x}_q, one Kronecker product for N ~ 40 known coefficients,
then a running sum of stride k + 1 for the division.  No exact rational
function, gcd or division by D is formed in the run; for rational x,
{x}_q is one expansion of q_brace(x).
"""

import itertools
import math

from . import _cache
from .errors import DomainError, InsufficientPrecisionError
from .polynomial import IntPolynomial, _quotient
from .qcore import (DEFAULT_PRECISION, _factor_order, _floor_and_order,
                    _q_rational_cached, _split, q_brace_series)
from .ratfun import QRationalFunction, ratfun
from .series import LaurentSeries, _times_brace_factor


def q_factorial(n):
    """[n]_q! as a polynomial (wrapped as a rational function)."""
    return QRationalFunction.from_polynomial(q_factorial_poly(n))


def q_factorial_poly(n):
    if n < 0:
        raise DomainError(f'factorial of negative integer {n}')
    return _product_tree([IntPolynomial((1,) * j) for j in range(2, n + 1)])


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


@_cache.table(128)
def _cyclotomic(d):
    """Phi_d, q^d - 1 divided by Phi_e for every proper divisor e of d."""
    p = IntPolynomial((-1,) + (0,) * (d - 1) + (1,))
    for e in range(1, d):
        if d % e == 0:
            p = p.divide_exact(_cyclotomic(e))
    return p


def _has_cyclotomic_factor(p, d):
    """Whether Phi_d divides p, by exact division."""
    return not p or _quotient(p.coeffs, _cyclotomic(d).coeffs) is not None


# 449 entries after 36 000 identity-exact cases (seed 13)
@_cache.table(2048)
def _cyclotomic_class(num, den, d):
    """The first i in 0 ... d - 1 with Phi_d | h_i(f), for the fractional
    part f = num/den, or None when there is none: by the class lemma, the
    residue mod d of every such i (module docstring)."""
    return next((i for i, h in enumerate(_fraction_factors(num, den, 0, d))
                 if _has_cyclotomic_factor(h, d)), None)


def q_binomial(r, k):
    """binom(r, k)_q for rational r and integer k, exact.

    An integer r gives a Gaussian binomial (_gaussian).  Any other r is
    f + m with 0 < f < 1, and the binomial is the polynomials g_(j - m)
    of f, j < k, over D^k [k]_q!, with their powers of q gathered in
    front (module docstring).  For each 2 <= d <= k, Phi_d divides the
    g_(j - m) of one class of j mod d, f's class moved by m
    (_cyclotomic_class), or of none.  divide_exact takes Phi_d once out
    of each of the first floor(k/d) members of the class; with no class,
    Phi_d^floor(k/d) joins D^k.  Numerator and denominator are then
    coprime, so no gcd is taken, and each is multiplied as a balanced
    product tree.
    """
    if k < 0:
        return QRationalFunction.zero()
    m, num, den = _split(r)
    if den == 1:
        return _gaussian(m, k)
    factors = _fraction_factors(num, den, m, k)
    bottom = [_q_rational_cached(num, den)[0] ** k]
    for d in range(2, k + 1):
        first = _cyclotomic_class(num, den, d)
        if first is None:
            bottom.append(_cyclotomic(d) ** (k // d))
        else:
            for j in range((first + m) % d, k - k % d, d):
                factors[j] = factors[j].divide_exact(_cyclotomic(d))
    return ratfun(-sum(max(0, j - m) for j in range(k)),
                  _product_tree(factors), _product_tree(bottom), reduced=True)


def _fraction_factors(num, den, m, k):
    """[g_(-m), ..., g_(k - 1 - m)] for the fractional part f = num/den:
    the numerators of [f + m - j]_q = q^-max(0, j - m) g_(j - m) / D,
    j < k, each h_(j - m)(f) without its power of q (module docstring)."""
    den_poly, c = _q_rational_cached(num, den)
    # (q^max(0, -i) C + q^max(0, i) D) / (1 - q), an exact quotient, so
    # the running sum of the coefficients
    return [IntPolynomial(itertools.accumulate(
        (c.shift(max(0, m - j)) + den_poly.shift(max(0, j - m))).coeffs))
        for j in range(k)]


def _gaussian(n, k):
    """binom(n, k)_q for integers n and k >= 0 (module docstring)."""
    sign, e, n = (((-1) ** k, k * n - k * (k - 1) // 2, k - 1 - n) if n < 0
                  else (1, 0, n))
    if n < k:
        return QRationalFunction.zero()
    k, c = min(k, n - k), [1]
    for i in range(1, k + 1):
        # binom(n - k + i, i)_q from binom(n - k + i - 1, i - 1)_q: times
        # 1 - q^(n - k + i), then divided by 1 - q^i, exactly, as the
        # running sums of stride i
        a = [0] * (n - k + i)
        c = [x - y for x, y in zip(c + a, a + c)]
        for j in range(i):
            c[j::i] = itertools.accumulate(c[j::i])
        del c[len(c) - i:]
    return ratfun(e, IntPolynomial(c) * sign, 1, reduced=True)


def _product_tree(factors):
    # a balanced product tree: each product pairs operands of like size
    while len(factors) > 1:
        factors = [factors[i] * factors[i + 1] if i + 1 < len(factors)
                   else factors[i] for i in range(0, len(factors), 2)]
    return factors[0] if factors else IntPolynomial.one()


def binomial_run(value, shifts, precision, sign=-1):
    """Binomials of a rational or real x, each to be placed at q^shifts[k].

    With sign -1 these are binom(x, k)_q, with sign +1 binom(x+k-1, k)_q,
    for k < len(shifts).  Each is known at least to precision - shifts[k]
    (a shift of math.inf asks for nothing: that binomial is only a step
    towards later ones).  A vanishing binomial is the exact zero series;
    once no remaining binomial shows below q^precision the run stops, and
    the rest are zero series known to their orders.

    Step k multiplies by [x + t]_q / [k+1]_q, t = sign k, which the brace
    form of the shift law writes (1 - q^t {x}_q) / (1 - q^(k+1)): one
    product of the run with {x}_q and one running sum of stride k + 1
    (series._times_brace_factor).  The orders of the factors come from
    the floor of x and the order of its fractional part.  A binomial
    known to w beyond its order keeps that w through the step, and w is
    cut to what the remaining binomials need.  The product keeps the
    smaller of its factors' precisions (series.py: mul is min(p1 + ord2,
    p2 + ord1)), so {x}_q is read once, to the largest
    w + ord [x + t]_q - t of the steps taken.  Each step is known to its
    order plus its w only if that order is the one the factors' orders
    give, and a step whose order is another raises
    InsufficientPrecisionError; with the exact orders of rationals and
    periodic continued fractions none does.

    All of that sizing depends on x only through its floor n and the order
    b of its fractional part (qcore._floor_and_order): it is one entry of
    _run_plan, keyed on (n, b), the shifts, the precision and the sign,
    and only the steps themselves read x.
    """
    steps, works, read = _run_plan(
        *_floor_and_order(value), tuple(shifts), precision, sign)
    if not works:
        return []
    orders = list(itertools.accumulate(steps, initial=0))
    run = LaurentSeries.one().truncate(works[0])
    out = [run]
    if read is not None:
        brace, packs = q_brace_series(value, read), {}
    for k in range(len(works) - 1):
        run = _times_brace_factor(run, brace, sign * k, k + 1,
                                  orders[k + 1] + works[k + 1], packs)
        if run.order != orders[k + 1]:
            raise InsufficientPrecisionError(
                f'binomial {k + 1} of {value} has order {run.order}, not '
                f'the {orders[k + 1]} of its factors')
        out.append(run)
    return out + [LaurentSeries.zero(o) for o in orders[len(out):]]


# A plan is two short tuples and an int.  The first 30 000
# identity-series cases of seed 13 make 36 062 runs with 270 distinct
# plans (0.20 MB); the long runs of the Gamma kernel, one per Pochhammer
# table miss, are 38 of them and about half of that memory.
@_cache.table(1024)
def _run_plan(n, b, shifts, precision, sign):
    """(steps, works, read) of binomial_run for an x with _floor_and_order
    (n, b): the orders of the steps' factors, what each binomial the run
    builds is known to beyond its order, and the precision {x}_q is read
    to (None when the run takes no step)."""
    steps = [_factor_order(n, b, sign * k) for k in range(len(shifts) - 1)]
    orders = list(itertools.accumulate(steps, initial=0))
    lows = [o + s for o, s in zip(orders, shifts)]
    works = [max(0, precision - min(lows[k:])) for k in range(len(lows))]
    # works never grows, and the run stops before the first binomial
    # that needs none
    taken = next((k for k in range(len(steps)) if not works[k + 1]),
                 len(steps))
    read = max([works[k + 1] + steps[k] - sign * k for k in range(taken)],
               default=None)
    return tuple(steps), tuple(works[:taken + 1]), read


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
