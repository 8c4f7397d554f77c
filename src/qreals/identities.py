"""Catalog of the library's identities with a seeded verification runner.

Every identity the package claims is registered here once, keyed by a
stable name, together with a checker that evaluates both sides through
independent code paths and compares them: exact rational-function
equality when all bound values are rational, coefficientwise agreement
at a working precision for series statements.

Two entries are deliberate non-identities (the tempting but false
addition and multiplication rules for braces).  Their checkers also pin
the exact values both sides must take, so the runner reports them as
expected-inequality passes while any arithmetic drift still surfaces as
an unexpected verdict.
"""

import math
import random
from fractions import Fraction

from . import _cache
from .errors import DomainError, IntegralityError
from .polynomial import IntPolynomial
from .qbinomial import binomial_order, q_binomial, q_factorial, q_pochhammer
from .qcore import (DEFAULT_PRECISION, _floor_and_order, _Record,
                    order_at_zero, q_brace, q_brace_series, q_integer,
                    q_rational)
from .qgamma import (gamma_power, gamma_reflection, pochhammer_at_q, q_gamma,
                     _gamma_order, _pochhammer_order)
from .qseries import (binomial_product, binomial_series,
                      negative_binomial_product, negative_binomial_series,
                      q_derivative, xseries)
from .ratfun import QRationalFunction, ratfun
from .series import LaurentSeries, _Shape, series_from_ratfun


class IdentityCase(_Record):
    """Outcome of checking one identity at one parameter binding."""

    _fields = ('identity', 'binding', 'mode', 'equal', 'expect_equal',
               'witness')

    def __init__(self, identity, binding, mode, equal, expect_equal,
                 witness=None):
        self._bind(identity, binding, mode, equal, expect_equal, witness)

    @property
    def ok(self):
        """Whether the verdict matches what the identity promises."""
        return self.equal == self.expect_equal

    def describe(self):
        args = ', '.join(f'{k}={v}' for k, v in self.binding.items())
        state = 'equal' if self.equal else 'unequal'
        tag = 'ok' if self.ok else 'UNEXPECTED'
        return f'{self.identity}({args}) [{self.mode}] {state}: {tag}'


class _Entry(_Record):
    _fields = ('ident', 'summary', 'params', 'sample', 'check',
               'default_mode', 'modes', 'expect_equal', 'max_trials')

    def __init__(self, ident, summary, params, sample, check,
                 default_mode='exact', modes=('exact', 'series'),
                 expect_equal=True, max_trials=None):
        self._bind(ident, summary, params, sample, check, default_mode,
                   modes, expect_equal, max_trials)


def _qpow(e):
    return QRationalFunction.q_power(e)


def _poch_q(k):
    """(q; q)_k = (1 - q)(1 - q^2)...(1 - q^k) as a rational function,
    one polynomial product wrapped once."""
    if k < 0:
        raise DomainError(f'Pochhammer length must be nonnegative, got {k}')
    out = IntPolynomial.one()
    for i in range(1, k + 1):
        out = out - out.shift(i)
    return ratfun(0, out, 1, reduced=True)


def _choose2(k):
    return k * (k - 1) // 2


# ---------------------------------------------------------------------------
# samplers

def _rational(rng, max_num=40, max_den=40, bound=None):
    while True:
        r = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if bound is not None and abs(r) > bound:
            continue
        return r


def _noninteger(rng, **kw):
    while True:
        r = _rational(rng, **kw)
        if r.denominator != 1:
            return r


def _gamma_argument(rng):
    # poles sit at the nonpositive integers; magnitudes stay small so
    # the recursion below 1 keeps its rational-function products short
    while True:
        r = _rational(rng, max_num=48, max_den=10, bound=8)
        if not (r.denominator == 1 and r <= 0):
            return r


def _s_alpha(rng):
    return {'alpha': _rational(rng)}


def _s_alpha_k(rng):
    return {'alpha': _rational(rng), 'k': rng.randint(0, 6)}


def _s_alpha_n(rng):
    return {'alpha': _rational(rng), 'n': rng.randint(1, 6)}


def _s_series_alpha(rng):
    # product factor counts grow with -ord({alpha}), so keep it moderate
    return {'alpha': _rational(rng, bound=8)}


def _s_series_alpha_n(rng):
    return {'alpha': _rational(rng, bound=8), 'n': rng.randint(-3, 5)}


def _s_nonzero_alpha_k(rng):
    while True:
        r = _rational(rng)
        if r != 0:
            return {'alpha': r, 'k': rng.randint(0, 6)}


def _s_limit(rng):
    k = rng.randint(0, 6)
    return {'k': k, 'n': k + rng.randint(1, 20)}


def _s_vand(rng):
    n = rng.randint(0, 6)
    return {'alpha': _rational(rng), 'ell': rng.randint(0, n),
            'm': rng.randint(0, 6), 'n': n}


def _s_power(rng):
    # the exponent is the cleared denominator; kept small because the
    # cost of the power grows with it while the statement does not
    while True:
        b = rng.randint(2, 8)
        a = rng.randint(-36, 36)
        r = Fraction(a, b)
        if abs(r) <= 6 and not (r.denominator == 1 and r <= 0):
            return {'a': a, 'b': b}


# ---------------------------------------------------------------------------
# checkers

def _ratfun_check(sides):
    def check(binding, mode, precision, xdeg):
        lhs, rhs = sides(binding)
        if mode == 'exact':
            return lhs == rhs, lhs, rhs
        ls = series_from_ratfun(lhs, precision)
        rs = series_from_ratfun(rhs, precision)
        return ls.agrees_with(rs, precision), ls, rs
    return check


def _pascal_a(b):
    a, k = b['alpha'], b['k']
    return (q_binomial(a, k),
            _qpow(k) * q_binomial(a - 1, k) + q_binomial(a - 1, k - 1))


def _pascal_b(b):
    a, k = b['alpha'], b['k']
    return (q_binomial(a, k),
            q_binomial(a - 1, k) + q_brace(a - k) * q_binomial(a - 1, k - 1))


def _alt_a(b):
    a, k = b['alpha'], b['k']
    num = QRationalFunction.one()
    den = QRationalFunction.one()
    for i in range(k):
        num = num * (q_rational(a) - q_integer(i))
        den = den * (q_integer(k) - q_integer(i))
    return q_binomial(a, k), num / den


def _alt_b(b):
    a, k = b['alpha'], b['k']
    num = QRationalFunction.one()
    for i in range(k):
        num = num * (q_rational(a) - q_integer(i))
    return q_binomial(a, k), _qpow(-_choose2(k)) * num / q_factorial(k)


def _alt_c(b):
    a, k = b['alpha'], b['k']
    brace = q_brace(a)
    rhs = ((-brace) ** k * _qpow(-_choose2(k))
           * q_pochhammer(brace.reciprocal(), k) / _poch_q(k))
    return q_binomial(a, k), rhs


def _alt_d(b):
    a, k = b['alpha'], b['k']
    rhs = q_pochhammer(q_brace(a), k, inverse_base=True) / _poch_q(k)
    return q_binomial(a, k), rhs


def _alt_e(b):
    a, k = b['alpha'], b['k']
    return (q_binomial(a + k - 1, k),
            q_pochhammer(q_brace(a), k) / _poch_q(k))


def _other_pascal(b):
    a, k = b['alpha'], b['k']
    if a == 0:
        raise DomainError('the rearranged Pascal rule divides by 1 - {0}')
    lhs = q_binomial(a - 1, k) + q_binomial(a - 1, k - 1)
    factor = (2 - _qpow(k) - q_brace(a - k)) / (1 - q_brace(a))
    return lhs, factor * q_binomial(a, k)


def _chu(b):
    a, n, k = b['alpha'], b['n'], b['k']
    rhs = QRationalFunction.zero()
    for j in range(k + 1):
        rhs = rhs + (_qpow(j * (n - k + j)) * q_binomial(n, k - j)
                     * q_binomial(a, j))
    return q_binomial(a + n, k), rhs


def _vand_lemma(b):
    a, ell, m, n = b['alpha'], b['ell'], b['m'], b['n']
    # the collapse needs every term of the underlying convolution with a
    # negative summation index to vanish, which holds iff 0 <= ell <= n;
    # outside that strip the two sides genuinely differ
    if not 0 <= ell <= n:
        raise DomainError('the double-binomial collapse needs '
                          f'0 <= ell <= n, got ell={ell}, n={n}')
    lhs = QRationalFunction.zero()
    for j in range(n + 1):
        lhs = lhs + (_qpow(ell * (j - n + ell) + j * (m - n + j))
                     * q_binomial(ell, n - j) * q_binomial(a, m + j))
    rhs = _qpow((m - ell) * (n - ell)) * q_binomial(a + ell, m + n)
    return lhs, rhs


def _riordan(b):
    a, m, n = b['alpha'], b['m'], b['n']
    rhs = QRationalFunction.zero()
    for ell in range(min(m, n) + 1):
        rhs = rhs + (_qpow((m - ell) * (n - ell)) * q_binomial(n, ell)
                     * q_binomial(m, ell) * q_binomial(a + ell, m + n))
    return q_binomial(a, m) * q_binomial(a, n), rhs


def _binom_limit_check(binding, mode, precision, xdeg):
    k, n = binding['k'], binding['n']
    # the deviation factor of binom(n, k) against the limit has order
    # exactly n - k + 1, so agreement is promised strictly below that
    below = min(precision, n - k + 1)
    lhs = series_from_ratfun(q_binomial(n, k), below)
    rhs = series_from_ratfun(_poch_q(k).reciprocal(), below)
    return lhs.agrees_with(rhs, below), lhs, rhs


def _product_check(sum_form, product_form):
    def check(binding, mode, precision, xdeg):
        a = binding['alpha']
        # both builders deliver their stated precision on their own
        s = sum_form(a, xdeg, precision)
        p = product_form(a, xdeg, precision)
        return s.agrees_with(p, xdeg + 1, precision), s, p
    return check


def _qx(f):
    return f.substitute_x(LaurentSeries.q_power(1))


# Working precisions of the series checkers below.  Each builds its
# series at work = precision + pad, and the side it compares loses
# precision to the negative orders of its factors, known in closed form:
# binomial_order, ord [alpha]_q, ord {alpha}_q = floor(alpha) and the
# Gamma orders.  A checker's *_shapes function runs that side on
# series._Shape values of those orders known to _W, and its pad is what
# they lose.  _W is large, not 0: an XSeries truncates every coefficient
# to its shared precision, which at 0 would make the exact 1 of
# 1 - {alpha}x unknown.  The brace counts as known to work even at
# alpha = 0, where it is exactly 1; the other route of each statement
# loses as much there.
#
# Every one of those orders is fixed by (n, b) = qcore._floor_and_order
# (alpha), the floor of alpha and the order of its fractional part, and
# none depends on the precision.  So the pads are tabled by orders:
# _pad_table keys a pad on (shapes, n, b, the checker's other
# arguments) and runs the shapes on n + 1/(b + 1), the simplest alpha
# with that floor and order.

_W = 10 ** 6


def _known(order):
    # a series of this order known to _W; the exact zero at math.inf
    return _Shape(order, _W if order < math.inf else math.inf)


def _family(a, xdeg, sign):
    # the x-coefficients of the deformed (1+x)^a (sign > 0) or 1/(1-x)^a
    return xseries([_known(binomial_order(a, k) + _choose2(k) if sign > 0
                           else binomial_order(a + k - 1, k))
                    for k in range(xdeg + 1)], xdeg + 1)


def _pad(*sides):
    return max(0, _W - min(side.precision for side in sides))


# The first 30 000 identity-series cases of seed 13 reach 164 keys
# (0.03 MB).  The catalog's own samplers, with floors -8..8 and
# fractional orders up to 39, reach thousands; at about 160 bytes an
# entry, the bound holds the table near 0.16 MB.
@_cache.table(1024)
def _pad_table(shapes, n, b, *args):
    # the pad of shapes(alpha, *args) for every alpha of floor n and
    # fractional order b: ord [1/(b + 1)]_q = b (qcore._floor_and_order)
    return _pad(*shapes(n if b == math.inf else n + Fraction(1, b + 1),
                        *args))


def _work(precision, shapes, a, *args):
    # the working precision of a checker that compares shapes(a, *args)
    return precision + _pad_table(shapes, *_floor_and_order(a), *args)


def _xdeg(xdeg):
    # checked before _pad_table, so that no pad is kept for a degree the
    # series builders refuse
    if xdeg < 0:
        raise DomainError(f'x-degree must be nonnegative, got {xdeg}')
    return xdeg


def _combine(f, factor, sign):
    if sign > 0:
        return f * xseries([1, factor])
    return f / xseries([1, -factor])


def _shift_one_shapes(a, xdeg, sign):
    # only the brace factor costs precision
    return (_combine(_family(a, xdeg, sign), _known(math.floor(a)), sign),)


def _shift_one_check(series_form, sign):
    # two routes to the index shifted by one: rescale x by q and fold in
    # the trivial factor, or keep x and fold in the brace factor
    def check(binding, mode, precision, xdeg):
        a = binding['alpha']
        work = _work(precision, _shift_one_shapes, a, _xdeg(xdeg), sign)
        lhs = series_form(a + 1, xdeg, work)
        f = series_form(a, xdeg, work)
        one = _combine(_qx(f), 1, sign)
        two = _combine(f, q_brace_series(a, work), sign)
        equal = (lhs.agrees_with(one, xdeg + 1, precision)
                 and lhs.agrees_with(two, xdeg + 1, precision))
        return equal, lhs, two
    return check


def _shift_n_sides(f, g, brace, n):
    # the one-step factor of _shift_one_check replaced by the n-step
    # series g at rescaled x
    return (g * f.substitute_x(LaurentSeries.q_power(n)),
            g.substitute_x(brace) * f)


def _shift_n_shapes(a, xdeg, sign, n):
    return _shift_n_sides(_family(a, xdeg, sign), _family(n, xdeg, sign),
                          _known(math.floor(a)), n)


def _shift_n_check(series_form, sign):
    # the same two routes for an arbitrary integer shift
    def check(binding, mode, precision, xdeg):
        a, n = binding['alpha'], binding['n']
        work = _work(precision, _shift_n_shapes, a, _xdeg(xdeg), sign, n)
        lhs = series_form(a + n, xdeg, work)
        one, two = _shift_n_sides(series_form(a, xdeg, work),
                                  series_form(n, xdeg, work),
                                  q_brace_series(a, work), n)
        equal = (lhs.agrees_with(one, xdeg + 1, precision)
                 and lhs.agrees_with(two, xdeg + 1, precision))
        return equal, lhs, two
    return check


def _times_family(value, f, rescale, xdeg):
    # value times f, at qx if rescale, through the x^(xdeg-1) compared:
    # an x^xdeg would drop the whole product to its own precision
    return value * (_qx(f) if rescale else f).truncate_x(xdeg)


def _dq_shapes(a, xdeg, sign):
    return (_times_family(_known(order_at_zero(a)),
                          _family(a - sign, max(xdeg - 1, 0), sign),
                          sign > 0, xdeg),)


def _dq_check(series_form, sign):
    # the difference quotient against [alpha]_q times the neighbouring
    # series: at alpha - 1 and qx for the binomial family, at alpha + 1
    # for the inverse one
    def check(binding, mode, precision, xdeg):
        a = binding['alpha']
        work = _work(precision, _dq_shapes, a, _xdeg(xdeg), sign)
        lhs = q_derivative(series_form(a, xdeg, work))
        rhs = _times_family(series_from_ratfun(q_rational(a), work),
                            series_form(a - sign, max(xdeg - 1, 0), work),
                            sign > 0, xdeg)
        return lhs.agrees_with(rhs, xdeg, precision), lhs, rhs
    return check


def _func_eq_shapes(a, xdeg, sign):
    return (_times_family(_known(order_at_zero(a)), _family(a, xdeg, sign),
                          sign < 0, xdeg),)


def _func_eq_check(series_form, sign):
    # q-differential equation relating the derivative to the series
    # itself (at plain x for the binomial family, at qx for the inverse);
    # the derivative side is exact in its factors
    def check(binding, mode, precision, xdeg):
        a = binding['alpha']
        work = _work(precision, _func_eq_shapes, a, _xdeg(xdeg), sign)
        f = series_form(a, xdeg, work)
        lhs = q_derivative(f) * xseries([1, sign])
        rhs = _times_family(series_from_ratfun(q_rational(a), work), f,
                            sign < 0, xdeg)
        return lhs.agrees_with(rhs, xdeg, precision), lhs, rhs
    return check


def _gamma_shift_shapes(a):
    return (_known(order_at_zero(a)) * _known(_gamma_order(a)),)


def _gamma_shift_check(binding, mode, precision, xdeg):
    a = binding['alpha']
    work = _work(precision, _gamma_shift_shapes, a)
    lhs = q_gamma(a + 1, work)
    rhs = series_from_ratfun(q_rational(a), work) * q_gamma(a, work)
    return lhs.agrees_with(rhs, precision), lhs, rhs


def _binom_times(binom, at_k, rest):
    return binom * (at_k * rest)


def _gamma_binom_shapes(a, k):
    binom = _known(binomial_order(a, k))
    return (_binom_times(binom, _known(_gamma_order(k + 1)),
                         _known(_gamma_order(a - k + 1))),
            _binom_times(binom, _known(_pochhammer_order(k)),
                         _known(_pochhammer_order(a - k))))


def _gamma_binom_check(binding, mode, precision, xdeg):
    a, k = binding['alpha'], binding['k']
    # refuse q_gamma's poles before sizing the pad: a pole's Gamma
    # order, and so its pad, is infinite
    for pole in (a + 1, a - k + 1):
        if Fraction(pole).denominator == 1 and pole <= 0:
            raise DomainError(
                f'gamma has a pole at the nonpositive integer {pole}')
    # stated multiplicatively both ways: Gamma(a+1) against
    # binom * Gamma(k+1) * Gamma(a-k+1), and the same with Pochhammer
    # products at x = q.  The division form would pay twice the (large)
    # order of the deep-negative-argument factor instead.
    work = _work(precision, _gamma_binom_shapes, a, k)
    binom = series_from_ratfun(q_binomial(a, k), work)
    gamma_lhs = q_gamma(a + 1, work)
    gamma_rhs = _binom_times(binom, q_gamma(k + 1, work),
                             q_gamma(a - k + 1, work))
    poch_lhs = pochhammer_at_q(a, work)
    poch_rhs = _binom_times(binom, pochhammer_at_q(k, work),
                            pochhammer_at_q(a - k, work))
    equal = (gamma_lhs.agrees_with(gamma_rhs, precision)
             and poch_lhs.agrees_with(poch_rhs, precision))
    return equal, gamma_lhs, gamma_rhs


def _integral_check(build):
    # build raises IntegralityError at a coefficient that is not an integer
    def check(binding, mode, precision, xdeg):
        try:
            return True, build(binding, precision), 'integer coefficients'
        except IntegralityError as err:
            return False, str(err), 'integer coefficients'
    return check


def _brace_a(b):
    a = b['alpha']
    return q_brace(a), 1 + (_qpow(1) - 1) * q_rational(a)


def _brace_b(b):
    a = b['alpha']
    return (1 - q_brace(a)) / (1 - _qpow(1)), q_rational(a)


def _brace_c(b):
    a, n = b['alpha'], b['n']
    return q_brace(a + n), _qpow(n) * q_brace(a)


def _brace_d(b):
    a = b['alpha']
    return q_brace(-a), q_brace(a).substitute_q_inverse()


def _brace_e(b):
    a, n = b['alpha'], b['n']
    return q_brace(a), (q_rational(a + n) - q_rational(a)) / q_integer(n)


def _non_add_check(binding, mode, precision, xdeg):
    # [alpha + beta] versus [alpha] + {alpha}[beta] at alpha = beta = 1/2;
    # the sides must stay unequal AND keep their pinned values, so any
    # drift in either one flips the verdict to unexpected
    half = Fraction(1, 2)
    lhs = q_rational(1)
    rhs = q_rational(half) + q_brace(half) * q_rational(half)
    pinned = ratfun(1, IntPolynomial((2, 1, 1)), IntPolynomial((1, 2, 1)))
    drifted = rhs != pinned or lhs != QRationalFunction.one()
    return lhs == rhs or drifted, lhs, rhs


def _non_mult_check(binding, mode, precision, xdeg):
    # {alpha + beta} versus {alpha}{beta} at alpha = 1/2, beta = 3/2
    lhs = q_brace(2)
    rhs = q_brace(Fraction(1, 2)) * q_brace(Fraction(3, 2))
    pinned = ratfun(1, IntPolynomial((1, 0, 2, 0, 1)),
                    IntPolynomial((1, 2, 1)))
    drifted = rhs != pinned or lhs != _qpow(2)
    return lhs == rhs or drifted, lhs, rhs


# ---------------------------------------------------------------------------
# the catalog

def _entries():
    series_only = {'default_mode': 'series', 'modes': ('series',)}
    e = [
        _Entry('PASCAL_A', 'Pascal recurrence with q^k on the shifted term',
               ('alpha', 'k'), _s_alpha_k, _ratfun_check(_pascal_a)),
        _Entry('PASCAL_B', 'Pascal recurrence weighted by a brace',
               ('alpha', 'k'), _s_alpha_k, _ratfun_check(_pascal_b)),
        _Entry('ALT_FORM_A', 'binomial as a quotient of shifted differences',
               ('alpha', 'k'), _s_alpha_k, _ratfun_check(_alt_a)),
        _Entry('ALT_FORM_B', 'difference product over weighted factorial',
               ('alpha', 'k'), _s_alpha_k, _ratfun_check(_alt_b)),
        _Entry('ALT_FORM_C', 'Pochhammer form in the inverse brace',
               ('alpha', 'k'), _s_alpha_k, _ratfun_check(_alt_c)),
        _Entry('ALT_FORM_D', 'Pochhammer form with base 1/q',
               ('alpha', 'k'), _s_alpha_k, _ratfun_check(_alt_d)),
        _Entry('ALT_FORM_E', 'raised-index binomial as a Pochhammer quotient',
               ('alpha', 'k'), _s_alpha_k, _ratfun_check(_alt_e)),
        _Entry('PRODUCT_B', 'sum and product routes to the deformed (1+x)^a',
               ('alpha',), _s_series_alpha,
               _product_check(binomial_series, binomial_product),
               **series_only),
        _Entry('PRODUCT_b', 'sum and product routes to the deformed '
               '1/(1-x)^a', ('alpha',), _s_series_alpha,
               _product_check(negative_binomial_series,
                              negative_binomial_product),
               **series_only),
        _Entry('SHIFT_B', 'one-step index shift of the deformed (1+x)^a, '
               'both factor forms', ('alpha',), _s_series_alpha,
               _shift_one_check(binomial_series, 1), **series_only),
        _Entry('SHIFT_b', 'one-step index shift of the deformed 1/(1-x)^a, '
               'both factor forms', ('alpha',), _s_series_alpha,
               _shift_one_check(negative_binomial_series, -1), **series_only),
        _Entry('SHIFT_Bn', 'integer index shift of the deformed (1+x)^a, '
               'both factor forms', ('alpha', 'n'), _s_series_alpha_n,
               _shift_n_check(binomial_series, 1), **series_only),
        _Entry('SHIFT_bn', 'integer index shift of the deformed 1/(1-x)^a, '
               'both factor forms', ('alpha', 'n'), _s_series_alpha_n,
               _shift_n_check(negative_binomial_series, -1), **series_only),
        _Entry('DQ_B', 'difference quotient of the deformed (1+x)^a',
               ('alpha',), _s_series_alpha,
               _dq_check(binomial_series, 1),
               **series_only),
        _Entry('DQ_b', 'difference quotient of the deformed 1/(1-x)^a',
               ('alpha',), _s_series_alpha,
               _dq_check(negative_binomial_series, -1),
               **series_only),
        _Entry('FUNC_EQ_B', 'q-differential equation of the deformed '
               '(1+x)^a', ('alpha',), _s_series_alpha,
               _func_eq_check(binomial_series, 1), **series_only),
        _Entry('FUNC_EQ_b', 'q-differential equation of the deformed '
               '1/(1-x)^a', ('alpha',), _s_series_alpha,
               _func_eq_check(negative_binomial_series, -1), **series_only),
        _Entry('OTHER_PASCAL', 'Pascal rearranged onto a single binomial',
               ('alpha', 'k'), _s_nonzero_alpha_k,
               _ratfun_check(_other_pascal)),
        _Entry('CHU_VANDERMONDE', 'convolution for a binomial at a shifted '
               'index', ('alpha', 'n', 'k'), lambda rng: {
                   'alpha': _rational(rng), 'n': rng.randint(0, 6),
                   'k': rng.randint(0, 6)},
               _ratfun_check(_chu)),
        _Entry('VAND_LEMMA', 'weighted double-binomial sum collapsing to '
               'one term', ('alpha', 'ell', 'm', 'n'), _s_vand,
               _ratfun_check(_vand_lemma)),
        _Entry('RIORDAN_PRODUCT', 'product of two binomials as a weighted '
               'sum', ('alpha', 'm', 'n'), lambda rng: {
                   'alpha': _rational(rng), 'm': rng.randint(0, 6),
                   'n': rng.randint(0, 6)},
               _ratfun_check(_riordan)),
        _Entry('BINOM_LIMIT', 'large-index binomials approach the '
               'reciprocal Pochhammer', ('k', 'n'), _s_limit,
               _binom_limit_check, **series_only),
        _Entry('GAMMA_SHIFT', 'Gamma absorbs one deformed factor per unit '
               'shift', ('alpha',), lambda rng: {
                   'alpha': _gamma_argument(rng)},
               _gamma_shift_check, **series_only),
        _Entry('GAMMA_BINOM', 'binomial as a Gamma (and Pochhammer) '
               'quotient', ('alpha', 'k'), lambda rng: {
                   'alpha': _noninteger(rng, max_num=36, max_den=10,
                                        bound=6),
                   'k': rng.randint(1, 4)},
               _gamma_binom_check, **series_only),
        _Entry('REFLECTION_INT', 'Gamma reflection products have integer '
               'coefficients', ('alpha',), lambda rng: {
                   'alpha': _noninteger(rng, max_num=36, max_den=10,
                                        bound=6)},
               _integral_check(lambda b, p: gamma_reflection(b['alpha'], p)),
               **series_only),
        _Entry('POWER_INT', 'Gamma powers clearing the denominator have '
               'integer coefficients', ('a', 'b'), _s_power,
               _integral_check(lambda b, p: gamma_power(b['a'], b['b'], p)),
               **series_only),
        _Entry('BRACE_PROP_A', 'brace from the deformed value',
               ('alpha',), _s_alpha, _ratfun_check(_brace_a)),
        _Entry('BRACE_PROP_B', 'deformed value from the brace',
               ('alpha',), _s_alpha, _ratfun_check(_brace_b)),
        _Entry('BRACE_PROP_C', 'braces absorb integer shifts as powers '
               'of q', ('alpha', 'n'), _s_alpha_n, _ratfun_check(_brace_c)),
        _Entry('BRACE_PROP_D', 'brace of the negative via q -> 1/q',
               ('alpha',), _s_alpha, _ratfun_check(_brace_d)),
        _Entry('BRACE_PROP_E', 'brace as a normalized finite difference',
               ('alpha', 'n'), _s_alpha_n, _ratfun_check(_brace_e)),
        _Entry('BRACE_NON_ADD', 'the brace-weighted addition rule fails '
               'for two proper fractions', (), lambda rng: {},
               _non_add_check, default_mode='exact', modes=('exact',),
               expect_equal=False, max_trials=1),
        _Entry('BRACE_NON_MULT', 'braces do not multiply across a '
               'non-integer shift', (), lambda rng: {},
               _non_mult_check, default_mode='exact', modes=('exact',),
               expect_equal=False, max_trials=1),
    ]
    return {entry.ident: entry for entry in e}


CATALOG = _entries()
IDENTITIES = tuple(CATALOG)


def _check_settings(precision, xdeg):
    if precision < 1:
        raise ValueError('precision must be at least 1')
    if xdeg < 0:
        raise ValueError('xdeg must be at least 0')


def verify_identity(identity, binding, mode=None,
                    precision=DEFAULT_PRECISION, xdeg=8):
    """Check one identity at one binding; returns an IdentityCase."""
    _check_settings(precision, xdeg)
    try:
        entry = CATALOG[identity]
    except KeyError:
        raise ValueError(f'unknown identity {identity!r}') from None
    mode = mode or entry.default_mode
    if mode not in entry.modes:
        raise ValueError(f'{identity} supports modes {entry.modes}, '
                         f'not {mode!r}')
    binding = dict(binding)
    missing = [p for p in entry.params if p not in binding]
    if missing:
        raise ValueError(f'{identity} needs parameters {missing}')
    equal, lhs, rhs = entry.check(binding, mode, precision, xdeg)
    ok = equal == entry.expect_equal
    witness = None if ok else (str(lhs), str(rhs))
    return IdentityCase(identity, binding, mode, equal, entry.expect_equal,
                        witness)


class SuiteReport(_Record):
    """All cases from one run_suite call, with formatting helpers."""

    _fields = ('seed', 'trials', 'precision', 'xdeg', 'cases')

    def __init__(self, seed, trials, precision, xdeg, cases):
        self._bind(seed, trials, precision, xdeg, cases)

    @property
    def unexpected(self):
        return tuple(c for c in self.cases if not c.ok)

    @property
    def ok(self):
        return not self.unexpected

    def counts(self):
        out = {}
        for c in self.cases:
            good, total = out.get(c.identity, (0, 0))
            out[c.identity] = (good + (1 if c.ok else 0), total + 1)
        return out

    def lines(self):
        rows = []
        for ident, (good, total) in self.counts().items():
            note = ''
            if not CATALOG[ident].expect_equal:
                note = '  (expected inequality)'
            state = 'pass' if good == total else 'FAIL'
            rows.append(f'{ident:<18} {good:>3}/{total:<3} {state}{note}')
        bad = self.unexpected
        rows.append(f'total: {len(self.cases)} cases, '
                    f'{len(bad)} unexpected verdicts')
        for c in bad:
            rows.append(f'  {c.describe()}')
            if c.witness:
                rows.append(f'    lhs: {c.witness[0]}')
                rows.append(f'    rhs: {c.witness[1]}')
        return rows

    def __str__(self):
        return '\n'.join(self.lines())

    def to_json(self):
        return {
            'seed': self.seed,
            'trials': self.trials,
            'precision': self.precision,
            'xdeg': self.xdeg,
            'ok': self.ok,
            'identities': {
                ident: {'pass': good, 'total': total,
                        'expect': ('equal' if CATALOG[ident].expect_equal
                                   else 'unequal')}
                for ident, (good, total) in self.counts().items()},
            'unexpected': [
                {'identity': c.identity,
                 'binding': {k: str(v) for k, v in c.binding.items()},
                 'mode': c.mode,
                 'equal': c.equal,
                 'witness': list(c.witness) if c.witness else None}
                for c in self.unexpected],
        }


def run_suite(identities=None, trials=25, seed=7,
              precision=DEFAULT_PRECISION, xdeg=5):
    """Run seeded random parameter panels over (part of) the catalog.

    identities may be None or 'ALL' for everything, a single name, or an
    iterable of names.  Each identity draws its own deterministic panel
    from the seed, so reports are reproducible regardless of selection
    or execution order.  Series identities in x are compared through
    x^xdeg.
    """
    if trials < 1:
        raise ValueError('trials must be at least 1')
    _check_settings(precision, xdeg)
    if identities is None or identities == 'ALL':
        names = list(CATALOG)
    elif isinstance(identities, str):
        names = [identities]
    else:
        names = list(identities)
    for name in names:
        if name not in CATALOG:
            raise ValueError(f'unknown identity {name!r}')
    cases = []
    for name in names:
        entry = CATALOG[name]
        rng = random.Random(f'{seed}:{name}')
        n = trials if entry.max_trials is None else min(
            trials, entry.max_trials)
        for _ in range(n):
            cases.append(verify_identity(name, entry.sample(rng),
                                         precision=precision, xdeg=xdeg))
    return SuiteReport(seed, trials, precision, xdeg, tuple(cases))
