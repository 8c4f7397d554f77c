"""The q-binomial builders against the direct algorithms they replaced.

The product routes expand their products as polynomials in the brace,
the sum routes and q_binomial_series advance their binomials by short
factors, the Gamma kernel sums one such run, and pochhammer_at_q below 0
divides that sum by exact polynomials.  The references below are the
direct algorithms: every brace factor a full-length series, every
rational sum coefficient an exact rational function expanded by
series_from_ratfun, every irrational sum coefficient a product of
full-length [value + n] series divided by [k]_q!, every Gamma kernel
factor [a-k]/[k+1] a full-length series, every Pochhammer divisor the
expanded series 1 - q^j {a}_q, and Gamma below 1 the series of
gamma(a + m) divided by the expanded exact product of the rational
functions [a + j]_q.
References whose precision loss has no closed form rebuild at a doubled
pad until they reach their target.  Whole to_json() outputs must agree,
exact zeros and precisions included.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qreals import ConvergentSequence, PeriodicContinuedFraction, _cache
from qreals.errors import DomainError, InsufficientPrecisionError
from qreals.qbinomial import (binomial_order, q_binomial_series,
                              q_factorial_poly)
from qreals.qcore import q_brace, q_brace_series, q_rational, q_real_series
from qreals.qgamma import _kernel_series, pochhammer_at_q, q_gamma
from qreals.qseries import (XSeries, binomial_coefficients, binomial_product,
                            binomial_series, generalized_pochhammer,
                            negative_binomial_coefficients,
                            negative_binomial_product,
                            negative_binomial_series, xseries)
from qreals.series import LaurentSeries, series, series_from_ratfun


# ---------------------------------------------------------------------------
# references

def padded(build, precision, pad):
    """build(precision + pad), doubling pad while the build falls short."""
    while True:
        try:
            return build(precision + pad)
        except InsufficientPrecisionError:
            if pad > 64 * (precision + 1):
                raise
            pad = max(2 * pad, 4)

def reference_product(value, xdeg, precision, sign, braces_on_top):
    brace = q_brace_series(value, precision)
    d = max(0, -brace.order)
    pad = d * (d + 1) // 2 * (1 if braces_on_top else xdeg)
    if pad:
        brace = q_brace_series(value, precision + pad)
    work = precision + pad
    out = XSeries.one().truncate_x(xdeg + 1).truncate_q(work)
    for j in range(work + d + 1):
        power_factor = xseries([1, sign * LaurentSeries.q_power(j)])
        brace_factor = xseries([1, sign * brace.shift(j)])
        if braces_on_top:
            out = out * brace_factor / power_factor
        else:
            out = out * power_factor / brace_factor
    assert out.precision >= precision
    return out.truncate_q(precision)


def reference_sum(r, xdeg, precision, exact_coefficients):
    return xseries([series_from_ratfun(c, precision)
                    for c in exact_coefficients(r, xdeg + 1)], xdeg + 1)


def qint_series(n):
    if n == 0:
        return LaurentSeries.zero()
    if n > 0:
        return series(0, (1,) * n)
    return series(n, (-1,) * (-n))


def reference_irrational_binomial(top, k, offset):
    # prod_{j<k} [value + offset - j] / [k]_q!, each factor a full-length
    # series from [value]_q through [value + n] = [n] + q^n [value]
    acc = LaurentSeries.one()
    for j in range(k):
        n = offset - j
        acc = acc * (qint_series(n) + top.shift(n))
    return acc / LaurentSeries.from_polynomial(q_factorial_poly(k))


def reference_irrational_sum(value, xdeg, precision, sign):
    # x^k: q^(k(k-1)/2) binom(value, k) (sign -1) or binom(value+k-1, k)
    def build(work):
        top = q_real_series(value, work)
        coeffs = []
        for k in range(xdeg + 1):
            offset, weight = ((0, k * (k - 1) // 2) if sign < 0
                              else (k - 1, 0))
            c = reference_irrational_binomial(top, k, offset).shift(weight)
            if c.precision < precision:
                raise InsufficientPrecisionError('short')
            coeffs.append(c.truncate(precision))
        return xseries(coeffs, xdeg + 1).truncate_q(precision)
    return padded(build, precision, 0)


def reference_q_binomial_series(value, k, precision):
    if k < 0:
        return LaurentSeries.zero()
    if k == 0:
        return LaurentSeries.one()

    def build(work):
        out = reference_irrational_binomial(q_real_series(value, work), k, 0)
        if out.precision < precision:
            raise InsufficientPrecisionError('short')
        return out.truncate(precision)
    return padded(build, precision, 0)


def reference_kernel(a, precision):
    # each binomial factor [a-k]/[k+1] a full-length series; exact
    # binomials (q_binomial) would need huge gcds at these precisions
    n = math.floor(a)

    def build(work):
        total = LaurentSeries.zero(precision)
        run = LaurentSeries.one().truncate(work)
        for k in itertools.count():
            o = binomial_order(a, k)
            shift = k * (k + 1) // 2
            if o == math.inf or (k > n and shift + o >= precision):
                return total
            if shift + o < precision:
                if run.precision < precision - shift:
                    raise InsufficientPrecisionError('short')
                term = run.truncate(precision - shift).shift(shift)
                total = total + (-term if k % 2 else term)
            f = q_rational(a - k)
            if f.is_zero:
                run = LaurentSeries.zero()
            else:
                p_mul = max(run.precision + f.order - o, f.order) + 2
                run = run * series_from_ratfun(f, p_mul)
                p_div = max(run.precision - binomial_order(a, k + 1), 0) + 2
                run = run / series_from_ratfun(q_rational(k + 1), p_div)
    return padded(build, precision, 4)


def reference_pochhammer(r, precision):
    o = q_brace(r).order

    def build(work):
        brace = series_from_ratfun(q_brace(r), work)
        out = LaurentSeries.one().truncate(work)
        for j in range(1, work - min(0, o)):
            out = out * (1 - LaurentSeries.q_power(j))
            out = out / (1 - brace.shift(j))
        if out.precision < precision:
            raise InsufficientPrecisionError('short')
        return out.truncate(precision)
    return padded(build, precision, 2 * max(0, -o) + 2)


def reference_gamma(r, precision):
    # gamma(r + m) on [1, 2) over [r]_q [r + 1]_q ... [r + m - 1]_q, the
    # product taken as gcd-reduced rational functions and expanded once
    m = math.ceil(1 - r)
    den = q_rational(r)
    for j in range(1, m):
        den = den * q_rational(r + j)
    o = den.order
    top = q_gamma(r + m, precision + max(0, o))
    bottom = series_from_ratfun(den, precision + max(0, 2 * o))
    return (top / bottom).truncate(precision)


# ---------------------------------------------------------------------------
# inputs: denominators up to 12 with brace orders 2 down to -3, which
# are the rationals in [-3, 3); integers among them give exact zeros

@st.composite
def rationals(draw, low=-3, high=3):
    den = draw(st.integers(min_value=1, max_value=12))
    return Fraction(draw(st.integers(min_value=low * den,
                                     max_value=high * den - 1)), den)


def pell_shifted(sign, shift, label):
    # sign * sqrt(2) + shift through the Pell convergents of sqrt(2)
    def convergents():
        for c in PeriodicContinuedFraction((1,), (2,)).convergents():
            yield sign * c + shift
    return ConvergentSequence(convergents, label)


# sqrt(2) - 1 lies in (0, 1), -sqrt(2) and sqrt(2) - 3 below -1
CONVERGENT = [pell_shifted(1, -1, 'sqrt(2) - 1'),
              pell_shifted(-1, 0, '-sqrt(2)'),
              pell_shifted(1, -3, 'sqrt(2) - 3')]
cf_terms = st.integers(min_value=1, max_value=4)
irrationals = st.one_of(
    st.builds(PeriodicContinuedFraction,
              st.lists(cf_terms, max_size=2).map(tuple),
              st.lists(cf_terms, min_size=1, max_size=3).map(tuple)),
    st.sampled_from(CONVERGENT))

PERIODIC = [PeriodicContinuedFraction((2,), (2,)),
            PeriodicContinuedFraction((1,), (2,)),
            PeriodicContinuedFraction((3,), (1, 2))]
xdegs = st.integers(min_value=0, max_value=8)
precisions = st.integers(min_value=1, max_value=48)

PRODUCTS = [(binomial_product, 1, False),
            (negative_binomial_product, -1, True),
            (generalized_pochhammer, -1, False)]
SUMS = [(binomial_series, binomial_coefficients),
        (negative_binomial_series, negative_binomial_coefficients)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRODUCTS), rationals(), xdegs, precisions)
def test_product_matches_full_length_factors(route, r, xdeg, precision):
    fn, sign, braces_on_top = route
    want = reference_product(r, xdeg, precision, sign, braces_on_top)
    assert fn(r, xdeg, precision).to_json() == want.to_json()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PRODUCTS), st.sampled_from(PERIODIC),
       st.integers(min_value=0, max_value=5),
       st.integers(min_value=1, max_value=24))
def test_product_of_periodic_matches_full_length_factors(route, value, xdeg,
                                                         precision):
    fn, sign, braces_on_top = route
    want = reference_product(value, xdeg, precision, sign, braces_on_top)
    assert fn(value, xdeg, precision).to_json() == want.to_json()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SUMS), rationals(), xdegs, precisions)
def test_sum_matches_exact_binomials(route, r, xdeg, precision):
    fn, exact_coefficients = route
    want = reference_sum(r, xdeg, precision, exact_coefficients)
    assert fn(r, xdeg, precision).to_json() == want.to_json()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SUMS), irrationals, xdegs,
       st.integers(min_value=1, max_value=32))
def test_irrational_sum_matches_full_length_factors(route, value, xdeg,
                                                    precision):
    fn = route[0]
    sign = -1 if fn is binomial_series else 1
    want = reference_irrational_sum(value, xdeg, precision, sign)
    assert fn(value, xdeg, precision).to_json() == want.to_json()


@settings(max_examples=150, deadline=None)
@given(st.one_of(irrationals, rationals()),
       st.integers(min_value=-1, max_value=6),
       st.integers(min_value=1, max_value=32))
def test_q_binomial_series_matches_full_length_factors(value, k, precision):
    want = reference_q_binomial_series(value, k, precision)
    assert q_binomial_series(value, k, precision).to_json() == want.to_json()


@settings(max_examples=150, deadline=None)
@given(rationals(low=0, high=6), precisions)
def test_gamma_kernel_matches_full_length_factors(a, precision):
    want = reference_kernel(a, precision)
    _cache.clear()
    assert _kernel_series(a, precision).to_json() == want.to_json()


# descents of up to 3 factors among the rationals in [-3, 3), and of 5
# to 8 below -4
@settings(max_examples=150, deadline=None)
@given(st.one_of(rationals(), rationals(low=-8, high=-4))
       .filter(lambda r: r >= 0 or r.denominator > 1),
       st.integers(min_value=0, max_value=48))
@example(Fraction(-17, 4), 0)
@example(Fraction(-61, 10), 1)
@example(Fraction(1, 2), 0)
def test_pochhammer_matches_expanded_divisors(r, precision):
    want = reference_pochhammer(r, precision)
    _cache.clear()
    assert pochhammer_at_q(r, precision).to_json() == want.to_json()


# the arguments below 1 of the Gamma panel of test_precision.py, and two
# whose descents divide by 31 and 41 factors
DESCENT_ARGS = [Fraction(1, 3), Fraction(-5, 2), Fraction(-29, 10),
                Fraction(-5, 6), Fraction(-17, 4), Fraction(-61, 2),
                Fraction(-121, 3)]


@pytest.mark.parametrize('r', DESCENT_ARGS, ids=str)
@pytest.mark.parametrize('precision', [1, 8, 32])
def test_gamma_below_one_matches_ratfun_descent(r, precision):
    assert q_gamma(r, precision) == reference_gamma(r, precision)


@settings(max_examples=50, deadline=None)
@given(rationals(low=-20, high=1).filter(lambda r: r.denominator > 1),
       st.sampled_from([1, 8, 32]))
def test_gamma_descent_matches_on_a_random_panel(r, precision):
    assert q_gamma(r, precision) == reference_gamma(r, precision)


def test_integer_sums_keep_exact_zeros():
    for (fn, exact_coefficients), r in itertools.product(SUMS, (-2, 0, 3)):
        got = fn(r, 6, 10)
        assert got.to_json() == reference_sum(
            r, 6, 10, exact_coefficients).to_json()
    # binom(3, k) vanishes for k > 3, binom(k - 3, k) for k >= 3
    for fn, r, first_zero in ((binomial_series, 3, 4),
                              (negative_binomial_series, -2, 3)):
        zeros = [c.is_zero and c.is_exact
                 for c in fn(r, 6, 10).coefficients()]
        assert zeros == [k >= first_zero for k in range(7)]


def test_no_x_coefficients_below_degree_zero():
    # a negative x-degree is outside the domain, for both routes
    for fn in [route[0] for route in PRODUCTS + SUMS]:
        for value in (Fraction(1, 2), Fraction(-7, 3), 3, PERIODIC[0]):
            for xdeg in (-1, -5):
                with pytest.raises(DomainError, match='x-degree'):
                    fn(value, xdeg, 5)
            assert fn(value, 0, 5).xlength == 1
