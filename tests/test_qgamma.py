"""Gamma function: frozen series prefixes, shift law, integrality."""

import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qreals
import qreals.identities as identities
import qreals.qbinomial as qbinomial
import qreals.qcore as qcore
import qreals.qgamma as qgamma
from qreals import _cache
from qreals import (DEFAULT_PRECISION, DomainError, IntegralityError,
                    order_at_zero, q_binomial, q_brace, q_factorial,
                    q_rational)
from qreals.qgamma import (
    gamma_convergence_report,
    gamma_power,
    gamma_reflection,
    pochhammer_at_q,
    q_gamma,
    scalar_binomial_series,
    _gamma_order,
    _gamma_table,
    _pochhammer_order,
    _pochhammer_product,
    _power_table,
    _reflection_table,
    _require_integer_coefficients,
)
from qreals.series import LaurentSeries, series, series_from_ratfun


def assert_prefix(s, start, values):
    want = [Fraction(v) for v in values]
    got = [s.coefficient(start + i) for i in range(len(values))]
    assert got == want


def test_scalar_series_integer_exponents():
    assert scalar_binomial_series(2, 6) == series(0, [1] * 6, 6)
    assert scalar_binomial_series(1, 6) == series(0, [1], 6)
    # (1-q)^(-2) has coefficients n+1
    assert_prefix(scalar_binomial_series(3, 6), 0, [1, 2, 3, 4, 5, 6])


def test_scalar_series_half_integer():
    s = scalar_binomial_series(Fraction(3, 2), 6)
    assert_prefix(s, 0, ['1', '1/2', '3/8', '5/16', '35/128', '63/256'])
    assert s.precision == 6


def test_gamma_at_small_integers():
    assert q_gamma(1, 10) == series(0, [1], 10)
    assert q_gamma(2, 10) == series(0, [1], 10)
    assert q_gamma(3, 10) == series(0, [1, 1], 10)
    for n in range(7):
        want = series_from_ratfun(q_factorial(n), 12)
        assert q_gamma(n + 1, 12) == want, n


def test_gamma_three_halves():
    g = q_gamma(Fraction(3, 2), 8)
    assert g.order == 0
    assert g.precision == 8
    assert_prefix(g, 0, ['1', '1/2', '-5/8', '-3/16', '115/128',
                         '-401/256', '2383/1024', '-8139/2048'])


def test_gamma_one_half():
    g = q_gamma(Fraction(1, 2), 7)
    assert g.order == -1
    assert_prefix(g, -1, ['1', '3/2', '-1/8', '-13/16', '91/128',
                          '-171/256', '779/1024', '-3373/2048'])


def test_gamma_five_halves():
    g = q_gamma(Fraction(5, 2), 8)
    assert_prefix(g, 0, ['1', '1/2', '3/8', '-11/16', '99/128',
                         '-417/256', '3367/1024', '-13315/2048'])


def test_gamma_minus_one_half():
    g = q_gamma(Fraction(-1, 2), 6)
    assert g.order == 0
    assert_prefix(g, 0, ['-1', '-5/2', '-11/8', '15/16', '13/128',
                         '-11/256'])


def test_gamma_thirds():
    g = q_gamma(Fraction(2, 3), 5)
    assert g.order == -1
    assert_prefix(g, -1, ['1', '2/3', '5/9', '-122/81', '272/243',
                          '-259/729'])
    h = q_gamma(Fraction(1, 3), 4)
    assert h.order == -2
    assert_prefix(h, -2, ['1', '4/3', '14/9', '-22/81', '-193/243',
                          '-83/729'])


def test_gamma_default_precision():
    g = q_gamma(Fraction(3, 2))
    assert g.precision == DEFAULT_PRECISION


def test_pochhammer_default_precision():
    assert qreals.pochhammer_at_q(Fraction(1, 2)) == pochhammer_at_q(
        Fraction(1, 2), DEFAULT_PRECISION)


@pytest.mark.parametrize('alpha', [
    Fraction(1, 2), Fraction(5, 3), Fraction(-1, 2), Fraction(7, 4),
    Fraction(5, 2), Fraction(-7, 3),
])
def test_gamma_shift_law(alpha):
    from qreals import q_rational
    lhs = q_gamma(alpha + 1, 12)
    factor = series_from_ratfun(q_rational(alpha), 20)
    rhs = (factor * q_gamma(alpha, 20)).truncate(12)
    assert lhs == rhs


def test_reflection_products():
    r = gamma_reflection(Fraction(1, 2), 6)
    assert_prefix(r, -2, [1, 3, 2, -2, -1, 1, 0, -2])
    r32 = gamma_reflection(Fraction(3, 2), 6)
    assert_prefix(r32, 0, [-1, -3, -2, 2, 1, -1])
    r23 = gamma_reflection(Fraction(2, 3), 6)
    assert_prefix(r23, -3, [1, 2, 3, 0, -1, -2, 2])
    assert r23 == gamma_reflection(Fraction(1, 3), 6)


def test_power_products():
    p = gamma_power(2, 3, 5)
    assert p.order == -3
    assert_prefix(p, -3, [1, 2, 3, -2, -1, -3, 10, -13])
    assert gamma_power(1, 2, 8) == gamma_reflection(Fraction(1, 2), 8)
    sq = gamma_power(3, 2, 5)
    assert_prefix(sq, 0, [1, 1, -1, -1, 2])


def test_gamma_binomial_form():
    top = q_gamma(Fraction(7, 2), 16)
    den = q_gamma(3, 16) * q_gamma(Fraction(3, 2), 16)
    want = series_from_ratfun(q_binomial(Fraction(5, 2), 2), 14)
    assert (top / den).agrees_with(want, 14)

    top = q_gamma(Fraction(8, 3), 16)
    den = q_gamma(2, 16) * q_gamma(Fraction(5, 3), 16)
    from qreals import q_rational_series
    assert (top / den).agrees_with(q_rational_series(Fraction(5, 3), 14), 14)


def test_pochhammer_at_q_basics():
    assert pochhammer_at_q(0, 8) == LaurentSeries.one().truncate(8)
    from qreals import IntPolynomial
    poly = IntPolynomial((1, -1)) * IntPolynomial((1, 0, -1)) \
        * IntPolynomial((1, 0, 0, -1))
    want = LaurentSeries.from_polynomial(poly).truncate(12)
    assert pochhammer_at_q(3, 12) == want
    with pytest.raises(DomainError):
        pochhammer_at_q(-2, 8)


def test_pochhammer_binomial_form():
    w = 16
    top = pochhammer_at_q(Fraction(5, 2), w)
    den = pochhammer_at_q(2, w) * pochhammer_at_q(Fraction(1, 2), w)
    want = series_from_ratfun(q_binomial(Fraction(5, 2), 2), 12)
    assert (top / den).agrees_with(want, 12)


def test_gamma_product_route():
    # gamma(a) = P(a - 1) (1 - q)^(1 - a) with the Pochhammer product
    # expanded factor by factor, every divisor 1 - q^j {a - 1}_q a
    # full-length series: independent of the binomial walk of q_gamma
    for alpha in (Fraction(3, 2), Fraction(2, 3), Fraction(7, 3)):
        w = 18
        brace = series_from_ratfun(q_brace(alpha - 1), w)
        product = LaurentSeries.one().truncate(w)
        for j in range(1, w + 1):
            product = (product * (1 - LaurentSeries.q_power(j))
                       / (1 - brace.shift(j)))
        via_product = product * scalar_binomial_series(alpha, w)
        assert via_product.agrees_with(q_gamma(alpha, 14), 14), alpha


def test_convergence_report():
    ok, orders = gamma_convergence_report(Fraction(3, 2), 8)
    assert ok
    assert orders == (0, 2, 3, 4, 5, 6, 7, 8)
    assert all(a < b for a, b in zip(orders, orders[1:]))

    ok, orders = gamma_convergence_report(Fraction(1, 2), 6)
    assert not ok
    assert orders == (0, 0, 0, 0, 0, 0)

    ok, orders = gamma_convergence_report(Fraction(-1, 2), 6)
    assert not ok
    assert orders == (0, -1, -2, -3, -4, -5)

    ok, orders = gamma_convergence_report(2, 4)
    assert ok
    assert orders == (0, 1, math.inf, math.inf)


def test_domain_errors():
    for bad in (0, -1, -5):
        with pytest.raises(DomainError):
            q_gamma(bad, 8)
    with pytest.raises(DomainError):
        gamma_reflection(2, 8)
    with pytest.raises(DomainError):
        gamma_power(0, 3, 8)
    with pytest.raises(DomainError):
        gamma_power(-4, 2, 8)
    with pytest.raises(DomainError):
        gamma_power(2, 0, 8)


def test_integrality_guard():
    with pytest.raises(IntegralityError):
        _require_integer_coefficients(
            series(0, [Fraction(1, 2)], 3), 'guard test')


def test_integrality_guard_names_the_first_fractional_coefficient():
    _require_integer_coefficients(series(-1, [3, 0, -2], 4), 'integral')
    with pytest.raises(IntegralityError,
                       match=r'^guard test: coefficient of q\^1 is 1/3, '
                       r'not an integer$'):
        _require_integer_coefficients(
            series(-1, [2, 4, Fraction(1, 3), 1], 4), 'guard test')


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-30, max_value=30, max_denominator=9),
       st.integers(min_value=-8, max_value=8))
def test_orders_come_from_the_floor_and_fractional_order(r, t):
    # every order of a shifted deformation, against the deformation
    # itself; the Gamma and Pochhammer orders sum them over the factors
    # below 1
    assert order_at_zero(r + t) == q_rational(r + t).order
    below = [q_rational(r + j).order for j in range(math.ceil(1 - r))]
    if r.denominator > 1 or r > 0:
        assert _gamma_order(r) == -sum(below)
    if r.denominator > 1 or r >= 0:
        assert _pochhammer_order(r) == -sum(below[1:])


# -- the builder caches -----------------------------------------------------

cache_precisions = st.integers(min_value=1, max_value=48)
gamma_args = st.builds(Fraction, st.integers(min_value=-12, max_value=40),
                       st.integers(min_value=1, max_value=6)).filter(
                           lambda r: r > 0 or r.denominator > 1)
pochhammer_args = st.builds(
    Fraction, st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12)).filter(
        lambda r: r >= 0 or r.denominator > 1)
# gamma(a/b)^b at a/b off the poles
power_args = st.tuples(st.integers(min_value=-9, max_value=12),
                       st.integers(min_value=1, max_value=4)).filter(
                           lambda ab: ab[0] > 0 or ab[0] % ab[1])
# (public front, its table, its arguments before the precision)
BUILDERS = [
    (q_gamma, _gamma_table, st.tuples(gamma_args)),
    (gamma_reflection, _reflection_table, st.tuples(gamma_args.filter(
        lambda r: r.denominator > 1 and abs(r) < 4))),
    (gamma_power, _power_table, power_args),
    (pochhammer_at_q, _pochhammer_product, st.tuples(pochhammer_args))]


def _fresh(build, args, precision):
    _cache.clear()
    return build(*args, precision).to_json()


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(BUILDERS), cache_precisions)
def test_warm_entries_equal_cold_builds(data, builder, precision):
    # the entry is handed out again after earlier callers have used it in
    # series arithmetic, which must not have changed it
    build, cache, args = builder
    args = data.draw(args)
    cold = _fresh(build, args, precision)
    entry = build(*args, precision)
    entry * entry - entry
    q_gamma(abs(args[0]) + 1, precision)
    hits = cache.cache_info().hits
    assert build(*args, precision).to_json() == cold
    assert cache.cache_info().hits == hits + 1


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(BUILDERS), cache_precisions,
       cache_precisions)
def test_precision_order_does_not_matter(data, builder, low, high):
    build, _, args = builder
    args = data.draw(args)
    low, high = sorted((low, high))
    want = {p: _fresh(build, args, p) for p in (low, high)}
    for first, second in ((high, low), (low, high)):
        _cache.clear()
        got = {p: build(*args, p).to_json() for p in (first, second)}
        assert got == want


def test_integer_and_fraction_share_an_entry():
    for build, cache in ((pochhammer_at_q, _pochhammer_product),
                         (q_gamma, _gamma_table)):
        _cache.clear()
        a = build(2, 12)
        b = build(Fraction(2), 12)
        info = cache.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert b is a


POLES = [lambda: pochhammer_at_q(-3, 8),
         lambda: pochhammer_at_q(Fraction(-6, 2), 8),
         lambda: q_gamma(0, 8), lambda: q_gamma(Fraction(-6, 2), 8),
         lambda: gamma_reflection(2, 8),
         lambda: gamma_reflection(Fraction(-4, 2), 8),
         lambda: gamma_power(-2, 1, 8), lambda: gamma_power(-4, 2, 8),
         lambda: gamma_power(1, 0, 8)]


def test_domain_errors_are_raised_every_time_and_not_cached():
    _cache.clear()
    for _ in range(3):
        for call in POLES:
            with pytest.raises(DomainError):
                call()
    for cache in (_gamma_table, _reflection_table, _power_table,
                  _pochhammer_product):
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


# (table, its bound, the key of entry n), each case named after its
# table; precision 2 keeps every build to a factor or two, and
# reflection keys vary only the precision, since both of its factors
# grow with the argument.  The order-only tables of the series path sit
# here too: a brace of 1/(n + 2), a one-step run plan at precision n and
# a Gamma checker's pad at floor n.
@pytest.mark.parametrize('cache, size, key', [
    pytest.param(cache, size, key, id=cache.__name__)
    for cache, size, key in [
        (_gamma_table, 128, lambda n: (Fraction(n, 7) + 1, 2)),
        (_reflection_table, 64, lambda n: (Fraction(1, 2), n)),
        (_power_table, 64, lambda n: (Fraction(n + 1), 1, 2)),
        (_pochhammer_product, 512, lambda n: (Fraction(n, 7), 2)),
        (qcore._brace_table, 256, lambda n: (1, n + 2, 2)),
        (qbinomial._run_plan, 1024, lambda n: (0, 1, (0, 0), n, -1)),
        (identities._pad_table, 1024,
         lambda n: (identities._gamma_shift_shapes, n, 1))]])
def test_caches_are_bounded(cache, size, key):
    _cache.clear()
    assert cache.cache_info().maxsize == size
    for n in range(size + 40):
        cache(*key(n))
    assert cache.cache_info().currsize == size
    _cache.clear()


# every rational of denominator 1, 2, 3 or 5 in [-5, 5] off the poles
GRID = sorted({Fraction(n, d) for d in (1, 2, 3, 5)
               for n in range(-5 * d, 5 * d + 1)} - set(range(-5, 1)))


@pytest.mark.parametrize('precision', range(-6, 5))
def test_gamma_routines_keep_any_precision(precision):
    # below precision 0 the factors know no term, and their orders
    # (their precisions) would eat the product's precision
    routines = [(lambda r, p: q_gamma(r, p), GRID),
                (lambda r, p: gamma_power(r.numerator, r.denominator, p),
                 GRID),
                (gamma_reflection, [r for r in GRID if r.denominator > 1])]
    for build, values in routines:
        for r in values:
            out = build(r, precision)
            assert out.precision == precision
            assert out == build(r, 5).truncate(precision)


def test_public_gamma_routines_stay_plain_functions():
    # the tracer wraps a layer's public names only where
    # inspect.isfunction holds, so the per-layer qgamma metrics see every
    # call only while these are undecorated
    for name in ('q_gamma', 'pochhammer_at_q', 'gamma_reflection',
                 'gamma_power'):
        assert inspect.isfunction(getattr(qgamma, name)), name
