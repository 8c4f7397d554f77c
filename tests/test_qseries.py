import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qreals.qseries as qseries
from qreals import _cache
from qreals import (ConvergentSequence, DomainError, InsufficientPrecisionError, IntPolynomial,
                    LaurentSeries, PeriodicContinuedFraction,
                    QRationalFunction, RationalValue, gamma_power,
                    gamma_reflection, pochhammer_at_q, q_binomial, q_brace,
                    q_gamma, q_rational, q_real_series, ratfun,
                    series_from_ratfun)
from qreals.cli import main
from qreals.qseries import (XSeries, binomial_coefficients, binomial_product,
                            binomial_series, generalized_pochhammer,
                            negative_binomial_coefficients,
                            negative_binomial_product,
                            negative_binomial_series, q_derivative, xseries)
from qreals.series import _Shape, series


# exact or truncated, zero ones included, at negative orders
laurent = st.builds(
    lambda o, cs, extra, exact: series(
        o, cs, math.inf if exact else o + len(cs) + extra),
    st.integers(min_value=-5, max_value=5),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=6),
    st.integers(min_value=0, max_value=4), st.booleans())
# exact in x, or known through x^(len - 1)
xs = st.builds(lambda cs, exact: xseries(cs, None if exact else len(cs)),
               st.lists(laurent, min_size=1, max_size=4), st.booleans())


def P(*coeffs):
    return IntPolynomial(coeffs)


def expand(rf, precision=24):
    return series_from_ratfun(rf, precision)


class TestXSeries:
    def test_factory_and_access(self):
        f = xseries([1, P(1, 1), Fraction(1, 2)])
        assert f.xlength == math.inf
        assert f.coefficient(1) == LaurentSeries.from_polynomial(P(1, 1))
        assert f.coefficient(7).is_zero
        g = xseries([1, 2], xlength=5)
        assert g.xlength == 5
        assert g.coefficient(4).is_zero
        with pytest.raises(InsufficientPrecisionError):
            g.coefficient(5)
        with pytest.raises(ValueError):
            xseries([1, 2, 3], xlength=2)

    def test_add_takes_shorter_length(self):
        f = xseries([1, 1], xlength=4)
        g = xseries([0, 2, 5], xlength=3)
        h = f + g
        assert h.xlength == 3
        assert [c.coefficient(0) for c in h.coefficients(3)] == [1, 3, 5]

    def test_mul_exact(self):
        f = xseries([1, 1])            # 1 + x
        g = xseries([1, -1])           # 1 - x
        h = f * g
        assert h.xlength == math.inf
        assert len(h.coefficients()) == 3
        assert [c.coefficient(0) for c in h.coefficients(3)] == [1, 0, -1]

    def test_mul_length_via_valuation(self):
        # unknown tail of the right factor is pushed out by the known
        # zero prefix of the left factor
        f = xseries([0, 0, 1])                   # x^2, exact
        g = xseries([1, 1], xlength=2)
        assert (f * g).xlength == 4
        assert (g * f).xlength == 4

    def test_division_round_trip(self):
        f = xseries([1, 3, -2, 1], xlength=6)
        g = xseries([1, -1])
        assert ((f * g) / g).agrees_with(f, 6)

    def test_division_of_exact_needs_truncation(self):
        f = xseries([1, -1, 0, 2])
        with pytest.raises(InsufficientPrecisionError):
            f / xseries([1, -1])
        quotient = f.truncate_x(5) / xseries([1, -1])
        known = [c.coefficient(0) for c in quotient.coefficients(5)]
        assert known == [1, 0, 0, 2, 2]

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            xseries([1, 2]) / xseries([])

    def test_scalar_mixing(self):
        f = xseries([1, 1], xlength=3)
        assert (2 * f).coefficient(1).coefficient(0) == 2
        g = f * LaurentSeries.q_power(2)
        assert g.coefficient(0).order == 2

    def test_substitute_x(self):
        f = xseries([1, 1, 1], xlength=3)
        g = f.substitute_x(LaurentSeries.q_power(1))
        assert g.coefficient(2).order == 2
        h = f.substitute_x(-1)
        assert h.coefficient(1).coefficient(0) == -1

    def test_truncate_q_makes_precision_uniform(self):
        f = xseries([1, P(1, 1, 1)]).truncate_q(2)
        assert f.precision == 2
        assert f.coefficient(1).precision == 2

    def test_str_and_json(self):
        f = xseries([1, P(1, 1)], xlength=3).truncate_q(8)
        text = str(f)
        assert '[x^0]' in text and 'O(x^3)' in text
        blob = f.to_json()
        assert blob['xlength'] == 3 and blob['precision'] == 8
        assert len(blob['coefficients']) == 3


def test_negative_binomial_coefficients_for_one_half():
    got = negative_binomial_coefficients(Fraction(1, 2), 5)
    assert got == (
        QRationalFunction.one(),
        ratfun(1, P(1), P(1, 1)),
        ratfun(1, P(1, 1, 1), P(1, 3, 3, 1)),
        ratfun(1, P(1, 2, 1, 1), P(1, 4, 6, 4, 1)),
        ratfun(1, P(1, 4, 7, 8, 7, 5, 2, 1),
               P(1, 6, 16, 26, 30, 26, 16, 6, 1)),
    )


def test_binomial_coefficients_for_five_thirds():
    got = binomial_coefficients(Fraction(5, 3), 4)
    assert got == (
        QRationalFunction.one(),
        ratfun(0, P(1, 1, 2, 1), P(1, 1, 1)),
        ratfun(2, P(1, 1, 2, 1), P(1, 2, 3, 2, 1)),
        ratfun(3, P(-1, -1, -2, -1),
               P(1, 4, 10, 16, 19, 16, 10, 4, 1)),
    )


def test_binomial_series_integer_is_finite_product():
    got = binomial_series(2, xdeg=4, precision=16)
    expected = (xseries([1, 1]) * xseries([1, LaurentSeries.q_power(1)]))
    expected = expected.truncate_x(5).truncate_q(16)
    assert got == expected


def test_product_route_matches_sum_route_rational():
    for value in [Fraction(1, 2), Fraction(5, 3), 2]:
        a = binomial_series(value, xdeg=5, precision=20)
        b = binomial_product(value, xdeg=5, precision=20)
        assert b.agrees_with(a, 6, 20), value
        c = negative_binomial_series(value, xdeg=5, precision=20)
        d = negative_binomial_product(value, xdeg=5, precision=20)
        assert d.agrees_with(c, 6, 20), value


def test_product_route_matches_sum_route_irrational():
    silver = PeriodicContinuedFraction((2,), (2,))
    a = binomial_series(silver, xdeg=4, precision=12)
    b = binomial_product(silver, xdeg=4, precision=12)
    assert b.agrees_with(a, 5, 12)
    c = negative_binomial_series(silver, xdeg=4, precision=12)
    d = negative_binomial_product(silver, xdeg=4, precision=12)
    assert d.agrees_with(c, 5, 12)


def test_shift_laws():
    alpha = Fraction(4, 3)
    lhs = binomial_series(alpha + 1, xdeg=5, precision=20)
    base = binomial_series(alpha, xdeg=5, precision=20)
    brace = expand(q_brace(alpha), 20)
    assert lhs.agrees_with(xseries([1, brace]) * base, 6)
    twisted = base.substitute_x(LaurentSeries.q_power(1))
    assert lhs.agrees_with(xseries([1, 1]) * twisted, 6)

    lhs2 = negative_binomial_series(alpha + 1, xdeg=5, precision=20)
    base2 = negative_binomial_series(alpha, xdeg=5, precision=20)
    assert lhs2.agrees_with(base2 / xseries([1, -brace]), 6)


def test_functional_equations():
    alpha = Fraction(5, 2)
    brace = expand(q_brace(alpha), 20)
    f = binomial_series(alpha, xdeg=5, precision=20)
    lhs = xseries([1, brace]) * f
    rhs = xseries([1, 1]) * f.substitute_x(LaurentSeries.q_power(1))
    assert lhs.agrees_with(rhs, 6)

    g = negative_binomial_series(alpha, xdeg=5, precision=20)
    lhs2 = xseries([1, -1]) * g
    rhs2 = xseries([1, -brace]) * g.substitute_x(LaurentSeries.q_power(1))
    assert lhs2.agrees_with(rhs2, 6)


def test_q_derivative_closed_forms():
    alpha = Fraction(5, 3)
    scale = expand(q_rational(alpha), 20)
    f = binomial_series(alpha, xdeg=6, precision=20)
    lhs = q_derivative(f)
    rhs = scale * binomial_series(
        alpha - 1, xdeg=5, precision=20).substitute_x(LaurentSeries.q_power(1))
    assert lhs.agrees_with(rhs, 6)

    g = negative_binomial_series(alpha, xdeg=6, precision=20)
    lhs2 = q_derivative(g)
    rhs2 = scale * negative_binomial_series(alpha + 1, xdeg=5, precision=20)
    assert lhs2.agrees_with(rhs2, 6)


def test_q_derivative_on_exact_polynomial():
    # D_q(x^2) = [2] x;  D_q(constant) = 0
    f = q_derivative(xseries([0, 0, 1]))
    assert f.xlength == math.inf
    assert f.coefficient(1) == LaurentSeries.from_polynomial(P(1, 1))
    assert q_derivative(xseries([5])).is_zero


def test_generalized_pochhammer_integer_length():
    got = generalized_pochhammer(3, xdeg=4, precision=12)
    expected = xseries([1, -1])
    for j in (1, 2):
        expected = expected * xseries([1, LaurentSeries.q_power(j, -1)])
    assert got.agrees_with(expected.truncate_x(5), 5, 12)


def test_generalized_pochhammer_inverts_negative_binomial():
    value = Fraction(5, 3)
    gp = generalized_pochhammer(value, xdeg=5, precision=18)
    nb = negative_binomial_series(value, xdeg=5, precision=18)
    assert (gp * nb).agrees_with(xseries([1], xlength=6), 6, 18)


def test_generalized_pochhammer_is_binomial_at_negated_x():
    value = Fraction(5, 2)
    gp = generalized_pochhammer(value, xdeg=5, precision=18)
    alt = binomial_series(value, xdeg=5, precision=18).substitute_x(-1)
    assert gp.agrees_with(alt, 6, 18)


# each product route with its sum route; (x; q)_a is the deformed
# (1+x)^a at -x
ROUTES = [
    (binomial_product, binomial_series),
    (negative_binomial_product, negative_binomial_series),
    (generalized_pochhammer,
     lambda value, xdeg, p: binomial_series(value, xdeg, p).substitute_x(-1)),
]


@pytest.mark.parametrize('precision', range(-3, 2))
# brace orders 2 down to -3
@pytest.mark.parametrize('value', [
    Fraction(7, 3), Fraction(1, 2), Fraction(-1, 10), Fraction(-4, 3),
    Fraction(-11, 10), Fraction(-21, 10)], ids=str)
@pytest.mark.parametrize('product, total', ROUTES,
                         ids=['B', 'b', 'pochhammer'])
def test_product_routes_agree_with_sums_at_small_precision(
        product, total, value, precision):
    xdeg = 3
    p = product(value, xdeg, precision)
    s = total(value, xdeg, precision)
    assert p.precision == s.precision == precision
    assert p.agrees_with(s, xdeg + 1)


def _shapes(f):
    return xseries([_Shape(c.order, c.precision) for c in f.coefficients()],
                   None if f.xlength == math.inf else f.xlength)


@given(xs, xs, laurent)
def test_shapes_never_promise_more_than_the_series_keep(f, g, c):
    sc = _Shape(c.order, c.precision)
    for op, shape_op in (
            (lambda: f * g, lambda: _shapes(f) * _shapes(g)),
            (lambda: f / g, lambda: _shapes(f) / _shapes(g)),
            (lambda: c * f, lambda: sc * _shapes(f)),
            (lambda: f.substitute_x(c), lambda: _shapes(f).substitute_x(sc))):
        try:
            real = op()
        except (InsufficientPrecisionError, ZeroDivisionError):
            continue
        shape = shape_op()
        assert shape.precision <= real.precision
        for s, r in zip(shape.coefficients(), real.coefficients()):
            assert s.precision <= r.precision


@pytest.mark.parametrize('xdeg', [-1, -5])
def test_negative_x_degree_is_a_domain_error(xdeg):
    value = RationalValue(Fraction(5, 3))
    for build in (binomial_series, negative_binomial_series,
                  binomial_product, negative_binomial_product):
        with pytest.raises(DomainError, match='x-degree'):
            build(value, xdeg, 8)


@pytest.mark.parametrize('family', ['B', 'b'])
def test_cli_negative_xdeg_is_a_one_line_usage_error(capsys, family):
    code = main(['series', family, '5/3', '--xdeg', '-1'])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, '')
    assert captured.err == 'error: xdeg must be at least 0\n'


# -- the product table ------------------------------------------------------

PRODUCTS = [binomial_product, negative_binomial_product,
            generalized_pochhammer]
table = qseries._product_table
# rationals of either sign, integers among them
product_values = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.builds(Fraction, st.integers(min_value=-30, max_value=30),
              st.integers(min_value=1, max_value=8)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRODUCTS), product_values,
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=-2, max_value=40))
def test_warm_product_entries_equal_cold_builds(build, value, xdeg,
                                                precision):
    # the entry is handed out again after earlier callers have used it in
    # series arithmetic, which must not have changed it
    _cache.clear()
    cold = build(value, xdeg, precision).to_json()
    entry = build(value, xdeg, precision)
    entry * entry - entry
    entry.substitute_x(2)
    hits = table.cache_info().hits
    assert build(value, xdeg, precision).to_json() == cold
    assert table.cache_info().hits == hits + 1


def test_integer_and_fraction_share_a_product_entry():
    table.cache_clear()
    a = binomial_product(2, 3, 8)
    b = binomial_product(Fraction(2), 3, 8)
    info = table.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert b is a


def test_negative_x_degree_is_raised_every_time_and_not_cached():
    table.cache_clear()
    for _ in range(3):
        for build in PRODUCTS:
            with pytest.raises(DomainError, match='x-degree'):
                build(Fraction(5, 3), -1, 8)
    info = table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_convergent_sequences_are_expanded_every_call():
    factory_calls = []

    def convergents():
        factory_calls.append(1)
        return iter([Fraction(3, 2)] * 4)
    value = ConvergentSequence(convergents, 'three halves')
    table.cache_clear()
    want = binomial_product(Fraction(3, 2), 3, 8).to_json()
    for n in range(1, 4):
        before = len(factory_calls)
        assert binomial_product(value, 3, 8).to_json() == want
        assert len(factory_calls) > before
    assert table.cache_info().currsize == 1


def test_product_table_is_bounded():
    # x-degree 1 at precision 2 keeps every build to a few terms
    table.cache_clear()
    for n in range(70):
        binomial_product(Fraction(n, 7), 1, 2)
    info = table.cache_info()
    assert info.currsize == info.maxsize == 64


def test_clear_empties_every_registered_table():
    binomial_product(Fraction(5, 3), 3, 8)
    q_binomial(Fraction(5, 2), 4)
    q_gamma(Fraction(7, 3), 8)
    gamma_reflection(Fraction(1, 3), 8)
    gamma_power(1, 2, 8)
    pochhammer_at_q(Fraction(1, 3), 8)
    assert {'qreals.qcore._q_rational_cached', 'qreals.qbinomial._cyclotomic',
            'qreals.qgamma._gamma_table', 'qreals.qgamma._reflection_table',
            'qreals.qgamma._power_table', 'qreals.qgamma._pochhammer_product',
            'qreals.qseries._product_table'} <= set(_cache.info())
    assert all(info.currsize for info in _cache.info().values())
    _cache.clear()
    assert all(info.currsize == 0 for info in _cache.info().values())


def test_product_routes_stay_plain_functions():
    # the tracer wraps a layer's public names only where
    # inspect.isfunction holds
    for build in PRODUCTS:
        assert inspect.isfunction(build), build.__name__


@pytest.mark.parametrize('build', PRODUCTS + [
    lambda value, *args: q_real_series(value)])
@pytest.mark.parametrize('value', [0.5, '1/2'], ids=repr)
def test_non_rational_numbers_are_a_type_error(build, value):
    with pytest.raises(TypeError, match=type(value).__name__):
        build(value, 3, 8)
