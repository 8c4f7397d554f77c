import importlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import qreals.qcore as qcore
from qreals import _cache
from qreals.errors import DomainError, NonConvergenceError
from qreals.polynomial import IntPolynomial, _gcd_cofactors
from qreals.qcore import (ContinuedFraction, ConvergentSequence,
                          PeriodicContinuedFraction, RationalValue,
                          order_at_zero, parse_real_spec, q_brace,
                          q_brace_series, q_integer, q_rational,
                          q_rational_series, q_real_series)
from qreals.ratfun import QRationalFunction, ratfun
from qreals.series import LaurentSeries, series_from_ratfun


def P(*coeffs):
    return IntPolynomial(coeffs)


def RF(e, num, den=(1,)):
    return ratfun(e, P(*num), P(*den))


fractions_any = st.fractions(min_value=-8, max_value=8, max_denominator=9)


# -- continued fractions ----------------------------------------------------

@pytest.mark.parametrize('r, terms', [
    (Fraction(52, 23), (2, 3, 1, 5)),
    (Fraction(5, 3), (1, 1, 1, 1)),
    (Fraction(5, 2), (2, 2)),
    (Fraction(2), (1, 1)),
    (Fraction(5), (4, 1)),
    (Fraction(7, 2), (3, 2)),
])
def test_cf_expansion(r, terms):
    cf = ContinuedFraction.from_rational(r)
    assert cf.terms == terms
    assert cf.value() == r


def test_cf_rejects_small_values():
    for r in (1, Fraction(1, 2), 0, -3):
        with pytest.raises(DomainError):
            ContinuedFraction.from_rational(r)


def test_cf_validates_terms():
    with pytest.raises(DomainError):
        ContinuedFraction([2, 3, 1])
    with pytest.raises(DomainError):
        ContinuedFraction([2, 0])
    with pytest.raises(DomainError):
        ContinuedFraction([])


@given(st.fractions(min_value=1, max_value=50, max_denominator=40).filter(
    lambda r: r > 1))
def test_cf_round_trip(r):
    cf = ContinuedFraction.from_rational(r)
    assert cf.value() == r
    assert len(cf) % 2 == 0
    assert all(a >= 1 for a in cf.terms)


# -- integer deformations ---------------------------------------------------

def test_q_integer_values():
    assert q_integer(0) == QRationalFunction.zero()
    assert q_integer(1) == QRationalFunction.one()
    assert q_integer(4) == RF(0, (1, 1, 1, 1))
    assert q_integer(-1) == RF(-1, (-1,))
    assert q_integer(-2) == RF(-2, (-1, -1))


@given(st.integers(min_value=-20, max_value=20))
def test_q_integer_negation_rule(n):
    # [-n] = -q^-n [n]
    lhs = q_integer(-n)
    rhs = -QRationalFunction.q_power(-n) * q_integer(n)
    assert lhs == rhs


# -- rational deformations --------------------------------------------------

@pytest.mark.parametrize('r, expected', [
    (Fraction(5, 2), RF(0, (1, 2, 1, 1), (1, 1))),
    (Fraction(5, 3), RF(0, (1, 1, 2, 1), (1, 1, 1))),
    (Fraction(1, 2), RF(1, (1,), (1, 1))),
    (Fraction(2, 3), RF(1, (1, 1), (1, 1, 1))),
    (Fraction(-3, 2), RF(-2, (-1, -1, -1), (1, 1))),
    (Fraction(0), QRationalFunction.zero()),
    (Fraction(1), QRationalFunction.one()),
])
def test_q_rational_frozen_values(r, expected):
    assert q_rational(r) == expected


def _q_integer_closed(n):
    # (1 - q^n)/(1 - q), reduced by a gcd; q_integer is q_rational at an
    # integer, so both are checked against this
    one_minus = P(1, *[0] * (abs(n) - 1), -1) if n else P()
    return ratfun(min(n, 0), one_minus if n >= 0 else -one_minus, P(1, -1))


def test_q_rational_accepts_ints():
    assert q_rational(3) == _q_integer_closed(3) == RF(0, (1, 1, 1))
    assert q_rational(-2) == _q_integer_closed(-2) == RF(-2, (-1, -1))


@given(st.integers(min_value=-12, max_value=12))
def test_q_rational_matches_q_integer(n):
    assert q_rational(Fraction(n)) == q_integer(n) == _q_integer_closed(n)


@given(fractions_any, st.integers(min_value=1, max_value=4))
def test_shift_law(r, n):
    # [r + n] = [n] + q^n [r]
    lhs = q_rational(r + n)
    rhs = q_integer(n) + QRationalFunction.q_power(n) * q_rational(r)
    assert lhs == rhs


def test_order_examples():
    assert q_rational(Fraction(7, 5)).order == 0
    assert q_rational(Fraction(1, 2)).order == 1
    assert q_rational(Fraction(-7, 5)).order == -2
    assert q_rational(0).order == math.inf


# -- braces -----------------------------------------------------------------

@pytest.mark.parametrize('r, expected', [
    (Fraction(1, 2), RF(0, (1, 0, 1), (1, 1))),
    (Fraction(5, 3), RF(1, (1, 0, 1, 1), (1, 1, 1))),
    (Fraction(25, 7), RF(3, (1, 1, 2, 1, 1, 1), (1, 2, 2, 1, 1))),
    (Fraction(1, 4), RF(0, (1, 1, 1, 0, 1), (1, 1, 1, 1))),
    (Fraction(1), QRationalFunction.q_power(1)),
    (Fraction(0), QRationalFunction.one()),
])
def test_q_brace_frozen_values(r, expected):
    assert q_brace(r) == expected


@given(fractions_any, st.integers(min_value=1, max_value=4))
def test_brace_shift_is_q_power(r, n):
    assert q_brace(r + n) == QRationalFunction.q_power(n) * q_brace(r)


@given(fractions_any)
def test_brace_negation_swaps_base(r):
    assert q_brace(-r) == q_brace(r).substitute_q_inverse()


# -- series mode ------------------------------------------------------------

@pytest.mark.parametrize('r, prefix', [
    (Fraction(3, 2), [1, 0, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1]),
    (Fraction(11, 7), [1, 0, 1, -1, 1, 0, -2, 4, -5, 4, 0, -7]),
    (Fraction(344, 219), [1, 0, 1, -1, 1, -1, 2, -3, 3, -4, 6, -7]),
])
def test_series_prefixes(r, prefix):
    s = q_rational_series(r, 12)
    assert s.coefficients(0, 12) == prefix


def test_series_prefix_52_23():
    s = q_rational_series(Fraction(52, 23), 8)
    assert s.coefficients(0, 8) == [1, 1, 0, 0, 0, 1, -1, 0]


# The two towers the matrix product replaced, kept as references: one in
# QRationalFunction arithmetic, which takes a gcd at every level, and one
# in truncated Laurent arithmetic.

def _qint_inverse(a):
    # [a] at 1/q, which is q^-(a-1) [a]_q
    return QRationalFunction(-(a - 1), IntPolynomial((1,) * a),
                             IntPolynomial.one())


def _tower_exact(terms):
    acc = _qint_inverse(terms[-1])
    for i in range(len(terms) - 2, -1, -1):
        a = terms[i]
        if i % 2 == 0:
            acc = _q_integer_closed(a) + QRationalFunction.q_power(a) / acc
        else:
            acc = _qint_inverse(a) + QRationalFunction.q_power(-a) / acc
    return acc


def _tower_series(terms, precision):
    acc = series_from_ratfun(_qint_inverse(terms[-1]), precision)
    for i in range(len(terms) - 2, -1, -1):
        a = terms[i]
        if i % 2 == 0:
            head = LaurentSeries.from_polynomial(IntPolynomial((1,) * a))
            acc = head.truncate(precision) + LaurentSeries.q_power(a) / acc
        else:
            head = series_from_ratfun(_qint_inverse(a), precision)
            acc = head + LaurentSeries.q_power(-a) / acc
    return acc


def _shift(r):
    # the smallest m >= 0 that puts r + m in (1, 2] when r <= 1
    return 0 if r > 1 else math.floor(2 - r)


def _reference_exact(r):
    m = _shift(r)
    up = _tower_exact(ContinuedFraction.from_rational(r + m).terms)
    return (up - _q_integer_closed(m)) * QRationalFunction.q_power(-m)


def _reference_series(r, precision):
    m = _shift(r)
    s = _tower_series(ContinuedFraction.from_rational(r + m).terms,
                      precision + m)
    if m:
        s = (s - IntPolynomial((1,) * m)).shift(-m)
    return s.truncate(precision)


def _reference_real_series(value, precision):
    run, last = 0, None
    for c in itertools.islice(value.convergents(), qcore.CONVERGENT_BUDGET):
        s = _reference_series(c, precision)
        agrees = last is not None and s.agrees_with(last, precision)
        run = run + 1 if agrees else 1
        if run >= qcore.STABLE_WINDOW:
            return s
        last = s
    return None


@settings(max_examples=150, deadline=None)
@given(st.fractions(min_value=-60, max_value=60, max_denominator=40),
       st.sampled_from((1, 8, 24, 32)))
@example(Fraction(52, 23), 24)
@example(Fraction(5, 3), 24)
@example(Fraction(7, 2), 24)
@example(Fraction(2), 24)
@example(Fraction(1, 2), 24)
@example(Fraction(-8, 5), 24)
@example(Fraction(11, 7), 24)
@example(Fraction(-3), 24)
def test_tower_matches_both_references_on_rationals(r, precision):
    assert q_rational(r) == _reference_exact(r)
    s = q_rational_series(r, precision)
    assert s.agrees_with(_reference_series(r, precision), precision), r
    assert s.precision >= precision


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=13).filter(
    lambda f: f < 1), st.integers(min_value=-1000, max_value=1000))
@example(Fraction(1, 2), -1000)
@example(Fraction(5, 7), -4)
@example(Fraction(0), -1000)
@example(Fraction(3, 8), 1000)
def test_q_rational_reads_the_law_of_its_fractional_part(f, m):
    # [f + m]_q = [m]_q + q^m [f]_q as a sum of rational functions, far
    # below and above 0, against references built without the law
    expected = (_q_integer_closed(m)
                + QRationalFunction.q_power(m) * _reference_exact(f))
    assert q_rational(f + m) == expected
    # the law of f + m is that of f with q^m in the power of q, lo <= 0
    lo, den, c = qcore._shift_law(f + m)
    lo_f, den_f, c_f = qcore._shift_law(f)
    assert (lo, den) == (min(0, m), den_f) and lo_f == 0
    assert c == c_f.shift(max(0, m))
    assert q_brace(f + m) == 1 + RF(1, (1,), (1,)) * expected - expected


def _even_terms(terms):
    return terms + [1] if len(terms) % 2 else terms


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 6), st.integers(1, 3000)),
                min_size=1, max_size=27).map(_even_terms),
       st.integers(0, 3), st.sampled_from((1, 8, 32)))
@example([1, 3000, 3000, 1], 0, 32)
@example([1] + [500] * 8 + [1], 0, 32)
def test_tower_matches_truncated_reference_on_long_terms(terms, down,
                                                         precision):
    # r - down for an integer down covers the shift law on long terms
    r = ContinuedFraction(terms).value() - down
    s = q_rational_series(r, precision)
    assert s.agrees_with(_reference_series(r, precision), precision)
    assert s.precision >= precision
    if not down:
        assert s.agrees_with(_tower_series(terms, precision), precision)


@settings(max_examples=32, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=2),
       st.lists(st.integers(1, 5), min_size=1, max_size=3))
def test_periodic_series_match_the_truncated_reference(head, period):
    value = PeriodicContinuedFraction(tuple(head), tuple(period))
    expected = _reference_real_series(value, 16)
    if expected is None:
        with pytest.raises(NonConvergenceError):
            q_real_series(value, 16)
    else:
        assert q_real_series(value, 16).agrees_with(expected, 16)


def test_rational_deformations_take_no_gcd(monkeypatch):
    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return _gcd_cofactors(a, b)

    # the package exports a function named ratfun, so fetch the module;
    # every gcd it takes goes through _gcd_cofactors
    monkeypatch.setattr(importlib.import_module('qreals.ratfun'),
                        '_gcd_cofactors', counting_gcd)
    _cache.clear()
    for r in (Fraction(52, 23), Fraction(-8, 5), Fraction(1, 40), 0, -3,
              Fraction(12, 5), Fraction(100001, 100000),
              ContinuedFraction([1, 3000, 3000, 1]).value()):
        q_rational(r)
        q_rational_series(r, 32)
        q_brace(r)
    assert calls == []


# -- real numbers -----------------------------------------------------------

def pell():
    return PeriodicContinuedFraction((2,), (2,))


def test_pell_convergents():
    cs = pell().convergents()
    assert [next(cs) for _ in range(4)] == [
        Fraction(2), Fraction(5, 2), Fraction(12, 5), Fraction(29, 12)]


def test_quadratic_irrational_series():
    s = q_real_series(pell(), 14)
    assert s.coefficients(0, 14) == [
        1, 1, 0, 0, 1, 0, -2, 1, 4, -5, -7, 18, 7, -55]


def test_quadratic_irrational_brace_series():
    b = q_brace_series(pell(), 14)
    assert b.order == 2
    assert b.coefficients(0, 14) == [
        0, 0, 1, 0, -1, 1, 2, -3, -3, 9, 2, -25, 11, 62]


@pytest.mark.parametrize('precision', [-2, 0, 1, 32])
def test_brace_of_zero_is_the_exact_one(precision):
    # {0}_q = 1 + (q - 1)[0]_q = 1 exactly, at any requested precision
    for zero in (0, Fraction(0), RationalValue(0)):
        assert q_brace_series(zero, precision) == LaurentSeries.one()


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-12, max_value=12, max_denominator=16),
       st.integers(min_value=-4, max_value=40))
def test_rational_brace_series_expands_the_brace(r, precision):
    # 1 + (q - 1)[r]_q as series arithmetic, against the one expansion
    # of q_brace(r) that q_brace_series makes
    want = 1 + LaurentSeries.from_polynomial(P(-1, 1)) * \
        q_rational_series(r, precision)
    if r == 0:
        want = LaurentSeries.one()
    assert q_brace_series(r, precision) == want


BRACE_GRID = sorted({Fraction(p, d) for p in range(-70, 71)
                     for d in range(1, 17)})


def test_brace_table_reads_equal_direct_expansions():
    # from one cold table, so later precisions and later r = f + n read
    # the entries earlier ones made
    _cache.clear()
    for r in BRACE_GRID:
        for precision in (-3, 0, 1, 7, 16, 17, 32, 40, 63):
            got = q_brace_series(r, precision)
            want = (LaurentSeries.one() if r == 0
                    else series_from_ratfun(q_brace(r), precision))
            assert got.to_json() == want.to_json(), (r, precision)
            assert got == want, (r, precision)
    assert qcore._brace_table.cache_info().hits


def test_real_braces_stay_out_of_the_brace_table():
    _cache.clear()
    three_halves = ConvergentSequence(lambda: iter([Fraction(3, 2)] * 4),
                                      'three halves')
    for value in (three_halves, PeriodicContinuedFraction((2,), (2,))):
        q_brace_series(value, 16)
    info = qcore._brace_table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    q_brace_series(Fraction(3, 2), 16)
    assert qcore._brace_table.cache_info().currsize == 1


def test_rational_real_spec_passthrough():
    s = q_real_series(RationalValue(Fraction(3, 2)), 6)
    assert s.coefficients(0, 6) == [1, 0, 1, -1, 1, -1]
    s = q_real_series(Fraction(3, 2), 6)
    assert s.coefficients(0, 6) == [1, 0, 1, -1, 1, -1]


def test_convergent_sequence_agrees_with_cf_route():
    # decimal truncations of sqrt(2) + 1, a different approximation path
    def decimals():
        for k in range(1, 64):
            scale = 10 ** k
            yield 1 + Fraction(math.isqrt(2 * scale * scale), scale)

    target = ConvergentSequence(decimals, label='sqrt(2)+1 by decimals')
    s = q_real_series(target, 10)
    assert s.coefficients(0, 10) == [1, 1, 0, 0, 1, 0, -2, 1, 4, -5]


def test_non_convergence_raises(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(qcore, 'CONVERGENT_BUDGET', 3)
        with pytest.raises(NonConvergenceError):
            q_real_series(pell(), 20)

    def stuck():
        return iter([Fraction(3, 2), Fraction(5, 3)] * 50)

    with pytest.raises(NonConvergenceError):
        q_real_series(ConvergentSequence(stuck), 8)


def test_order_at_zero():
    assert order_at_zero(Fraction(7, 5)) == 0
    assert order_at_zero(Fraction(-7, 5)) == -2
    assert order_at_zero(0) == math.inf
    assert order_at_zero(pell()) == 0

    def inv_pell():
        gen = pell().convergents()
        return (1 / c for c in gen)

    # sqrt(2) - 1 lies in (0, 1), so its order must be at least 1
    assert order_at_zero(ConvergentSequence(inv_pell)) >= 1


def test_non_convergence_messages():
    # 3/2 and 5/3 differ below q^8 and in the order of their fractional
    # parts, 3/2 and 5/2 in their floors: neither sequence ever settles
    stuck_series = ConvergentSequence(
        lambda: iter([Fraction(3, 2), Fraction(5, 3)] * 50), 'stuck')
    stuck_floor = ConvergentSequence(
        lambda: iter([Fraction(3, 2), Fraction(5, 2)] * 50), 'stuck')
    with pytest.raises(NonConvergenceError) as err:
        q_real_series(stuck_series, 8)
    assert str(err.value) == ('no run of 3 agreeing approximants below q^8 '
                              'within 64 terms for stuck')
    with pytest.raises(NonConvergenceError) as err:
        order_at_zero(stuck_floor)
    assert str(err.value) == ('no run of 3 approximants with one floor and '
                              'fractional order within 64 terms for stuck')


# -- parsing ----------------------------------------------------------------

def test_parse_real_spec_forms():
    v = parse_real_spec('5/2')
    assert isinstance(v, RationalValue) and v.value == Fraction(5, 2)
    v = parse_real_spec('3')
    assert v.value == 3
    v = parse_real_spec('[2,3,1,5]')
    assert isinstance(v, RationalValue) and v.value == Fraction(52, 23)
    # any length: [2; 3, 1] = [2; 4] = 9/4
    assert parse_real_spec('[2,3,1]').value == Fraction(9, 4)
    assert parse_real_spec('[2, 4]').value == Fraction(9, 4)
    assert parse_real_spec('[2]').value == 2
    v = parse_real_spec('[2;(2)]')
    assert isinstance(v, PeriodicContinuedFraction)
    assert v.head == (2,) and v.period == (2,)
    v = parse_real_spec('[1; (1, 2)]')
    assert v.head == (1,) and v.period == (1, 2)


def test_parse_real_spec_rejects_garbage():
    for bad in ('', 'q', '[2,0]', '[0]', '[,]', '[;()]', '1/0'):
        with pytest.raises(DomainError):
            parse_real_spec(bad)
