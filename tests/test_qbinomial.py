import functools
import importlib
import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreals import _cache
from qreals import (ConvergentSequence, DomainError, IntPolynomial,
                    PeriodicContinuedFraction, QRationalFunction,
                    binomial_order, q_binomial, q_binomial_series, q_brace,
                    q_factorial, q_integer, q_pochhammer, q_rational,
                    q_real_series, ratfun, series_from_ratfun)
from qreals.qbinomial import (_cyclotomic, _cyclotomic_class,
                              _fraction_factors, _has_cyclotomic_factor,
                              _run_plan, binomial_run)
from qreals.qcore import _factor_order, _floor_and_order, _shift_law, _split

# the package exports the function ratfun under the module's name
ratfun_module = importlib.import_module('qreals.ratfun')
qbinomial_module = importlib.import_module('qreals.qbinomial')
rationals = st.fractions(min_value=-30, max_value=30,
                         max_denominator=9)


def _reference_binomial(r, k):
    # the falling factorial as k products of canonical rational
    # functions, each reduced by gcds, over [k]_q!
    if k < 0:
        return QRationalFunction.zero()
    r = Fraction(r)
    num = QRationalFunction.one()
    for j in range(k):
        num = num * q_rational(r - j)
        if num.is_zero:
            return num
    return num / q_factorial(k)


def test_factorial_values():
    assert q_factorial(0) == QRationalFunction.one()
    assert q_factorial(1) == QRationalFunction.one()
    assert q_factorial(2) == ratfun(0, IntPolynomial((1, 1)), 1)
    # [3]! = (1+q)(1+q+q^2) = 1 + 2q + 2q^2 + q^3
    assert q_factorial(3) == ratfun(0, IntPolynomial((1, 2, 2, 1)), 1)
    with pytest.raises(DomainError):
        q_factorial(-1)


def test_pochhammer_small():
    one = QRationalFunction.one()
    q = QRationalFunction.q_power(1)
    assert q_pochhammer(q, 0) == one
    assert q_pochhammer(1, 2).is_zero
    assert q_pochhammer(q, 2) == (1 - q) * (1 - q * q)
    assert q_pochhammer(q, 2, inverse_base=True) == (1 - q) * (1 - one)
    with pytest.raises(DomainError):
        q_pochhammer(q, -1)


def test_gaussian_binomial():
    # classical Gaussian coefficients for integer upper index
    assert q_binomial(4, 2) == ratfun(0, IntPolynomial((1, 1, 2, 1, 1)), 1)
    assert q_binomial(3, 1) == ratfun(0, IntPolynomial((1, 1, 1)), 1)
    assert q_binomial(5, 0) == QRationalFunction.one()
    assert q_binomial(3, 5).is_zero
    assert q_binomial(7, -2).is_zero


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=-40, max_value=40, max_denominator=40),
       st.integers(min_value=0, max_value=8))
def test_binomial_matches_ratfun_product(r, k):
    assert q_binomial(r, k) == _reference_binomial(r, k)


@settings(max_examples=20, deadline=None)
@given(rationals, st.integers(min_value=9, max_value=40))
def test_product_tree_matches_running_product_at_larger_k(r, k):
    # q_binomial multiplies its numerators in a balanced tree; the
    # reference multiplies k reduced factors into one running product
    assert q_binomial(r, k) == _reference_binomial(r, k)


def test_binomial_matches_ratfun_product_at_integers():
    # integers 0 <= r < k give the exact zero; r = 0 and r = 1, and the
    # negative integers, whose factors all have negative orders
    for r in range(-6, 10):
        for k in range(9):
            assert q_binomial(r, k) == _reference_binomial(r, k), (r, k)


def test_binomial_takes_no_gcd(monkeypatch):
    calls = []
    inner = ratfun_module._gcd_cofactors

    def counted(*args):
        calls.append(args)
        return inner(*args)
    # every gcd the rational functions take goes through _gcd_cofactors
    monkeypatch.setattr(ratfun_module, '_gcd_cofactors', counted)
    _cache.clear()
    for r in (Fraction(5, 3), Fraction(-7, 4), Fraction(31, 40), 0, 5, -3):
        for k in range(9):
            q_binomial(r, k)
    assert calls == []


def _greedy_binomial(r, k):
    # q_binomial before the class argument: each Phi_d is tried on every
    # numerator in turn, and retried on the same one while it divides,
    # until [k]_q! has given up floor(k/d) of it
    if k < 0:
        return QRationalFunction.zero()
    if k == 0:
        return QRationalFunction.one()
    lo, den, c = _shift_law(r)
    factors = []
    for j in range(k):
        g = c + den.shift(j - lo)
        p = IntPolynomial(itertools.accumulate(g.coeffs))
        if p.is_zero:
            return QRationalFunction.zero()
        factors.append(p)
    bottom = den ** k
    for d in range(2, k + 1):
        uses = k // d
        for i, p in enumerate(factors):
            while uses and _has_cyclotomic_factor(p, d):
                p = p.divide_exact(_cyclotomic(d))
                uses -= 1
            factors[i] = p
        if uses:
            bottom = bottom * _cyclotomic(d) ** uses
    return ratfun(k * lo - k * (k - 1) // 2,
                  functools.reduce(operator.mul, factors), bottom,
                  reduced=True)


def _divides(divisor, p):
    try:
        p.divide_exact(divisor)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-60, max_value=60),
       st.integers(min_value=1, max_value=15),
       st.integers(min_value=2, max_value=16))
def test_cyclotomic_factors_of_the_numerators_form_one_class(p, s, d):
    # the j with Phi_d | g_(j - m), for r = p/s = f + m, are none or one
    # residue class mod d, checked by exact division over three periods
    # (a vanishing numerator, at an integer 0 <= r < 3d, is divisible and
    # must be in the class), and the class table names that class
    m, num, den = _split(Fraction(p, s))
    factors = _fraction_factors(num, den, m, 3 * d)
    hits = [j for j, h in enumerate(factors) if _divides(_cyclotomic(d), h)]
    assert hits == [] or hits == list(range(hits[0] % d, 3 * d, d))
    assert hits == [j for j, h in enumerate(factors)
                    if _has_cyclotomic_factor(h, d)]
    first = _cyclotomic_class(num, den, d)
    assert hits == ([] if first is None
                    else list(range((first + m) % d, 3 * d, d)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.fractions(min_value=-40, max_value=40, max_denominator=40),
    st.integers(min_value=-40, max_value=40)),
    st.integers(min_value=-1, max_value=14))
def test_class_cancellation_matches_greedy_trial_division(r, k):
    # integers take the Gaussian path, the others the class table
    assert q_binomial(r, k).to_json() == _greedy_binomial(r, k).to_json()


@pytest.mark.parametrize('r', [Fraction(5, 3), Fraction(-7, 4)])
@pytest.mark.parametrize('k', [41, 60])
def test_class_cancellation_matches_greedy_trial_division_at_large_k(r, k):
    assert q_binomial(r, k).to_json() == _greedy_binomial(r, k).to_json()


@pytest.mark.parametrize('f', [Fraction(1, 2), Fraction(5, 7),
                               Fraction(9, 11)], ids=str)
def test_one_law_per_fractional_part(monkeypatch, f):
    # every f + m reads the one entry of its fractional part, and a
    # further binomial of f finds each cyclotomic class in the table
    calls = []
    inner = qbinomial_module._has_cyclotomic_factor

    def counted(p, d):
        calls.append(d)
        return inner(p, d)
    monkeypatch.setattr(qbinomial_module, '_has_cyclotomic_factor', counted)
    _cache.clear()
    for m in range(-40, 41):
        q_binomial(f + m, 6)
        q_rational(f + m)
        q_brace(f + m)
    assert _cache.info()['qreals.qcore._q_rational_cached'].currsize == 1
    assert calls
    calls.clear()
    assert q_binomial(f + 57, 6) == _reference_binomial(f + 57, 6)
    assert calls == []


@pytest.mark.parametrize('n, k', [(30, 15), (200, 3), (-30, 7), (-1, 5),
                                  (-1, 0), (5, 5), (0, 0), (3, 4),
                                  (60, 58)])
def test_gaussian_binomials_match_the_falling_factorial(n, k):
    assert q_binomial(n, k) == _reference_binomial(n, k)


def test_integer_binomials_use_no_table():
    _cache.clear()
    for n in range(-12, 13):
        for k in range(8):
            q_binomial(n, k)
    assert all(info.currsize == 0 for info in _cache.info().values())


def test_gaussian_symmetry():
    for n in range(8):
        for k in range(n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)


def test_half_integer_value():
    # binom(5/2, 2) = (1 + 3q + 4q^2 + 4q^3 + 2q^4 + q^5) / (1+q)^3
    expected = ratfun(0, IntPolynomial((1, 3, 4, 4, 2, 1)),
                      IntPolynomial((1, 3, 3, 1)))
    assert q_binomial(Fraction(5, 2), 2) == expected


def test_third_integer_value():
    expected = ratfun(0, IntPolynomial((-1, -1, -2, -1)),
                      IntPolynomial((1, 4, 10, 16, 19, 16, 10, 4, 1)))
    assert q_binomial(Fraction(5, 3), 3) == expected


def test_factorial_quotient_for_integers():
    for n in range(2, 9):
        for k in range(n + 1):
            assert q_binomial(n, k) == q_factorial(n) / (
                q_factorial(k) * q_factorial(n - k))


@settings(max_examples=120, deadline=None)
@given(rationals, st.integers(min_value=0, max_value=6))
def test_pascal_with_q_weight(r, k):
    lhs = q_binomial(r, k)
    rhs = (QRationalFunction.q_power(k) * q_binomial(r - 1, k)
           + q_binomial(r - 1, k - 1))
    assert lhs == rhs


@settings(max_examples=120, deadline=None)
@given(rationals, st.integers(min_value=0, max_value=6))
def test_pascal_with_brace_weight(r, k):
    lhs = q_binomial(r, k)
    rhs = (q_binomial(r - 1, k)
           + q_brace(r - k) * q_binomial(r - 1, k - 1))
    assert lhs == rhs


@settings(max_examples=150, deadline=None)
@given(rationals, st.integers(min_value=-2, max_value=8))
def test_order_formula_matches_computed_order(r, k):
    assert binomial_order(r, k) == q_binomial(r, k).order


def test_order_formula_spot_values():
    assert binomial_order(Fraction(1, 2), 1) == 1
    assert binomial_order(Fraction(5, 2), 3) == 1
    assert binomial_order(Fraction(5, 2), 4) == 0
    assert binomial_order(Fraction(-1, 2), 2) == -3
    assert binomial_order(3, 5) == math.inf
    assert binomial_order(-2, 3) == -9
    assert binomial_order(Fraction(5, 3), 3) == 0


@settings(max_examples=200, deadline=None)
@given(rationals, st.integers(min_value=-8, max_value=8))
def test_factor_orders_match_the_deformation(r, t):
    # ord [r + t]_q from the floor of r and the order of its fractional
    # part alone
    assert _factor_order(*_floor_and_order(r), t) == q_rational(r + t).order


def _shifted_pell(sign, shift):
    def convergents():
        for c in PeriodicContinuedFraction((1,), (2,)).convergents():
            yield sign * c + shift
    return ConvergentSequence(convergents)


@pytest.mark.parametrize('value', [
    PeriodicContinuedFraction((2,), (2,)), PeriodicContinuedFraction((), (1,)),
    PeriodicContinuedFraction((1, 3), (1, 2)),
    PeriodicContinuedFraction((), (3, 1, 4)),
    _shifted_pell(1, -1), _shifted_pell(-1, 0), _shifted_pell(1, -3)])
def test_factor_orders_of_irrationals_match_their_series(value):
    # [x + t]_q = [t]_q + q^t [x]_q, read off one series for [x]_q
    pair = _floor_and_order(value)
    y = q_real_series(value, 24)
    for t in range(-8, 9):
        shifted = series_from_ratfun(q_integer(t), 24 + t) + y.shift(t)
        assert _factor_order(*pair, t) == shifted.order, t


def test_series_route_matches_exact():
    for r, k in [(Fraction(5, 2), 2), (Fraction(5, 3), 3),
                 (Fraction(-1, 2), 2), (4, 2), (2, 5)]:
        exact = series_from_ratfun(q_binomial(r, k), 20)
        got = q_binomial_series(r, k, 20)
        assert got.precision >= 20
        assert got.agrees_with(exact, 20)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.fractions(min_value=-12, max_value=0, max_denominator=9),
                 rationals), st.integers(min_value=0, max_value=7),
       st.integers(min_value=-3, max_value=24), st.sampled_from([-1, 1]))
def test_binomial_run_matches_the_exact_binomials(r, count, precision, sign):
    # each step is one product with {r}_q and a running sum; the exact
    # q_binomial expanded at the same precision must agree, for negative
    # r and for both signs (sign +1 gives binom(r + k - 1, k))
    run = binomial_run(r, [0] * (count + 1), precision, sign)
    assert len(run) == count + 1
    for k, got in enumerate(run):
        top = r if sign < 0 else r + k - 1
        want = series_from_ratfun(q_binomial(top, k), precision)
        assert got.precision >= precision
        assert got.truncate(precision) == want.truncate(precision), k


# (shifts for count + 1 binomials, sign) of the runs the library makes:
# the deformed (1+x)^a, 1/(1-x)^a and the Gamma kernel
RUN_PATTERNS = {
    'B': lambda count: ([k * (k - 1) // 2 for k in range(count + 1)], -1),
    'b': lambda count: ([0] * (count + 1), 1),
    'Gamma': lambda count: ([k * (k + 1) // 2 for k in range(count + 1)],
                            -1)}


def _run_json(r, shifts, precision, sign):
    return [s.to_json() for s in binomial_run(r, shifts, precision, sign)]


@settings(max_examples=150, deadline=None)
@given(rationals, st.sampled_from(sorted(RUN_PATTERNS)),
       st.integers(min_value=0, max_value=9),
       st.integers(min_value=-3, max_value=40))
def test_warm_runs_equal_cold_runs(r, pattern, count, precision):
    # the plan is keyed on the floor and fractional order of r, so the
    # simplest value with both makes the entry that r then reads
    shifts, sign = RUN_PATTERNS[pattern](count)
    _cache.clear()
    cold = _run_json(r, shifts, precision, sign)
    n, b = _floor_and_order(r)
    _cache.clear()
    binomial_run(n if b == math.inf else n + Fraction(1, b + 1), shifts,
                 precision, sign)
    hits = _run_plan.cache_info().hits
    assert _run_json(r, shifts, precision, sign) == cold
    assert _run_plan.cache_info().hits == hits + 1


def test_series_trivial_cases():
    assert q_binomial_series(Fraction(5, 2), -1, 10).is_zero
    one = q_binomial_series(Fraction(5, 2), 0, 10)
    assert one.coefficient(0) == 1 and one.order == 0


def test_series_for_quadratic_irrational():
    # binom(1+sqrt2, 2) two ways: the library route, and the literal
    # product [1+sqrt2][sqrt2]/[2] from two independent stabilizations
    silver = PeriodicContinuedFraction((2,), (2,))
    sqrt2 = PeriodicContinuedFraction((1,), (2,))
    got = q_binomial_series(silver, 2, 12)
    direct = (q_real_series(silver, 16) * q_real_series(sqrt2, 16)
              / series_from_ratfun(q_rational(2), 16))
    assert got.precision >= 12
    assert got.agrees_with(direct, 12)
