import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qreals.errors import InsufficientPrecisionError
from qreals.polynomial import IntPolynomial
from qreals.qcore import _floor_and_order
from qreals.ratfun import ratfun
from qreals.series import (LaurentSeries, _multiply, _Shape, series,
                           series_from_ratfun)


def P(*coeffs):
    return IntPolynomial(coeffs)


finite_series = st.builds(
    lambda o, cs, extra: series(o, cs, o + len(cs) + extra),
    st.integers(min_value=-4, max_value=4),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
             max_size=5),
    st.integers(min_value=0, max_value=3))


# Reference kernels: the schoolbook Fraction convolution and division
# recurrence, with the precision rules of the module docstring written
# out again.  LaurentSeries mul/div work on integer numerators instead, so
# these catch an error the ring-law tests below would miss because both
# sides of a law go through the same kernels.

def _eff_order(s):
    return s.precision if s.is_zero else s.order


def schoolbook_mul(a, b):
    p = min(a.precision + _eff_order(b), b.precision + _eff_order(a))
    if a.is_zero or b.is_zero:
        return LaurentSeries.zero(p)
    o = a.order + b.order
    n = min(len(a.coeffs) + len(b.coeffs) - 1, p - o)
    acc = [Fraction(0)] * n
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if i + j < n:
                acc[i + j] += x * y
    return series(o, acc, p)


def schoolbook_div(a, b):
    o2 = b.order
    p = min(a.precision - o2, b.precision - 2 * o2 + _eff_order(a))
    if a.is_zero:
        return LaurentSeries.zero(p)
    o = a.order - o2
    n = len(a.coeffs) if p == math.inf else p - o
    out = []
    for k in range(n):
        s = a.coeffs[k] if k < len(a.coeffs) else Fraction(0)
        for j in range(1, min(k, len(b.coeffs) - 1) + 1):
            s -= b.coeffs[j] * out[k - j]
        out.append(s / b.coeffs[0])
    return series(o, out, p)


def schoolbook_expand(rf, precision):
    n = precision - rf.e
    num, den = rf.num.coeffs, rf.den.coeffs
    out = []
    for k in range(max(n, 0)):
        s = Fraction(num[k] if k < len(num) else 0)
        for j in range(1, min(k, len(den) - 1) + 1):
            s -= den[j] * out[k - j]
        out.append(s / den[0])
    return series(rf.e, out, precision)


def assert_same(got, want):
    assert (got.order, got.coeffs, got.precision) == (
        want.order, want.coeffs, want.precision)
    assert all(type(c) is Fraction for c in got.coeffs)


mixed_coeffs = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=12), max_size=7)

# exact or truncated, with negative orders and mixed denominators
any_series = st.builds(
    lambda o, cs, extra, exact: series(
        o, cs, math.inf if exact else o + len(cs) + extra),
    st.integers(min_value=-5, max_value=5), mixed_coeffs,
    st.integers(min_value=0, max_value=4), st.booleans())

# lead + q^gap * tail at order o: leads that are not units, and zero gaps
# such as 1 - q^7 s
divisors = st.builds(
    lambda o, lead, gap, tail, extra, exact: series(
        o, [lead] + [0] * (gap - 1) + tail,
        math.inf if exact else o + gap + len(tail) + extra),
    st.integers(min_value=-4, max_value=4),
    st.sampled_from([1, -1, 2, -3, Fraction(3, 2), Fraction(-2, 5)]),
    st.integers(min_value=1, max_value=8), mixed_coeffs,
    st.integers(min_value=0, max_value=4), st.booleans())


def test_normalization_strips_fringes():
    s = series(-2, [0, 0, 1, 0, 2, 0], 8)
    assert s.order == 0
    assert s.coeffs == (Fraction(1), Fraction(0), Fraction(2))
    assert s.precision == 8


def test_zero_series():
    z = series(0, [0, 0], 5)
    assert z.is_zero and not z.is_exact
    assert z.order == math.inf
    assert z.coefficient(4) == 0
    with pytest.raises(InsufficientPrecisionError):
        z.coefficient(5)


def test_coefficient_access():
    s = series(-1, [1, 2], 10)
    assert s.coefficient(-1) == 1
    assert s.coefficient(0) == 2
    assert s.coefficient(7) == 0
    assert s.coefficients(-2, 2) == [0, 1, 2, 0]
    with pytest.raises(InsufficientPrecisionError):
        s.coefficient(10)


def test_coefficients_beyond_declared_precision_rejected():
    with pytest.raises(ValueError):
        series(0, [1, 1, 1], 2)


def test_add_precision_is_min():
    a = series(0, [1, 1], 8)
    b = series(0, [1], 4)
    assert (a + b).precision == 4
    assert (a + b).coefficients(0, 4) == [2, 1, 0, 0]


def test_add_cancellation_can_zero_out():
    a = series(2, [5], 6)
    b = series(2, [-5], 9)
    s = a + b
    assert s.is_zero and s.precision == 6


def test_mul_precision_shifts_by_order():
    a = series(2, [1, 1], 8)       # known through q^7
    b = series(-1, [1], 5)
    p = (a * b).precision
    assert p == min(8 + (-1), 5 + 2)
    assert (a * b).order == 1


def test_mul_with_unknown_zero():
    a = series(0, [], 6)           # zero as far as we can see
    b = series(3, [2], 10)
    prod = a * b
    assert prod.is_zero
    assert prod.precision == 6 + 3


def test_div_basic_geometric():
    one = series(0, [1], 12)
    denom = series(0, [1, -1], 12)
    q = one / denom
    assert q.coefficients(0, 12) == [1] * 12
    assert q.precision == 12


def test_div_respects_order_shift():
    a = series(3, [1], 10)
    b = series(1, [2], 10)
    q = a / b
    assert q.order == 2
    assert q.coefficient(2) == Fraction(1, 2)
    # precision: min(10 - 1, 10 - 2 + 3) = 9
    assert q.precision == 9


def test_div_exact_by_monomial_stays_exact():
    a = series(0, [1, 4])
    b = series(2, [2])
    q = a / b
    assert q.is_exact
    assert q.order == -2
    assert q.coefficients(-2, 0) == [Fraction(1, 2), 2]


def test_div_exact_nonmonomial_refused():
    with pytest.raises(InsufficientPrecisionError):
        series(0, [1]) / series(0, [1, 1])


def test_div_by_unknown_zero_refused():
    with pytest.raises(InsufficientPrecisionError):
        series(0, [1], 8) / series(0, [], 8)
    with pytest.raises(ZeroDivisionError):
        series(0, [1], 8) / LaurentSeries.zero()


def test_shift_scale_truncate():
    s = series(0, [1, 2, 3], 6)
    assert s.shift(2).order == 2 and s.shift(2).precision == 8
    assert s.scale(Fraction(1, 3)).coeffs == (
        Fraction(1, 3), Fraction(2, 3), Fraction(1))
    t = s.truncate(2)
    assert t.precision == 2 and t.coeffs == (Fraction(1), Fraction(2))
    assert s.truncate(99) is s


def test_agrees_with():
    a = series(0, [1, 2, 3], 8)
    b = series(0, [1, 2, 4], 8)
    assert a.agrees_with(b, 2)
    assert not a.agrees_with(b, 3)
    with pytest.raises(InsufficientPrecisionError):
        a.agrees_with(b, 9)


def test_str():
    assert str(series(-1, [1, Fraction(3, 2)], 6)) == 'q^-1 + 3/2 + O(q^6)'
    assert str(series(0, [1, -1])) == '1 - q'
    assert str(LaurentSeries.zero(4)) == 'O(q^4)'
    assert str(LaurentSeries.zero()) == '0'


def test_expand_rational_function():
    # [3/2]_q = (1 + q + q^2)/(1 + q)
    rf = ratfun(0, P(1, 1, 1), P(1, 1))
    s = series_from_ratfun(rf, 10)
    assert s.coefficients(0, 10) == [1, 0, 1, -1, 1, -1, 1, -1, 1, -1]
    assert s.precision == 10


def test_expand_respects_exponent_field():
    rf = ratfun(-2, P(3), P(1, 1))
    s = series_from_ratfun(rf, 3)
    assert s.order == -2
    assert s.coefficients(-2, 3) == [3, -3, 3, -3, 3]


def test_expand_zero_is_exact():
    from qreals.ratfun import QRationalFunction
    s = series_from_ratfun(QRationalFunction.zero(), 16)
    assert s.is_zero and s.is_exact


@given(finite_series, finite_series, finite_series)
def test_ring_laws_to_shared_precision(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert lhs.agrees_with(rhs, min(lhs.precision, rhs.precision))
    assert (a + b) == (b + a)


@given(finite_series, finite_series)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(finite_series)
def test_div_undoes_mul(a):
    d = series(1, [2, -1], 9)
    prod = a * d
    back = prod / d
    below = min(back.precision, a.precision)
    assert back.agrees_with(a, below)


@given(st.integers(min_value=-3, max_value=3),
       st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4),
       st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4))
def test_expansion_is_multiplicative(e, num, den):
    if not any(num) or not any(den) or den[0] == 0:
        return
    rf = ratfun(e, P(*num), P(*den))
    s = series_from_ratfun(rf, 12)
    s2 = series_from_ratfun(rf * rf, 12 + rf.order if not rf.is_zero else 12)
    prod = s * s
    below = min(prod.precision, s2.precision)
    assert s2.agrees_with(prod, below)


@given(any_series, any_series)
def test_mul_matches_schoolbook(a, b):
    assert_same(a * b, schoolbook_mul(a, b))


@given(any_series, divisors)
def test_div_matches_schoolbook(a, b):
    if a.is_exact and b.is_exact and len(b.coeffs) > 1 and not a.is_zero:
        with pytest.raises(InsufficientPrecisionError):
            a / b
        return
    assert_same(a / b, schoolbook_div(a, b))


@given(st.integers(min_value=-3, max_value=3),
       st.lists(st.integers(min_value=-9, max_value=9), min_size=1,
                max_size=6),
       st.integers(min_value=1, max_value=3),
       st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
       st.integers(min_value=0, max_value=20))
def test_expansion_matches_schoolbook(e, num, d0, den_tail, precision):
    if not any(num):
        return
    rf = ratfun(e, P(*num), P(d0, *den_tail))
    assert_same(series_from_ratfun(rf, precision),
                schoolbook_expand(rf, precision))


# Storage: integer numerators over one common denominator.  The
# references below read only the public Fraction surface (order, coeffs,
# precision) and compute in Fraction, coefficient by coefficient.

def _coef(s, k):
    i = k - s.order
    return s.coeffs[i] if 0 <= i < len(s.coeffs) else Fraction(0)


def _end(s):
    return s.order + len(s.coeffs) if s.coeffs else -math.inf


def schoolbook_add(a, b):
    p = min(a.precision, b.precision)
    lo = min(a.order, b.order)
    if lo == math.inf:
        return LaurentSeries.zero(p)
    hi = min(max(_end(a), _end(b)), p)
    return series(lo, [_coef(a, k) + _coef(b, k) for k in range(lo, hi)], p)


def schoolbook_neg(a):
    if a.is_zero:
        return a
    return series(a.order, [-c for c in a.coeffs], a.precision)


def schoolbook_scale(a, c):
    if a.is_zero or not c:
        return LaurentSeries.zero(a.precision)
    return series(a.order, [c * x for x in a.coeffs], a.precision)


def schoolbook_truncate(a, precision):
    if precision >= a.precision:
        return a
    if a.is_zero:
        return LaurentSeries.zero(precision)
    return series(a.order, [x for k, x in enumerate(a.coeffs, a.order)
                            if k < precision], precision)


def schoolbook_shift(a, k):
    if a.is_zero:
        return LaurentSeries.zero(a.precision + k)
    return series(a.order + k, a.coeffs, a.precision + k)


def schoolbook_agrees(a, b, below):
    if below == math.inf:
        return (a.order, a.coeffs) == (b.order, b.coeffs)
    start = min(a.order, b.order, below)
    return all(_coef(a, k) == _coef(b, k) for k in range(start, below))


def assert_canonical(s):
    nums, den = s._nums, s._den
    assert type(den) is int and den > 0
    assert type(nums) is tuple and all(type(c) is int for c in nums)
    if nums:
        assert nums[0] and nums[-1]
        assert math.gcd(den, *nums) == 1
    else:
        assert s.order == math.inf and den == 1
    assert all(type(c) is Fraction for c in s.coeffs)
    assert len(s.coeffs) == len(nums)


scalars = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=12))


@given(any_series, any_series)
def test_add_matches_schoolbook(a, b):
    for got, want in ((a + b, schoolbook_add(a, b)),
                      (a - b, schoolbook_add(a, schoolbook_neg(b)))):
        assert_same(got, want)
        assert_canonical(got)


@given(any_series, scalars)
def test_add_scalar_matches_schoolbook(a, c):
    want = schoolbook_add(a, series(0, [c]))
    for got in (a + c, c + a):
        assert_same(got, want)
        assert_canonical(got)
    assert_same(c - a, schoolbook_add(series(0, [c]), schoolbook_neg(a)))


@given(any_series)
def test_neg_matches_schoolbook(a):
    assert_same(-a, schoolbook_neg(a))
    assert_canonical(-a)


@given(any_series, scalars)
def test_scale_matches_schoolbook(a, c):
    got = a.scale(c)
    assert_same(got, schoolbook_scale(a, Fraction(c)))
    assert_canonical(got)


@given(any_series, st.integers(min_value=-8, max_value=12))
def test_truncate_matches_schoolbook(a, precision):
    got = a.truncate(precision)
    assert_same(got, schoolbook_truncate(a, precision))
    assert_canonical(got)


@given(any_series, st.integers(min_value=-6, max_value=6))
def test_shift_matches_schoolbook(a, k):
    got = a.shift(k)
    assert_same(got, schoolbook_shift(a, k))
    assert_canonical(got)


@given(any_series, any_series, st.integers(min_value=-8, max_value=12))
def test_agrees_with_matches_schoolbook(a, b, below):
    # b shares a's low terms often enough to exercise both verdicts
    b = schoolbook_add(schoolbook_truncate(a, below), b.shift(below))
    below = min(below, a.precision, b.precision)
    assert a.agrees_with(b, below) == schoolbook_agrees(a, b, below)
    assert b.agrees_with(a, below) == schoolbook_agrees(a, b, below)


def test_agrees_with_edge_cases():
    a = series(-1, [Fraction(1, 2), 3])
    assert a.agrees_with(series(-1, [Fraction(2, 4), 3]), math.inf)
    assert a.agrees_with(a.truncate(5), 5)
    assert not a.agrees_with(series(-1, [Fraction(1, 2)]), math.inf)
    # equal numerators over different denominators
    half = series(0, [Fraction(1, 2), 1], 5)
    assert not series(0, [1, 2], 5).agrees_with(half, 5)
    assert half.agrees_with(series(0, [Fraction(1, 2), 1, 0], 9), 5)


@given(any_series, any_series, divisors)
def test_every_operation_returns_the_canonical_form(a, b, d):
    outs = [a + b, a - b, -a, a * b, a.scale(Fraction(-3, 4)), a.shift(2),
            a.truncate(1), a ** 2, series(0, [1]) + a]
    if not (a.is_exact and d.is_exact and len(d.coeffs) > 1):
        outs.append(a / d)
    for s in outs:
        assert_canonical(s)


# exact divisors for times_ratio: monomials and not, leads other than
# +-1, non-integral coefficients, negative orders
exact_divisors = st.builds(
    lambda o, lead, gap, tail: series(o, [lead] + [0] * (gap - 1) + tail),
    st.integers(min_value=-4, max_value=4),
    st.sampled_from([1, -1, 2, -3, Fraction(3, 2), Fraction(-2, 5)]),
    st.integers(min_value=1, max_value=8), mixed_coeffs)


def _assert_times_ratio_is_mul_then_div(s, num, den):
    if (s.is_exact and num.is_exact and len(den.coeffs) > 1
            and s and num):
        with pytest.raises(InsufficientPrecisionError):
            s * num / den
        with pytest.raises(InsufficientPrecisionError):
            s.times_ratio(num, den)
        return
    got = s.times_ratio(num, den)
    assert got.to_json() == (s * num / den).to_json()
    assert_canonical(got)


@given(any_series, any_series, exact_divisors)
def test_times_ratio_matches_mul_then_div(s, num, den):
    _assert_times_ratio_is_mul_then_div(s, num, den)


@pytest.mark.parametrize('s, num, den', [
    # the divisor lead 2 puts powers of 2 in the denominator
    (series(0, [1, 1], 9), series(0, [1, -1]), series(0, [2, 1])),
    # non-integral self, num and den, at negative orders
    (series(-2, [Fraction(1, 3), 2], 6), series(-1, [Fraction(-5, 2), 1]),
     series(-1, [Fraction(3, 2), 0, Fraction(1, 4)])),
    # an inexact num whose precision binds: 3 + 0 against 20 + 1
    (series(0, [1, 2, 3], 20), series(1, [1, 1], 3), series(0, [1, -1])),
    # zero self, exact and known only below q^4
    (LaurentSeries.zero(), series(0, [1, 2], 7), series(0, [1, 1])),
    (LaurentSeries.zero(4), series(-1, [1, 2], 7), series(0, [1, 1])),
    # exact self and num: a monomial divisor keeps the result exact, any
    # other divisor raises
    (series(0, [1, 2]), series(1, [3, 0, 1]), series(2, [Fraction(-2, 3)])),
    (series(0, [1, 2]), series(1, [3, 0, 1]), series(0, [2, 1])),
])
def test_times_ratio_cases(s, num, den):
    _assert_times_ratio_is_mul_then_div(s, num, den)


def test_times_ratio_precision_rule():
    # min(p_self + ord num, p_num + ord self) - ord den
    s = series(-1, [1, 2], 10)
    den = series(1, [1, 1])
    assert s.times_ratio(series(2, [1, 1], 6), den).precision == 4
    assert s.times_ratio(series(2, [1, 1], 20), den).precision == 11
    assert (series(0, [1, 2]).times_ratio(series(0, [1]), series(-1, [4]))
            .is_exact)


def test_times_ratio_refuses_bad_divisors():
    s = series(0, [1, 2], 5)
    with pytest.raises(ZeroDivisionError):
        s.times_ratio(s, LaurentSeries.zero())
    with pytest.raises(ValueError):
        s.times_ratio(s, series(0, [1, 1], 3))


def _assert_shape(shape, real, same_order=True):
    # the shape has exactly the series' precision; its order is the
    # series' order, or below it where a sum may have cancelled
    assert shape.precision == real.precision
    assert shape.order <= real.order
    if same_order:
        assert shape.order == real.order


@given(any_series, any_series, divisors,
       st.integers(min_value=-6, max_value=12))
def test_shape_follows_the_series_rules(a, b, d, cut):
    sa, sb, sd = (_Shape(s.order, s.precision) for s in (a, b, d))
    _assert_shape(sa * sb, a * b)
    _assert_shape(sa * b, a * b)
    _assert_shape(b * sa, b * a)
    _assert_shape(sa.truncate(cut), a.truncate(cut))
    for shape, real in ((sa + sb, a + b), (sa - b, a - b), (3 - sa, 3 - a)):
        _assert_shape(shape, real, same_order=False)
    for x, y, sx, sy in ((a, d, sa, sd), (d, a, sd, sa), (b, a, sb, sa)):
        if y.is_zero or (x and x.is_exact and y.is_exact
                         and len(y.coeffs) > 1):
            continue
        _assert_shape(sx / sy, x / y)
        _assert_shape(x / sy, x / y)
        _assert_shape(sx / y, x / y)


def test_shape_refuses_zero_divisors_as_series_do():
    assert _Shape(7, 5).is_zero and _Shape(7, 5).order == math.inf
    with pytest.raises(InsufficientPrecisionError):
        _Shape(0, 5) / _Shape(7, 5)
    with pytest.raises(ZeroDivisionError):
        _Shape(0, 5) / _Shape(math.inf, math.inf)


@given(mixed_coeffs, st.integers(min_value=-4, max_value=4))
def test_series_keeps_the_fraction_values(cs, o):
    s = series(o, cs, o + len(cs))
    assert_canonical(s)
    assert s.coefficients(o, o + len(cs)) == [Fraction(c) for c in cs]


@given(any_series)
def test_equal_values_from_different_routes_are_equal(a):
    routes = [a.scale(3).scale(Fraction(1, 3)),
              a.scale(Fraction(-2, 7)).scale(Fraction(-7, 2)),
              a.shift(3).shift(-3), a + LaurentSeries.zero(), -(-a),
              (a + a).scale(Fraction(1, 2)), a * 1, a * LaurentSeries.one(),
              a / LaurentSeries.one(), a / 1,
              series(a.order, list(a.coeffs), a.precision)
              if a.coeffs else LaurentSeries.zero(a.precision)]
    for s in routes:
        assert s == a
        assert hash(s) == hash(a)


def test_equal_values_from_integer_and_fraction_input():
    a = series(1, [2, 0, -4], 9)
    b = series(1, [Fraction(4, 2), Fraction(0, 3), Fraction(-8, 2)], 9)
    c = series_from_ratfun(ratfun(1, P(2, 0, -4), P(1)), 9)
    d = LaurentSeries.from_polynomial(P(0, 2, 0, -4)).truncate(9)
    assert a == b == c == d
    assert len({hash(s) for s in (a, b, c, d)}) == 1
    assert a != a.truncate(8) and a != a.scale(Fraction(1, 2))


def test_common_denominator_is_reduced():
    s = series(0, [Fraction(1, 6), Fraction(1, 3)], 4)
    assert (s._nums, s._den) == ((1, 2), 6)
    t = s.scale(6)
    assert (t._nums, t._den) == ((1, 2), 1)
    assert t.coeffs == (Fraction(1), Fraction(2))
    assert t.is_integral and not s.is_integral
    u = series(0, [1, 2], 5) / series(0, [2, 1], 5)
    assert u._den == 32 and u.coeffs[0] == Fraction(1, 2)
    assert_canonical(u)


# -- the product kernels ----------------------------------------------------

def schoolbook_multiply(a, b, n):
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


@st.composite
def sparse_operand(draw, nonzero):
    """nonzero coefficients of either sign up to 2^80, with zero runs
    before each and at the end; or one value repeated with no zeros,
    whose products reach the digit bound |a|_inf |b|_inf min(la, lb)."""
    bits = draw(st.sampled_from([1, 8, 40, 80]))
    if draw(st.booleans()):
        return [draw(st.sampled_from([2 ** bits, -2 ** bits]))] * nonzero
    out = []
    for _ in range(nonzero):
        out += [0] * draw(st.integers(min_value=0, max_value=3))
        out.append(draw(st.integers(min_value=1, max_value=2 ** bits))
                   * draw(st.sampled_from([1, -1])))
    return out + [0] * draw(st.integers(min_value=0, max_value=2))


@st.composite
def kernel_operands(draw):
    # nonzero counts whose product is 63, 64 or 65, on both sides of
    # KRONECKER_SIZE, or a small pair; then n below and above la + lb - 1
    na, nb = draw(st.one_of(
        st.sampled_from([(7, 9), (9, 7), (8, 8), (4, 16), (5, 13), (13, 5),
                         (2, 32), (1, 64), (64, 1), (1, 65)]),
        st.tuples(st.integers(min_value=0, max_value=12),
                  st.integers(min_value=0, max_value=12))))
    a, b = draw(sparse_operand(na)), draw(sparse_operand(nb))
    n = draw(st.integers(min_value=1, max_value=len(a) + len(b) + 2))
    return a, b, n


@given(kernel_operands())
@example(([2 ** 80] * 8, [-2 ** 80] * 8, 15))
def test_multiply_matches_schoolbook(operands):
    a, b, n = operands
    assert _multiply(a, b, n) == schoolbook_multiply(a, b, n)
    assert _multiply(tuple(a), tuple(b), n) == schoolbook_multiply(a, b, n)


# exact c q^e / d: units, other integers and fractions, negative e
monomials = st.builds(
    lambda e, c: series(e, [c]), st.integers(min_value=-6, max_value=6),
    st.sampled_from([1, -1, 3, -2, Fraction(1, 2), Fraction(-5, 7),
                     Fraction(6, 5)]))


@given(monomials, any_series)
@example(series(-2, [1]), LaurentSeries.zero(5))
@example(series(3, [Fraction(-1, 3)]), LaurentSeries.zero(-4))
def test_one_term_product_equals_the_general_product(m, s):
    for got in (m * s, s * m):
        assert_same(got, schoolbook_mul(m, s))
        assert_canonical(got)


def fraction_floor_and_order(r):
    n = math.floor(r)
    return n, math.ceil(1 / (r - n)) - 1 if r != n else math.inf


@given(st.one_of(
    st.integers(min_value=-60, max_value=60).map(Fraction),
    st.fractions(min_value=-60, max_value=0, max_denominator=50),
    st.fractions(min_value=0, max_value=1, max_denominator=400),
    st.fractions(min_value=-10 ** 9, max_value=10 ** 9,
                 max_denominator=10 ** 6)))
@example(Fraction(-1, 3))
@example(Fraction(1, 7))
@example(Fraction(6, 7))
@example(Fraction(-5))
def test_floor_and_order_matches_the_fraction_formula(r):
    assert _floor_and_order(r) == fraction_floor_and_order(r)
