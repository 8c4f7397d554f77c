import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qreals.polynomial import IntPolynomial
from qreals.ratfun import QRationalFunction, ratfun

# the package exports the function ratfun under the module's name
ratfun_module = importlib.import_module('qreals.ratfun')


ROOT = Path(__file__).resolve().parents[1]


def P(*coeffs):
    return IntPolynomial(coeffs)


def RF(e, num, den=(1,)):
    return ratfun(e, P(*num), P(*den))


small_polys = st.builds(
    IntPolynomial,
    st.lists(st.integers(min_value=-5, max_value=5), max_size=5))

rationals = st.builds(
    lambda e, n, d: ratfun(e, n, d),
    st.integers(min_value=-3, max_value=3),
    small_polys,
    small_polys.filter(bool))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        ratfun(0, P(1), P())


def test_zero_is_canonical():
    z = ratfun(5, P(), P(3, 1))
    assert z == QRationalFunction.zero()
    assert z.e == 0 and z.den == P(1)
    assert z.order == float('inf')


def test_normalization_pulls_out_q_powers():
    # -q / (-1 - q) normalizes to e=1, 1/(1+q)
    v = RF(0, (0, -1), (-1, -1))
    assert (v.e, v.num, v.den) == (1, P(1), P(1, 1))


def test_normalization_cancels_common_factors():
    # (1 - q^2)/(1 - q^3) = (1 + q)/(1 + q + q^2)
    v = RF(0, (1, 0, -1), (1, 0, 0, -1))
    assert (v.e, v.num, v.den) == (0, P(1, 1), P(1, 1, 1))


def test_normalization_strips_content():
    v = RF(0, (2, 2), (4,))
    assert (v.e, v.num, v.den) == (0, P(1, 1), P(2))


def test_denominator_sign_fixed():
    v = RF(0, (1,), (-2, 1))
    assert v.den.coeffs[0] > 0
    assert v.num == P(-1)


def test_add_sub_mul_div():
    half = RF(1, (1,), (1, 1))          # q/(1+q)
    assert half + half == RF(1, (2,), (1, 1))
    assert half - half == QRationalFunction.zero()
    assert half * RF(0, (1, 1)) == RF(1, (1,))
    assert half / half == QRationalFunction.one()
    assert 1 + RF(0, (0, 1)) == RF(0, (1, 1))
    assert 1 / RF(1, (1,), (1, 1)) == RF(-1, (1, 1))


def test_pow():
    v = RF(0, (1, 1))
    assert v ** 3 == RF(0, (1, 3, 3, 1))
    assert v ** 0 == QRationalFunction.one()
    assert v ** -2 == RF(0, (1,), (1, 2, 1))


def test_order_is_exponent():
    assert RF(2, (3, 1), (1, 1)).order == 2
    assert RF(-4, (1,)).order == -4


def test_substitute_q_inverse():
    # [3]_q at 1/q is q^-2 [3]_q
    v = RF(0, (1, 1, 1))
    w = v.substitute_q_inverse()
    assert (w.e, w.num, w.den) == (-2, P(1, 1, 1), P(1))
    assert w.substitute_q_inverse() == v


def test_evaluate():
    v = RF(1, (1, 1), (3,))
    assert v.evaluate(2) == Fraction(2 * 3, 3)
    assert v.evaluate(Fraction(1, 2)) == Fraction(1, 2) * Fraction(3, 2) / 3
    with pytest.raises(ZeroDivisionError):
        RF(0, (1,), (1, 1)).evaluate(-1)


def test_str_forms():
    assert str(QRationalFunction.zero()) == '0'
    assert str(RF(0, (1, 1))) == '1 + q'
    assert str(RF(1, (1,), (1, 1))) == 'q / (1 + q)'
    assert str(RF(3, (1, 0, 1), (1, 1))) == 'q^3 (1 + q^2) / (1 + q)'
    assert str(RF(-2, (-1, -1))) == 'q^-2 (-1 - q)'


def test_json_round_trip_fields():
    v = RF(-2, (1, 0, 2), (1, 1))
    assert v.to_json() == {'e': -2, 'num': [1, 0, 2], 'den': [1, 1]}


@given(rationals, rationals, rationals)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == QRationalFunction.zero()


@given(rationals, rationals)
def test_canonical_form_invariants(a, b):
    v = a + b
    if not v.is_zero:
        assert v.num.coeffs[0] != 0
        assert v.den.coeffs[0] > 0
        from qreals.polynomial import poly_gcd
        assert poly_gcd(v.num, v.den) == P(1)
        from math import gcd
        assert gcd(v.num.content(), v.den.content()) == 1


@given(rationals)
def test_reciprocal_inverts(a):
    if not a.is_zero:
        assert a * a.reciprocal() == QRationalFunction.one()


@given(rationals)
def test_q_inverse_is_involution(a):
    assert a.substitute_q_inverse().substitute_q_inverse() == a


@given(rationals, rationals)
def test_q_inverse_is_homomorphism(a, b):
    inv = QRationalFunction.substitute_q_inverse
    assert inv(a * b) == inv(a) * inv(b)
    assert inv(a + b) == inv(a) + inv(b)


@given(rationals, st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(-3, 4)]))
def test_evaluate_is_homomorphism(a, x):
    try:
        ax = a.evaluate(x)
    except ZeroDivisionError:
        return
    b = a + 1
    assert b.evaluate(x) == ax + 1


def _forms(p, k, d):
    """The value p as an IntPolynomial, as rational functions built three
    ways, and, when p is a constant, as an int."""
    forms = [p, QRationalFunction.from_polynomial(p),
             ratfun(-k, p.shift(k), P(1)), ratfun(0, p * d, d)]
    if p.degree < 1:
        forms.append(p.coefficient(0))
    return forms


@given(small_polys, st.integers(min_value=0, max_value=3),
       small_polys.filter(bool))
def test_equal_values_hash_alike(p, k, d):
    forms = _forms(p, k, d)
    for x in forms:
        for y in forms:
            assert x == y
            assert hash(x) == hash(y)
    assert len(set(forms)) == 1


values = st.one_of(st.integers(min_value=-3, max_value=3), small_polys,
                   rationals)


@given(values, values)
def test_equality_implies_equal_hashes(x, y):
    if x == y:
        assert hash(x) == hash(y)


def test_constants_and_polynomials_collapse_in_sets():
    assert len({IntPolynomial((5,)), 5}) == 1
    assert len({QRationalFunction.from_integer(5), IntPolynomial((5,)),
                5}) == 1
    assert len({QRationalFunction.zero(), IntPolynomial(), 0}) == 1
    assert len({ratfun(2, P(1, 1), P(1)), P(0, 0, 1, 1)}) == 1
    # q^-1 and (1 + q)/(1 - q) equal no polynomial
    assert QRationalFunction.q_power(-1) != P(0, 1)
    assert RF(0, (1, 1), (1, -1)) != P(1, 1)


def _fields(x):
    return x.e, x.num, x.den


def _general_product(a, b):
    # both operands through one full normalization, gcd included
    return ratfun(a.e + b.e, a.num * b.num, a.den * b.den)


def _general_sum(a, b):
    e = min(a.e, b.e)
    return ratfun(e, a.num.shift(a.e - e) * b.den
                  + b.num.shift(b.e - e) * a.den, a.den * b.den)


def _counting_gcds(monkeypatch):
    calls = []
    inner = ratfun_module._gcd_cofactors

    def counted(a, b):
        calls.append(1)
        return inner(a, b)
    monkeypatch.setattr(ratfun_module, '_gcd_cofactors', counted)
    return calls


@given(rationals, st.integers(min_value=-6, max_value=6))
def test_products_with_a_q_power_match_the_general_path(a, e):
    m = QRationalFunction.q_power(e)
    for x, y in ((a, m), (m, a), (m, m)):
        assert _fields(x * y) == _fields(_general_product(x, y))
    assert (QRationalFunction.zero() * m).is_zero
    assert (m * QRationalFunction.zero()).is_zero


def test_products_with_a_q_power_take_no_gcd(monkeypatch):
    a = RF(-2, (1, 3), (2, 0, 5))
    calls = _counting_gcds(monkeypatch)
    for e in (-3, 0, 4):
        m = QRationalFunction.q_power(e)
        assert _fields(a * m) == (e - 2, P(1, 3), P(2, 0, 5))
        assert _fields(m * a) == (e - 2, P(1, 3), P(2, 0, 5))
    assert calls == []


@given(rationals, small_polys, st.integers(min_value=0, max_value=3),
       st.integers(min_value=-2, max_value=2))
def test_sums_over_a_shared_denominator(a, t, s, shift):
    # b = q^e (q^s t den - num) / den keeps a's denominator, and a + b
    # = q^(e + s) t cancels down to a polynomial: to zero when t = 0,
    # with a higher valuation when s > 0
    b = ratfun(a.e, t.shift(s) * a.den - a.num, a.den)
    if b.is_zero or b.den != a.den:
        return
    assert _fields(a + b) == _fields(_general_sum(a, b))
    assert _fields(a + b) == _fields(ratfun(a.e + s, t, 1))
    # and sums that need not cancel, equal exponents or not
    c = ratfun(a.e + shift, t + 1, a.den)
    if not c.is_zero and c.den == a.den:
        assert _fields(a + c) == _fields(_general_sum(a, c))
        assert _fields(c + a) == _fields(_general_sum(a, c))


def test_a_sum_over_a_shared_denominator_takes_one_gcd(monkeypatch):
    a = RF(1, (1, 2), (1, 0, 1))
    b = RF(1, (-1, -2), (1, 0, 1))
    c = RF(0, (3,), (1, 0, 1))
    d = RF(2, (-2, 1), (1, 0, 1))
    calls = _counting_gcds(monkeypatch)
    assert (a + b).is_zero
    assert _fields(a + c) == (0, P(3, 1, 2), P(1, 0, 1))
    # (q + q^3) / (1 + q^2) = q
    assert _fields(a + d) == (1, P(1), P(1))
    assert _fields(d + d) == (2, P(-4, 2), P(1, 0, 1))
    # one gcd for each sum but the one that cancels to zero
    assert len(calls) == 3


def test_identity_exact_panel_takes_at_most_6808_gcds_and_17079_products():
    # the traced identity-exact benchmark panel: the first 1 000 cases of
    # seed 7 in a fresh interpreter.  The tracer counts calls to the
    # public poly_gcd, while the rational functions reach the gcd through
    # _gcd_cofactors, so this counts those calls directly, and the
    # polynomial products by wrapping IntPolynomial.__mul__
    script = '\n'.join([
        'import importlib, itertools',
        'import workloads',
        'from qreals.identities import verify_identity',
        'from qreals.polynomial import IntPolynomial',
        'module = importlib.import_module("qreals.ratfun")',
        'inner, calls = module._gcd_cofactors, []',
        'def counted(a, b):',
        '    calls.append(1)',
        '    return inner(a, b)',
        'module._gcd_cofactors = counted',
        'mul, products = IntPolynomial.__mul__, []',
        'def multiplied(a, b):',
        '    products.append(1)',
        '    return mul(a, b)',
        'IntPolynomial.__mul__ = multiplied',
        'cases = itertools.islice(itertools.chain.from_iterable(',
        '    workloads.identity_blocks("identity-exact", 7)), 1000)',
        'ok = all(verify_identity(name, binding,',
        '                         precision=workloads.PRECISION,',
        '                         xdeg=workloads.XDEG).ok',
        '         for name, binding in cases)',
        'print(ok, len(calls), len(products))'])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / 'src'), str(ROOT / 'qbench')]))
    done = subprocess.run([sys.executable, '-c', script],
                          capture_output=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    ok, calls, products = done.stdout.decode().split()
    assert ok == 'True'
    assert 0 < int(calls) <= 6808
    assert 0 < int(products) <= 17079
