import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qreals.polynomial import IntPolynomial, format_terms, poly_gcd

ROOT = Path(__file__).resolve().parents[1]


def P(*coeffs):
    return IntPolynomial(coeffs)


small_polys = st.builds(
    IntPolynomial,
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6))

nonzero_polys = small_polys.filter(bool)


def test_trailing_zeros_stripped():
    assert P(1, 2, 0, 0) == P(1, 2)
    assert P(0, 0).is_zero
    assert P().is_zero


def test_degree_and_valuation():
    assert P(1, 0, 3).degree == 2
    assert P().degree == -1
    assert P(0, 0, 5).valuation == 2
    with pytest.raises(ValueError):
        P().valuation


def test_arithmetic_basics():
    assert P(1, 1) * P(1, -1) == P(1, 0, -1)
    assert P(1, 1) + 1 == P(2, 1)
    assert 3 * P(1, 2) == P(3, 6)
    assert P(1, 1) ** 3 == P(1, 3, 3, 1)
    assert -P(1, -2) == P(-1, 2)


def test_call_horner():
    p = P(1, 2, 3)
    assert p(2) == 1 + 4 + 12
    assert p(Fraction(1, 2)) == Fraction(11, 4)


def test_shift_and_reversed():
    assert P(1, 2).shift(2) == P(0, 0, 1, 2)
    assert P(1, 2, 3).reversed() == P(3, 2, 1)
    assert P(0, 1, 2).reversed() == P(2, 1)


def test_divide_exact():
    num = P(1, 1) * P(1, 0, 1)
    assert num.divide_exact(P(1, 1)) == P(1, 0, 1)
    with pytest.raises(ValueError):
        P(1, 1, 1).divide_exact(P(1, 1))


def test_content_and_primitive():
    assert P(2, 4, 6).content() == 2
    assert P(2, 4, 6).primitive_part() == P(1, 2, 3)


def test_gcd_cyclotomic_overlap():
    # gcd(1 - q^2, 1 - q^3) = 1 - q up to sign normalization
    assert poly_gcd(P(1, 0, -1), P(1, 0, 0, -1)) == P(1, -1)


def test_gcd_coprime():
    assert poly_gcd(P(1, 1), P(1, 0, 1)) == P(1)


def test_gcd_common_q_power():
    assert poly_gcd(P(0, 0, 1, 1), P(0, 1)) == P(0, 1)


def test_gcd_zero_cases():
    assert poly_gcd(P(), P(2, -4)) == P(1, -2)
    assert poly_gcd(P(), P()) == P()


def test_format_terms():
    assert str(P(1, 2, 0, 1)) == '1 + 2q + q^3'
    assert str(P(-1, 0, 1)) == '-1 + q^2'
    assert str(P()) == '0'
    assert format_terms([(3, Fraction(1, 2))]) == '(1/2)q^3'
    assert format_terms([(-1, 1), (0, -2)]) == 'q^-1 - 2'


@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_polys, nonzero_polys)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    assert not a or a.divide_exact(g) * g == a
    assert b.divide_exact(g) * g == b


@given(small_polys, small_polys)
def test_gcd_symmetric(a, b):
    assert poly_gcd(a, b) == poly_gcd(b, a)


@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_absorbs_common_factor(a, b, m):
    g = poly_gcd(a * m, b * m)
    # the normalized version of m (its gcd with itself) must divide g
    m_normal = poly_gcd(m, m)
    assert g.divide_exact(m_normal) * m_normal == g


def test_bad_powers_and_shifts_raise_under_python_O():
    # the checks must not be asserts: under -O a negative power would
    # square forever and a negative shift would be ignored
    calls = ['IntPolynomial((1, 2)) ** -1', 'IntPolynomial((1, 2)) ** 1.5',
             'LaurentSeries.one() ** -2',
             'QRationalFunction.from_integer(2) ** 0.5',
             'IntPolynomial((1, 2)).shift(-1)', 'IntPolynomial.monomial(1, -2)']
    script = '\n'.join([
        'from qreals import IntPolynomial, LaurentSeries, QRationalFunction',
        'for call in %r:' % calls,
        '    try:',
        '        eval(call)',
        '    except Exception as err:',
        '        print(type(err).__name__)',
        '    else:',
        '        print("returned")'])
    env = dict(os.environ, PYTHONPATH=str(ROOT / 'src'))
    done = subprocess.run([sys.executable, '-O', '-c', script],
                          capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == ['ValueError'] * len(calls)
