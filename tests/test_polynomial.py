import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qreals import polynomial
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


# ---------------------------------------------------------------------------
# the heuristic gcd against the primitive PRS

def prs_gcd(a, b):
    """poly_gcd with no ξ to try, so the primitive PRS decides alone."""
    saved = polynomial.GCD_TRIES
    polynomial.GCD_TRIES = 0
    try:
        return poly_gcd(a, b)
    finally:
        polynomial.GCD_TRIES = saved


def euclid_gcd(a, b):
    """Euclid's algorithm over the rationals, made primitive with a
    positive lowest coefficient; independent of both gcd routes."""
    def rem(x, y):
        x = list(x)
        while len(x) >= len(y):
            c = x[-1] / y[-1]
            for i, yi in enumerate(y):
                x[len(x) - len(y) + i] -= c * yi
            x.pop()
            while x and not x[-1]:
                x.pop()
        return x
    x = [Fraction(c) for c in a.coeffs]
    y = [Fraction(c) for c in b.coeffs]
    while y:
        x, y = y, rem(x, y)
    if not x:
        return IntPolynomial()
    den = 1
    for c in x:
        den = den * c.denominator // math.gcd(den, c.denominator)
    g = IntPolynomial([int(c * den) for c in x]).primitive_part()
    return -g if g.coeffs[g.valuation] < 0 else g


# shapes the heuristic must get right: (1 - q)^5, cyclotomic products,
# coefficients past 2^64, negative ends and integer content
SPECIAL = [P(1, -1) ** 5, P(1, -1) ** 2 * P(1, 1), P(1, 1, 1) * P(1, 0, 1),
           P(1, 0, 0, -1) * P(1, 0, -1), P(1, 1, 1, 1, 1), P(-3, 0, 7),
           P(2 ** 70 + 1, -(2 ** 65), 3), P(5, -2 ** 64), P(6, 4, -2)]

gcd_factors = st.one_of(
    st.builds(IntPolynomial,
              st.lists(st.integers(min_value=-9, max_value=9), max_size=6)),
    st.builds(IntPolynomial,
              st.lists(st.integers(min_value=-2 ** 80, max_value=2 ** 80),
                       max_size=4)),
    st.sampled_from(SPECIAL))


@st.composite
def gcd_operands(draw):
    """(a, b): random a, b times a shared m, with content, sign and a
    power of q on each, zero and constants included."""
    m = draw(gcd_factors)
    out = []
    for _ in range(2):
        p = draw(gcd_factors) * m * draw(st.sampled_from([1, -1, 6, -2 ** 66]))
        out.append(p.shift(draw(st.integers(min_value=0, max_value=3))))
    return tuple(out)


@given(gcd_operands())
def test_gcd_equals_prs(ab):
    a, b = ab
    g = poly_gcd(a, b)
    assert g == prs_gcd(a, b)
    assert g.coeffs == g.primitive_part().coeffs
    if g:
        assert g.coeffs[g.valuation] > 0


@given(gcd_operands())
def test_gcd_equals_euclid_over_the_rationals(ab):
    assert poly_gcd(*ab) == euclid_gcd(*ab)


def test_gcd_forced_fallback(monkeypatch):
    calls = []
    prs = polynomial._prs_gcd

    def counted(a, b):
        calls.append((a, b))
        return prs(a, b)
    monkeypatch.setattr(polynomial, 'GCD_TRIES', 0)
    monkeypatch.setattr(polynomial, '_prs_gcd', counted)
    for a in SPECIAL:
        for b in SPECIAL:
            assert poly_gcd(a * P(1, 2), b * P(1, 2)) == \
                euclid_gcd(a * P(1, 2), b * P(1, 2))
    assert len(calls) == len(SPECIAL) ** 2


@pytest.mark.parametrize('a, b, g', [
    # at ξ = 4, a(4) = b(4) (17, then 85), and the digits of that gcd
    # read back as a itself; a does not divide b, so the loop squares ξ
    # and finds the true gcd at ξ = 16
    (P(1, 0, 1), P(13, 1), P(1)),
    (P(1, 1) * P(1, 0, 1), P(1, 1) * P(13, 1), P(1, 1)),
])
def test_gcd_rejects_a_false_candidate_below_the_bound(monkeypatch, a, b, g):
    tried = []
    unpack = polynomial._unpack

    def spy(n, k):
        tried.append(k)
        return unpack(n, k)
    monkeypatch.setattr(polynomial, '_xi_bits', lambda a, b: 2)
    monkeypatch.setattr(polynomial, '_unpack', spy)
    assert poly_gcd(a, b) == g == prs_gcd(a, b)
    assert tried == [2, 4]


def test_gcd_constant_operand_needs_no_evaluation(monkeypatch):
    def fail(*args):
        raise AssertionError('evaluated')
    monkeypatch.setattr(polynomial, '_pack', fail)
    assert poly_gcd(P(0, 0, 6), P(0, 4, 2)) == P(0, 1)
    assert poly_gcd(P(3), P(1, 1)) == P(1)
    assert poly_gcd(P(2, 3, 4), P(0, 0, 0, -5)) == P(1)


@given(st.lists(st.integers(min_value=-2 ** 70, max_value=2 ** 70),
                max_size=8),
       st.integers(min_value=2, max_value=80))
def test_pack_unpack_round_trip(coeffs, k):
    n = polynomial._pack(coeffs, k)
    assert n == sum(c * 2 ** (k * i) for i, c in enumerate(coeffs))
    digits = polynomial._unpack(n, k)
    assert polynomial._pack(digits, k) == n
    assert all(-(1 << (k - 1)) < d <= 1 << (k - 1) for d in digits)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if all(abs(c) < 1 << (k - 1) for c in coeffs):
        assert digits == coeffs


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
