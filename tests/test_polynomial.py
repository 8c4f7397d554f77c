import contextlib
import functools
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qreals import polynomial
from qreals.polynomial import IntPolynomial, format_terms, poly_gcd
from qreals.ratfun import ratfun
from qreals.series import LaurentSeries, series

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


def _divides(a, b):
    """Whether b divides a in Z[q], by long division over the rationals."""
    rem, lead = [Fraction(c) for c in a], b.coeffs[-1]
    quotient = []
    for i in range(len(rem) - len(b.coeffs), -1, -1):
        c = rem[i + b.degree] / lead
        quotient.append(c)
        for j, bj in enumerate(b.coeffs):
            rem[i + j] -= c * bj
    return not any(rem) and all(c.denominator == 1 for c in quotient)


@given(small_polys, nonzero_polys, small_polys,
       st.integers(min_value=-3, max_value=3))
def test_quotient_exactly_when_divisible(c, b, r, wide):
    # a = b c + r, with r often zero; b's constant term is sometimes
    # widened, as in a GCDHEU candidate, so that it alone rules a b out
    b = b + P(wide * 2 ** 70) if wide and b.coeffs[0] else b
    a = b * c + r
    out = polynomial._quotient(a.coeffs, b.coeffs)
    if a and len(a.coeffs) >= len(b.coeffs) and _divides(a.coeffs, b):
        assert out is not None and P(*out) * b == a
    elif a:
        assert out is None


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


# ---------------------------------------------------------------------------
# Kronecker multiplication against a schoolbook product written here

def schoolbook(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@st.composite
def mul_operands(draw):
    """Coefficient lists from 0 to 40 terms (so len(a) len(b) falls on
    both sides of KRONECKER_SIZE), up to 2^80 in size, with internal
    zero runs, an integer content and either sign at both ends."""
    bits = draw(st.sampled_from([1, 4, 20, 80]))
    coeffs = draw(st.lists(st.integers(min_value=-2 ** bits,
                                       max_value=2 ** bits), max_size=40))
    if len(coeffs) > 3 and draw(st.booleans()):
        i = draw(st.integers(min_value=1, max_value=len(coeffs) - 2))
        j = draw(st.integers(min_value=i, max_value=len(coeffs) - 1))
        coeffs[i:j] = [0] * (j - i)
    content = draw(st.sampled_from([1, -1, 6, -2 ** 66]))
    return [content * c for c in coeffs]


@contextlib.contextmanager
def packing_from(size):
    """Products with len(a) len(b) >= size take the packed path."""
    saved = polynomial.KRONECKER_SIZE
    polynomial.KRONECKER_SIZE = size
    try:
        yield
    finally:
        polynomial.KRONECKER_SIZE = saved


@given(mul_operands(), mul_operands())
def test_mul_equals_schoolbook(a, b):
    want = schoolbook(a, b)
    assert (P(*a) * P(*b)).coeffs == want
    # every nonconstant product packed, then none of them
    for size in (0, 10 ** 9):
        with packing_from(size):
            assert (P(*a) * P(*b)).coeffs == want


@given(mul_operands(), st.integers(min_value=-2 ** 80, max_value=2 ** 80))
def test_mul_by_an_int(a, n):
    want = schoolbook(a, [n])
    assert (P(*a) * n).coeffs == want
    assert (n * P(*a)).coeffs == want
    assert (P(*a) * P(n)).coeffs == want


@pytest.mark.parametrize('la, lb', [(1, 200), (7, 9), (8, 8), (5, 13),
                                    (2, 40), (40, 2), (64, 1)])
def test_mul_at_the_threshold(la, lb):
    # 63, 64 and 65 coefficient pairs and constant operands; equal
    # coefficients of either sign make a product coefficient reach the
    # digit bound |a|_inf |b|_inf min(la, lb) itself
    big = 2 ** 80
    for a, b in (([big] * la, [big] * lb), ([big] * la, [-big] * lb),
                 ([(-1) ** i * big for i in range(la)],
                  [-big] + [big - i for i in range(1, lb)])):
        assert (P(*a) * P(*b)).coeffs == schoolbook(a, b)
        a[0] = 0
        b[-1] = -1
        assert (P(*a) * P(*b)).coeffs == schoolbook(a, b)


def test_mul_with_zero_operands():
    for p in (P(), P(3), P(1, -2, 0, 0, 7)):
        assert (p * P()).is_zero and (P() * p).is_zero
        assert (p * 0).is_zero and (0 * p).is_zero


@given(mul_operands().filter(any), mul_operands().filter(any))
def test_product_of_nonzero_leads_has_a_nonzero_lead(a, b):
    pa, pb = P(*a), P(*b)
    c = pa * pb
    assert c.degree == pa.degree + pb.degree
    assert c.coeffs[-1] == pa.coeffs[-1] * pb.coeffs[-1] != 0


def test_power_of_one_minus_q_is_binomial():
    # square-and-multiply takes products on both sides of the threshold
    for n in range(0, 70):
        assert (P(1, -1) ** n).coeffs == tuple(
            (-1) ** k * math.comb(n, k) for k in range(n + 1))
    assert P(2, 1) ** 0 == P(1)


class _Counted:
    """An exponent that counts the products that built it."""

    def __init__(self, n, products):
        self.n, self.products = n, products

    def __mul__(self, other):
        self.products.append(1)
        return _Counted(self.n + other.n, self.products)


@pytest.mark.parametrize('n', range(41))
def test_power_takes_bit_length_plus_popcount_minus_two_products(n):
    products = []
    x = _Counted(1, products)
    one = _Counted(0, products)
    result = polynomial._power(x, n, one)
    assert result.n == n
    assert len(products) == (0 if n <= 1 else
                             n.bit_length() - 1 + bin(n).count('1') - 1)
    assert polynomial._power(x, 1, one) is x
    assert polynomial._power(x, 0, one) is one


def _repeated(x, n, one):
    return functools.reduce(operator.mul, [x] * n) if n else one


@given(small_polys, st.integers(min_value=0, max_value=12))
def test_polynomial_power_is_the_repeated_product(p, n):
    assert (p ** n).coeffs == _repeated(p, n, P(1)).coeffs
    assert p ** 1 is p


@given(nonzero_polys, nonzero_polys,
       st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-7, max_value=7))
def test_rational_function_power_is_the_repeated_product(num, den, e, n):
    x = ratfun(e, num, den)
    base = x if n >= 0 else x.reciprocal()
    assert (x ** n).to_json() == _repeated(
        base, abs(n), ratfun(0, 1, 1)).to_json()


@given(st.integers(min_value=-3, max_value=3),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                max_size=5),
       st.one_of(st.just(math.inf), st.integers(min_value=5, max_value=9)),
       st.integers(min_value=0, max_value=9))
def test_series_power_is_the_repeated_product(order, coeffs, width, n):
    # exact, truncated and zero series; the precision must match too
    x = series(order, coeffs, order + width)
    assert (x ** n).to_json() == _repeated(
        x, n, LaurentSeries.one()).to_json()


def test_public_constructor_checks_coefficient_types():
    for bad, name in ((1.5, 'float'), (Fraction(1, 2), 'Fraction'),
                      ('1', 'str')):
        with pytest.raises(TypeError,
                           match=f'int coefficient expected, got {name}'):
            IntPolynomial([1, bad, 2])


# ---------------------------------------------------------------------------
# the gcd's cofactors and the packing of long inputs

@given(gcd_operands())
def test_gcd_cofactors(ab):
    a, b = ab
    g, qa, qb = polynomial._gcd_cofactors(a, b)
    assert g == poly_gcd(a, b)
    if g:
        assert g * qa == a and g * qb == b
    else:
        assert not (a or b or qa or qb)
    saved = polynomial.GCD_TRIES
    polynomial.GCD_TRIES = 0
    try:
        assert polynomial._gcd_cofactors(a, b) == (g, qa, qb)
    finally:
        polynomial.GCD_TRIES = saved


def test_gcd_cofactors_of_zero_and_q_powers():
    cofactors = polynomial._gcd_cofactors
    assert cofactors(P(), P(0, -2, -4)) == (P(0, 1, 2), P(), P(-2))
    assert cofactors(P(0, 6, 0, 9), P()) == (P(0, 2, 0, 3), P(3), P())
    assert cofactors(P(), P()) == (P(), P(), P())
    assert cofactors(P(0, 0, 6, 6), P(0, 4, 4)) == (P(0, 1, 1), P(0, 6),
                                                    P(4))
    assert cofactors(P(0, 3), P(0, 0, 1, 1)) == (P(0, 1), P(3), P(0, 1, 1))


def unpack_digit_by_digit(n, k):
    """Balanced base-2^k digits of n, lowest first, one at a time."""
    out = []
    while n:
        d = n % (1 << k)
        if d > 1 << (k - 1):
            d -= 1 << k
        out.append(d)
        n = (n - d) >> k
    return out


@given(st.lists(st.integers(min_value=-2 ** 70, max_value=2 ** 70),
                max_size=300),
       st.integers(min_value=2, max_value=80),
       st.integers(min_value=-2 ** 9000, max_value=2 ** 9000))
def test_pack_unpack_split_long_inputs(coeffs, k, n):
    # past _PACK_LEAF digits both halve their input
    assert polynomial._pack(coeffs, k) == sum(
        c << (k * i) for i, c in enumerate(coeffs))
    assert polynomial._unpack(n, k) == unpack_digit_by_digit(n, k)
    small = [c % (1 << (k - 1)) - (1 << (k - 2)) for c in coeffs]
    while small and not small[-1]:
        small.pop()
    assert polynomial._unpack(polynomial._pack(small, k), k) == small


# ---------------------------------------------------------------------------
# machine-word digits: the packed products round k up to 8, 16, 32 or 64

WORD_WIDTHS = (8, 16, 32, 64)


@st.composite
def digit_runs(draw):
    """A width k, at a machine word, between words or above 64, and
    digits below 2^(k-1) in size: the extremes +-(2^(k-1) - 1), small
    values of either sign, and trailing zeros."""
    k = draw(st.one_of(st.sampled_from(WORD_WIDTHS + (65, 96, 128)),
                       st.integers(min_value=2, max_value=130)))
    top = (1 << (k - 1)) - 1
    digits = draw(st.lists(st.one_of(
        st.sampled_from([top, -top, 1, -1, 0]),
        st.integers(min_value=-top, max_value=top)), max_size=80))
    return k, digits + [0] * draw(st.integers(min_value=0, max_value=3))


@given(digit_runs(), st.integers(min_value=0, max_value=90))
def test_word_digits_round_trip(run, m):
    k, digits = run
    n = polynomial._pack(digits, k)
    assert n == sum(d << (k * i) for i, d in enumerate(digits))
    stripped = list(digits)
    while stripped and not stripped[-1]:
        stripped.pop()
    assert polynomial._unpack(n, k) == stripped
    low = stripped[:m]
    while low and not low[-1]:
        low.pop()
    assert polynomial._unpack(polynomial._low_digits(n, k, m), k) == low
    if k in WORD_WIDTHS:
        assert polynomial._words(n, k, m) == \
            digits[:m] + [0] * (m - len(digits))


@st.composite
def word_edge_operands(draw):
    """Two operands whose product needs digits of about 64 bits: k is
    rounded up to 64 on one side of the edge and kept exact above it.
    Sizes at the extremes reach the bound |a|_inf |b|_inf min(la, lb)."""
    la = draw(st.integers(min_value=2, max_value=40))
    lb = draw(st.integers(min_value=2, max_value=40))
    total = draw(st.integers(min_value=56, max_value=72)) - \
        min(la, lb).bit_length()
    bits_a = draw(st.integers(min_value=1, max_value=total - 1))

    def operand(length, bits):
        extreme = st.sampled_from([2 ** bits, -2 ** bits])
        return draw(st.lists(st.one_of(extreme, st.integers(
            min_value=-2 ** bits, max_value=2 ** bits)),
            min_size=length, max_size=length).filter(lambda c: c[-1]))
    return operand(la, bits_a), operand(lb, total - bits_a)


@given(word_edge_operands(), st.integers(min_value=1, max_value=90))
def test_products_match_schoolbook_on_both_sides_of_64_bits(operands, n):
    a, b = operands
    want = schoolbook(a, b)
    with packing_from(0):
        assert (P(*a) * P(*b)).coeffs == want
    full = list(want) + [0] * n
    assert polynomial._kronecker(a, b, n) == full[:n]
