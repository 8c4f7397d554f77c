"""q-deformations of integers, rationals, and reals.

The deformation of a rational r > 1 is defined through its even-length
regular continued fraction [a1, a2, ..., a_2m]:

    [r]_q = [a1]_q + q^a1 / ([a2]_q' + q^-a2 / ([a3]_q + ... / [a_2m]_q'))

where [a]_q = 1 + q + ... + q^(a-1), and [a]_q' denotes [a] evaluated at
1/q, i.e. q^-(a-1) [a]_q.  Odd levels contribute bridges q^+a, even
levels q^-a.  Rationals r <= 1 are reached through the shift law
[r + n]_q = [n]_q + q^n [r]_q, applied with the smallest n making the
argument land in (1, 2].

A real number is handled through a sequence of rational approximations:
the Taylor coefficients of the approximants' deformations stabilize, and
the stabilized series is the deformation of the real.  Convergents of
the regular continued fraction of the target are the canonical choice of
approximants, but any sequence converging to the target works; when
they count as settled is one heuristic rule, _settle.  The shift law in
its brace form {x + t}_q = q^t {x}_q, {x}_q = 1 + (q - 1)[x]_q, is the
one place every deformed factor [x + t]_q is derived (_shift_law).

Every rational takes one path.  The tower is a product of 2x2 matrices
of polynomials, one per level, each with determinant -q^a (Morier-Genoud
and Ovsienko, "q-deformed rationals and q-continued fractions", Forum
Math. Sigma 8, 2020), so the numerator and denominator it yields share
no factor but a power of q and no gcd is taken.  The canonical
QRationalFunction is cached; a series is its expansion.  The degrees
grow with the sum of the partial quotients, not with the size of the
fraction, so deep convergents (Pell numerators grow exponentially) stay
cheap.
"""

import itertools
import math
import operator
import re
from fractions import Fraction

from . import _cache
from .errors import DomainError, NonConvergenceError
from .polynomial import IntPolynomial
from .ratfun import QRationalFunction, ratfun
from .series import LaurentSeries, series_from_ratfun

DEFAULT_PRECISION = 32
STABLE_WINDOW = 3
CONVERGENT_BUDGET = 64


def _qint_poly(n):
    """1 + q + ... + q^(n-1) for n >= 0."""
    return IntPolynomial((1,) * n)


def q_integer(n):
    """[n]_q = (1 - q^n)/(1 - q) as a rational function, any integer n."""
    if n >= 0:
        return QRationalFunction.from_polynomial(_qint_poly(n))
    return ratfun(n, -_qint_poly(-n), 1, reduced=True)


class _Record:
    """Frozen record of the fields in _fields, with the equality, hash, repr
    and immutability of a @dataclass(frozen=True) but no dataclasses import."""

    _fields = ()

    def _bind(self, *values):
        """Set the fields, in the order of _fields, once at construction."""
        self.__dict__.update(zip(self._fields, values))

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)
        return f'{self.__class__.__qualname__}({body})'

    def __setattr__(self, name, *value):
        raise AttributeError(f'cannot assign to or delete field {name!r}')

    __delattr__ = __setattr__


class ContinuedFraction(_Record):
    """Even-length regular continued fraction of a rational greater than 1.

    Terms are positive integers; odd-length expansions are canonicalized
    by [..., a] -> [..., a-1, 1].
    """

    _fields = ('terms',)

    def __init__(self, terms):
        terms = tuple(int(a) for a in terms)
        if not terms or len(terms) % 2:
            raise DomainError(f'need an even number of terms, got {len(terms)}')
        if any(a < 1 for a in terms):
            raise DomainError(f'terms must be positive: {terms}')
        object.__setattr__(self, 'terms', terms)

    @classmethod
    def from_rational(cls, r):
        r = Fraction(r)
        if r <= 1:
            raise DomainError(f'continued fractions here require value > 1, got {r}')
        num, den = r.numerator, r.denominator
        terms = []
        while den:
            a, rem = divmod(num, den)
            terms.append(a)
            num, den = den, rem
        if len(terms) % 2:
            if terms[-1] > 1:
                terms[-1] -= 1
                terms.append(1)
            else:
                terms.pop()
                terms[-1] += 1
        return cls(terms)

    def value(self):
        return _fold(self.terms)

    def __len__(self):
        return len(self.terms)

    def __str__(self):
        return '[' + ', '.join(str(a) for a in self.terms) + ']'

    def __repr__(self):
        return f'ContinuedFraction({list(self.terms)})'


def _fold(terms):
    """a1 + 1/(a2 + 1/(... + 1/an)) for a non-empty list of positive terms."""
    v = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        v = a + 1 / v
    return v


def _times_qint(p, a):
    """p * [a]_q for a >= 0: the running sum of (1 - q^a) p, which costs
    O(deg p + a) where the product costs O(a deg p)."""
    c = p.coeffs
    return IntPolynomial(itertools.accumulate(
        [x - y for x, y in zip(c + (0,) * a, (0,) * a + c)]))


def _tower(terms):
    """(N, D) with [r]_q = N/D, from the even-length continued fraction
    terms of r > 1, built from the bottom level up.

    The bottom level [a]'_q is ([a]_q, q^(a-1)).  A level [a]_q + q^a/acc
    maps (N, D) to ([a]N + q^a D, N), a level [a]'_q + q^-a/acc maps it to
    (q[a]N + D, q^a N); both matrices have determinant -q^a, so N and D
    share no factor but a power of q.
    """
    a = terms[-1]
    num, den = _qint_poly(a), IntPolynomial.monomial(1, a - 1)
    for i in range(len(terms) - 2, -1, -1):
        a = terms[i]
        if i % 2 == 0:  # odd 1-based position, plain [a]_q, bridge q^+a
            num, den = _times_qint(num, a) + den.shift(a), num
        else:
            num, den = _times_qint(num, a).shift(1) + den, num.shift(a)
    return num, den


# Bounded well above what the workloads keep: 901 entries after 6 002
# identity-exact cases, 315 after 1 530 identity-series cases (seed 7),
# deep convergents of the irrational inputs included.
@_cache.table(4096)
def _q_rational_cached(num, den):
    # the shift law [r]_q = q^-m ([r + m]_q - [m]_q), with the smallest
    # m >= 0 that puts r + m in (1, 2] when r <= 1; N - [m]D shares with D
    # only what N does, so no gcd is taken
    m = max(0, (2 * den - num) // den)
    n, d = _tower(ContinuedFraction.from_rational(
        Fraction(num + m * den, den)).terms)
    return ratfun(-m, n - _times_qint(d, m), d, reduced=True)


def q_rational(r):
    """[r]_q as a canonical rational function, for any rational r."""
    r = Fraction(r)
    return _q_rational_cached(r.numerator, r.denominator)


def q_rational_series(r, precision):
    """[r]_q as a Laurent series known below q^precision."""
    return series_from_ratfun(q_rational(r), precision)


def _shift_law(r):
    """(lo, D, C) for a rational r: polynomials D and C with

        (1 - q) D [r + t]_q = D + q^(lo + t) C

    for every integer t, where [r]_q = q^e N / D, lo = min(0, e) and
    C = (1 - q) q^(e - lo) N - q^(-lo) D.  This is the shift law
    [r + t]_q = [t]_q + q^t [r]_q, with (1 - q)[t]_q = 1 - q^t; at t = 0
    it reads {r}_q = -q^lo C / D.
    """
    rf = q_rational(r)
    lo = min(0, rf.e)
    a = rf.num.shift(rf.e - lo)
    return lo, rf.den, a - a.shift(1) - rf.den.shift(-lo)


def q_brace(r):
    """{r}_q = 1 + (q - 1)[r]_q, the q-deformed fractional bracket."""
    # at q = 1 the tower is the classical one, so D(1) is, up to the
    # content, the denominator of r: q - 1 does not divide D, and -C,
    # which is D modulo q - 1, shares no factor with it
    lo, den, c = _shift_law(r)
    return ratfun(lo, -c, den, reduced=True)


_Q_MINUS_ONE = LaurentSeries.from_polynomial(IntPolynomial((-1, 1)))


class RealSpec:
    """A real number given in a form the deformation machinery accepts."""

    def convergents(self):
        raise NotImplementedError

    @property
    def is_rational(self):
        return False


class RationalValue(_Record, RealSpec):
    _fields = ('value',)

    def __init__(self, value):
        object.__setattr__(self, 'value', Fraction(value))

    def convergents(self):
        return iter((self.value,))

    @property
    def is_rational(self):
        return True

    def __str__(self):
        return str(self.value)


class PeriodicContinuedFraction(_Record, RealSpec):
    """Quadratic irrational [h1, ..., hk; (p1, ..., pj) repeating]."""

    _fields = ('head', 'period')

    def __init__(self, head, period):
        head = tuple(int(a) for a in head)
        period = tuple(int(a) for a in period)
        if not period:
            raise DomainError('empty period; use a plain rational instead')
        if any(a < 1 for a in head + period):
            raise DomainError('continued fraction terms must be positive')
        object.__setattr__(self, 'head', head)
        object.__setattr__(self, 'period', period)

    def terms(self):
        yield from self.head
        yield from itertools.cycle(self.period)

    def convergents(self):
        p_prev, p = 0, 1
        q_prev, q = 1, 0
        for a in self.terms():
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
            yield Fraction(p, q)

    def __str__(self):
        head = ','.join(str(a) for a in self.head)
        period = ','.join(str(a) for a in self.period)
        return f'[{head};({period})]'


class ConvergentSequence(RealSpec):
    """A real number given by a factory of rational approximations.

    The factory is any zero-argument callable returning a fresh iterator
    of Fractions converging to the target.
    """

    def __init__(self, factory, label='convergent sequence'):
        self._factory = factory
        self._label = label

    def convergents(self):
        return iter(self._factory())

    def __str__(self):
        return self._label


_PERIODIC_RE = re.compile(r'^\[([0-9,\s]*);\s*\(([0-9,\s]+)\)\s*\]$')
_LIST_RE = re.compile(r'^\[([0-9,\s]+)\]$')


def parse_real_spec(text):
    """Parse 'p/q', '3', '[2,3,1,5]' (finite cf), or '[1;(2)]' (periodic)."""
    text = text.strip()
    m = _PERIODIC_RE.match(text)
    if m:
        head = [int(a) for a in m.group(1).split(',') if a.strip()]
        period = [int(a) for a in m.group(2).split(',') if a.strip()]
        return PeriodicContinuedFraction(tuple(head), tuple(period))
    m = _LIST_RE.match(text)
    if m:
        terms = [int(a) for a in m.group(1).split(',') if a.strip()]
        if not terms or 0 in terms:
            raise DomainError(
                f'a finite continued fraction needs positive terms: {text!r}')
        return RationalValue(_fold(terms))
    try:
        return RationalValue(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f'cannot parse real spec: {text!r}')


def _settle(items, same, what, value):
    """The item that ends the first run of STABLE_WINDOW consecutive
    items, each of which `same` finds equal to the one before it, among
    the first CONVERGENT_BUDGET items.

    A heuristic, not a theorem: approximants that agree for a while need
    not agree with their limit.  Raises NonConvergenceError, its message
    naming `what` and `value`, when the budget runs out first.
    """
    last, run = None, 0
    for item in itertools.islice(items, CONVERGENT_BUDGET):
        run = run + 1 if run and same(item, last) else 1
        if run >= STABLE_WINDOW:
            return item
        last = item
    raise NonConvergenceError(
        f'no run of {STABLE_WINDOW} {what} within {CONVERGENT_BUDGET} '
        f'terms for {value}')


def q_real_series(value, precision=DEFAULT_PRECISION):
    """Deformation of a real number as a stabilized Laurent series.

    Expands successive approximants until STABLE_WINDOW consecutive ones
    give identical coefficients below q^precision, and returns that
    series.  Raises NonConvergenceError when CONVERGENT_BUDGET
    approximants are exhausted first (_settle).
    """
    r = _as_rational(value)
    if r is not None:
        return q_rational_series(r, precision)
    return _settle(
        (q_rational_series(c, precision) for c in value.convergents()),
        lambda s, last: s.agrees_with(last, precision),
        f'agreeing approximants below q^{precision}', value)


def q_brace_series(value, precision=DEFAULT_PRECISION):
    """{x}_q = 1 + (q - 1)[x]_q for a real x, as a stabilized series."""
    return 1 + _Q_MINUS_ONE * q_real_series(value, precision)


def order_at_zero(value):
    """q-adic order of the deformation of a rational or real number.

    Read off _floor_and_order, so no series is built and the order is
    exact for rationals and periodic continued fractions.
    """
    return _factor_order(*_floor_and_order(value), 0)


def _as_rational(value):
    """The Fraction a rational input stands for; None for an irrational."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if not isinstance(value, RealSpec):
        raise TypeError(f'expected an int, a Fraction or a RealSpec, '
                        f'not {type(value).__name__}')
    return value.value if value.is_rational else None


def _floor_and_order(value):
    """(n, b): the floor n of a rational or real x and b = ord [x - n]_q.

    The pair fixes the order of every [x + t]_q: 0 when n + t > 0, b when
    n + t = 0, and n + t when n + t < 0.  For 0 < f < 1 the tower gives
    [f]_q = ([1 + f]_q - 1)/q with [1 + f]_q = 1 + q/([a]'_q + ...) and
    a = floor(1/f), so ord [f]_q is a, or a - 1 when f = 1/a: that is
    ceil(1/f) - 1, and b is math.inf for integers.  A periodic continued
    fraction [a0; a1, ...] therefore gives (a0, a1) exactly.  Any other
    approximant sequence gives the pair its approximants settle on
    (_settle, the heuristic q_real_series applies to their series).
    """
    r = _as_rational(value)
    if r is not None:
        # in integers: r = n + f/d, and ceil(d/f) - 1 = (d - 1) // f
        d = r.denominator
        n, f = divmod(r.numerator, d)
        return n, (d - 1) // f if f else math.inf
    if isinstance(value, PeriodicContinuedFraction):
        terms = value.terms()
        return next(terms), next(terms)
    return _settle(map(_floor_and_order, value.convergents()), operator.eq,
                   'approximants with one floor and fractional order', value)


def _factor_order(n, b, t):
    # ord [x + t]_q from (n, b) = _floor_and_order(x)
    f = n + t
    return 0 if f > 0 else b if f == 0 else f
