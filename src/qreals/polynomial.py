"""Dense polynomials over the integers in the formal variable q.

A polynomial is represented by a tuple of int coefficients in ascending
order of exponent with no trailing zeros; the zero polynomial is the empty
tuple.  Instances are immutable and hashable.  Coefficient arithmetic is
plain Python int arithmetic, so there is no overflow and no rounding.

The gcd returned by poly_gcd is primitive (content 1), normalized so
that its lowest-order nonzero coefficient is positive, and carries the
common power of q of its operands.

poly_gcd is GCDHEU (Char, Geddes and Gonnet, "GCDHEU: heuristic
polynomial GCD algorithm based on integer GCD computation", J. Symbolic
Comput. 7, 1989).  With the common power of q and the contents stripped,
a and b are evaluated at an integer ξ, one integer gcd
h = gcd(a(ξ), b(ξ)) is taken, and the balanced ξ-adic digits of h, each
in (-ξ/2, ξ/2], are read as the coefficients of a candidate G.  The
theorem: if ξ > 2 min(|a|_inf, |b|_inf) + 2 and the primitive part of G
divides both a and b, it is their gcd.  So a candidate is accepted only
after exact trial division.  It can fail when h is the true gcd's value
times an integer s shared by the cofactors' values at ξ and the product
does not fit in the digits; s divides the cofactors' resultant, so a
large enough ξ always succeeds.

Any ξ above the bound serves, so ξ = 2^k for the least k that clears it.
Evaluation is then a Kronecker pack (shift and add, _pack) and reading
the digits a signed unpack (_unpack).  A rejected candidate squares ξ,
at most GCD_TRIES times; after that the primitive polynomial remainder
sequence (_prs_gcd) decides, so every call ends under a fixed budget.
The quotients that check computes are the cofactors a/g and b/g, which
_gcd_cofactors hands to the rational functions, so they are never
divided out a second time.

A product a b is one integer product (Kronecker substitution; Harvey,
"Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 44, 2009): both operands are packed
at q = 2^k, multiplied as CPython ints, and the balanced base-2^k digits
of the result are read back as its coefficients.  Each coefficient of
a b is a sum of at most min(len a, len b) products a_i b_j, so its size
is at most M = |a|_inf |b|_inf min(len a, len b).  With k one more than
the bit length of M, every coefficient is below 2^(k-1) in size, and
such a digit sequence is exactly what _unpack reads back: the result is
exact by construction and needs no check and no fallback.  Any larger
k is exact too, so a k of at most 64 is rounded up to a machine word,
8, 16, 32 or 64 bits (_width; _digits reads back at any width, and the
series kernels share both).  There the digits are written and read in
C: _pack is int.from_bytes of an array of the coefficients, the
top bit of each word flipped and the flips subtracted, and _words adds
the flips, flips them back and reads the bytes as an array, with no
carry loop.  For 38 32-bit digits that reads back in 1.2 µs where the
shift loop takes 6 µs, and packs in 1.7 µs against 2.9 µs (the machine
below).  GCDHEU keeps its exact ξ = 2^k, rounded to no word.  Other
widths take the shift loops; _pack and _unpack halve inputs longer than
_PACK_LEAF digits there, so a long operand costs O(M(n) log n) bit
operations instead of one copy of the growing integer per coefficient.

A constant operand, or len(a) len(b) below KRONECKER_SIZE = 64, takes
the schoolbook loop, which is faster there.  The size was measured on
the 34 635 products of two nonconstant polynomials in the first 3 000
identity-exact benchmark cases (seed 13), timed both ways on a 2-core
machine under CPython 3.11 with the word read-back: the loop took
0.3-0.9 times as long as packing below 64, 1.0 times from 64 to 79,
1.2-1.9 times from 80 to 255 and 3-6 times above.  The 32 531 products
with more than one nonzero term in each operand that series._multiply
made in the first 3 000 identity-series cases cross over at the same
size, counted in nonzero terms: 0.35-0.98 below 64, 0.92 from 64 to 79,
1.2-1.5 from 80 to 255 and 2.5-3.8 above.
"""

import sys
from array import array
from fractions import Fraction
from math import gcd as _int_gcd


class IntPolynomial:
    """Immutable dense polynomial with int coefficients."""

    __slots__ = ('_coeffs',)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f'int coefficient expected, got {type(c).__name__}')
        self._coeffs = tuple(coeffs)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def monomial(cls, coeff, exponent):
        if exponent < 0:
            raise ValueError(f'negative exponent {exponent}')
        if coeff == 0:
            return cls()
        return cls((0,) * exponent + (coeff,))

    @property
    def coeffs(self):
        return self._coeffs

    @property
    def is_zero(self):
        return not self._coeffs

    @property
    def degree(self):
        """Degree, with the convention deg 0 = -1."""
        return len(self._coeffs) - 1

    @property
    def valuation(self):
        """Smallest exponent with nonzero coefficient; undefined for 0."""
        if not self._coeffs:
            raise ValueError('the zero polynomial has no valuation')
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        raise AssertionError  # unreachable: trailing zeros are stripped

    def coefficient(self, k):
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return 0

    def __bool__(self):
        return bool(self._coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == (IntPolynomial((other,)))._coeffs
        return NotImplemented

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        if len(self._coeffs) < 2:
            return hash(self._coeffs[0]) if self._coeffs else 0
        return hash(self._coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _from_ints(out)

    __radd__ = __add__

    def __neg__(self):
        return _from_ints([-c for c in self._coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _from_ints([other * c for c in self._coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return _from_ints(())
        la, lb = len(a), len(b)
        if la == 1 or lb == 1 or la * lb < KRONECKER_SIZE:
            out = [0] * (la + lb - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            return _from_ints(out)
        return _from_ints(_kronecker(a, b, la + lb - 1))

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, IntPolynomial.one())

    def __call__(self, x):
        """Evaluate at x (int or Fraction) by Horner's rule."""
        acc = 0 if isinstance(x, int) else Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def shift(self, k):
        """Multiply by q**k; k must be >= 0."""
        if k < 0:
            raise ValueError(f'negative shift {k}')
        if not self._coeffs:
            return self
        return _from_ints((0,) * k + self._coeffs)

    def reversed(self):
        """Coefficient reversal: q**deg * p(1/q)."""
        return IntPolynomial(tuple(reversed(self._coeffs)))

    def content(self):
        """gcd of the coefficients (0 for the zero polynomial)."""
        return _int_gcd(*self._coeffs)

    def primitive_part(self):
        """self / content, with unchanged signs; zero stays zero."""
        g = self.content()
        if g <= 1:
            return self
        return IntPolynomial([c // g for c in self._coeffs])

    def divide_exact(self, divisor):
        """Exact quotient self / divisor over the integers.

        Raises ValueError if divisor does not divide self in Z[q].
        """
        if divisor.is_zero:
            raise ZeroDivisionError('polynomial division by zero')
        if self.is_zero:
            return self
        out = _quotient(self._coeffs, divisor._coeffs)
        if out is None:
            raise ValueError('not divisible over the integers')
        return _from_ints(out)

    def __str__(self):
        return format_terms(
            ((k, c) for k, c in enumerate(self._coeffs) if c))

    def __repr__(self):
        return f'IntPolynomial({self._coeffs!r})'


_new = object.__new__


def _from_ints(coeffs):
    """An IntPolynomial on ints this module computed: only the trailing
    zeros are stripped, and no coefficient's type is checked."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    p = _new(IntPolynomial)
    p._coeffs = tuple(coeffs[:n] if n < len(coeffs) else coeffs)
    return p


_ONE = _from_ints((1,))


def _power(x, n, one):
    """x ** n by left-to-right square-and-multiply, for an int n >= 0.

    Starts from x and reads the bits of n below the leading one: a
    squaring for each, then a product by x for each set bit.  That is
    bit_length(n) - 1 squarings and popcount(n) - 1 products, none for
    n <= 1 (x ** 0 is one and x ** 1 is x itself).
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f'power must be a nonnegative int, got {n!r}')
    if not n:
        return one
    result = x
    for bit in bin(n)[3:]:
        result = result * result
        if bit == '1':
            result = result * x
    return result


def _product_tree(factors):
    """The product of a list of polynomials as a balanced tree: each
    product pairs operands of like size."""
    while len(factors) > 1:
        factors = [factors[i] * factors[i + 1] if i + 1 < len(factors)
                   else factors[i] for i in range(0, len(factors), 2)]
    return factors[0] if factors else _ONE


def _plain_coefficient(c, alone):
    # a fractional coefficient in front of a power of q is parenthesized
    # so '(1/2)q^3' stays unambiguous
    if alone or not (isinstance(c, Fraction) and c.denominator != 1):
        return str(c)
    return f'({c})'


def format_terms(terms, var='q', coefficient=_plain_coefficient,
                 power='{}^{}'):
    """Render (exponent, coefficient) pairs ascending, like '1 + 2q + q^3'.

    Coefficients may be ints or Fractions.  coefficient(c, alone) renders
    a positive coefficient other than a unit in front of a power (alone
    is true for the constant term, which is always rendered), and
    power.format(var, k) renders var^k for k other than 0 and 1.
    """
    parts = []
    for k, c in terms:
        if c == 0:
            continue
        sign = '-' if c < 0 else '+'
        mag = -c if c < 0 else c
        if k == 0:
            body = coefficient(mag, True)
        else:
            var_part = var if k == 1 else power.format(var, k)
            body = var_part if mag == 1 else \
                coefficient(mag, False) + var_part
        parts.append((sign, body))
    if not parts:
        return '0'
    first_sign, first_body = parts[0]
    out = ('-' if first_sign == '-' else '') + first_body
    for sign, body in parts[1:]:
        out += f' {sign} {body}'
    return out


# products with len(a) * len(b) below this, or with a constant operand,
# take the schoolbook loop; larger ones are one Kronecker product
KRONECKER_SIZE = 64

# the ξ = 2^k values poly_gcd tries before it falls back to the primitive PRS
GCD_TRIES = 6

# _pack and _unpack halve inputs longer than this many digits
_PACK_LEAF = 32


# the array type code of each machine-word digit width: 8, 16, 32, 64
_WORD_CODES = {8 * array(code).itemsize: code for code in 'bhilq'}
_BIG_ENDIAN = sys.byteorder == 'big'


def _flips(k, m):
    """The sum of 2^(k-1) 2^(k i) for i < m: the top bit of m k-bit words."""
    return int.from_bytes((bytes(k // 8 - 1) + b'\x80') * m, 'little')


def _kronecker(a, b, n):
    """The first n coefficients of a b, for nonzero int sequences a and b,
    from one integer product (module docstring).

    Every coefficient is at most |a|_inf |b|_inf min(len a, len b) <
    2^(k-1) in size, so one balanced base-2^k digit each; k is rounded up
    to a machine word when it is at most 64, where the digits are read in C.
    """
    k = _width(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
    return _digits(_pack(a, k) * _pack(b, k), k, n)


def _width(bound):
    """The digit width k for coefficients at most bound in size: one more
    than its bit length, rounded up to a machine word when at most 64."""
    k = bound.bit_length() + 1
    return k if k > 64 else max(8, 1 << (k - 1).bit_length())


def _digits(n, k, m):
    """The low m balanced base-2^k digits of n as a list, read in C at a
    word width (_words)."""
    if k in _WORD_CODES:
        return _words(n, k, m)
    out = _unpack(_low_digits(n, k, m), k)
    return out + [0] * (m - len(out))


def _pack(coeffs, k):
    """The integer sum of c_i 2^(k i): coeffs evaluated at q = 2^k.

    At a word width k, with every c_i in a signed word, the bytes of the
    words read as an unsigned integer are that sum with each top bit
    worth +2^(k-1), not -2^(k-1); flipping the top bits and subtracting
    them undoes that.
    """
    code = _WORD_CODES.get(k)
    if code:
        try:
            words = array(code, coeffs)
        except OverflowError:   # a coefficient wider than a word
            pass
        else:
            if _BIG_ENDIAN:
                words.byteswap()
            flips = _flips(k, len(coeffs))
            return (int.from_bytes(words, 'little') ^ flips) - flips
    if len(coeffs) > _PACK_LEAF:
        h = len(coeffs) // 2
        return _pack(coeffs[:h], k) + (_pack(coeffs[h:], k) << (k * h))
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << k) + c
    return acc


def _words(n, k, m):
    """The low m base-2^k digits of n in [-2^(k-1), 2^(k-1)), for a word
    width k.

    Adding the top bits of m words makes every digit d + 2^(k-1), in
    [0, 2^k), with no carry between words, and flipping them back leaves
    the words of the d: no loop runs in Python.
    """
    flips = _flips(k, m)
    low = ((n + flips) & ((1 << (k * m)) - 1)) ^ flips
    words = array(_WORD_CODES[k], low.to_bytes(k * m // 8, 'little'))
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tolist()


def _unpack(n, k):
    """Balanced base-2^k digits of n, lowest first, for k >= 2.

    Each digit lies in (-2^(k-1), 2^(k-1)], so _pack(_unpack(n, k), k)
    is n, and _unpack(_pack(c, k), k) is c when every |c_i| < 2^(k-1).
    """
    m = n.bit_length() // k // 2
    if m > _PACK_LEAF:
        low = _low_digits(n, k, m)
        out = _unpack(low, k)
        return out + [0] * (m - len(out)) + _unpack((n - low) >> (k * m), k)
    mask = (1 << k) - 1
    half = 1 << (k - 1)
    out = []
    while n:
        d = n & mask
        n >>= k
        if d > half:
            d -= mask + 1
            n += 1
        out.append(d)
    return out


def _low_digits(n, k, m):
    """The value of the low m balanced base-2^k digits of n.

    It is the residue of n mod 2^(k m) that m balanced digits can reach,
    at most 2^(k-1) (1 + 2^k + ... + 2^(k (m-1))), so _unpack of it is
    the first m digits of _unpack(n, k), without their trailing zeros.
    """
    mk = k * m
    low = n & ((1 << mk) - 1)
    if low > ((1 << mk) - 1) // ((1 << k) - 1) << (k - 1):
        low -= 1 << mk
    return low


def _quotient(a, b):
    """Coefficients of a / b when b divides a in Z[q], else None."""
    db = len(b) - 1
    n = len(a) - 1 - db
    # b_0 divides a_0; a GCDHEU candidate with a wide b_0 fails here
    # rather than after a whole division
    if n < 0 or b[0] and a[0] % b[0]:
        return None
    a = list(a)
    lead = b[-1]
    out = [0] * (n + 1)
    for i in range(n, -1, -1):
        c, r = divmod(a[i + db], lead)
        if r:
            return None
        out[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return None if any(a) else out


def _primitive(coeffs):
    """coeffs divided by their gcd, as a tuple, signs unchanged."""
    g = _int_gcd(*coeffs)
    if g == 1:
        return tuple(coeffs)
    return tuple([c // g for c in coeffs])


def _positive_lowest(coeffs):
    return coeffs if coeffs[0] > 0 else tuple([-c for c in coeffs])


def _signed_primitive(p):
    """Primitive part with positive lowest-order coefficient."""
    if p.is_zero:
        return p
    p = p.primitive_part()
    if p.coeffs[p.valuation] < 0:
        p = -p
    return p


def _xi_bits(a, b):
    """Least k with 2^k > 2 min(|a|_inf, |b|_inf) + 2, the GCDHEU bound."""
    return (2 * min(max(map(abs, a)), max(map(abs, b))) + 2).bit_length()


def _heu_gcd(a, b):
    """(g, a/g, b/g) for primitive a, b (nonconstant, nonzero constant
    terms) by GCDHEU, or None when GCD_TRIES values of ξ gave no
    candidate that divides both."""
    k = _xi_bits(a, b)
    for _ in range(GCD_TRIES):
        # h > 0: ξ exceeds every root of the operand of least norm
        h = _int_gcd(_pack(a, k), _pack(b, k))
        g = _primitive(_unpack(h, k))
        if len(g) == 1:
            return (1,), a, b
        if g[0]:
            g = _positive_lowest(g)
            qa = _quotient(a, g)
            qb = None if qa is None else _quotient(b, g)
            if qb is not None:
                return g, qa, qb
        k += k
    return None


def _pseudo_remainder(a, b):
    """prem(a, b): lc(b)^(deg a - deg b + 1) * a reduced mod b, over Z,
    on coefficient sequences with len(a) >= len(b)."""
    ra = list(a)
    db = len(b) - 1
    lead = b[-1]
    for i in range(len(ra) - len(b), -1, -1):
        top = ra[i + db]
        if top:
            for j in range(len(ra)):
                ra[j] *= lead
            for j, bj in enumerate(b):
                ra[i + j] -= top * bj
    del ra[db:]
    while ra and not ra[-1]:
        ra.pop()
    return ra


def _prs_gcd(a, b):
    """gcd of primitive a, b (nonconstant, nonzero constant terms) by the
    primitive polynomial remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            return _positive_lowest(b)
        a, b = b, _primitive(r)
    return (1,)


def poly_gcd(a, b):
    """Greatest common divisor in Z[q], primitive and sign-normalized.

    GCDHEU, as the module docstring describes: one integer gcd at
    ξ = 2^k above the theorem's bound, a candidate kept only if it
    divides both operands, ξ squared up to GCD_TRIES times, then the
    primitive PRS.  Once the common power of q is stripped, a constant
    operand gives gcd 1 with no evaluation.  gcd(0, b) is b made
    primitive, and gcd(0, 0) = 0.
    """
    return _gcd_cofactors(a, b)[0]


def _gcd_cofactors(a, b):
    """(g, a / g, b / g) for g = poly_gcd(a, b).

    The cofactors are the quotients GCDHEU's division check computed,
    times the contents and powers of q it stripped, so no second
    division is needed.  Two zeros give (0, 0, 0).
    """
    if a.is_zero or b.is_zero:
        p = b if a.is_zero else a
        g = _signed_primitive(p)
        c = _from_ints((p._coeffs[-1] // g._coeffs[-1],) if p else ())
        return (g, a, c) if a.is_zero else (g, c, b)
    va, vb = a.valuation, b.valuation
    v = min(va, vb)
    pa, pb = a._coeffs[va:], b._coeffs[vb:]
    if len(pa) > 1 and len(pb) > 1:
        pa, pb = _primitive(pa), _primitive(pb)
        found = _heu_gcd(pa, pb)
        if found is None:
            g = _prs_gcd(pa, pb)
            found = g, _quotient(pa, g), _quotient(pb, g)
        g, qa, qb = found
        if len(g) > 1:
            ca = a._coeffs[va] // pa[0]
            cb = b._coeffs[vb] // pb[0]
            return (_from_ints((0,) * v + g),
                    _from_ints([0] * (va - v) + [ca * c for c in qa]),
                    _from_ints([0] * (vb - v) + [cb * c for c in qb]))
    if not v:
        return _ONE, a, b
    return (_from_ints((0,) * v + (1,)), _from_ints(a._coeffs[v:]),
            _from_ints(b._coeffs[v:]))
