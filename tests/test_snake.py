from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qreals import (DomainError, IntPolynomial, poly_gcd, q_binomial,
                    q_factorial, q_rational, ratfun)
from qreals.cli import main
from qreals.snake import LISTING_BUDGET, SnakeGraph


def P(*coeffs):
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------------------
# reference: every path listed by recursion, weighed cell by cell

def _reference_paths(cells, start, end):
    cellset = frozenset(cells)
    ex, ey = end
    found = []

    def extend(x, y, steps):
        if x == ex and y == ey:
            found.append(steps)
            return
        if x < ex and ((x, y) in cellset or (x, y - 1) in cellset):
            extend(x + 1, y, steps + 'E')
        if y < ey and ((x, y) in cellset or (x - 1, y) in cellset):
            extend(x, y + 1, steps + 'N')

    extend(start[0], start[1], '')
    return found


def _reference_weight(steps, start, cells):
    # cells strictly below the path: the east step over column cx runs
    # at some height h, and covers cell (cx, cy) exactly when h > cy
    x, y = start
    height = {}
    for letter in steps:
        if letter == 'E':
            height[x] = y
            x += 1
        else:
            y += 1
    return sum(1 for (cx, cy) in cells if cx in height and height[cx] > cy)


def _reference_listing(cells, start, end):
    return [(s, _reference_weight(s, start, cells))
            for s in _reference_paths(cells, start, end)]


def _reference_polynomial(listing):
    weights = [w for _, w in listing]
    return IntPolynomial(tuple(weights.count(i)
                               for i in range(max(weights, default=-1) + 1)))


# 1 < r < 6 with denominator at most 40
snake_rationals = st.integers(1, 40).flatmap(
    lambda d: st.integers(d + 1, 6 * d - 1).map(lambda n: Fraction(n, d)))


@settings(max_examples=150, deadline=None)
@given(snake_rationals)
def test_polynomials_and_listing_match_the_recursive_reference(r):
    g = SnakeGraph(r)
    listing = _reference_listing(g.cells, (0, 0), g.end)
    assert [(p.steps, p.weight) for p in g.paths] == listing
    assert g.numerator_polynomial() == _reference_polynomial(listing)
    rest = tuple(c for c in g.cells if c[0] >= 1)
    if rest:
        start = (1, min(cy for cx, cy in rest if cx == 1))
        reduced = _reference_listing(rest, start, g.end)
        assert g.denominator_polynomial() == _reference_polynomial(reduced)
    else:
        assert g.denominator_polynomial() == IntPolynomial.one()
    for bad in (g.paths_with_initial_ups, g.class_polynomial):
        with pytest.raises(DomainError):
            bad(-1)
    for j in range(g.end[1] + 2):
        chosen = [(s, w) for s, w in listing
                  if len(s) - len(s.lstrip('N')) >= j]
        assert [(p.steps, p.weight)
                for p in g.paths_with_initial_ups(j)] == chosen
        if chosen:
            assert g.class_polynomial(j) == _reference_polynomial(chosen)
        else:
            with pytest.raises(DomainError):
                g.class_polynomial(j)


def test_polynomials_need_no_listing():
    # 3001 paths of 3001 steps are over the listing budget; the weight
    # polynomials come from the dynamic program all the same
    g = SnakeGraph(Fraction(3001, 3000))
    assert g.numerator_polynomial() == IntPolynomial((1,) * 3001)
    assert g.denominator_polynomial() == IntPolynomial((1,) * 3000)
    # the one path that climbs first runs along the top of every cell
    assert g.class_polynomial(1) == IntPolynomial.monomial(1, 3000)
    with pytest.raises(DomainError, match='budget'):
        g.paths
    with pytest.raises(DomainError, match='budget'):
        g.paths_with_initial_ups(1)
    with pytest.raises(DomainError, match='budget'):
        g.path_tuples(2)


def test_listing_budget_counts_path_steps():
    # (n+1)/n has n + 1 paths of n + 1 steps each
    n = int(LISTING_BUDGET ** 0.5) - 1
    assert len(SnakeGraph(Fraction(n + 1, n)).paths) == n + 1
    with pytest.raises(DomainError):
        SnakeGraph(Fraction(n + 2, n + 1)).paths


def test_three_cell_snake():
    g = SnakeGraph(Fraction(5, 2))
    assert g.word == 'UR'
    assert g.cells == ((0, 0), (0, 1), (1, 1))
    assert g.end == (2, 2)
    assert len(g.paths) == 5
    assert sorted(p.weight for p in g.paths) == [0, 1, 1, 2, 3]
    assert g.numerator_polynomial() == P(1, 2, 1, 1)
    assert g.denominator_polynomial() == P(1, 1)


def test_three_cell_snake_tuples():
    g = SnakeGraph(Fraction(5, 2))
    # second entries must start with an up step
    assert len(g.paths_with_initial_ups(1)) == 3
    assert g.class_polynomial(1) == P(0, 1, 1, 1)
    assert g.tuple_polynomial(0) == P(1)
    assert g.tuple_polynomial(2) == P(0, 1, 3, 4, 4, 2, 1)
    pairs = list(g.path_tuples(2))
    assert len(pairs) == 15
    literal = [0] * 7
    for pair in pairs:
        literal[sum(p.weight for p in pair)] += 1
    assert IntPolynomial(tuple(literal)) == g.tuple_polynomial(2)


def test_integer_snake_is_a_column():
    g = SnakeGraph(4)
    assert g.word == 'UU'
    assert g.numerator_polynomial() == P(1, 1, 1, 1)
    assert g.denominator_polynomial() == IntPolynomial.one()


def test_single_cell_snake():
    g = SnakeGraph(2)
    assert g.word == ''
    assert g.cells == ((0, 0),)
    assert g.numerator_polynomial() == P(1, 1)
    assert g.denominator_polynomial() == IntPolynomial.one()


def test_ten_cell_snake():
    g = SnakeGraph(Fraction(52, 23))
    assert g.word == 'URRRURRRR'
    assert len(g.cells) == 10
    assert len(g.paths) == 52
    r = g.numerator_polynomial()
    s = g.denominator_polynomial()
    assert r(1) == 52 and s(1) == 23
    assert r == q_rational(Fraction(52, 23)).num
    assert s == q_rational(Fraction(52, 23)).den


def test_path_step_counts():
    g = SnakeGraph(Fraction(11, 7))
    for p in g.paths:
        assert p.steps.count('E') == g.end[0]
        assert p.steps.count('N') == g.end[1]


def test_weights_match_tower_for_sample_rationals():
    for r in [Fraction(5, 2), Fraction(5, 3), Fraction(7, 3),
              Fraction(11, 7), Fraction(9, 2), Fraction(52, 23)]:
        g = SnakeGraph(r)
        num = g.numerator_polynomial()
        den = g.denominator_polynomial()
        assert poly_gcd(num, den) == IntPolynomial.one()
        assert ratfun(0, num, den) == q_rational(r)


def test_tuple_polynomial_is_binomial_numerator():
    # q^(-k(k-1)/2) * tuple polynomial == binom(r, k) * S^k * [k]!
    for r in [Fraction(5, 2), Fraction(5, 3), Fraction(7, 3),
              Fraction(17, 4), Fraction(52, 23)]:
        g = SnakeGraph(r)
        s_poly = g.denominator_polynomial()
        k = 0
        while k < r:
            lhs = ratfun(-(k * (k - 1) // 2), g.tuple_polynomial(k), 1)
            rhs = q_binomial(r, k)
            for _ in range(k):
                rhs = rhs * s_poly
            rhs = rhs * q_factorial(k)
            assert lhs == rhs, (r, k)
            k += 1


def test_literal_enumeration_matches_product():
    for r, k in [(Fraction(5, 3), 1), (Fraction(7, 3), 2),
                 (Fraction(7, 2), 3)]:
        g = SnakeGraph(r)
        weights = {}
        for tup in g.path_tuples(k):
            w = sum(p.weight for p in tup)
            weights[w] = weights.get(w, 0) + 1
        top = max(weights)
        literal = IntPolynomial(tuple(weights.get(i, 0)
                                      for i in range(top + 1)))
        assert literal == g.tuple_polynomial(k)


def test_ascii_art():
    art = SnakeGraph(Fraction(5, 2)).ascii_art()
    assert art == ('+---+---+\n'
                   '|   |   |\n'
                   '+---+---+\n'
                   '|   |\n'
                   '+---+')


def test_rejects_bad_input():
    with pytest.raises(DomainError):
        SnakeGraph(1)
    with pytest.raises(DomainError):
        SnakeGraph(Fraction(1, 2))
    with pytest.raises(DomainError):
        SnakeGraph(Fraction(5, 2)).tuple_polynomial(-1)


def test_tuples_need_enough_initial_up_room():
    g = SnakeGraph(Fraction(5, 2))
    # the tallest admissible initial climb has two up steps
    assert g.paths_with_initial_ups(2) != ()
    assert g.paths_with_initial_ups(3) == ()
    assert g.tuple_polynomial(3) is not None
    with pytest.raises(DomainError):
        g.tuple_polynomial(4)
    with pytest.raises(DomainError):
        g.path_tuples(4)


def test_cli_negative_minimum_ups_is_a_domain_error(capsys):
    code = main(['snake', 'paths', '5/2', '-3'])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, '')
    assert captured.err == ('domain error: up-step minimum must be '
                            'nonnegative, got -3\n')
