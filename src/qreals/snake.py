"""Lattice-path models for deformed rationals and their binomials.

A rational r > 1 with even continued fraction [a1, ..., a2m] determines
a snake of unit cells: starting from a cell at the origin, the word

    U^(a1-1) R^(a2) U^(a3) ... U^(a2m-1) R^(a2m - 1)

appends one cell per letter, upward for U and rightward for R.  The
weight generating function of northeast lattice paths along the cell
edges, from the bottom-left corner to the top-right corner, is the
numerator of [r]_q; dropping the leftmost column of cells gives the
denominator.  The weight of a path is the number of cells below it.

Tuples of paths whose i-th entry starts with at least i-1 up steps
model the numerators of the binomial coefficients binom(r, k)_q.

One step rule, _moves, says where a path may go from a lattice point
and what the step adds to its weight: an east step over column x at
height y puts y - low(x) cells below the path, low(x) being the column's
lowest row (Canakci and Schiffler, "Snake graph calculus and cluster
algebras from surfaces", J. Algebra, 2013).  As every step raises x + y
by one, the polynomials are a dynamic program that carries the partial
paths' weight polynomials one anti-diagonal at a time, as int lists:
O(cells * degree) work, with no path built.  Only the listings walk
paths, iteratively and east step first, and only while the path count
times the steps per path stays within LISTING_BUDGET; beyond it they
raise DomainError.
"""

import itertools
from fractions import Fraction
from functools import cached_property
from operator import add

from .errors import DomainError
from .polynomial import IntPolynomial
from .qcore import ContinuedFraction, _Record

# path-steps a listing may hold (the CLI benchmark pool's largest is 374)
LISTING_BUDGET = 100_000


class SnakePath(_Record):
    """A northeast path, as a step string over {'E', 'N'}."""

    _fields = ('steps', 'weight')

    def __init__(self, steps, weight):
        object.__setattr__(self, 'steps', steps)
        object.__setattr__(self, 'weight', weight)

    @property
    def initial_ups(self):
        return len(self.steps) - len(self.steps.lstrip('N'))


def _moves(cells):
    """The step rule: moves(x, y) yields (letter, next point, weight)."""
    # an edge is on the snake when a cell lies on either side of it; as
    # the snake climbs up and right, none leads past its last cell
    cellset = frozenset(cells)
    low = dict(reversed(cells))   # walk order lists a column's lowest first

    def moves(x, y):
        if (x, y) in cellset or (x, y - 1) in cellset:
            yield 'E', (x + 1, y), y - low[x]
        if (x, y) in cellset or (x - 1, y) in cellset:
            yield 'N', (x, y + 1), 0
    return moves


def _polynomial(cells, start, end):
    """Weight polynomial of the paths from start to end."""
    moves = _moves(cells)
    layer = {start: [1]}
    for _ in range(end[0] + end[1] - start[0] - start[1]):
        ahead = {}
        for point, poly in layer.items():
            for _, to, w in moves(*point):
                acc = ahead.setdefault(to, [])
                top = w + len(poly)
                acc.extend([0] * (top - len(acc)))
                acc[w:top] = map(add, acc[w:top], poly)
        layer = ahead
    return IntPolynomial(layer.get(end, ()))


def _enumerate_paths(cells, end):
    """Every path from the origin to end, east steps first, as a list."""
    moves = _moves(cells)
    found, stack = [], [('', (0, 0), 0)]
    while stack:
        steps, point, weight = stack.pop()
        if point == end:
            found.append(SnakePath(steps, weight))
        for letter, to, w in reversed([*moves(*point)]):
            stack.append((steps + letter, to, weight + w))
    return found


class SnakeGraph:
    """Snake of unit cells attached to a rational greater than 1."""

    def __init__(self, fraction):
        self.fraction = Fraction(fraction)
        self.continued_fraction = ContinuedFraction.from_rational(
            self.fraction)
        terms = self.continued_fraction.terms
        exponents = (terms[0] - 1,) + terms[1:-1] + (terms[-1] - 1,)
        self.word = ''.join(('U' if i % 2 == 0 else 'R') * e
                            for i, e in enumerate(exponents))
        self.cells = tuple(itertools.accumulate(
            self.word, lambda c, s: (c[0], c[1] + 1) if s == 'U'
            else (c[0] + 1, c[1]), initial=(0, 0)))
        self.end = (self.cells[-1][0] + 1, self.cells[-1][1] + 1)
        self._classes = {}

    @cached_property
    def paths(self):
        """All corner-to-corner paths, east steps first."""
        count = self.numerator_polynomial()(1)
        size = count * (self.end[0] + self.end[1])
        if size > LISTING_BUDGET:
            raise DomainError(
                f'listing the {count} paths of the snake of {self.fraction} '
                f'takes {size} path-steps; the budget is {LISTING_BUDGET}')
        return tuple(_enumerate_paths(self.cells, self.end))

    def numerator_polynomial(self):
        return self.class_polynomial(0)

    def denominator_polynomial(self):
        # the snake minus its leftmost column, from that part's first cell
        rest = tuple(c for c in self.cells if c[0] >= 1)
        if not rest:
            return IntPolynomial.one()
        return _polynomial(rest, rest[0], self.end)

    def paths_with_initial_ups(self, j):
        """Paths that start with at least j consecutive up steps."""
        if j < 0:
            raise DomainError(f'up-step minimum must be nonnegative, got {j}')
        return tuple(p for p in self.paths if p.initial_ups >= j)

    def class_polynomial(self, j):
        """Weight polynomial of the paths with at least j initial up steps."""
        # they climb the leftmost column to (0, j) at no weight first,
        # which stays on the snake while that column is j cells tall
        if not 0 <= j <= sum(1 for cx, _ in self.cells if cx == 0):
            raise DomainError(
                f'no path in the snake of {self.fraction} starts with {j} up '
                'steps')
        if j not in self._classes:
            self._classes[j] = _polynomial(self.cells, (0, j), self.end)
        return self._classes[j]

    def tuple_polynomial(self, k):
        """Weight generating polynomial of k-tuples of paths.

        The i-th entry of a tuple ranges over the paths with at least
        i-1 initial up steps, independently of the other entries, so
        the generating polynomial is a product over entries.
        """
        if k < 0:
            raise DomainError(f'tuple length must be nonnegative, got {k}')
        out = IntPolynomial.one()
        for i in range(k):
            out = out * self.class_polynomial(i)
        return out

    def path_tuples(self, k):
        """Iterate over the tuples behind tuple_polynomial(k)."""
        if k < 0:
            raise DomainError(f'tuple length must be nonnegative, got {k}')
        pools = [self.paths_with_initial_ups(i) for i in range(k)]
        if any(not pool for pool in pools):
            raise DomainError(
                f'{k}-tuples of paths are undefined for the snake of '
                f'{self.fraction}')
        return itertools.product(*pools)

    def ascii_art(self):
        width, height = self.end
        grid = [[' '] * (4 * width + 1) for _ in range(2 * height + 1)]
        for cx, cy in self.cells:
            left = 4 * cx
            top = 2 * (height - 1 - cy)
            grid[top][left:left + 5] = grid[top + 2][left:left + 5] = '+---+'
            grid[top + 1][left] = grid[top + 1][left + 4] = '|'
        return '\n'.join(''.join(row).rstrip() for row in grid)

    def __repr__(self):
        return (f'SnakeGraph({self.fraction!s}, word={self.word!r}, '
                f'cells={len(self.cells)})')
