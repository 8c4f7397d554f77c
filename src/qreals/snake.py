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
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DomainError
from .polynomial import IntPolynomial
from .qcore import ContinuedFraction


@dataclass(frozen=True)
class SnakePath:
    """A northeast path, as a step string over {'E', 'N'}."""
    steps: str
    weight: int

    @property
    def initial_ups(self):
        return len(self.steps) - len(self.steps.lstrip('N'))


def _walk_cells(word):
    x = y = 0
    cells = [(0, 0)]
    for letter in word:
        if letter == 'U':
            y += 1
        else:
            x += 1
        cells.append((x, y))
    return tuple(cells)


def _enumerate_paths(cells, start, end):
    """All northeast paths along cell edges from start to end."""
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


def _path_weight(steps, start, cells):
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


def _weight_polynomial(paths):
    counts = Counter(p.weight for p in paths)
    top = max(counts, default=-1)
    return IntPolynomial(tuple(counts.get(i, 0) for i in range(top + 1)))


class SnakeGraph:
    """Snake of unit cells attached to a rational greater than 1."""

    def __init__(self, fraction):
        fraction = Fraction(fraction)
        cf = ContinuedFraction.from_rational(fraction)
        terms = cf.terms
        exponents = (terms[0] - 1,) + terms[1:-1] + (terms[-1] - 1,)
        word = ''.join(('U' if i % 2 == 0 else 'R') * e
                       for i, e in enumerate(exponents))
        self.fraction = fraction
        self.continued_fraction = cf
        self.word = word
        self.cells = _walk_cells(word)
        last = self.cells[-1]
        self.end = (last[0] + 1, last[1] + 1)

    @classmethod
    def from_rational(cls, fraction):
        return cls(fraction)

    @cached_property
    def paths(self):
        """All corner-to-corner paths, in discovery order."""
        raw = _enumerate_paths(self.cells, (0, 0), self.end)
        return tuple(SnakePath(s, _path_weight(s, (0, 0), self.cells))
                     for s in raw)

    @cached_property
    def _reduced(self):
        # the snake minus its leftmost column of cells
        rest = tuple(c for c in self.cells if c[0] >= 1)
        if not rest:
            return None
        start = (1, min(cy for cx, cy in rest if cx == 1))
        raw = _enumerate_paths(rest, start, self.end)
        return tuple(SnakePath(s, _path_weight(s, start, rest))
                     for s in raw)

    def numerator_polynomial(self):
        return _weight_polynomial(self.paths)

    def denominator_polynomial(self):
        if self._reduced is None:
            return IntPolynomial.one()
        return _weight_polynomial(self._reduced)

    def paths_with_initial_ups(self, j):
        """Paths that start with at least j consecutive up steps."""
        return tuple(p for p in self.paths if p.initial_ups >= j)

    def class_polynomial(self, j):
        chosen = self.paths_with_initial_ups(j)
        if not chosen:
            raise DomainError(
                f'no path in {self!r} starts with {j} up steps')
        return _weight_polynomial(chosen)

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
                f'{k}-tuples of paths are undefined for {self!r}')
        return itertools.product(*pools)

    def ascii_art(self):
        xs = [c[0] for c in self.cells]
        ys = [c[1] for c in self.cells]
        width = 4 * (max(xs) + 1) + 1
        rows = 2 * (max(ys) + 1) + 1
        grid = [[' '] * width for _ in range(rows)]
        for cx, cy in self.cells:
            left = 4 * cx
            top = 2 * (max(ys) - cy)
            for r in (top, top + 2):
                for d in range(5):
                    grid[r][left + d] = '+' if d in (0, 4) else '-'
            grid[top + 1][left] = grid[top + 1][left + 4] = '|'
        return '\n'.join(''.join(row).rstrip() for row in grid)

    def __repr__(self):
        return (f'SnakeGraph({self.fraction!s}, word={self.word!r}, '
                f'cells={len(self.cells)})')
