"""Exact rational scalars, vectors, and matrices.

Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator).  Vectors are tuples of Fractions.  A matrix stores one int
grid over a common positive denominator, and its arithmetic runs on
that grid.  No floats anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

_RAT_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rat(x: int | str | Fraction) -> Fraction:
    """Build an exact rational from an int, Fraction, or 'p/q' string."""
    if isinstance(x, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rat(x)
    raise TypeError(f"cannot build a rational from {type(x).__name__}")


def parse_rat(s: str) -> Fraction:
    """Parse 'p/q' or a decimal integer string, exactly.

    Both parts are ASCII digit strings (0-9), the numerator optionally
    signed and the denominator positive; anything else (floats,
    whitespace, a trailing newline included, non-ASCII digits, empty
    strings) is rejected.
    """
    if not _RAT_RE.fullmatch(s):
        raise ValueError(f"not a rational literal: {s!r}")
    if "/" in s:
        num, den = s.split("/")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator: {s!r}")
        return Fraction(int(num), d)
    return Fraction(int(s))


def format_rat(q: Fraction) -> str:
    """Canonical string form: 'p/q' in lowest terms, or 'p' when q = 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def vec(entries: Iterable) -> Vec:
    return tuple(rat(e) for e in entries)


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def all_ints(values: Iterable) -> bool:
    """True iff every value is a plain int (bools and Fractions are not)."""
    return {int}.issuperset(map(type, values))


def primitive_ints(ints: Sequence[int]) -> tuple[int, ...]:
    """Divide integers by their gcd; a zero vector stays as it is."""
    g = gcd(*ints)
    return tuple(i // g for i in ints) if g > 1 else tuple(ints)


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row scaled by the lcm of its denominators, as Python ints."""
    out = []
    for row in rows:
        m = lcm(*(a.denominator for a in row)) if row else 1
        out.append([a.numerator * (m // a.denominator) for a in row])
    return out


def bareiss(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form of int rows (Bareiss), on a copy.

    Returns the integer echelon grid, the pivot column list and the
    sign of the row permutation; rows are scaled, so only zero-patterns
    and exact linear relations are meaningful.  For a nonsingular square
    matrix the last pivot is its determinant, up to that sign.
    """
    a = [list(r) for r in rows]
    nrows, ncols = len(a), len(a[0]) if a else 0
    pivots: list[int] = []
    sign = 1
    r = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        for i in range(r + 1, nrows):
            for j in range(col + 1, ncols):
                a[i][j] = (a[i][j] * a[r][col] - a[i][col] * a[r][j]) // prev
            a[i][col] = 0
        prev = a[r][col]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return a, pivots, sign


class Mat:
    """Immutable rectangular matrix of exact rationals.

    The matrix is stored once as an int grid over one common positive
    denominator: entry (i, j) is ``ints[i][j] / den``, and ``den`` is the
    least such denominator, so equal matrices have equal grids.  Rank,
    kernel, determinant and products read the grid; ``rows`` is the
    Fraction view.
    """

    __slots__ = ("rows", "nrows", "ncols", "ints", "den")

    def __init__(self, rows: Iterable[Iterable]):
        grid = tuple(tuple(rat(e) for e in row) for row in rows)
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("ragged rows")
        den = lcm(*(e.denominator for row in grid for e in row))
        object.__setattr__(self, "rows", grid)
        object.__setattr__(self, "nrows", len(grid))
        object.__setattr__(self, "ncols", len(grid[0]) if grid else 0)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ints", tuple(
            tuple(e.numerator * (den // e.denominator) for e in row) for row in grid))

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    def __eq__(self, other):
        return isinstance(other, Mat) and self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.den, self.ints))

    def __repr__(self):
        return f"Mat({[list(map(format_rat, r)) for r in self.rows]})"

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Mat":
        return cls([[0] * ncols for _ in range(nrows)])

    def transpose(self) -> "Mat":
        return Mat(zip(*self.rows)) if self.rows else Mat([])

    def matvec(self, v: Sequence[Fraction]) -> Vec:
        if len(v) != self.ncols:
            raise ValueError(f"dimension mismatch: {self.ncols} cols vs {len(v)}")
        scale = lcm(*(a.denominator for a in v))
        vi = [a.numerator * (scale // a.denominator) for a in v]
        d = self.den * scale
        return tuple(Fraction(_idot(row, vi), d) for row in self.ints)

    def matmul(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        cols = list(zip(*other.ints))
        ints = [[_idot(row, col) for col in cols] for row in self.ints]
        # the least denominator: den·den' over its gcd with every product
        g = gcd(self.den * other.den, *(x for row in ints for x in row))
        out = object.__new__(Mat)
        object.__setattr__(out, "den", self.den * other.den // g)
        object.__setattr__(out, "ints", tuple(tuple(x // g for x in row) for row in ints))
        object.__setattr__(out, "rows", tuple(
            tuple(Fraction(x, out.den) for x in row) for row in out.ints))
        object.__setattr__(out, "nrows", self.nrows)
        object.__setattr__(out, "ncols", other.ncols)
        return out

    def rank(self) -> int:
        return len(bareiss(self.ints)[1])

    def solve_homogeneous(self) -> list[Vec]:
        """Basis of the exact kernel {x : self @ x = 0}."""
        ech, pivots, _ = bareiss(self.ints)
        free = [j for j in range(self.ncols) if j not in pivots]
        basis: list[Vec] = []
        for f in free:
            x = [Fraction(0)] * self.ncols
            x[f] = Fraction(1)
            # back-substitute the pivot variables
            for i in reversed(range(len(pivots))):
                p = pivots[i]
                s = sum((Fraction(ech[i][j]) * x[j] for j in range(p + 1, self.ncols)),
                        Fraction(0))
                x[p] = -s / ech[i][p]
            basis.append(tuple(x))
        return basis

    def det(self) -> Fraction:
        """The last Bareiss pivot of the grid is det(den * self) = den**n det(self)."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return Fraction(1)
        ech, pivots, sign = bareiss(self.ints)
        if len(pivots) < n:
            return Fraction(0)
        return Fraction(sign * ech[n - 1][n - 1], self.den ** n)

    def is_integral_unimodular(self) -> bool:
        """True iff square, all entries integers, and det = ±1."""
        if self.nrows != self.ncols:
            raise ValueError("unimodularity requires a square matrix")
        return self.den == 1 and abs(self.det()) == 1
