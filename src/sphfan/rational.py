"""Exact rational scalars, vectors, and matrices.

Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator).  Vectors are tuples of Fractions.  A matrix stores only
one int grid over a common positive denominator, and its arithmetic
runs on that grid; its Fraction entries, ``rows``, are built when read.
The two exact eliminations live here and run on ints: ``bareiss`` for
rank and determinant, ``_echelon`` for the reduced row echelon basis
that kernels, the double description's lineality and the
Fourier-Motzkin oracle's first pass read.  No floats anywhere.

Three rules are decided here for the whole library.  ``rat`` is the one
reader of a rational literal: an int, a Fraction, or a 'p/q' string
checked by ``parse_rat``; the document reader calls it and only adds the
field path.  ``format_rat`` is the one writer of one, for the CLI
reports and every document the library serializes.
``RankMismatchError`` is the one error for two ranks, lengths or shapes
that should agree, raised by ``Mat`` here and by the cones, the LP, the
spherical data, the Galois actions and the morphisms.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

_RAT_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class RankMismatchError(ValueError):
    """Two ranks, lengths or shapes that must agree do not."""


def rat(x: int | str | Fraction) -> Fraction:
    """Build an exact rational from an int, Fraction, or 'p/q' string.
    A Fraction is immutable, so it is returned as it is."""
    if type(x) is Fraction:
        return x
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


def format_rat(q: Fraction | int) -> str:
    """Canonical string form: 'p/q' in lowest terms, or 'p' when q = 1,
    so an int, whose denominator is 1, is written as its Fraction.

    An integer past the interpreter's digit limit for int-to-str
    conversion, which bounds that quadratic conversion, raises
    ``OverflowError`` naming the limit.
    """
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise OverflowError(f"a result has an integer of more than {limit} digits, "
                            "the interpreter's limit for writing one") from None


def all_ints(values: Iterable) -> bool:
    """True iff every value is a plain int (bools and Fractions are not)."""
    return {int}.issuperset(map(type, values))


def primitive_ints(ints: Sequence[int]) -> tuple[int, ...]:
    """Divide integers by their gcd; a zero vector stays as it is."""
    g = gcd(*ints)
    return tuple([i // g for i in ints]) if g > 1 else tuple(ints)


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


def _combine(p: int, u: Sequence[int], q: int, v: Sequence[int]) -> tuple[int, ...]:
    """The primitive integer vector along p*u - q*v."""
    return primitive_ints([p * x - q * y for x, y in zip(u, v)])


def _echelon(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Reduced row echelon basis of the row space of int rows, fraction-free.

    Each row is primitive with a positive pivot entry and is zero in the
    pivot column of every other row; pivots increase.  Dividing each row
    by its pivot entry gives the reduced row echelon form.
    """
    work = [primitive_ints(r) for r in rows if any(r)]
    out: list[tuple[int, ...]] = []
    for col in range(len(rows[0]) if rows else 0):
        if not work:
            break
        piv = next((r for r in work if r[col] != 0), None)
        if piv is None:
            continue
        work.remove(piv)
        p = piv[col]
        if p < 0:
            piv, p = tuple(-x for x in piv), -p
        # p > 0, so each reduced row is a positive multiple of the row
        # the Fraction elimination gives
        work = [_combine(p, r, r[col], piv) if r[col] else r for r in work]
        work = [r for r in work if any(r)]
        out = [_combine(p, r, r[col], piv) if r[col] else r for r in out]
        out.append(piv)
    return out


def _pivots(basis: Sequence[Sequence[int]]) -> list[int]:
    return [next(i for i, x in enumerate(r) if x != 0) for r in basis]


class Frozen:
    """Base of the immutable value types: assigning or deleting an
    attribute raises ``AttributeError``.  Constructors set slots past this
    guard through the slot's own descriptor: for each slot ``name`` (or
    ``_name``) a subclass gets ``_set_name``, the descriptor's ``__set__``
    bound once, called as ``Cls._set_name(obj, value)``.  That skips the
    name lookup ``object.__setattr__`` makes on every call."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in vars(cls).get("__slots__", ()):
            if name != "__dict__":
                setattr(cls, "_set_" + name.lstrip("_"), vars(cls)[name].__set__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Mat(Frozen):
    """Immutable rectangular matrix of exact rationals.

    The matrix is stored once as an int grid over one common positive
    denominator: entry (i, j) is ``ints[i][j] / den``, and ``den`` is the
    least such denominator, so equal matrices have equal grids.  Rank,
    kernel, determinant and products read the grid; ``rows``, the
    Fraction view, is built each time it is read.
    """

    __slots__ = ("nrows", "ncols", "ints", "den")

    def __init__(self, rows: Iterable[Iterable]):
        grid = [[rat(e) for e in row] for row in rows]
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise RankMismatchError("ragged rows")
        den = lcm(*(e.denominator for row in grid for e in row))
        self._store([[e.numerator * (den // e.denominator) for e in row] for row in grid],
                    den, len(grid[0]) if grid else 0)

    def _store(self, ints: list[list[int]], den: int, ncols: int) -> None:
        """Store int rows over den, both divided by their common gcd, so
        ``den`` is the least denominator."""
        g = gcd(den, *(x for row in ints for x in row))
        Mat._set_den(self, den // g)
        Mat._set_ints(self, tuple(tuple(x // g for x in row) for row in ints))
        Mat._set_nrows(self, len(ints))
        Mat._set_ncols(self, ncols)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.den, self.ints))

    def __repr__(self):
        return f"Mat({[list(map(format_rat, r)) for r in self.rows]})"

    @property
    def rows(self) -> tuple[Vec, ...]:
        """The entries as Fractions, row by row."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.ints)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def matvec(self, v: Sequence[Fraction]) -> Vec:
        if len(v) != self.ncols:
            raise RankMismatchError(f"dimension mismatch: {self.ncols} cols vs {len(v)}")
        scale = lcm(*(a.denominator for a in v))
        vi = [a.numerator * (scale // a.denominator) for a in v]
        d = self.den * scale
        return tuple(Fraction(_idot(row, vi), d) for row in self.ints)

    def matmul(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise RankMismatchError("shape mismatch in matmul")
        cols = list(zip(*other.ints))
        out = object.__new__(Mat)
        out._store([[_idot(row, col) for col in cols] for row in self.ints],
                   self.den * other.den, other.ncols)
        return out

    def rank(self) -> int:
        return len(bareiss(self.ints)[1])

    def solve_homogeneous(self) -> list[Vec]:
        """Basis of the exact kernel {x : self @ x = 0}, read off the
        reduced echelon form: for each free column f, x[f] = 1, the other
        free entries 0 and x[p] = -row[f] / row[p] on each pivot row."""
        basis = _echelon(self.ints)
        pivots = _pivots(basis)
        out: list[Vec] = []
        for f in range(self.ncols):
            if f in pivots:
                continue
            x = [Fraction(0)] * self.ncols
            x[f] = Fraction(1)
            for row, p in zip(basis, pivots):
                x[p] = Fraction(-row[f], row[p])
            out.append(tuple(x))
        return out

    def det(self) -> Fraction:
        """The last Bareiss pivot of the grid is det(den * self) = den**n det(self)."""
        if self.nrows != self.ncols:
            raise RankMismatchError("determinant of a non-square matrix")
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
            raise RankMismatchError("unimodularity requires a square matrix")
        return self.den == 1 and abs(self.det()) == 1
