"""Exact linear feasibility of A·y = b, y >= 0 over the integers.

A :class:`FeasibilitySystem` is int rows A, an int rhs b and a variable
count; ``solve`` finds y >= 0 with A·y = b or reports infeasibility.
That system is the only LP the library builds:
``sphfan.cones._meet_system`` asks whether relative interiors meet
inside V, with the bounds of its multipliers shifted into the rhs.  Point
questions and dimensions of cones are read off their int facet
descriptions.

The workhorse is a phase-1 simplex with Bland's rule, so termination is
unconditional and every answer is exact.  It pivots fraction-free
(Edmonds' integer-preserving elimination, as in Avis's *lrs*): the
tableau of Python ints, cost row included, is always d times the
rational tableau, where d > 0 is the last pivot (1 before the first).
Signs and ratio comparisons are therefore those of the rational tableau,
so Bland's rule takes the same pivots, and the witness, int numerators
over d, is the same rational point.

A meet system that the "infeasible row" rule of LP presolve (Andersen &
Andersen, "Presolving in linear programming", Math. Programming 71,
1995) proves infeasible is certified by ``sphfan.cones._meet_system``
from sign masks cached per cone, and made by ``FeasibilitySystem.deferred``.
It still goes through ``solve``, so every LP is counted there, but
``solve`` answers None without building a row.  The rows of a deferred
system are built on first read: by the simplex, by the oracle replay
below, or by a caller.  The rule only detects, so every system that
reaches the simplex is the one it always was, and pivots and witnesses
are those of the simplex alone.

When oracle cross-checking is enabled (CLI flag ``--oracle``), every
verdict, certified ones included, is replayed through the independent
Fourier-Motzkin eliminator of :mod:`sphfan.fourier_motzkin`, and a
disagreement raises :class:`OracleDisagreement`.  The eliminator shares
no code with the simplex: it runs on primitive int rows, substitutes the
equalities first and bounds row growth by Chernikov's rule.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Optional, Sequence

from . import fourier_motzkin
from .rational import all_ints

_cross_check = False


def set_oracle_cross_check(enabled: bool) -> None:
    global _cross_check
    _cross_check = enabled


class OracleDisagreement(RuntimeError):
    """Simplex and Fourier-Motzkin disagreed on a feasibility verdict."""


def _solve_eq_nonneg(a: Sequence[Sequence[int]], b: Sequence[int],
                     n: int) -> Optional[tuple[list[int], int]]:
    """y >= 0 with a @ y = b on n int columns, as int numerators over one
    common denominator d > 0, or None.  Phase-1 simplex, Bland's rule."""
    tab = [list(row) + [r] if r >= 0 else [-x for x in row] + [-r]
           for row, r in zip(a, b)]
    m = len(tab)
    # The artificial columns are never read, so they are not stored.  The
    # last row is the phase-1 cost row (minimize the sum of artificials);
    # its last entry is -d times that sum at the current basic solution.
    tab.append([-sum(col) for col in zip(*tab)] if tab else [0] * (n + 1))
    cost = tab[m]
    basis = [n + i for i in range(m)]
    d = 1

    while True:
        enter = next((j for j in range(n) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            t = tab[i][enter]
            if t > 0:
                # ratio rhs_i / t, compared by cross-multiplication
                if leave is None:
                    leave, num, den = i, tab[i][-1], t
                    continue
                lhs, rhs = tab[i][-1] * den, num * t
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, tab[i][-1], t
        if leave is None:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise RuntimeError("unbounded phase-1 problem")
        prow = tab[leave]
        p = prow[enter]
        for i, row in enumerate(tab):
            if i == leave:
                continue
            f = row[enter]
            if f:
                tab[i] = [(x * p - f * y) // d for x, y in zip(row, prow)]
            elif p != d:
                tab[i] = [x * p // d for x in row]
        cost = tab[m]
        d = p
        basis[leave] = enter

    if cost[-1] != 0:
        return None
    y = [0] * n
    for i, bv in enumerate(basis):
        if bv < n:
            y[bv] = tab[i][-1]
    return y, d


class FeasibilitySystem:
    """``A y = b`` with ``y >= 0``: int rows ``equalities`` of length
    ``nvars`` and an int ``rhs``.  Any other entry raises ``TypeError``,
    so only ints reach the tableau's floor divisions.

    ``one_signed_row`` is True only for a ``deferred`` system that its
    maker certified by the infeasible-row rule."""

    __slots__ = ("nvars", "one_signed_row", "_rows")

    def __init__(self, equalities: tuple[tuple[int, ...], ...], rhs: tuple[int, ...],
                 nvars: int):
        if not all_ints(chain(chain.from_iterable(equalities), rhs, (nvars,))):
            raise TypeError("FeasibilitySystem entries must be ints")
        if not {nvars}.issuperset(map(len, equalities)):
            raise ValueError("equality row length does not match variable count")
        if len(rhs) != len(equalities):
            raise ValueError("rhs length does not match equality count")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "one_signed_row", False)
        object.__setattr__(self, "_rows", (equalities, rhs))

    @classmethod
    def deferred(cls, nvars: int, build: Callable[[], tuple],
                 one_signed_row: bool) -> "FeasibilitySystem":
        """The system whose ``(equalities, rhs)`` ``build()`` returns when
        they are first read, unchecked: the caller vouches for int rows of
        length ``nvars``.  With ``one_signed_row`` the caller vouches for
        a row no y >= 0 meets, and ``solve`` builds none."""
        system = object.__new__(cls)
        object.__setattr__(system, "nvars", nvars)
        object.__setattr__(system, "one_signed_row", one_signed_row)
        object.__setattr__(system, "_rows", build)
        return system

    def __setattr__(self, name, value):
        raise AttributeError("FeasibilitySystem is immutable")

    def _built_rows(self) -> tuple:
        """``(equalities, rhs)``, built now if they were deferred."""
        rows = self._rows
        if callable(rows):
            rows = rows()
            object.__setattr__(self, "_rows", rows)
        return rows

    @property
    def equalities(self) -> tuple[tuple[int, ...], ...]:
        return self._built_rows()[0]

    @property
    def rhs(self) -> tuple[int, ...]:
        return self._built_rows()[1]

    def solve(self) -> Optional[tuple[list[int], int]]:
        """``(numerators, d)`` with d > 0 and y = numerators / d a basic
        solution, or None if the system is infeasible."""
        sol = None if self.one_signed_row else _solve_eq_nonneg(*self._built_rows(), self.nvars)
        if _cross_check:
            fm = fourier_motzkin.feasible(self._as_inequalities(), self.nvars)
            if fm != (sol is not None):
                raise OracleDisagreement(
                    f"simplex says {'feasible' if sol is not None else 'infeasible'}, "
                    f"Fourier-Motzkin says {'feasible' if fm else 'infeasible'}")
        return sol

    def _as_inequalities(self):
        """The same system as a list of (coeffs, rhs) rows meaning c.y >= rhs."""
        ineqs = []
        for row, r in zip(self.equalities, self.rhs):
            ineqs += [(tuple(row), r), (tuple(-c for c in row), -r)]
        for i in range(self.nvars):
            ineqs.append((tuple(1 if j == i else 0 for j in range(self.nvars)), 0))
        return ineqs
