"""Exact linear feasibility of A·y = b, y >= 0 over the integers.

A :class:`FeasibilitySystem` is int rows A, an int rhs b and a variable
count; ``solve`` finds y >= 0 with A·y = b or reports infeasibility.
That system is the only LP the library builds, and ``sphfan.cones``
alone makes it: ``_meet_system`` for relint(C) ∩ V (CC2 and the face
tests), ``_pair_systems`` for relint(C1) ∩ relint(C2) ∩ V (CF2), with
the bounds of the multipliers shifted into the rhs.  Point questions
and dimensions of cones are read off their int facet descriptions.

The workhorse is a phase-1 simplex with Bland's rule, so termination is
unconditional and every answer is exact.  It pivots fraction-free
(Edmonds' integer-preserving elimination, as in Avis's *lrs*): the
tableau of Python ints, cost row included, is always d times the
rational tableau, where d > 0 is the last pivot (1 before the first).
Signs and ratio comparisons are therefore those of the rational tableau,
so Bland's rule takes the same pivots, and the witness, int numerators
over d, is the same rational point.  A pivot on p = tab[r][e] sets each
entry x of every other row to (x*p - f*y) / d, f being that row's entry
in column e and y the pivot row's in x's column, an exact division, one
update for every pivot.  The simplex runs only on the systems no
certificate settles: none in a round of the benchmark's P1 fans or cube
cones, and ten in a round of its twisted fans.

Certificates in the manner of LP presolve (Andersen & Andersen,
"Presolving in linear programming", Math. Programming 71, 1995) are
settled by the builders in ``sphfan.cones`` and handed to
``FeasibilitySystem.deferred``:
- ``certified_infeasible``: ``sphfan.cones._apart`` finds the sets
  disjoint on the sign masks cached per cone, or for a CF2 pair on those
  of the pass's hyperplane index;
- ``interior_point``: for relint(C) ∩ V, the sum of C's generators,
  a point of relint(C), lies in V, which proves it feasible.  ``solve``
  answers it ``([], 1)``, the one point-free answer: no numerators,
  d = 1.  That sum is then the witness (``sphfan.cones.relints_meet_in``):
  CC2's witness is C's generator sum when V holds it, and otherwise the
  simplex's point, as every CF2 witness is.
A certificate is the system's stored answer, set by ``deferred`` in the
slot where ``solve`` keeps the simplex's (``_APART`` for no,
``_INTERIOR`` for yes), and the two flags are read off that slot.  A
certified system still goes through ``solve``, so every LP is counted
there, and ``solve`` hands its answer out without building a row or
running the simplex.  The rows of a deferred system are built on first
read: by the simplex, by the oracle replay below, or by a caller.  The
certificates only decide, so every system that reaches the simplex is
the one it always was, with the same pivots and the same point.

Any other system runs the simplex once, on its first ``solve``, and
keeps the answer; each later ``solve`` hands out that answer in a
list of its own.  ``sphfan.cones._meet_system`` keeps one system per
distinct cone on V (see there), so a repeated face or CC2 test is one
more ``solve`` call, counted and replayed like the first, but no more
simplex.  A kept system has the rows a fresh one would have, so its
answer is the one a fresh system would give.

A deferred system's rows are not checked when built: they are read off
cone generators, which are ints by construction of
``sphfan.cones.Cone``.  A system built from outside rows goes through
``FeasibilitySystem.__init__``, which checks every entry.

When oracle cross-checking is enabled (CLI flag ``--oracle``), every
verdict, certified ones included, is replayed through the independent
Fourier-Motzkin eliminator of :mod:`sphfan.fourier_motzkin`, which is
imported only then, so a process without the oracle never loads it, and a
disagreement raises :class:`OracleDisagreement`, which names the
verdict's source: the simplex, a certificate of infeasibility, or an
interior point.  The eliminator reads the same int rows A, b and shares
no code with the simplex: one reduced echelon pass on [A | b] solves for
the pivot variables, their bounds y_p >= 0 become inequalities in the
free ones, and the free variables are eliminated under Chernikov's
bound on row growth.
"""

from __future__ import annotations

from importlib import import_module
from itertools import chain
from typing import Callable, Optional, Sequence

from .rational import Frozen, RankMismatchError, all_ints

# the Fourier-Motzkin module while the cross-check is on, else None
_oracle = None


def set_oracle_cross_check(enabled: bool) -> None:
    """Replay every verdict through :mod:`sphfan.fourier_motzkin`, which
    is imported here, when ``enabled``; ``solve`` reads its ``feasible``
    at each call."""
    global _oracle
    _oracle = import_module(".fourier_motzkin", __package__) if enabled else None


class OracleDisagreement(RuntimeError):
    """Fourier-Motzkin disagreed with a feasibility verdict of the simplex
    or of a certificate."""


def _solve_eq_nonneg(a: Sequence[Sequence[int]], b: Sequence[int],
                     n: int) -> Optional[tuple[list[int], int]]:
    """y >= 0 with a @ y = b on n int columns, as int numerators over one
    common denominator d > 0, or None.  Phase-1 simplex, Bland's rule."""
    tab = [[*row, r] if r >= 0 else [-x for x in row] + [-r]
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
            if i != leave:
                f = row[enter]
                tab[i] = [(x * p - f * y) // d for x, y in zip(row, prow)]
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


# A system's answer slot holds ``_UNSOLVED`` until the simplex runs, then
# its answer, None or (numerators, d).  A certificate stores its answer
# there from the start: ``_APART`` for no, ``_INTERIOR``, the point-free
# ([], 1), for yes.  An answer is truthy iff it is feasible, and each
# kind is told apart by identity.
_UNSOLVED = object()
_APART = ()
_INTERIOR = ([], 1)


class FeasibilitySystem(Frozen):
    """``A y = b`` with ``y >= 0``: int rows ``equalities`` of length
    ``nvars`` and an int ``rhs``.  Any other entry raises ``TypeError``,
    so only ints reach the tableau's floor divisions, and a row or rhs
    of another length raises ``RankMismatchError``.

    ``certified_infeasible`` is True only for a ``deferred`` system that
    its maker certified infeasible, and ``interior_point`` only for one
    it certified feasible by a point: both read the stored answer."""

    __slots__ = ("nvars", "_rows", "_sol")

    def __init__(self, equalities: tuple[tuple[int, ...], ...], rhs: tuple[int, ...],
                 nvars: int):
        if not all_ints(chain(chain.from_iterable(equalities), rhs, (nvars,))):
            raise TypeError("FeasibilitySystem entries must be ints")
        if not {nvars}.issuperset(map(len, equalities)):
            raise RankMismatchError("equality row length does not match variable count")
        if len(rhs) != len(equalities):
            raise RankMismatchError("rhs length does not match equality count")
        _set_nvars(self, nvars)
        _set_rows(self, (equalities, rhs))
        _set_sol(self, _UNSOLVED)

    @staticmethod
    def deferred(nvars: int, build: Callable[[], tuple],
                 certified_infeasible: bool, interior_point: bool) -> "FeasibilitySystem":
        """The system whose ``(equalities, rhs)`` ``build()`` returns when
        they are first read, unchecked: the caller vouches for rows of
        length ``nvars``, and the ``Cone`` type, whose generators the rows
        are read from, vouches for their ints.  With
        ``certified_infeasible`` the caller vouches for no y >= 0 meeting
        every row, with ``interior_point`` for some y >= 0 meeting every
        row, which ``solve`` names by no point.  A certificate is the
        stored answer, set here, so ``solve`` builds no row for it."""
        system = object.__new__(FeasibilitySystem)
        _set_nvars(system, nvars)
        _set_rows(system, build)
        _set_sol(system, _APART if certified_infeasible else _INTERIOR
                 if interior_point else _UNSOLVED)
        return system

    @property
    def certified_infeasible(self) -> bool:
        return self._sol is _APART

    @property
    def interior_point(self) -> bool:
        return self._sol is _INTERIOR

    def _built_rows(self) -> tuple:
        """``(equalities, rhs)``, built now if they were deferred."""
        rows = self._rows
        if callable(rows):
            rows = rows()
            _set_rows(self, rows)
        return rows

    @property
    def equalities(self) -> tuple[tuple[int, ...], ...]:
        return self._built_rows()[0]

    @property
    def rhs(self) -> tuple[int, ...]:
        return self._built_rows()[1]

    def solve(self) -> Optional[tuple[list[int], int]]:
        """``(numerators, d)`` with d > 0 and y = numerators / d a basic
        solution, or None if the system is infeasible; ``([], 1)``, with
        no point, if ``interior_point`` certified it.

        A certified system holds its answer from ``deferred``; any other
        runs the simplex on the first call only.  Later calls return the
        kept answer, each with a list of its own, so a caller changing it
        changes no later answer.  Every call is still replayed by the
        oracle when that is on."""
        sol = self._sol
        if sol is _UNSOLVED:
            sol = _solve_eq_nonneg(*self._built_rows(), self.nvars)
            _set_sol(self, sol)
        if _oracle is not None:
            fm = _oracle.feasible(self.equalities, self.rhs, self.nvars)
            if fm != bool(sol):
                source = ("certificate" if sol is _APART
                          else "interior point" if sol is _INTERIOR else "simplex")
                raise OracleDisagreement(
                    f"{source} says {'feasible' if sol else 'infeasible'}, "
                    f"Fourier-Motzkin says {'feasible' if fm else 'infeasible'}")
        return (list(sol[0]), sol[1]) if sol else None


_set_nvars = FeasibilitySystem._set_nvars
_set_rows = FeasibilitySystem._set_rows
_set_sol = FeasibilitySystem._set_sol
