"""Exact rational linear feasibility.

The workhorse is a phase-1 simplex with Bland's rule, so termination is
unconditional and every answer is exact.  It pivots fraction-free
(Edmonds' integer-preserving elimination, as in Avis's *lrs*): the whole
system is scaled by one common positive denominator, and the tableau of
Python ints, cost row included, is always d times the rational tableau,
where d > 0 is the last pivot (1 before the first).  Signs and ratio
comparisons are therefore those of the rational tableau, so Bland's rule
takes the same pivots, and the witness ``Fraction(T[i][-1], d)`` is the
same rational point.  ``Fraction`` appears only at the boundary.

Before any tableau is built, the "infeasible row" rule of LP presolve
(Andersen & Andersen, "Presolving in linear programming", Math.
Programming 71, 1995) looks for a row with a positive rhs and no positive
coefficient, or a negative rhs and no negative one; then no y >= 0 meets
that row, so the system is infeasible.  The rule only detects: it never
changes a system that goes on to the simplex, so pivots and witnesses are
those of the simplex alone.  The meet system of two cones whose relative
interiors lie on opposite sides of a coordinate hyperplane x_k = 0 (one
of them possibly inside it) has such a row: row k, whose rhs
``sphfan.cones._meet_system`` has already shifted by the lower bounds.
That meet system, whether relative interiors meet inside V, is the only
LP the library builds; point questions and dimensions of cones are read
off their int facet descriptions.
A system whose bounds are all 0 or free goes to the tableau as it is.

A :class:`FeasibilitySystem` holds equalities plus per-variable lower
bounds (``None`` = free) and either produces a witness point or reports
infeasibility.

When oracle cross-checking is enabled (CLI flag ``--oracle``), every
simplex verdict is replayed through the independent Fourier-Motzkin
eliminator of :mod:`sphfan.fourier_motzkin`, and a disagreement raises
:class:`OracleDisagreement`.  The eliminator shares no code with the
simplex: it runs on primitive int rows, substitutes the equalities
first and bounds row growth by Chernikov's rule.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import Optional, Sequence

from . import fourier_motzkin
from .rational import Vec, all_ints

_cross_check = False
_ZERO = Fraction(0)


def set_oracle_cross_check(enabled: bool) -> None:
    global _cross_check
    _cross_check = enabled


class OracleDisagreement(RuntimeError):
    """Simplex and Fourier-Motzkin disagreed on a feasibility verdict."""


def solve_eq_nonneg(a: Sequence[Sequence[Fraction]],
                    b: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Find y >= 0 with a @ y = b, or None.  Phase-1 simplex, Bland's rule.

    Entries may be ints or Fractions.  With no rows the variable count is
    unknown and the witness is ``[]``.
    """
    sol = _solve_eq_nonneg(a, b, len(a[0]) if a else 0)
    if sol is None:
        return None
    y, d = sol
    return [Fraction(v, d) for v in y]


def _solve_eq_nonneg(a, b, n: int) -> Optional[tuple[list[int], int]]:
    """``solve_eq_nonneg`` with its witness as int numerators over one
    common denominator d > 0."""
    # Infeasible-row presolve (Andersen & Andersen 1995), detection only:
    # a row whose rhs is nonzero while no coefficient has the rhs's sign has
    # no solution y >= 0, and the unit vector on that row is a Farkas
    # certificate.  Every other system goes to the unchanged simplex below,
    # so pivots and witnesses do not move.
    for row, r in zip(a, b):
        if r > 0 and max(row, default=0) <= 0 or r < 0 and min(row, default=0) >= 0:
            return None
    if all_ints(chain.from_iterable(a)) and all_ints(b):
        tab = [list(row) + [r] if r >= 0 else [-x for x in row] + [-r]
               for row, r in zip(a, b)]
    else:
        # One common positive scale for the whole system: scaling rows apart
        # would reweight the phase-1 objective and could change Bland's pivots.
        scale = lcm(*(q.denominator for row in a for q in row),
                    *(q.denominator for q in b))
        tab = []
        for row, r in zip(a, b):
            ints = [q.numerator * (scale // q.denominator) for q in row]
            ints.append(r.numerator * (scale // r.denominator))
            tab.append([-x for x in ints] if r < 0 else ints)
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
    """Equalities ``A x = b`` with per-variable lower bounds (None = free).

    Entries may be ints or Fractions; witnesses are tuples of Fractions.
    """

    __slots__ = ("equalities", "rhs", "lower_bounds")

    def __init__(self, equalities: tuple[Vec, ...], rhs: Vec,
                 lower_bounds: tuple[Optional[Fraction], ...]):
        if not {len(lower_bounds)}.issuperset(map(len, equalities)):
            raise ValueError("equality row length does not match variable count")
        if len(rhs) != len(equalities):
            raise ValueError("rhs length does not match equality count")
        object.__setattr__(self, "equalities", equalities)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "lower_bounds", lower_bounds)

    def __setattr__(self, name, value):
        raise AttributeError("FeasibilitySystem is immutable")

    def solve(self) -> Optional[Vec]:
        """Exact witness x, or None if the system is infeasible."""
        witness = self._solve_simplex()
        if _cross_check:
            fm = fourier_motzkin.feasible(self._as_inequalities(), len(self.lower_bounds))
            if fm != (witness is not None):
                raise OracleDisagreement(
                    f"simplex says {'feasible' if witness is not None else 'infeasible'}, "
                    f"Fourier-Motzkin says {'feasible' if fm else 'infeasible'}")
        return witness

    def _solve_simplex(self) -> Optional[Vec]:
        # substitute x_i = y_i + lb_i (y_i >= 0) for bounded variables,
        # x_i = y_i - y'_i for free ones; whole lower bounds as ints keep
        # the shifts in int arithmetic
        bounds = self.lower_bounds
        if not all_ints(bounds):
            bounds = [lb if lb is None or lb.denominator != 1 else lb.numerator
                      for lb in bounds]
        if None not in bounds:
            a = self.equalities
        else:
            a = [[x for coeff, lb in zip(row, bounds)
                  for x in ((coeff,) if lb is not None else (coeff, -coeff))]
                 for row in self.equalities]
        if any(bounds):
            shifts = [lb or 0 for lb in bounds]
            b = [r - sum(map(mul, row, shifts)) for row, r in zip(self.equalities, self.rhs)]
        else:
            # every bound is 0 or free: nothing to shift
            b = self.rhs
        sol = _solve_eq_nonneg(a, b, len(bounds) + bounds.count(None))
        if sol is None:
            return None
        y, d = sol
        # x_i = (y_i + lb_i * d) / d over the common denominator d; most
        # entries of a basic solution are 0, and share one Fraction
        x = []
        col = 0
        for lb in bounds:
            if lb is None:
                v = y[col] - y[col + 1]
                col += 2
            else:
                v = y[col] + lb * d
                col += 1
            x.append(Fraction(v, d) if v else _ZERO)
        return tuple(x)

    def _as_inequalities(self):
        """The same system as a list of (coeffs, rhs) rows meaning c.x >= rhs."""
        ineqs = []
        nvars = len(self.lower_bounds)
        for row, r in zip(self.equalities, self.rhs):
            ineqs += [(tuple(row), r), (tuple(-c for c in row), -r)]
        for i, lb in enumerate(self.lower_bounds):
            if lb is not None:
                ineqs.append((tuple(1 if j == i else 0 for j in range(nvars)), lb))
        return ineqs
