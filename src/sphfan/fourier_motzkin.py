"""Fourier-Motzkin elimination on integer rows.

Serves as the independent feasibility oracle next to the simplex path:
it imports nothing from :mod:`sphfan.lp`.  Only non-strict inequalities
are needed: every system produced by the cone machinery is of the form
``c . x >= rhs``.

Each row is scaled once to a primitive integer tuple, coefficients and
right-hand side together, and the rows are kept in a dict from
coefficient tuple to the tightest right-hand side.  Elimination then
runs in two phases, on Python ints only:

1. Equalities first.  An opposite pair ``c . x >= r``, ``-c . x >= r2``
   with ``r + r2 > 0`` is a contradiction; with ``r + r2 == 0`` it pins
   ``c . x = r``, and one of its variables is substituted away in every
   other row by the fraction-free step ``row * p - row[var] * eq``
   (``p = eq[var] > 0``), which grows nothing.
2. Then the remaining variables, fewest new rows first.  Each row
   carries its history, the set of phase-2 input rows it combines
   (Chernikov's rule, 1965, as restated by Imbert, "Fourier's
   elimination: which to choose?", 1993): after k eliminations, the
   multipliers of a combination of more than k + 1 input rows are no
   extreme ray of the projection cone {y >= 0 : y kills the eliminated
   columns}, so the row is dropped.  The extreme rays describe the
   projection, and each arises from extreme rays of the step before (the
   double description step), so dropping the others loses nothing.
   A row is also dropped when a row with the same coefficients, a
   right-hand side at least as tight and a history contained in its own
   is kept: every later combination of the dropped row is then matched
   by one of the kept row that is at least as tight and survives the
   rule whenever it would.  Rows with incomparable histories are both
   kept: keeping only the one with the smaller history can drop a
   combination that is needed and turn an infeasible system feasible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .rational import all_ints, integer_rows, primitive_ints

Ineq = tuple[tuple[Fraction, ...], Fraction]


def _primitive_row(vals: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """(coefficients, rhs) of an int row divided by the gcd of all its entries."""
    p = primitive_ints(vals)
    return p[:-1], p[-1]


def _int_row(coeffs: Sequence, rhs) -> tuple[tuple[int, ...], int]:
    """An int-or-Fraction row scaled to a primitive int row, same direction."""
    vals = list(coeffs) + [rhs]
    if not all_ints(vals):
        (vals,) = integer_rows([vals])
    return _primitive_row(vals)


def _tighten(rows: dict[tuple[int, ...], int], c: tuple[int, ...], r: int) -> bool:
    """Add row c . x >= r, keeping the tightest rhs per coefficient tuple.

    An all-zero row is not kept; False if it is a contradiction 0 >= r > 0.
    """
    if not any(c):
        return r <= 0
    prev = rows.get(c)
    if prev is None or r > prev:
        rows[c] = r
    return True


def _substitute_equalities(rows: dict[tuple[int, ...], int]) -> bool:
    """Substitute away every equality in place; False on a contradiction."""
    while True:
        # the first opposite pair that is no slab: c . x >= r, -c . x >= r2
        # with r + r2 >= 0
        for c, r in rows.items():
            r2 = rows.get(tuple(-x for x in c))
            if r2 is not None and r + r2 >= 0:
                break
        else:
            return True
        if r + r2 > 0:
            return False
        var = next(i for i, x in enumerate(c) if x != 0)
        if c[var] < 0:
            c, r = tuple(-x for x in c), -r
        neg = tuple(-x for x in c)
        p = c[var]
        old = rows.copy()
        rows.clear()
        for c2, r2 in old.items():
            if c2 == c or c2 == neg:
                continue
            f = c2[var]
            if f:
                c2, r2 = _primitive_row([x * p - f * y for x, y in zip(c2, c)]
                                        + [r2 * p - f * r])
            if not _tighten(rows, c2, r2):
                return False


def _keep(table: dict, c: tuple[int, ...], r: int, h: int) -> None:
    """Add row (c, r) with history bitmask h unless a kept row dominates it."""
    kept = table.get(c)
    if kept is None:
        table[c] = [(r, h)]
        return
    for r0, h0 in kept:
        if r0 >= r and h0 | h == h:
            return
    kept[:] = [(r0, h0) for r0, h0 in kept if not (r >= r0 and h | h0 == h0)]
    kept.append((r, h))


def feasible(ineqs: Sequence[Ineq], nvars: int) -> bool:
    """Decide whether {x : c . x >= rhs for all rows} is nonempty.

    Entries may be ints or Fractions.
    """
    rows: dict[tuple[int, ...], int] = {}
    for coeffs, rhs in ineqs:
        if not _tighten(rows, *_int_row(coeffs, rhs)):
            return False
    if not _substitute_equalities(rows):
        return False

    # phase 2: rows are (coefficients, rhs, history bitmask)
    work = [(c, r, 1 << i) for i, (c, r) in enumerate(rows.items())]
    remaining = [v for v in range(nvars) if any(c[v] for c, _, _ in work)]
    eliminated = 0
    while work and remaining:
        # eliminate the variable producing the fewest new rows first
        def cost(v: int) -> int:
            lo = sum(1 for c, _, _ in work if c[v] > 0)
            hi = sum(1 for c, _, _ in work if c[v] < 0)
            return lo * hi - lo - hi

        var = min(remaining, key=cost)
        remaining.remove(var)
        eliminated += 1
        limit = eliminated + 1
        lower, upper = [], []
        table: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for row in work:
            cj = row[0][var]
            if cj > 0:
                lower.append(row)
            elif cj < 0:
                upper.append(row)
            else:
                _keep(table, *row)
        for cl, rl, hl in lower:
            b = cl[var]
            for cu, ru, hu in upper:
                h = hl | hu
                if h.bit_count() > limit:
                    continue
                # positive combination cancelling x_var
                a = -cu[var]
                c, r = _primitive_row([a * x + b * y for x, y in zip(cl, cu)]
                                      + [a * rl + b * ru])
                if not any(c):
                    if r > 0:
                        return False
                    continue
                _keep(table, c, r, h)
        work = [(c, r, h) for c, kept in table.items() for r, h in kept]
    return True
