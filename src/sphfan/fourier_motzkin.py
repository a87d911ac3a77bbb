"""Fourier-Motzkin elimination on integer rows.

Serves as the independent feasibility oracle next to the simplex path:
it imports nothing from :mod:`sphfan.lp`, and reads the one LP shape
the library builds, int rows A and an int rhs b with y >= 0, as it is.

1. One ``_echelon`` pass on the augmented rows [A | b] (the library's
   reduced row echelon form, which the double description and the
   kernels also use; the simplex does not).  A pivot in the rhs column
   is a row 0 = r != 0, so the system is infeasible.  Otherwise each
   pivot row, with pivot column p and entry a_p > 0, solves for
   y_p = (r - sum_free a_j y_j) / a_p, and y_p >= 0 becomes the row
   sum_free -a_j y_j >= -r over the free (non-pivot) variables; each
   free variable keeps y_j >= 0.  Rows are scaled once to primitive
   integer tuples, and kept in a dict from coefficient tuple to the
   tightest right-hand side.
2. Then the free variables are eliminated, fewest new rows first.  Each
   row carries its history, the set of input rows it combines
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

from typing import Sequence

from .rational import _echelon, primitive_ints


def _primitive_row(vals: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """(coefficients, rhs) of an int row divided by the gcd of all its entries."""
    p = primitive_ints(vals)
    return p[:-1], p[-1]


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


def feasible(equalities: Sequence[Sequence[int]], rhs: Sequence[int], nvars: int) -> bool:
    """Decide whether {y : A·y = b, y >= 0} is nonempty, for int rows A
    of length ``nvars`` (``equalities``) and an int b (``rhs``)."""
    rows: dict[tuple[int, ...], int] = {}
    pivots = set()
    for row in _echelon([(*a, r) for a, r in zip(equalities, rhs)]):
        p = next(j for j, x in enumerate(row) if x)
        if p == nvars:
            return False
        pivots.add(p)
        # y_p >= 0 is  sum_free -a_j y_j >= -r
        neg = [-x for x in row]
        neg[p] = 0
        if not _tighten(rows, *_primitive_row(neg)):
            return False
    for j in set(range(nvars)) - pivots:
        _tighten(rows, tuple(int(i == j) for i in range(nvars)), 0)
    return _eliminate(rows, nvars)


def _eliminate(rows: dict[tuple[int, ...], int], nvars: int) -> bool:
    """Decide whether {x : c . x >= r for every (c, r) in rows} is
    nonempty, rows keyed by primitive int coefficients, none all zero."""
    # rows are (coefficients, rhs, history bitmask)
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
