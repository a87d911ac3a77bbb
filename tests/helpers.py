"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import gc
import importlib.util
import os
import random
import subprocess
import sys
from collections import Counter, deque
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm
from typing import NamedTuple, Sequence

from sphfan import cones as cones_module
from sphfan.cones import (Cone, _bits, _meet_rows, cones_equal, dual_description,
                          meeting_pairs, relint_meets_cone)
from sphfan.docio import serialize_fan
from sphfan.fourier_motzkin import _eliminate, _primitive_row, _tighten
from sphfan.galois import ActionReport, GaloisAction, apply_element
from sphfan.lp import FeasibilitySystem
from sphfan.morphisms import FanMorphism
from sphfan.rational import (Mat, RankMismatchError, Vec, _combine, _echelon, _idot,
                             _pivots, _reduce_ints, all_ints, bareiss, integer_rows,
                             primitive_ints, rat)
from sphfan.spherical import (ColoredCone, ColoredConeReport, ColoredFan,
                              ColoredFanReport, FanAxiomError, SphericalDatum,
                              colored_faces, faces_closure, validate_colored_cone)


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load_perfbench(name: str):
    """The benchmark's ``perfbench/<name>.py``, loaded read-only as module
    ``name``; ``workloads`` imports ``inputs`` by that name, so load
    ``inputs`` first."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def run_probe(source: str, *argv: str) -> str:
    """The stdout of ``python -c source *argv`` in a fresh interpreter that
    imports sphfan from the tree under test; the probe must exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cones_module.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", source, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """The Fraction dot product the old-algorithm references are written in."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vec_scale(c: Fraction, u: Sequence[Fraction]) -> Vec:
    return tuple(c * a for a in u)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def primitive(u: Sequence[Fraction]) -> Vec:
    """Scale a nonzero vector to coprime integer entries, same direction."""
    return tuple(Fraction(i) for i in primitive_ints(integer_rows([u])[0]))


def reference_matvec(m: Mat, v: Sequence[Fraction]) -> Vec:
    """``Mat.matvec`` as it was: a Fraction ``dot`` per row, the reference
    the products on the int grid must match."""
    if len(v) != m.ncols:
        raise ValueError(f"dimension mismatch: {m.ncols} cols vs {len(v)}")
    return tuple(dot(row, v) for row in m.rows)


def reference_matmul(a: Mat, b: Mat) -> Mat:
    """``Mat.matmul`` as it was: a Fraction ``dot`` per entry."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch in matmul")
    cols = list(zip(*b.rows))
    return Mat([[dot(row, col) for col in cols] for row in a.rows])


def reference_solve_eq_nonneg(a, b):
    """The Fraction-tableau phase-1 Bland simplex that ``sphfan.lp`` replaced.

    Kept as the reference the integer simplex must match witness for
    witness.  The rows are converted to ``Fraction`` first, so int rows
    divide exactly.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows = []
    rhs = []
    for i in range(m):
        row, r = [Fraction(x) for x in a[i]], Fraction(b[i])
        if r < 0:
            rows.append([-x for x in row])
            rhs.append(-r)
        else:
            rows.append(row)
            rhs.append(r)

    # tableau columns: n originals, m artificials, then rhs
    tab = [rows[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [rhs[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    # reduced costs of the phase-1 objective (minimize sum of artificials)
    cost = [-sum(tab[i][j] for i in range(m)) for j in range(n)]
    obj = -sum(rhs, Fraction(0))

    while True:
        enter = next((j for j in range(n) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = cost[enter]
        obj -= f * tab[leave][-1]
        cost = [c - f * tab[leave][j] for j, c in enumerate(cost[:n])]
        basis[leave] = enter

    if obj != 0:
        return None
    y = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            y[bv] = tab[i][-1]
    return y


def generator_bland_solve(a, b, n: int, seen=None):
    """The fraction-free Bland simplex ``lp._solve_eq_nonneg`` replaced,
    its body kept as it was (the entering column from ``next()`` over a
    generator, each row looked up twice in the ratio test, a row with
    f == 0 rescaled only when p != d), as the reference that loop must
    match in (y, d).  ``seen``, a Counter if given, counts the pivots with
    p != d, with p == d == 1 and with p == d > 1, on all of which that
    loop takes its one row update, and the ratio ties broken by the lower
    basis index, so a test can show it met each."""
    tab = [list(row) + [r] if r >= 0 else [-x for x in row] + [-r]
           for row, r in zip(a, b)]
    m = len(tab)
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
                if leave is None:
                    leave, num, den = i, tab[i][-1], t
                    continue
                lhs, rhs = tab[i][-1] * den, num * t
                if seen is not None and lhs == rhs:
                    seen["tie"] += 1
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, tab[i][-1], t
        if leave is None:
            raise RuntimeError("unbounded phase-1 problem")
        prow = tab[leave]
        p = prow[enter]
        if seen is not None:
            seen["p != d" if p != d else "p == d == 1" if d == 1 else "p == d > 1"] += 1
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


class ReferenceSystem(NamedTuple):
    """``A x = b`` with per-variable lower bounds (None = free): the general
    system the references solve on the Fraction simplex, independent of
    ``sphfan.lp``, whose systems are ``A y = b`` with ``y >= 0`` only."""
    equalities: tuple
    rhs: tuple
    lower_bounds: tuple

    @classmethod
    def of(cls, system) -> "ReferenceSystem":
        """A ``ReferenceSystem`` as it is; a ``FeasibilitySystem`` with
        every lower bound 0."""
        if isinstance(system, cls):
            return system
        return cls(system.equalities, system.rhs, (0,) * system.nvars)


def reference_shift(system):
    """The y >= 0 system the Fraction simplex solves for ``system``: x = y + lb
    for bounded variables and x = y - y' for free ones.  Returns the rows,
    the rhs and, per variable, its column and the column of y' (or None)."""
    system = ReferenceSystem.of(system)
    ncols = 0
    col_spec = []
    for lb in system.lower_bounds:
        if lb is None:
            col_spec.append((ncols, ncols + 1))
            ncols += 2
        else:
            col_spec.append((ncols, None))
            ncols += 1
    a = []
    b = []
    for row, r in zip(system.equalities, system.rhs):
        arow = [Fraction(0)] * ncols
        shift = Fraction(0)
        for coeff, lb, (pos, neg) in zip(row, system.lower_bounds, col_spec):
            arow[pos] += coeff
            if neg is not None:
                arow[neg] -= coeff
            else:
                shift += coeff * lb
        a.append(arow)
        b.append(r - shift)
    return a, b, col_spec


def reference_solve(system):
    """Witness x of a ``ReferenceSystem`` (or a ``FeasibilitySystem``) on
    the Fraction simplex, or None."""
    system = ReferenceSystem.of(system)
    a, b, col_spec = reference_shift(system)
    y = reference_solve_eq_nonneg(a, b)
    if y is None:
        return None
    return tuple(y[pos] + lb if neg is None else y[pos] - y[neg]
                 for lb, (pos, neg) in zip(system.lower_bounds, col_spec))


def as_fractions(sol):
    """``FeasibilitySystem.solve``'s ``(numerators, d)`` as a Fraction tuple."""
    if sol is None:
        return None
    y, d = sol
    return tuple(Fraction(v, d) for v in y)


def one_sign_row(a, b) -> bool:
    """Whether some row has a nonzero rhs and no coefficient of its sign,
    which makes y >= 0 with a @ y = b infeasible."""
    return any(r > 0 and all(x <= 0 for x in row) or r < 0 and all(x >= 0 for x in row)
               for row, r in zip(a, b))


def shifted_rhs(system) -> tuple:
    """The rhs once the lower bounds are shifted out (x = y + lb); free
    variables shift nothing."""
    system = ReferenceSystem.of(system)
    return tuple(r - sum(c * lb for c, lb in zip(row, system.lower_bounds)
                         if c and lb is not None)
                 for row, r in zip(system.equalities, system.rhs))


def presolve_certifies(system) -> bool:
    """``one_sign_row`` after the lower bounds are shifted out.  A free
    variable is split into two columns of opposite sign, so a row with a
    nonzero coefficient on one is never one-signed."""
    system = ReferenceSystem.of(system)
    for row, shifted in zip(system.equalities, shifted_rhs(system)):
        if any(c and lb is None for c, lb in zip(row, system.lower_bounds)):
            continue
        if one_sign_row([row], [shifted]):
            return True
    return False


def reference_meet_system(blocks: Sequence[Sequence[tuple[int, ...]]], n: int,
                          last_bound: int) -> ReferenceSystem:
    """``cones._meet_system`` as it was, on lists of int vectors: rhs 0 and
    the bounds left for the simplex to shift, the last block's variables
    >= last_bound and all others >= 1."""
    cols = [list(zip(*b)) if b else [()] * n for b in blocks]
    rows = []
    for other in range(1, len(blocks)):
        before = (0,) * sum(len(b) for b in blocks[1:other])
        after = (0,) * sum(len(b) for b in blocks[other + 1:])
        for k in range(n):
            rows.append(cols[0][k] + before + tuple(-x for x in cols[other][k]) + after)
    nvars = sum(len(b) for b in blocks)
    bounds = [1] * (nvars - len(blocks[-1])) + [last_bound] * len(blocks[-1])
    return ReferenceSystem(tuple(rows), (0,) * len(rows), tuple(bounds))


Ineq = tuple[tuple[Fraction, ...], Fraction]


def as_inequalities(equalities: Sequence[Sequence[int]], rhs: Sequence[int],
                    nvars: int) -> list[Ineq]:
    """A·y = b, y >= 0 as rows (coeffs, rhs) meaning c . y >= rhs: each
    equality as two opposite rows, and one unit row per variable.  The
    form ``lp.FeasibilitySystem`` once handed the oracle, kept so the
    Fraction eliminator ``reference_feasible`` can check its verdicts."""
    ineqs = []
    for row, r in zip(equalities, rhs):
        ineqs += [(tuple(row), r), (tuple(-c for c in row), -r)]
    for i in range(nvars):
        ineqs.append((tuple(1 if j == i else 0 for j in range(nvars)), 0))
    return ineqs


def eliminate(ineqs: Sequence[Ineq], nvars: int) -> bool:
    """Whether {x : c . x >= rhs for all rows} is nonempty, for general
    rows of ints or Fractions and free x: each row scaled to a primitive
    int row, then ``fourier_motzkin._eliminate`` alone, with no echelon
    pass and no double description."""
    rows: dict[tuple[int, ...], int] = {}
    for coeffs, r in ineqs:
        (ints,) = integer_rows([[*coeffs, r]])
        if not _tighten(rows, *_primitive_row(ints)):
            return False
    return _eliminate(rows, nvars)


def _reference_normalize(coeffs: Sequence[Fraction], rhs: Fraction) -> Ineq:
    """Scale an inequality to coprime integer data (direction preserved)."""
    vals = list(coeffs) + [rhs]
    if all(v == 0 for v in vals):
        return (tuple(Fraction(0) for _ in coeffs), Fraction(0))
    m = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (m // v.denominator) for v in vals]
    g = gcd(*(abs(i) for i in ints))
    ints = [i // g for i in ints]
    return (tuple(Fraction(i) for i in ints[:-1]), Fraction(ints[-1]))


def _reference_prune(rows: set[Ineq]) -> set[Ineq]:
    """Keep only the tightest bound for each coefficient direction."""
    best: dict[tuple[Fraction, ...], Fraction] = {}
    for coeffs, rhs in rows:
        prev = best.get(coeffs)
        if prev is None or rhs > prev:
            best[coeffs] = rhs
    return {(c, r) for c, r in best.items()}


def _reference_substitute_equality(rows: set[Ineq], remaining: list[int]):
    """Eliminate one variable pinned by an opposite pair of rows, if any.

    A pair ``c . x >= r`` and ``-c . x >= -r`` forces ``c . x = r``; any
    variable with a nonzero coefficient there can be solved for and
    substituted away without growing the system.
    """
    for coeffs, rhs in rows:
        neg = (tuple(-x for x in coeffs), -rhs)
        if neg not in rows:
            continue
        var = next((v for v in remaining if coeffs[v] != 0), None)
        if var is None:
            continue
        pivot = coeffs[var]
        out = set()
        for c2, r2 in rows:
            if (c2, r2) in ((coeffs, rhs), neg):
                continue
            f = c2[var] / pivot
            if f == 0:
                out.add((c2, r2))
            else:
                out.add(_reference_normalize(
                    tuple(a - f * b for a, b in zip(c2, coeffs)), r2 - f * rhs))
        remaining.remove(var)
        return _reference_prune(out)
    return None


def reference_feasible(ineqs: Sequence[Ineq], nvars: int) -> bool:
    """The Fraction Fourier-Motzkin eliminator that ``sphfan.fourier_motzkin``
    replaced: a set of Fraction rows, equalities substituted as found, no
    row-growth bound.

    Kept as the reference the integer eliminator must match verdict for
    verdict.
    """
    rows = _reference_prune({_reference_normalize(c, r) for c, r in ineqs})
    remaining = list(range(nvars))
    while remaining:
        substituted = _reference_substitute_equality(rows, remaining)
        if substituted is not None:
            rows = substituted
            for coeffs, rhs in rows:
                if all(c == 0 for c in coeffs) and rhs > 0:
                    return False
            continue

        # eliminate the variable producing the fewest new rows first
        def cost(v: int) -> int:
            lo = sum(1 for coeffs, _ in rows if coeffs[v] > 0)
            hi = sum(1 for coeffs, _ in rows if coeffs[v] < 0)
            return lo * hi - lo - hi

        var = min(remaining, key=cost)
        remaining.remove(var)
        lower, upper, rest = [], [], []
        for coeffs, rhs in rows:
            cj = coeffs[var]
            if cj > 0:
                lower.append((coeffs, rhs))
            elif cj < 0:
                upper.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        new = set()
        for cl, rl in lower:
            for cu, ru in upper:
                # positive combination cancelling x_var
                a = -cu[var]
                b = cl[var]
                coeffs = tuple(a * x + b * y for x, y in zip(cl, cu))
                new.add(_reference_normalize(coeffs, a * rl + b * ru))
        rows = _reference_prune(set(rest) | new)
        # early exit on a constant contradiction
        for coeffs, rhs in rows:
            if all(c == 0 for c in coeffs) and rhs > 0:
                return False
    return all(rhs <= 0 for coeffs, rhs in rows)


def reference_cones_equal(a: Cone, b: Cone) -> bool:
    """Cone equality by mutual inclusion of generator sets, as ``cones_equal``
    decided it before the canonical key; the reference the key must match."""
    if a.ambient_rank != b.ambient_rank:
        return False
    return (all(b.contains(g) for g in a.generators)
            and all(a.contains(g) for g in b.generators))


def reference_contains(c: Cone, x) -> bool:
    """``Cone.contains`` as it was, with Fraction dot products: the reference
    the int dot products must match."""
    eqs, facets = c.span_equations, c.facets
    return (all(dot(w, x) == 0 for w in eqs)
            and all(dot(w, x) >= 0 for w in facets))


class ReferenceCone:
    """``Cone`` as it was when it stored Fraction generators: the same
    normalisation, Fraction dual, key, ``dim``, ``faces``, ``intersect``
    and ``relint_contains``.  Kept as the
    reference the integer-native cone must match in value, order and type.
    """

    def __init__(self, ambient_rank: int, generators=()):
        gens = []
        seen = set()
        for g in generators:
            v = tuple(rat(e) for e in g)
            if len(v) != ambient_rank:
                raise RankMismatchError(
                    f"expected a vector of length {ambient_rank}, got {len(v)}")
            p = primitive(v)
            if not any(p) or p in seen:
                continue
            seen.add(p)
            gens.append(p)
        self.ambient_rank = ambient_rank
        self.generators = tuple(gens)
        lin, rays = dual_description(self.generators, ambient_rank)
        self.span_equations, self.facets = tuple(lin), tuple(rays)
        self.key = ambient_rank, self.span_equations, tuple(sorted(self.facets))

    contains = reference_contains

    @property
    def dim(self) -> int:
        if not self.generators:
            return 0
        return Mat(self.generators).rank()

    def faces(self) -> list["ReferenceCone"]:
        gens = self.generators
        tight_sets = [frozenset(i for i, g in enumerate(gens) if dot(w, g) == 0)
                      for w in self.facets]
        all_idx = frozenset(range(len(gens)))
        closed = {all_idx}
        queue = [all_idx]
        while queue:
            s = queue.pop()
            for t in tight_sets:
                u = s & t
                if u not in closed:
                    closed.add(u)
                    queue.append(u)
        out = [ReferenceCone(self.ambient_rank, [gens[i] for i in sorted(s)])
               for s in sorted(closed, key=sorted)]
        out.sort(key=lambda c: c.dim)
        return out

    def intersect(self, other) -> "ReferenceCone":
        n = self.ambient_rank
        ineqs = []
        for cone in (self, other):
            ineqs.extend(cone.facets)
            for w in cone.span_equations:
                ineqs.append(w)
                ineqs.append(vec_scale(Fraction(-1), w))
        lin, rays = dual_description(ineqs, n)
        gens = list(rays)
        for l in lin:
            gens.append(l)
            gens.append(vec_scale(Fraction(-1), l))
        return ReferenceCone(n, gens)

    def relint_contains(self, x) -> bool:
        if not self.generators:
            return not any(x)
        gens = self.generators
        rows = []
        for k in range(self.ambient_rank):
            rows.append(tuple([g[k].numerator for g in gens] + [-rat(x[k])]))
        system = ReferenceSystem(tuple(rows), (0,) * self.ambient_rank,
                                 (Fraction(1),) * (len(gens) + 1))
        return reference_solve(system) is not None


def reference_relints_meet_in(c1, c2, v):
    """``relints_meet_in`` as it was, with Fraction bounds, solved on the
    Fraction simplex, and a witness summed in Fraction arithmetic; takes
    ``ReferenceCone`` or ``Cone``.  Without c2 the witness is by CC2's
    rule: the generator sum when ``reference_holds`` finds it in v, else
    the simplex's."""
    cones = [c1] + ([c2] if c2 is not None else []) + [v]
    n = c1.ambient_rank
    blocks = [c.generators for c in cones]
    bounds = []
    bounds += [Fraction(1)] * len(blocks[0])
    if c2 is not None:
        bounds += [Fraction(1)] * len(blocks[1])
    bounds += [Fraction(0)] * len(blocks[-1])
    nvars = len(bounds)

    offsets = []
    off = 0
    for b in blocks:
        offsets.append(off)
        off += len(b)

    rows = []
    for other in range(1, len(blocks)):
        for k in range(n):
            row = [0] * nvars
            for i, g in enumerate(blocks[0]):
                row[offsets[0] + i] = g[k].numerator
            for j, h in enumerate(blocks[other]):
                row[offsets[other] + j] = -h[k].numerator
            rows.append(tuple(row))
    sol = reference_solve(ReferenceSystem(tuple(rows), (0,) * len(rows), tuple(bounds)))
    if sol is None:
        return None
    if c2 is None and reference_holds(v, generator_sum(c1)):
        return generator_sum(c1)
    witness = zero_vec(n)
    for i, g in enumerate(blocks[0]):
        witness = tuple(w + sol[offsets[0] + i] * gk for w, gk in zip(witness, g))
    return witness


def reference_image(m: Mat, c) -> ReferenceCone:
    """The image cone as ``apply_element`` and ``push_cone`` built it:
    Fraction ``matvec`` on every generator."""
    return ReferenceCone(m.nrows, [reference_matvec(m, g) for g in c.generators])


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def reference_rref(rows: Sequence[Vec]) -> list[Vec]:
    """The Fraction Gauss-Jordan elimination that ``sphfan.rational._echelon``
    replaced: the reduced row echelon form basis of the row space.

    Kept as the reference the fraction-free elimination must match.
    """
    work = [list(r) for r in rows]
    out: list[list[Fraction]] = []
    ncols = len(rows[0]) if rows else 0
    col = 0
    while work and col < ncols:
        piv = next((r for r in work if r[col] != 0), None)
        if piv is None:
            col += 1
            continue
        work.remove(piv)
        piv = [x / piv[col] for x in piv]
        work = [[x - r[col] * p for x, p in zip(r, piv)] for r in work]
        out = [[x - r[col] * p for x, p in zip(r, piv)] for r in out]
        out.append(piv)
        col += 1
    return [tuple(r) for r in out]


def reference_solve_homogeneous(m: Mat) -> list[Vec]:
    """``Mat.solve_homogeneous`` as it was: Fraction back-substitution on
    the Bareiss echelon grid, one vector per free column.  Kept as the
    reference the kernel read off the reduced echelon form must match."""
    ech, pivots, _ = bareiss(m.ints)
    free = [j for j in range(m.ncols) if j not in pivots]
    basis: list[Vec] = []
    for f in free:
        x = [Fraction(0)] * m.ncols
        x[f] = Fraction(1)
        for i in reversed(range(len(pivots))):
            p = pivots[i]
            s = sum((Fraction(ech[i][j]) * x[j] for j in range(p + 1, m.ncols)),
                    Fraction(0))
            x[p] = -s / ech[i][p]
        basis.append(tuple(x))
    return basis


def reference_lineality(c: Cone) -> tuple[Vec, ...]:
    """``Cone.lineality_basis`` as it was: the Fraction kernel of the dual's
    span equations and facets, a basis of the largest linear subspace in
    c.  ``Cone.is_strictly_convex`` must answer ``not reference_lineality(c)``."""
    eqs, facets, _ = c._idual
    rows = eqs + facets
    if not rows:
        return tuple(Mat.identity(c.ambient_rank).rows)
    return tuple(reference_solve_homogeneous(Mat(rows)))


def reference_reduce_mod(v: Vec, rref_rows: Sequence[Vec]) -> Vec:
    """Canonical representative of v modulo the span of RREF rows, as the
    double description computed it before it reduced int rays."""
    x = list(v)
    for row in rref_rows:
        p = next(i for i, e in enumerate(row) if e != 0)
        if x[p] != 0:
            c = x[p] / row[p]
            x = [a - c * b for a, b in zip(x, row)]
    return tuple(x)


def reference_dual_description(ineqs, n):
    """The Fraction double description that ``sphfan.cones`` replaced: rank
    tests for adjacency, then a rescan that drops non-extreme rays, with
    the canonical form recomputed on every step.

    Kept as the reference the integer double description must match.
    """
    lin: list[Vec] = [tuple(Fraction(1 if i == j else 0) for j in range(n))
                      for i in range(n)]
    lin_rref = lin
    rays: list[Vec] = []
    processed: list[Vec] = []

    for a in ineqs:
        pivots = [(l, dot(a, l)) for l in lin]
        hit = next(((l, s) for l, s in pivots if s != 0), None)
        if hit is not None:
            l0, s0 = hit
            if s0 < 0:
                l0, s0 = vec_scale(Fraction(-1), l0), -s0
            new_lin = []
            for l, s in pivots:
                if l is hit[0]:
                    continue
                new_lin.append(vec_sub(l, vec_scale(s / s0, l0)) if s != 0 else l)
            rays = [vec_sub(r, vec_scale(dot(a, r) / s0, l0)) for r in rays]
            rays.append(l0)
            lin = new_lin
        else:
            pos, zero, neg = [], [], []
            for r in rays:
                s = dot(a, r)
                (pos if s > 0 else zero if s == 0 else neg).append(r)
            new: dict[Vec, Vec] = {}
            if pos and neg:
                target = n - len(lin) - 2
                tight = {r: [q for q in processed if dot(q, r) == 0] for r in rays}
                for u in pos:
                    for v in neg:
                        common = [q for q in tight[u] if dot(q, v) == 0]
                        if len(rays) > 2 and Mat(common).rank() != target:
                            continue
                        w = vec_sub(vec_scale(dot(a, u), v), vec_scale(dot(a, v), u))
                        w = primitive(w)
                        new.setdefault(w, w)
            rays = pos + zero + list(new)
        processed.append(a)
        lin_rref = reference_rref(lin)
        rays = [primitive(reference_reduce_mod(r, lin_rref)) for r in rays]
        rays = _reference_extreme_filter(rays, processed, n, len(lin))
    return lin_rref, rays


def _reference_extreme_filter(rays, processed, n, lin_dim):
    """Keep only rays whose tight constraint set has rank n - lin_dim - 1."""
    target = n - lin_dim - 1
    out = []
    seen = set()
    for r in rays:
        p = primitive(r)
        if not any(p) or p in seen:
            continue
        tight = [a for a in processed if dot(a, r) == 0]
        if Mat(tight).rank() == target if tight else target == 0:
            seen.add(p)
            out.append(r)
    return out


def reference_dual_ints(ineqs: Sequence[Sequence[int]],
                        n: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The int double description ``cones._dual_ints`` replaced, with each
    tight set a frozenset of indices and every pair of rays on opposite
    sides tested for adjacency.  Kept as the reference the bitset version
    must match, in value and order.

    Returns the ``_echelon`` basis of the lineality space and the extreme
    rays, each primitive and reduced modulo that basis.  Incremental
    double description on primitive integer vectors (Fukuda & Prodon
    1996): after each inequality, ``lin`` spans the lineality space L and
    the rays are the extreme rays modulo L, each once.  Every ray carries
    Z(r), the indices of the processed inequalities tight on it, fixed
    when it is made: vectors of L are tight on all of them, and a new
    ray p*u + q*v (p, q > 0) is tight exactly where u and v both are.

    An inequality not vanishing on L turns one l0 in L into a ray and
    moves the other rays along l0 onto its hyperplane.  Otherwise each
    adjacent pair of rays on opposite sides gives a new ray on the
    hyperplane: u and v are adjacent iff no third ray r has
    Z(r) ⊇ Z(u) ∩ Z(v).  This is exact because the list is minimal: the
    rays whose sets contain Z(u) ∩ Z(v) are the extreme rays of the
    smallest face holding u and v, which is a 2-face iff there are no
    others.  So every step keeps the list minimal, with no filtering.
    """
    lin = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    rays: list[tuple[tuple[int, ...], frozenset[int]]] = []

    for k, a in enumerate(ineqs):
        dots = [_idot(a, l) for l in lin]
        hit = next((i for i, s in enumerate(dots) if s != 0), None)
        if hit is not None:
            l0, s0 = lin[hit], dots[hit]
            if s0 < 0:
                l0, s0 = tuple(-x for x in l0), -s0
            lin = [_combine(s0, l, s, l0) if s != 0 else l
                   for i, (l, s) in enumerate(zip(lin, dots)) if i != hit]
            rays = [(_combine(s0, r, _idot(a, r), l0), z | {k}) for r, z in rays]
            rays.append((l0, frozenset(range(k))))
            continue
        dots = [_idot(a, r) for r, _ in rays]
        pos = [i for i, s in enumerate(dots) if s > 0]
        neg = [i for i, s in enumerate(dots) if s < 0]
        new = []
        for i in pos:
            for j in neg:
                common = rays[i][1] & rays[j][1]
                if any(common <= z for h, (_, z) in enumerate(rays) if h != i and h != j):
                    continue
                new.append((_combine(dots[i], rays[j][0], dots[j], rays[i][0]),
                            common | {k}))
        rays = ([rays[i] for i in pos]
                + [(r, z | {k}) for (r, z), s in zip(rays, dots) if s == 0] + new)

    basis = _echelon(lin)
    pivots = _pivots(basis)
    return basis, [_reduce_ints(r, basis, pivots) for r, _ in rays]


def reference_det(m: Mat) -> Fraction:
    """``Mat.det`` as it was: a Fraction-valued Bareiss elimination of its
    own, the reference the shared integer elimination must match."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return Fraction(1)
    a = [list(row) for row in m.rows]
    sign = 1
    prev = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                a[i][j] = (a[i][j] * a[col][col] - a[i][col] * a[col][j]) / prev
            a[i][col] = Fraction(0)
        prev = a[col][col]
    return sign * a[n - 1][n - 1]


def reference_is_integral_unimodular(m: Mat) -> bool:
    """``Mat.is_integral_unimodular`` on the Fraction entries and ``reference_det``."""
    if m.nrows != m.ncols:
        raise ValueError("unimodularity requires a square matrix")
    if any(e.denominator != 1 for row in m.rows for e in row):
        return False
    return abs(reference_det(m)) == 1


def _reference_compose(a: GaloisAction, g, h) -> tuple[Mat, dict]:
    """``GaloisAction.compose`` on the Fraction product."""
    return (reference_matmul(g.matrix, h.matrix),
            {c: g.color_perm[h.color_perm[c]] for c in a.datum.colors})


def _reference_find(a: GaloisAction, matrix: Mat, perm: dict):
    for e in a.elements:
        if e.matrix == matrix and e.color_perm == perm:
            return e
    return None


def reference_validate_action(a: GaloisAction) -> ActionReport:
    """``galois.validate_action`` as it was, with a linear scan per lookup and
    three compositions per inverse candidate; the reference the keyed
    lookups must match report for report."""
    d = a.datum
    failures = []

    ident_mat = Mat.identity(d.rank)
    ident_perm = {c: c for c in d.colors}
    has_identity = _reference_find(a, ident_mat, ident_perm) is not None
    if not has_identity:
        failures.append("no identity element")

    closed = True
    for g in a.elements:
        for h in a.elements:
            if _reference_find(a, *_reference_compose(a, g, h)) is None:
                closed = False
                failures.append(f"composite {g.name!r}∘{h.name!r} is not in the list")

    has_inverses = True
    for g in a.elements:
        inv = next((h for h in a.elements
                    if _reference_find(a, *_reference_compose(a, g, h)) is not None
                    and _reference_compose(a, g, h)[0] == ident_mat
                    and _reference_compose(a, g, h)[1] == ident_perm), None)
        if inv is None:
            has_inverses = False
            failures.append(f"element {g.name!r} has no inverse in the list")

    unimodular = True
    for g in a.elements:
        if not reference_is_integral_unimodular(g.matrix):
            unimodular = False
            failures.append(f"element {g.name!r} is not integral unimodular")

    v_stable = True
    v = d.valuation_cone
    for g in a.elements:
        image = Cone(d.rank, [reference_matvec(g.matrix, x) for x in v.generators])
        if not cones_equal(image, v):
            v_stable = False
            failures.append(f"element {g.name!r} does not map V onto V")

    rho_equivariant = True
    for g in a.elements:
        for c in d.colors:
            if reference_matvec(g.matrix, d.rho[c]) != d.rho[g.color_perm[c]]:
                rho_equivariant = False
                failures.append(f"element {g.name!r} breaks rho-equivariance at color {c!r}")

    return ActionReport(has_identity=has_identity, closed=closed,
                        has_inverses=has_inverses, unimodular=unimodular,
                        v_stable=v_stable, rho_equivariant=rho_equivariant,
                        failures=tuple(failures))


def reference_invariant_closure(a: GaloisAction, seeds: Sequence[ColoredCone]) -> ColoredFan:
    """The pass-by-pass fixed point that the worklist of
    ``galois.invariant_closure`` replaced: every member re-walked on
    every pass, then every member's colored faces again in
    ``faces_closure``."""
    from sphfan.spherical import colored_faces

    members: dict[tuple, ColoredCone] = {}

    def add(cc: ColoredCone) -> bool:
        if cc.key in members:
            return False
        members[cc.key] = cc
        return True

    for s in seeds:
        add(s)
    changed = True
    while changed:
        changed = False
        for cc in list(members.values()):
            for e in a.elements:
                if add(apply_element(a, e, cc)):
                    changed = True
            for face in colored_faces(a.datum, cc):
                if add(face):
                    changed = True
    return faces_closure(a.datum, list(members.values()))


def reference_is_morphism_of_cones(m: FanMorphism, cc1: ColoredCone,
                                   cc2: ColoredCone) -> bool:
    """The Fraction ``matvec`` per source generator that pushing the cone
    once on ints replaced."""
    if not all(cc2.cone.contains(reference_matvec(m.linear_map, g))
               for g in cc1.cone.generators):
        return False
    mapped = {m.color_map[f] for f in cc1.palette & m.domain_colors}
    return mapped <= cc2.palette


def random_vec(rng: random.Random, n: int, lo: int = -5, hi: int = 5):
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(n))


def random_cone(rng: random.Random, max_rank: int = 4, max_gens: int = 6) -> Cone:
    n = rng.randint(1, max_rank)
    k = rng.randint(0, max_gens)
    return Cone(n, [random_vec(rng, n) for _ in range(k)])


def random_pointed_cone(rng: random.Random, max_rank: int = 4,
                        max_gens: int = 6) -> Cone:
    while True:
        c = random_cone(rng, max_rank, max_gens)
        if c.is_strictly_convex():
            return c


def brute_force_faces(c: Cone) -> list[Cone]:
    """Independent face oracle: subset + supporting-functional feasibility.

    For every subset T of generators, decide by Fourier-Motzkin
    (``eliminate``) whether some w satisfies w.g = 0 on T and w.g >= 1
    off T; each feasible T contributes the face cone(T).
    """
    gens = c.generators
    n = c.ambient_rank
    idx = range(len(gens))
    faces = []
    for mask in range(1 << len(gens)):
        t = [i for i in idx if mask >> i & 1]
        rest = [i for i in idx if not mask >> i & 1]
        ineqs = []
        for i in t:
            ineqs.append((gens[i], Fraction(0)))
            ineqs.append((tuple(-x for x in gens[i]), Fraction(0)))
        for i in rest:
            ineqs.append((gens[i], Fraction(1)))
        if eliminate(ineqs, n):
            faces.append(Cone(n, [gens[i] for i in t]))
    return faces


def fm_relint_meets_cone(c: Cone, v: Cone) -> bool:
    """Fourier-Motzkin reformulation of relint(c) ∩ v != ∅, by ``eliminate``."""
    gc, gv = c.generators, v.generators
    n = c.ambient_rank
    nvars = len(gc) + len(gv)
    ineqs = []
    for i in range(len(gc)):
        coeffs = [Fraction(0)] * nvars
        coeffs[i] = Fraction(1)
        ineqs.append((tuple(coeffs), Fraction(1)))
    for j in range(len(gv)):
        coeffs = [Fraction(0)] * nvars
        coeffs[len(gc) + j] = Fraction(1)
        ineqs.append((tuple(coeffs), Fraction(0)))
    for k in range(n):
        coeffs = [g[k] for g in gc] + [-h[k] for h in gv]
        ineqs.append((tuple(coeffs), Fraction(0)))
        ineqs.append((tuple(-x for x in coeffs), Fraction(0)))
    return eliminate(ineqs, nvars)


def random_datum(rng: random.Random, max_rank: int = 3,
                 max_colors: int = 3) -> SphericalDatum:
    n = rng.randint(1, max_rank)
    # bias toward large valuation cones so CC2 is satisfiable often
    if rng.random() < 0.5:
        vgens = [tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)]
        vgens += [tuple(-x for x in g) for g in vgens]
    else:
        vgens = [random_vec(rng, n) for _ in range(rng.randint(1, 2 * n))]
    names = ["c%d" % i for i in range(rng.randint(0, max_colors))]
    rho = {name: random_vec(rng, n, -3, 3) for name in names}
    return SphericalDatum(n, Cone(n, vgens), names, rho)


def reference_colored_faces(d: SphericalDatum, cc: ColoredCone) -> list[ColoredCone]:
    """``colored_faces`` with the palette decided by ``face.contains``, one
    dual description per face: the reference the carriers must match."""
    out = []
    for face in cc.cone.faces():
        if relint_meets_cone(face, d.valuation_cone) is None:
            continue
        out.append(ColoredCone(face, {f for f in cc.palette if face.contains(d.rho[f])}))
    return out


def pre_table_colored_faces(d: SphericalDatum, cc: ColoredCone) -> list[ColoredCone]:
    """``colored_faces`` as it was before the face table: a ``ColoredCone``
    for each face of ``cc.cone.faces()`` whose relative interior meets V
    (``relint_meets_cone``), its palette read off the carriers."""
    v = d.valuation_cone
    carriers = {}
    for f in cc.palette:
        c = cc.cone._carrier(d._rho_ints[f])
        carriers[f] = None if c is None else {cc.cone._ints[i] for i in _bits(c)}
    out = []
    for face in cc.cone.faces():
        if relint_meets_cone(face, v) is None:
            continue
        gens = set(face._ints)
        palette = {f for f, c in carriers.items() if c is not None and c <= gens}
        out.append(ColoredCone(face, palette))
    return out


def pre_table_validate_colored_fan(d: SphericalDatum, fan: ColoredFan) -> ColoredFanReport:
    """``validate_colored_fan`` with CF1 as it was before the face table:
    every colored face of every member looked up by ``fan.index``."""
    reports = tuple(validate_colored_cone(d, cc) for cc in fan)
    missing = [(i, face) for i, cc in enumerate(fan)
               for face in pre_table_colored_faces(d, cc) if fan.index(face) is None]
    failures = list(meeting_pairs([cc.cone for cc in fan], d.valuation_cone))
    return ColoredFanReport(cone_reports=reports, cf1=not missing, cf1_missing=tuple(missing),
                            cf2=not failures, cf2_failures=tuple(failures))


def pre_table_maximal_cones(d: SphericalDatum, fan: ColoredFan) -> list[ColoredCone]:
    """``maximal_cones`` as it was before the face table."""
    proper: set = set()
    for i, cc in enumerate(fan):
        proper |= {fan.index(f) for f in pre_table_colored_faces(d, cc)} - {i}
    return [cc for i, cc in enumerate(fan) if i not in proper]


def pre_table_faces_closure(d: SphericalDatum, cones) -> ColoredFan:
    """``faces_closure`` as it was before the face table: every colored
    face of every given cone, sorted by dimension, into ``ColoredFan``."""
    faces = chain.from_iterable(pre_table_colored_faces(d, cc) for cc in cones)
    fan = ColoredFan(sorted(faces, key=lambda cc: cc.cone.dim))
    failure = next(meeting_pairs([cc.cone for cc in fan], d.valuation_cone), None)
    if failure is not None:
        raise FanAxiomError("CF2 violation", witness=failure[2])
    return fan


class KeyOnlyColoredFan:
    """``ColoredFan`` as it was before the generator-set lookup: every
    colored cone's key computed, each key kept at its first occurrence.
    The reference the lookup must match member for member; ``serialize_fan``
    reads its ``cones`` like a fan's."""

    def __init__(self, cones):
        members: dict[tuple, ColoredCone] = {}
        for cc in cones:
            members.setdefault(cc.key, cc)
        if not members:
            raise ValueError("a colored fan must be nonempty")
        if len({cc.cone.ambient_rank for cc in members.values()}) != 1:
            raise RankMismatchError("fan members have mixed ambient ranks")
        self.cones = tuple(members.values())

    def __len__(self):
        return len(self.cones)

    def __iter__(self):
        return iter(self.cones)


def intersect_cc1(d: SphericalDatum, cc: ColoredCone) -> tuple[bool, str]:
    """CC1 and its detail as ``validate_colored_cone`` decided them before
    the containment shortcut: always through ``cone ∩ V`` and a
    regenerated cone compared by key."""
    c = cc.cone
    for f in sorted(cc.palette):
        if not c.contains(d.rho[f]):
            return False, f"rho({f}) lies outside the cone"
    rho_imgs = [d.rho[f] for f in sorted(cc.palette)]
    regen = Cone(d.rank, rho_imgs + list(c.intersect(d.valuation_cone).generators))
    if regen.key != c.key:
        return False, "cone is not generated by rho(palette) and cone ∩ V"
    return True, ""


def key_only_cf1_missing(d: SphericalDatum, fan) -> list[tuple[int, ColoredCone]]:
    """CF1 as it was: every colored face's key looked up among the members'."""
    keys = {cc.key for cc in fan}
    return [(i, face) for i, cc in enumerate(fan)
            for face in colored_faces(d, cc) if face.key not in keys]


def key_only_validate_colored_fan(d: SphericalDatum, fan) -> ColoredFanReport:
    """``validate_colored_fan`` on the key-only path: ``intersect_cc1`` and
    ``key_only_cf1_missing``; CC2 and CF2 as in ``sphfan.spherical``."""
    reports = []
    for cc in fan:
        cc1, detail = intersect_cc1(d, cc)
        witness = relint_meets_cone(cc.cone, d.valuation_cone)
        reports.append(ColoredConeReport(cc1=cc1, cc2=witness is not None,
                                         cc2_witness=witness, cc1_detail=detail))
    missing = key_only_cf1_missing(d, fan)
    failures = list(meeting_pairs([cc.cone for cc in fan], d.valuation_cone))
    return ColoredFanReport(cone_reports=tuple(reports), cf1=not missing,
                            cf1_missing=tuple(missing), cf2=not failures,
                            cf2_failures=tuple(failures))


def _key_only_closed_fan(d: SphericalDatum, face_lists) -> KeyOnlyColoredFan:
    fan = KeyOnlyColoredFan(sorted(chain.from_iterable(face_lists),
                                   key=lambda cc: cc.cone.dim))
    failure = next(meeting_pairs([cc.cone for cc in fan], d.valuation_cone), None)
    if failure is not None:
        raise FanAxiomError("CF2 violation", witness=failure[2])
    return fan


def key_only_faces_closure(d: SphericalDatum, cones) -> KeyOnlyColoredFan:
    """``faces_closure`` with a key for every colored face."""
    return _key_only_closed_fan(d, [colored_faces(d, cc) for cc in cones])


def key_only_orbit(a: GaloisAction, cc: ColoredCone) -> list[ColoredCone]:
    """``orbit`` as it was: every image's key computed."""
    out: dict[tuple, ColoredCone] = {}
    for e in a.elements:
        image = apply_element(a, e, cc)
        out.setdefault(image.key, image)
    return list(out.values())


def key_only_invariant_closure(a: GaloisAction, seeds) -> KeyOnlyColoredFan:
    """The ``invariant_closure`` worklist as it was: every popped colored
    cone's key computed, and the key-only fan and orbits."""
    faces: dict[tuple, list[ColoredCone]] = {}
    queue = deque(seeds)
    while queue:
        cc = queue.popleft()
        if cc.key not in faces:
            faces[cc.key] = colored_faces(a.datum, cc)
            queue += key_only_orbit(a, cc) + faces[cc.key]
    return _key_only_closed_fan(a.datum, faces.values())


def closure_outcome(close, *args):
    """The closure's fan document, or the witness of its CF2 failure."""
    try:
        return serialize_fan(close(*args))
    except FanAxiomError as e:
        return ("CF2", e.witness)


def fresh_meet_system(cones: Sequence[Cone]) -> FeasibilitySystem:
    """A meet system with no certificate: the rows of ``_meet_rows`` for
    relint(cones[0]) [∩ relint(cones[1])] ∩ cones[-1], built now, in a new
    system on every call, so its first ``solve()`` runs the simplex."""
    rows, rhs = _meet_rows(cones)
    return FeasibilitySystem(rows, rhs, sum(len(c._ints) for c in cones))


def fresh_pair_systems(cs: Sequence[Cone], v: Cone):
    """``cones._pair_systems`` with no index and no certificate: the
    ``fresh_meet_system`` of every pair i < j, in order."""
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            yield i, j, fresh_meet_system([cs[i], cs[j], v])


def generator_sum(c) -> Vec:
    """The sum of c's generators in Fraction arithmetic, the point of
    relint(c) with every multiplier 1; takes ``ReferenceCone`` or ``Cone``."""
    return tuple(sum((g[k] for g in c.generators), Fraction(0))
                 for k in range(c.ambient_rank))


def reference_holds(v, x) -> bool:
    """Whether x = sum(m_j h_j) with every m_j >= 0 over v's generators
    h_j, by the Fraction eliminator ``reference_feasible``: no facet, no
    double description and no code of ``Cone._face_facets``."""
    gens = v.generators
    return _holds_by_axis([tuple(h[k] for h in gens) for k in range(v.ambient_rank)],
                          x, len(gens))


def _holds_by_axis(rows: Sequence[Sequence], x, m: int) -> bool:
    """``reference_holds`` on V's m generators given by axis."""
    return reference_feasible(as_inequalities(rows, x, m), m)


def fresh_meet_witness(c: Cone, system: FeasibilitySystem):
    """``cones._meet_witness`` on a ``fresh_meet_system`` of [c, V]: the
    simplex decides, and the witness is by CC2's rule, decided by the
    references: the Fraction generator sum when the Fraction eliminator
    finds it in V, read off the system's columns after c's (V's
    generators negated, by axis), else the simplex's point."""
    sol = system.solve()
    if sol is None:
        return None
    x, k = generator_sum(c), len(c._ints)
    v_rows = [tuple(-y for y in row[k:]) for row in system.equalities]
    return x if _holds_by_axis(v_rows, x, system.nvars - k) else cones_module._witness(c, sol)


def without_kept_systems(fn, *args):
    """``fn(*args)`` with every meet system made by ``fresh_meet_system``,
    every CF2 pass by ``fresh_pair_systems`` and every CC2 witness by
    ``fresh_meet_witness``: the all-LP reference for the certificates
    and for the systems the face table keeps."""
    kept = cones_module._meet_system, cones_module._pair_systems, cones_module._meet_witness
    cones_module._meet_system = fresh_meet_system
    cones_module._pair_systems = fresh_pair_systems
    cones_module._meet_witness = fresh_meet_witness
    try:
        return fn(*args)
    finally:
        cones_module._meet_system, cones_module._pair_systems, cones_module._meet_witness = kept


def reference_index_certifies(cs: Sequence[Cone], v: Cone) -> list[bool]:
    """Whether ``cones._pair_systems`` should certify each pair i < j of
    cs, in order, with V's rows: the infeasible-row rule on the three-cone
    system (``presolve_certifies``), or some hyperplane of the index, a
    facet normal or span equation of a cone of cs from the Fraction
    ``reference_dual_description``, that has the two cones on different
    sides (``_side``), neither of them split."""
    n = v.ambient_rank
    planes = []
    for c in cs:
        eqs, facets = reference_dual_description(c.generators, n)
        planes += eqs + facets
    sides = [[_side(c, w) for w in planes] for c in cs]
    out = []
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            rows = reference_meet_system([cs[i]._ints, cs[j]._ints, v._ints], n, 0)
            out.append(presolve_certifies(rows) or any(
                a is not None and b is not None and a != b for a, b in zip(sides[i], sides[j])))
    return out


def _side(c: Cone, w: Sequence[Fraction]):
    """1, -1 or 0 when the relative interior of c lies in w > 0, w < 0 or
    w = 0, None when c has generators on both sides of w."""
    signs = {(d > 0) - (d < 0) for d in (dot(w, g) for g in c.generators)}
    if {1, -1} <= signs:
        return None
    return max(signs, key=abs, default=0)


def cube_face_fan(n: int, rng: random.Random | None = None) -> tuple[SphericalDatum, ColoredFan]:
    """(datum, fan): the complete face fan of the n-cube [-1, 1]^n with
    V = Q^n and no colors.  Its 3^n members are {0} and the cones over the
    proper faces, one per sign vector s != 0 in {0, 1, -1}^n, generated by
    the vertices that agree with s where s is nonzero, by dimension.  Each
    member lists its vertices in one global order, so a face of a member
    lists them as that face's member does.  With ``rng``, every vector is
    moved by a random signed permutation of the coordinates."""
    perm = list(range(n))
    signs = [1] * n
    if rng is not None:
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]

    def move(x):
        return tuple(signs[i] * x[perm[i]] for i in range(n))

    vertices = list(product((1, -1), repeat=n))
    faces = sorted((s for s in product((0, 1, -1), repeat=n) if any(s)),
                   key=lambda s: s.count(0))
    members = [ColoredCone(Cone(n))] + [
        ColoredCone(Cone(n, [move(x) for x in vertices
                             if all(a == 0 or a == b for a, b in zip(s, x))]))
        for s in faces]
    axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    space = Cone(n, axes + [tuple(-x for x in e) for e in axes])
    return SphericalDatum(n, space), ColoredFan(members)


def random_valid_colored_cone(rng: random.Random, d: SphericalDatum,
                              attempts: int = 50) -> ColoredCone | None:
    """A colored cone passing CC1/CC2, built from rho images and V points."""
    v = d.valuation_cone
    for _ in range(attempts):
        palette = [c for c in d.colors if rng.random() < 0.4]
        k = rng.randint(0, 3)
        vpoints = []
        for _ in range(k):
            if v.generators:
                coeffs = [Fraction(rng.randint(0, 2)) for _ in v.generators]
                point = tuple(
                    sum((a * g[i] for a, g in zip(coeffs, v.generators)), Fraction(0))
                    for i in range(d.rank))
                vpoints.append(point)
        cone = Cone(d.rank, [d.rho[c] for c in palette] + vpoints)
        cc = ColoredCone(cone, palette)
        if validate_colored_cone(d, cc).ok:
            return cc
    return None


def seed_cone_ints(ambient_rank: int, generators) -> tuple[tuple[int, ...], ...]:
    """The generators ``Cone(ambient_rank, generators)`` kept before its
    constructor deduped with one dict: each read to ints (``TypeError`` on
    a bool or float), then checked for length (``RankMismatchError``),
    made primitive, and kept unless zero or seen before, by a set."""
    gens, seen = [], set()
    for g in generators:
        v = tuple(g)
        v = v if all_ints(v) else integer_rows([[rat(e) for e in v]])[0]
        if len(v) != ambient_rank:
            raise RankMismatchError(f"expected a vector of length {ambient_rank}, got {len(v)}")
        p = primitive_ints(v)
        if any(p) and p not in seen:
            seen.add(p)
            gens.append(p)
    return tuple(gens)


def cyclic_garbage(call, *args) -> Counter:
    """The objects ``call(*args)`` leaves that only the cyclic collector
    frees, counted by type ('module.qualname'): the collector is disabled
    during the call, then run once, keeping what it finds to be counted.
    A call whose inputs are built inside it, and dropped when it returns,
    leaves none when nothing it made holds a reference cycle."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call(*args)
        gc.collect()
        return Counter(f"{type(o).__module__}.{type(o).__qualname__}" for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
