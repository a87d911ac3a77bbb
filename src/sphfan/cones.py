"""Finitely generated rational polyhedral cones.

A cone is stored by its generators; the dual (facet) description is
computed lazily by an incremental double description pass and cached.
Relative-interior and intersection queries reduce to exact LP
feasibility (see :mod:`sphfan.lp`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .lp import FeasibilitySystem
from .rational import (Mat, Vec, dot, is_zero_vec, primitive, rat, vec_scale,
                       vec_sub, zero_vec)


class DimensionMismatch(ValueError):
    pass


def _check_dim(n: int, v: Sequence[Fraction]) -> None:
    if len(v) != n:
        raise DimensionMismatch(f"expected a vector of length {n}, got {len(v)}")


def _rref(rows: Sequence[Vec]) -> list[Vec]:
    """Reduced row echelon form basis of the row space."""
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


def _reduce_mod(v: Vec, rref_rows: Sequence[Vec]) -> Vec:
    """Canonical representative of v modulo the span of RREF rows."""
    x = list(v)
    for row in rref_rows:
        p = next(i for i, e in enumerate(row) if e != 0)
        if x[p] != 0:
            c = x[p] / row[p]
            x = [a - c * b for a, b in zip(x, row)]
    return tuple(x)


def dual_description(ineqs: Sequence[Vec], n: int) -> tuple[list[Vec], list[Vec]]:
    """Generators of {x in Q^n : a . x >= 0 for all a in ineqs}.

    Returns (lineality_basis, extreme_rays).  Incremental double
    description; extremeness and adjacency are decided by exact rank
    tests against the inequalities processed so far, which keeps the ray
    list minimal even for non-pointed intermediate cones.

    The output is canonical: the lineality basis is in reduced row
    echelon form, and each extreme ray is primitive and reduced modulo
    it, the unique representative of its ray.  So two inequality lists
    describe the same cone iff the bases are equal and the rays are
    equal as sets.
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
        lin_rref = _rref(lin)
        rays = [primitive(_reduce_mod(r, lin_rref)) for r in rays]
        rays = _extreme_filter(rays, processed, n, len(lin))
    return lin_rref, rays


def _extreme_filter(rays: list[Vec], processed: list[Vec], n: int,
                    lin_dim: int) -> list[Vec]:
    """Keep only rays whose tight constraint set has rank n - lin_dim - 1."""
    target = n - lin_dim - 1
    out = []
    seen = set()
    for r in rays:
        p = primitive(r)
        if is_zero_vec(p) or p in seen:
            continue
        tight = [a for a in processed if dot(a, r) == 0]
        if Mat(tight).rank() == target if tight else target == 0:
            seen.add(p)
            out.append(r)
    return out


class Cone:
    """Rational polyhedral cone, cone(generators) in Q^ambient_rank."""

    __slots__ = ("ambient_rank", "generators", "__dict__")

    def __init__(self, ambient_rank: int, generators: Iterable[Iterable] = ()):
        gens = []
        seen = set()
        for g in generators:
            v = tuple(rat(e) for e in g)
            _check_dim(ambient_rank, v)
            p = primitive(v)
            if is_zero_vec(p) or p in seen:
                continue
            seen.add(p)
            gens.append(p)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "generators", tuple(gens))

    def __setattr__(self, name, value):
        raise AttributeError("Cone is immutable")

    def __repr__(self):
        return f"Cone({self.ambient_rank}, {[tuple(map(str, g)) for g in self.generators]})"

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @cached_property
    def _dual(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        """(span_equations, facets): lineality and extreme rays of the dual cone."""
        lin, rays = dual_description(self.generators, self.ambient_rank)
        return tuple(lin), tuple(rays)

    @property
    def facets(self) -> tuple[Vec, ...]:
        """Inward facet normals (extreme rays of the dual cone)."""
        return self._dual[1]

    @property
    def span_equations(self) -> tuple[Vec, ...]:
        """Normals w with span(cone) = {x : w . x = 0 for all w}, in RREF."""
        return self._dual[0]

    @cached_property
    def key(self) -> tuple:
        """Hashable canonical form, equal iff the cones are equal: the dual
        description is canonical (see ``dual_description``)."""
        return self.ambient_rank, self.span_equations, tuple(sorted(self.facets))

    @cached_property
    def lineality_basis(self) -> tuple[Vec, ...]:
        """Basis of the largest linear subspace inside the cone."""
        eqs, facets = self._dual
        rows = list(eqs) + list(facets)
        if not rows:
            return tuple(Mat.identity(self.ambient_rank).rows)
        return tuple(Mat(rows).solve_homogeneous())

    @cached_property
    def dim(self) -> int:
        if self.is_zero:
            return 0
        return Mat(self.generators).rank()

    def contains(self, x: Sequence[Fraction]) -> bool:
        """Membership via facet inequalities plus span membership."""
        _check_dim(self.ambient_rank, x)
        eqs, facets = self._dual
        return (all(dot(w, x) == 0 for w in eqs)
                and all(dot(w, x) >= 0 for w in facets))

    def is_strictly_convex(self) -> bool:
        return not self.lineality_basis

    def relint_contains(self, x: Sequence[Fraction]) -> bool:
        """True iff x is a strictly positive combination of the generators.

        Decided as feasibility of sum(l_i g_i) = t x with l_i >= 1,
        t >= 1 (the scaling variable absorbs strict positivity).
        """
        _check_dim(self.ambient_rank, x)
        if self.is_zero:
            return is_zero_vec(x)
        gens = self.generators
        rows = []
        for k in range(self.ambient_rank):
            rows.append(tuple([g[k].numerator for g in gens] + [-rat(x[k])]))
        system = FeasibilitySystem(
            equalities=tuple(rows),
            rhs=(0,) * self.ambient_rank,
            lower_bounds=tuple([Fraction(1)] * len(gens) + [Fraction(1)]),
        )
        return system.solve() is not None

    def intersect(self, other: "Cone") -> "Cone":
        """Intersection, via the union of the two facet descriptions."""
        if self.ambient_rank != other.ambient_rank:
            raise DimensionMismatch("intersect: ambient ranks differ")
        n = self.ambient_rank
        ineqs: list[Vec] = []
        for cone in (self, other):
            eqs, facets = cone._dual
            ineqs.extend(facets)
            for w in eqs:
                ineqs.append(w)
                ineqs.append(vec_scale(Fraction(-1), w))
        lin, rays = dual_description(ineqs, n)
        gens = list(rays)
        for l in lin:
            gens.append(l)
            gens.append(vec_scale(Fraction(-1), l))
        return Cone(n, gens)

    def faces(self) -> list["Cone"]:
        """All faces, self and the minimal face included, each once.

        A face is generated by the generators it contains, and the
        generators a face contains are those tight on the facets
        containing it.  So the faces correspond one-to-one to the
        intersections of facet tight-sets (the empty intersection being
        all generators), and the list needs no dedupe.
        """
        gens = self.generators
        facets = self.facets
        tight_sets = [frozenset(i for i, g in enumerate(gens) if dot(w, g) == 0)
                      for w in facets]
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
        out = [Cone(self.ambient_rank, [gens[i] for i in s])
               for s in sorted(closed, key=sorted)]
        out.sort(key=lambda c: c.dim)
        return out


def cones_equal(a: Cone, b: Cone) -> bool:
    return a.key == b.key


def relint_meets_cone(c: Cone, v: Cone) -> Optional[Vec]:
    """Witness x ∈ relint(c) ∩ v, or None."""
    return relints_meet_in(c, None, v)


def relints_meet_in(c1: Cone, c2: Optional[Cone], v: Cone) -> Optional[Vec]:
    """Witness x ∈ relint(c1) [∩ relint(c2)] ∩ v, or None.

    Feasibility of sum(l_i g_i) = sum(m_j h_j) = sum(n_k k_k) with
    l, m >= 1 and n >= 0; the witness is scale-free, so no extra
    normalization variable is needed.
    """
    cones = [c1] + ([c2] if c2 is not None else []) + [v]
    n = c1.ambient_rank
    for c in cones:
        if c.ambient_rank != n:
            raise DimensionMismatch("relint test: ambient ranks differ")
    blocks = [c.generators for c in cones]
    bounds: list[Optional[Fraction]] = []
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

    # sum over block 0 equals sum over each later block, coordinatewise;
    # generators are primitive integer vectors, so the rows are ints
    rows = []
    for other in range(1, len(blocks)):
        for k in range(n):
            row = [0] * nvars
            for i, g in enumerate(blocks[0]):
                row[offsets[0] + i] = g[k].numerator
            for j, h in enumerate(blocks[other]):
                row[offsets[other] + j] = -h[k].numerator
            rows.append(tuple(row))
    system = FeasibilitySystem(
        equalities=tuple(rows),
        rhs=(0,) * len(rows),
        lower_bounds=tuple(bounds),
    )
    sol = system.solve()
    if sol is None:
        return None
    witness = zero_vec(n)
    for i, g in enumerate(blocks[0]):
        witness = tuple(w + sol[offsets[0] + i] * gk for w, gk in zip(witness, g))
    return witness
