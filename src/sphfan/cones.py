"""Finitely generated rational polyhedral cones.

A cone stores its generators as primitive int vectors; the dual (facet)
description is computed lazily on ints by an incremental double
description pass and cached, and the canonical key is read off it.
Point questions (x in C, x in relint C, the face holding x) and the
dimension are read off it with no LP.  Only whether relative interiors
meet inside V needs one: ``_meet_system`` makes it, int rows A and an
int rhs b with y >= 0 (see :mod:`sphfan.lp`), built only when read.  It
settles the infeasible-row presolve from two sign masks cached per
cone, so an LP the presolve ends builds no row.  ``Fraction`` appears
only at the boundary: the constructor accepts rationals, and
``generators``, ``facets``, ``span_equations`` and the witnesses of
``relints_meet_in`` are Fraction views.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from operator import mul, neg
from typing import Iterable, Optional, Sequence

from .lp import FeasibilitySystem
from .rational import (Mat, Vec, _idot, all_ints, integer_rows, primitive_ints,
                       rat, vec)


class DimensionMismatch(ValueError):
    pass


def _check_dim(n: int, v: Sequence[Fraction]) -> None:
    if len(v) != n:
        raise DimensionMismatch(f"expected a vector of length {n}, got {len(v)}")


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
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
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


def _divide_by_pivots(basis: Sequence[Sequence[int]]) -> list[Vec]:
    """The reduced row echelon form of ``_echelon`` rows, as Fractions."""
    return [tuple(Fraction(x, r[p]) for x in r) for r, p in zip(basis, _pivots(basis))]


def _reduce_ints(v: Sequence[int], basis: Sequence[Sequence[int]],
                 pivots: Sequence[int]) -> tuple[int, ...]:
    """The primitive representative of int v modulo the span of ``_echelon`` rows."""
    for row, p in zip(basis, pivots):
        if v[p] != 0:
            v = _combine(row[p], v, v[p], row)
    return primitive_ints(v)


def _dual_ints(ineqs: Sequence[Sequence[int]],
               n: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """``dual_description`` of int rows, in int form.

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


def dual_description(ineqs: Sequence[Vec], n: int) -> tuple[list[Vec], list[Vec]]:
    """Generators of {x in Q^n : a . x >= 0 for all a in ineqs}.

    Returns (lineality_basis, extreme_rays) as Fraction vectors; the
    work is done on int rows by ``_dual_ints``.  The output is
    canonical: the lineality basis is in reduced row echelon form, and
    each extreme ray is primitive and reduced modulo it, the unique
    representative of its ray.  So two inequality lists describe the
    same cone iff the bases are equal and the rays are equal as sets.
    """
    basis, rays = _dual_ints(integer_rows(ineqs), n)
    return _divide_by_pivots(basis), [tuple(Fraction(x) for x in r) for r in rays]


def _neg(v: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(neg, v))


class Cone:
    """Rational polyhedral cone, cone(generators) in Q^ambient_rank.

    The generators are kept as primitive int tuples in ``_ints``; the
    public ``generators`` is their Fraction view.
    """

    __slots__ = ("ambient_rank", "_ints", "__dict__")

    def __init__(self, ambient_rank: int, generators: Iterable[Iterable] = ()):
        gens = []
        seen = set()
        for g in generators:
            v = tuple(g)
            if not all_ints(v):
                (v,) = integer_rows([[rat(e) for e in v]])
            _check_dim(ambient_rank, v)
            p = primitive_ints(v)
            if not any(p) or p in seen:
                continue
            seen.add(p)
            gens.append(p)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "_ints", tuple(gens))

    @classmethod
    def _of_ints(cls, ambient_rank: int, ints: Iterable[tuple[int, ...]],
                 dim: Optional[int] = None) -> "Cone":
        """The cone on generators already primitive, nonzero and distinct,
        with ``dim`` preset when the caller knows it."""
        cone = object.__new__(cls)
        object.__setattr__(cone, "ambient_rank", ambient_rank)
        object.__setattr__(cone, "_ints", tuple(ints))
        if dim is not None:
            cone.__dict__["dim"] = dim
        return cone

    def __setattr__(self, name, value):
        raise AttributeError("Cone is immutable")

    def __repr__(self):
        return f"Cone({self.ambient_rank}, {[tuple(map(str, g)) for g in self._ints]})"

    @cached_property
    def generators(self) -> tuple[Vec, ...]:
        """Primitive integer generators as Fraction vectors, in input order."""
        return tuple(tuple(Fraction(x) for x in g) for g in self._ints)

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @cached_property
    def _idual(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(span_equations, facets) as int rows: the ``_echelon`` basis of
        the dual cone's lineality and its reduced primitive extreme rays."""
        lin, rays = _dual_ints(self._ints, self.ambient_rank)
        return tuple(lin), tuple(rays)

    @cached_property
    def facets(self) -> tuple[Vec, ...]:
        """Inward facet normals (extreme rays of the dual cone)."""
        return tuple(tuple(Fraction(x) for x in w) for w in self._idual[1])

    @cached_property
    def span_equations(self) -> tuple[Vec, ...]:
        """Normals w with span(cone) = {x : w . x = 0 for all w}, in RREF."""
        return tuple(_divide_by_pivots(self._idual[0]))

    @cached_property
    def _gens_key(self) -> tuple:
        """(ambient_rank, generator set): equal only for equal cones, with
        no double description.  Generators are kept primitive, nonzero and
        distinct, so two cones with the same set are the same cone; equal
        cones given by different sets (redundant generators, lineality)
        are told apart here and settled by ``key``.  The rank keeps the
        zero cones of different ranks apart."""
        return self.ambient_rank, frozenset(self._ints)

    @cached_property
    def key(self) -> tuple:
        """Hashable canonical form, equal iff the cones are equal.

        The dual description is canonical (see ``dual_description``), and
        primitive rows with positive pivots match RREF rows one to one,
        so the int form is canonical too.
        """
        eqs, facets = self._idual
        return self.ambient_rank, eqs, tuple(sorted(facets))

    @cached_property
    def lineality_basis(self) -> tuple[Vec, ...]:
        """Basis of the largest linear subspace inside the cone."""
        eqs, facets = self._idual
        rows = eqs + facets
        if not rows:
            return tuple(Mat.identity(self.ambient_rank).rows)
        return tuple(Mat(rows).solve_homogeneous())

    @cached_property
    def dim(self) -> int:
        """n minus the number of span equations, read off the dual."""
        return self.ambient_rank - len(self._idual[0])

    def _face_facets(self, x: Sequence[Fraction]) -> Optional[list[int]]:
        """The indices of the facets vanishing at x, which cut out the
        smallest face holding x, or None if x lies outside.  x is scaled
        once to ints by the lcm of its denominators, so the signs of int
        dot products decide."""
        _check_dim(self.ambient_rank, x)
        eqs, facets = self._idual
        (xi,) = integer_rows([x])
        if any(_idot(w, xi) for w in eqs):
            return None
        tight = []
        for i, w in enumerate(facets):
            s = _idot(w, xi)
            if s < 0:
                return None
            if s == 0:
                tight.append(i)
        return tight

    def contains(self, x: Sequence[Fraction]) -> bool:
        """Membership: x on every span equation and on no facet's negative side."""
        return self._face_facets(x) is not None

    def _carrier(self, x: Sequence[Fraction]) -> Optional[frozenset[tuple[int, ...]]]:
        """The generators of the smallest face holding x, or None if x lies
        outside: those tight on every facet that vanishes at x."""
        tight = self._face_facets(x)
        if tight is None:
            return None
        return frozenset(g for i, g in enumerate(self._ints)
                         if all(i in self._tight_sets[f] for f in tight))

    def is_strictly_convex(self) -> bool:
        return not self.lineality_basis

    def relint_contains(self, x: Sequence) -> bool:
        """True iff x is a strictly positive combination of the generators,
        i.e. its smallest face is the cone itself: no facet vanishes at x.
        Entries may be ints, Fractions or 'p/q' strings."""
        return self._face_facets(vec(x)) == []

    def relint_meets(self, v: "Cone") -> bool:
        """Whether relint(self) meets v: ``relint_meets_cone`` without
        assembling the witness."""
        return _meet_system([self, v]).solve() is not None

    def intersect(self, other: "Cone") -> "Cone":
        """Intersection, via the union of the two facet descriptions.

        Its generators are the extreme rays of the double description
        and ±l for each lineality basis row l: primitive, nonzero and
        distinct, since the rays are zero in every pivot column.
        """
        if self.ambient_rank != other.ambient_rank:
            raise DimensionMismatch("intersect: ambient ranks differ")
        ineqs: list[tuple[int, ...]] = []
        for cone in (self, other):
            eqs, facets = cone._idual
            ineqs.extend(facets)
            for w in eqs:
                ineqs.append(w)
                ineqs.append(_neg(w))
        lin, rays = _dual_ints(ineqs, self.ambient_rank)
        gens = list(rays)
        for l in lin:
            gens.append(l)
            gens.append(_neg(l))
        return Cone._of_ints(self.ambient_rank, gens)

    def image(self, m: Mat) -> "Cone":
        """The cone generated by the images m·g of the generators.

        m's int grid maps each generator to den·m·g, a positive multiple;
        the constructor then normalises, since m may be singular or not
        yet validated.
        """
        if self._ints and m.ncols != self.ambient_rank:
            raise ValueError(f"dimension mismatch: {m.ncols} cols vs {self.ambient_rank}")
        return Cone(m.nrows, [tuple(_idot(row, g) for row in m.ints) for g in self._ints])

    @cached_property
    def _cols(self) -> tuple[tuple[int, ...], ...]:
        """The generators by axis, for every meet system the cone is in.
        Their entries are checked here, once per cone, so only ints reach
        the simplex's floor divisions."""
        if not all_ints(chain.from_iterable(self._ints)):
            raise TypeError("cone generators must be ints")
        return tuple(zip(*self._ints)) if self._ints else ((),) * self.ambient_rank

    @cached_property
    def _signs(self) -> tuple[int, int]:
        """Two masks over the axes: bit k of the first is set when some
        generator is > 0 on axis k, of the second when some is < 0."""
        pos = neg = 0
        for k, col in enumerate(self._cols):
            if col:
                if max(col) > 0:
                    pos |= 1 << k
                if min(col) < 0:
                    neg |= 1 << k
        return pos, neg

    @cached_property
    def _col_sums(self) -> tuple[int, ...]:
        return tuple(map(sum, self._cols))

    @cached_property
    def _neg_cols(self) -> tuple[tuple[int, ...], ...]:
        """``_cols`` negated: only the rows of a meet system read them, for
        a cone after the first, so a face tested by ``relint_meets`` and a
        cone whose systems the presolve ends never build them."""
        return tuple(map(_neg, self._cols))

    @cached_property
    def _tight_sets(self) -> tuple[frozenset[int], ...]:
        """For each facet, the indices of the generators it vanishes on."""
        gens = self._ints
        return tuple(frozenset(i for i, g in enumerate(gens) if _idot(w, g) == 0)
                     for w in self._idual[1])

    def faces(self) -> list["Cone"]:
        """All faces, self and the minimal face included, each once, by
        dimension and then by sorted generator indices.

        A face is generated by the generators it contains, and the
        generators a face contains are those tight on the facets
        containing it.  So the faces correspond one-to-one to the
        intersections of facet tight-sets (the empty intersection being
        all generators), and the list needs no dedupe.

        The dimensions come off the face lattice, which is graded
        (Ziegler, Lectures on Polytopes, 2.2), with one rank, self's.
        Each cover G ⋗ F is F = G ∩ t for some facet t of self, and a
        face strictly inside another has a smaller dimension, so
        dim(u) = min(dim(s) - 1) over the pairs u = s & t != s.  The
        closure records each such s under u, and the sets are read in
        decreasing size, so every s has its dimension before it is used.
        Each face lists its generators in the iteration order of the
        first intersection that found it.
        """
        gens = self._ints
        tight_sets = self._tight_sets
        all_idx = frozenset(range(len(gens)))
        above = {all_idx: []}
        queue = [all_idx]
        while queue:
            s = queue.pop()
            for t in tight_sets:
                u = s & t
                if u == s:
                    continue
                if u in above:
                    above[u].append(s)
                else:
                    above[u] = [s]
                    queue.append(u)
        dims = {}
        for s in sorted(above, key=len, reverse=True):
            dims[s] = min(dims[a] for a in above[s]) - 1 if above[s] else self.dim
        return [Cone._of_ints(self.ambient_rank, [gens[i] for i in s], dims[s])
                for s in sorted(above, key=lambda s: (dims[s], sorted(s)))]


def cones_equal(a: Cone, b: Cone) -> bool:
    """Equality, settled by the generator set first and otherwise by the
    canonical key, so a cone repeating a known generator set runs no
    double description."""
    return a._gens_key == b._gens_key or a.key == b.key


def relint_meets_cone(c: Cone, v: Cone) -> Optional[Vec]:
    """Witness x ∈ relint(c) ∩ v, or None."""
    return relints_meet_in(c, None, v)


def _meet_system(cones: Sequence[Cone]) -> FeasibilitySystem:
    """relint(cones[0]) [∩ relint(cones[1])] ∩ cones[-1] as an LP, the only
    one in this module: whether relative interiors meet inside V.

    sum(l_i g_i) = sum(m_j h_j) = sum(n_k k_k), one multiplier per
    generator; the last cone's are >= 0, all others >= 1.  Row k is the
    first cone's k-th coordinates, then minus the other's.  The bounds
    are shifted out here (l = y + 1, m = y + 1, n = y), so every variable
    is >= 0 and row k's rhs is bound * (other's k-th sum) - (first's k-th
    sum).  The rows are built only when read.

    The infeasible-row rule of LP presolve (Andersen & Andersen 1995) is
    settled here from the cones' ``_signs``, with no row built.  Row k
    has a nonzero rhs and no coefficient of its sign, so no y >= 0 meets
    it, exactly when
    - first has no entry of one sign on axis k, and other none of the
      opposite sign, and
    - first is nonzero on axis k, or other's multipliers are bounded by 1
      and other is:
    the row's coefficients then share one sign or are 0, and its rhs is a
    sum of terms of the opposite sign, one of them nonzero.
    """
    first, others = cones[0], cones[1:]
    pos, neg = first._signs
    nvars = len(first._ints)
    one_signed = 0
    for i, other in enumerate(others):
        if other.ambient_rank != first.ambient_rank:
            raise DimensionMismatch("relint test: ambient ranks differ")
        nvars += len(other._ints)
        opos, oneg = other._signs
        nonzero = pos | neg | opos | oneg if i < len(others) - 1 else pos | neg
        one_signed |= nonzero & ~((pos | oneg) & (neg | opos))
    return FeasibilitySystem.deferred(nvars, partial(_meet_rows, first, others),
                                      one_signed != 0)


def _meet_rows(first: Cone, others: Sequence[Cone]) -> tuple[tuple, tuple]:
    """The rows and rhs of ``_meet_system``."""
    widths = [len(c._ints) for c in others]
    rows, rhs = [], []
    for i, other in enumerate(others):
        bound = 0 if i == len(others) - 1 else 1
        before = (0,) * sum(widths[:i])
        after = (0,) * sum(widths[i + 1:])
        rows += [col + before + minus + after
                 for col, minus in zip(first._cols, other._neg_cols)]
        rhs += [bound * s - s0 for s, s0 in zip(other._col_sums, first._col_sums)]
    return tuple(rows), tuple(rhs)


def relints_meet_in(c1: Cone, c2: Optional[Cone], v: Cone) -> Optional[Vec]:
    """Witness x ∈ relint(c1) [∩ relint(c2)] ∩ v, or None.

    Feasibility of ``_meet_system``, the only question here that needs
    an LP; the witness is scale-free, so no extra normalization variable
    is needed.  The simplex's point is int numerators y over one d > 0,
    and ``_meet_system`` shifted c1's multipliers by 1, so l = (y + d) / d;
    this is the one place that makes a Fraction of it.
    """
    sol = _meet_system([c1] + ([c2] if c2 is not None else []) + [v]).solve()
    if sol is None:
        return None
    y, d = sol
    nums = [x + d for x in y[:len(c1._ints)]]
    return tuple(Fraction(sum(map(mul, nums, col)), d) for col in c1._cols)
