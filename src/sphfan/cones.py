"""Finitely generated rational polyhedral cones.

A cone stores its generators as primitive int vectors; the dual (facet)
description is computed lazily on ints by an incremental double
description pass and cached, and the canonical key is read off it.  The
same pass gives each facet's tight set as an int bitset over the
generators, and the face lattice is closed on those bitsets.
Point questions (x in C, x in relint C, the face holding x) and the
dimension are read off it with no LP.  Only whether relative interiors
meet inside V needs one: int rows A and an int rhs b with y >= 0 (see
:mod:`sphfan.lp`), built only when read, by one builder per shape:
- ``_meet_system``, relint(C) ∩ V for CC2 and the face tests, kept on V
  one per distinct C (its generators in order) and solved once.  A new
  face test is settled "yes" when V holds C's generator sum, and a new
  system otherwise by the infeasible-row rule on two sign masks cached
  per cone.
- ``_pair_systems``, relint(C1) ∩ relint(C2) ∩ V for each pair of a CF2
  pass (``meeting_pairs``), settled "no" when one hyperplane index, the
  sign masks widened from the axes to the cones' facet hyperplanes,
  shows the relative interiors disjoint.
A settled system builds no row and runs no simplex.

A cone's generators are ints by construction: the constructor is the one
gate for outside values, and ``faces`` and ``intersect`` make cones only
from int rows the library computed.  So nothing downstream checks them
again.  The point questions read an outside point by the constructor's
rule, ``_int_vector``.  ``Fraction`` appears only at the boundary: the
constructor and the point questions accept rationals, and
``generators``, ``facets``, ``span_equations`` and the witnesses of
``relints_meet_in`` are Fraction views.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from operator import mul, neg
from typing import Iterable, Iterator, Optional, Sequence

from .lp import FeasibilitySystem
from .rational import (Frozen, Mat, RankMismatchError, Vec, _combine, _echelon, _idot,
                       _pivots, _reduce_ints, all_ints, bareiss, integer_rows,
                       primitive_ints, rat)


def _check_dim(n: int, v: Sequence[Fraction]) -> None:
    if len(v) != n:
        raise RankMismatchError(f"expected a vector of length {n}, got {len(v)}")


def _int_vector(v: Iterable) -> Sequence[int]:
    """v read by the one rule for outside vectors: a vector of plain ints
    is taken as it is; any other is read entry by entry by ``rat``, which
    takes Fractions and 'p/q' strings and raises ``TypeError`` on bools,
    floats and other types, and is scaled by the lcm of its denominators,
    so only its direction is kept."""
    v = tuple(v)
    return v if all_ints(v) else integer_rows([[rat(e) for e in v]])[0]


def _divide_by_pivots(basis: Sequence[Sequence[int]]) -> list[Vec]:
    """The reduced row echelon form of ``_echelon`` rows, as Fractions."""
    return [tuple(Fraction(x, r[p]) for x in r) for r, p in zip(basis, _pivots(basis))]


def _dual_ints(ineqs: Sequence[Sequence[int]], n: int) -> tuple[
        list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """``dual_description`` of int rows, in int form.

    Returns the ``_echelon`` basis of the lineality space, the extreme
    rays, each primitive and reduced modulo that basis, and each ray's
    tight set Z(r) as a bitset: bit k is set iff ineqs[k] vanishes on r.
    So when the rows are a cone's generators, Z of each facet is the set
    of generators it vanishes on.  Incremental double description on
    primitive integer vectors (Fukuda & Prodon 1996): after each
    inequality, ``lin`` spans the lineality space L and the rays are the
    extreme rays modulo L, each once.  Every ray's Z is fixed when it is
    made: vectors of L are tight on all processed rows, and a new ray
    p*u + q*v (p, q > 0) is tight exactly where u and v both are.

    An inequality not vanishing on L turns one l0 in L into a ray and
    moves the other rays along l0 onto its hyperplane.  Otherwise each
    adjacent pair of rays on opposite sides gives a new ray on the
    hyperplane: u and v are adjacent iff no third ray r has
    Z(r) ⊇ Z(u) ∩ Z(v).  This is exact because the list is minimal: the
    rays whose sets contain Z(u) ∩ Z(v) are the extreme rays of the
    smallest face holding u and v, which is a 2-face iff there are no
    others.  So every step keeps the list minimal, with no filtering.

    A pair is scanned only if |Z(u) ∩ Z(v)| >= n - dim L - 2.  That set
    is the equality set of the smallest face F holding u and v, since
    u + v lies in its relative interior, and a face's span is cut out by
    its equality set, so dim F = n - rank of those rows.  Adjacent rays
    span a 2-face modulo L, dim F = dim L + 2, so the rows have rank
    n - dim L - 2, and there are at least that many.
    """
    lin = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    rays: list[tuple[tuple[int, ...], int]] = []

    for k, a in enumerate(ineqs):
        bit = 1 << k
        dots = [_idot(a, l) for l in lin]
        hit = next((i for i, s in enumerate(dots) if s != 0), None)
        if hit is not None:
            l0, s0 = lin[hit], dots[hit]
            if s0 < 0:
                l0, s0 = tuple(-x for x in l0), -s0
            lin = [_combine(s0, l, s, l0) if s != 0 else l
                   for i, (l, s) in enumerate(zip(lin, dots)) if i != hit]
            rays = [(_combine(s0, r, _idot(a, r), l0), z | bit) for r, z in rays]
            rays.append((l0, bit - 1))
            continue
        dots = [_idot(a, r) for r, _ in rays]
        pos = [i for i, s in enumerate(dots) if s > 0]
        neg = [i for i, s in enumerate(dots) if s < 0]
        need = n - len(lin) - 2
        new = []
        for i in pos:
            zi = rays[i][1]
            for j in neg:
                common = zi & rays[j][1]
                if common.bit_count() < need or any(
                        common & z == common for h, (_, z) in enumerate(rays) if h != i and h != j):
                    continue
                new.append((_combine(dots[i], rays[j][0], dots[j], rays[i][0]), common | bit))
        rays = ([rays[i] for i in pos]
                + [(r, z | bit) for (r, z), s in zip(rays, dots) if s == 0] + new)

    basis = _echelon(lin)
    pivots = _pivots(basis)
    return basis, [_reduce_ints(r, basis, pivots) for r, _ in rays], [z for _, z in rays]


def dual_description(ineqs: Sequence[Vec], n: int) -> tuple[list[Vec], list[Vec]]:
    """Generators of {x in Q^n : a . x >= 0 for all a in ineqs}.

    Returns (lineality basis, extreme rays) as Fraction vectors; the
    work is done on int rows by ``_dual_ints``.  The output is
    canonical: the lineality basis is in reduced row echelon form, and
    each extreme ray is primitive and reduced modulo it, the unique
    representative of its ray.  So two inequality lists describe the
    same cone iff the bases are equal and the rays are equal as sets.
    """
    basis, rays, _ = _dual_ints(integer_rows(ineqs), n)
    return _divide_by_pivots(basis), [tuple(Fraction(x) for x in r) for r in rays]


def _neg(v: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(neg, v))


class Cone(Frozen):
    """Rational polyhedral cone, cone(generators) in Q^ambient_rank.

    The generators are kept as primitive int tuples in ``_ints``; the
    public ``generators`` is their Fraction view.  Every cone holds only
    such tuples (see ``__init__`` and ``_of_ints``).
    """

    __slots__ = ("ambient_rank", "_ints", "__dict__")

    def __init__(self, ambient_rank: int, generators: Iterable[Iterable] = ()):
        """The one constructor that takes outside values, and so the one
        int gate.  Each generator is read by ``_int_vector``, scaled to a
        primitive int tuple, and zero and repeated generators are dropped."""
        gens = []
        seen = set()
        for g in generators:
            v = _int_vector(g)
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
        """The cone on ``ints``, with ``dim`` preset when the caller knows it.

        The contract: ``ints`` are already primitive, nonzero and distinct
        int tuples, and nothing checks them.  Both callers meet it by
        construction: ``faces`` takes subsets of a cone's ``_ints``, and
        ``intersect`` takes the output of ``_dual_ints``."""
        cone = object.__new__(cls)
        object.__setattr__(cone, "ambient_rank", ambient_rank)
        object.__setattr__(cone, "_ints", tuple(ints))
        if dim is not None:
            cone.__dict__["dim"] = dim
        return cone

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
    def _idual(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...],
                              tuple[int, ...]]:
        """(span_equations, facets, tight sets) in int form: the ``_echelon``
        basis of the dual cone's lineality, its reduced primitive extreme
        rays, and for each facet the bitset of the generators it vanishes
        on, all from one ``_dual_ints`` pass over the generators."""
        return tuple(map(tuple, _dual_ints(self._ints, self.ambient_rank)))

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
        eqs, facets, _ = self._idual
        return self.ambient_rank, eqs, tuple(sorted(facets))

    @cached_property
    def dim(self) -> int:
        """n minus the number of span equations, read off the dual."""
        return self.ambient_rank - len(self._idual[0])

    def _face_facets(self, x: Iterable) -> Optional[list[int]]:
        """The indices of the facets vanishing at x, which cut out the
        smallest face holding x, or None if x lies outside.  x is read by
        the constructor's rule, ``_int_vector``, so the signs of int dot
        products decide."""
        xi = _int_vector(x)
        _check_dim(self.ambient_rank, xi)
        eqs, facets, _ = self._idual
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

    def contains(self, x: Sequence) -> bool:
        """Membership: x on every span equation and on no facet's negative
        side.  Entries may be ints, Fractions or 'p/q' strings."""
        return self._face_facets(x) is not None

    def _carrier(self, x: Sequence) -> Optional[frozenset[tuple[int, ...]]]:
        """The generators of the smallest face holding x, or None if x lies
        outside: those tight on every facet that vanishes at x, the AND of
        their tight sets."""
        tight = self._face_facets(x)
        if tight is None:
            return None
        s = (1 << len(self._ints)) - 1
        for f in tight:
            s &= self._tight_sets[f]
        return frozenset(self._ints[i] for i in _bits(s))

    def is_strictly_convex(self) -> bool:
        """Pointed, holding no line: C is pointed iff its dual C∨ is
        full-dimensional, i.e. the dual's span equations and facets have
        rank n."""
        eqs, facets, _ = self._idual
        return len(bareiss(eqs + facets)[1]) == self.ambient_rank

    def relint_contains(self, x: Sequence) -> bool:
        """True iff x is a strictly positive combination of the generators,
        i.e. its smallest face is the cone itself: no facet vanishes at x.
        Entries may be ints, Fractions or 'p/q' strings."""
        return self._face_facets(x) == []

    def relint_meets(self, v: "Cone") -> bool:
        """Whether relint(self) meets v: ``relint_meets_cone`` without
        assembling the witness.  The system is kept on v and solved once,
        so asking again about the same generators runs no simplex.  This
        asker reads no point, so when v holds the generator sum the
        system is certified feasible and runs no simplex at all."""
        return _meet_system([self, v], point_free=True).solve() is not None

    def intersect(self, other: "Cone") -> "Cone":
        """Intersection, via the union of the two facet descriptions.

        Its generators are the extreme rays of the double description
        and ±l for each lineality basis row l: primitive, nonzero and
        distinct, since the rays are zero in every pivot column.
        """
        if self.ambient_rank != other.ambient_rank:
            raise RankMismatchError("intersect: ambient ranks differ")
        ineqs: list[tuple[int, ...]] = []
        for cone in (self, other):
            eqs, facets, _ = cone._idual
            ineqs.extend(facets)
            for w in eqs:
                ineqs.append(w)
                ineqs.append(_neg(w))
        lin, rays, _ = _dual_ints(ineqs, self.ambient_rank)
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
            raise RankMismatchError(f"dimension mismatch: {m.ncols} cols vs {self.ambient_rank}")
        return Cone(m.nrows, [tuple(_idot(row, g) for row in m.ints) for g in self._ints])

    @cached_property
    def _cols(self) -> tuple[tuple[int, ...], ...]:
        """The generators by axis, for every meet system the cone is in:
        ints, as every cone's generators are."""
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
    def _meets(self) -> dict[tuple[tuple[int, ...], ...], FeasibilitySystem]:
        """The meet systems relint(C) ∩ self of ``_meet_system``, by C's
        ``_ints`` in order: each is built and solved once, and lives as
        long as this cone."""
        return {}

    @cached_property
    def _col_sums(self) -> tuple[int, ...]:
        return tuple(map(sum, self._cols))

    @cached_property
    def _neg_cols(self) -> tuple[tuple[int, ...], ...]:
        """``_cols`` negated: only the rows of a meet system read them, for
        a cone after the first, so a face tested by ``relint_meets`` and a
        cone whose systems a certificate settles never build them."""
        return tuple(map(_neg, self._cols))

    @property
    def _tight_sets(self) -> tuple[int, ...]:
        """For each facet, the bitset of the generators it vanishes on: bit
        i is set iff the facet is tight on generator i.  The facets are the
        dual's extreme rays with the generators as inequalities, so these
        are read off ``_idual`` with no dot product."""
        return self._idual[2]

    def faces(self) -> list["Cone"]:
        """All faces, self and the minimal face included, each once, by
        dimension and then by generator indices, each face listing its
        generators in index order.

        A face is generated by the generators it contains, and the
        generators a face contains are those tight on the facets
        containing it.  So the faces correspond one-to-one to the
        intersections of facet tight sets (the empty intersection being
        all generators), and the list needs no dedupe.  The sets are
        bitsets over the generator indices.

        The dimensions come off the face lattice, which is graded
        (Ziegler, Lectures on Polytopes, 2.2), with one rank, self's.
        Each cover G ⋗ F is F = G ∩ t for some facet t of self, and a
        face strictly inside another has a smaller dimension, so
        dim(u) = min(dim(s) - 1) over the pairs u = s & t != s.  Such an s
        has more bits than u, so the sets are closed layer by layer, in
        decreasing popcount: when u's layer is reached every s above it
        has been met, and the running minimum is its dimension.  Each face
        is decoded once, visiting only its set bits, into the index list
        that is both its sort key and its generators.
        """
        gens = self._ints
        tight_sets = self._tight_sets
        top = (1 << len(gens)) - 1
        dims = {top: self.dim}
        layers: list[list[int]] = [[] for _ in range(len(gens))] + [[top]]
        for layer in reversed(layers):
            for s in layer:
                d = dims[s] - 1
                for t in tight_sets:
                    u = s & t
                    if u == s:
                        continue
                    if u in dims:
                        if d < dims[u]:
                            dims[u] = d
                    else:
                        dims[u] = d
                        layers[u.bit_count()].append(u)
        order = sorted((d, list(_bits(s))) for s, d in dims.items())
        return [Cone._of_ints(self.ambient_rank, [gens[i] for i in idx], d)
                for d, idx in order]


def _bits(s: int) -> Iterator[int]:
    """The indices of the set bits of s, in increasing order."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def cones_equal(a: Cone, b: Cone) -> bool:
    """Equality, settled by the generator set first and otherwise by the
    canonical key, so a cone repeating a known generator set runs no
    double description."""
    return a._gens_key == b._gens_key or a.key == b.key


def relint_meets_cone(c: Cone, v: Cone) -> Optional[Vec]:
    """Witness x ∈ relint(c) ∩ v, or None."""
    return relints_meet_in(c, None, v)


def _meet_system(cones: Sequence[Cone], point_free: bool = False) -> FeasibilitySystem:
    """relint(C) ∩ V as an LP, for cones = [C, V]: whether C's relative
    interior meets V.  It is kept on V (``V._meets``), one per distinct
    C, keyed by its generators in order, so the same rows, and with them
    the same pivots and witness, come back.  The lookup comes right after
    the rank check, and a hit reads no cone's masks.

    The rows are those of ``_meet_rows``, built only when read.  A
    system is certified before it is solved, in one of two ways.

    ``point_free`` says the asker reads no point, only the verdict, as
    the face test ``Cone.relint_meets`` does.  For such an asker a new
    system is first certified feasible by an interior point: with every
    multiplier of C 1, x = sum(g_i) lies in relint(C), so x in V means
    relint(C) meets V (for C = {0}, x = 0 lies in V).  The test reads V's
    int dual, and a certified system computes no sign mask.  It is kept
    like any other, but an asker that reads a point and finds it
    replaces it with a system the simplex solves, so every witness is the
    simplex's.

    Otherwise, the infeasible-row rule of LP presolve (Andersen &
    Andersen 1995) is settled from the cones' ``_signs``, with no row
    built.  Row k has a nonzero rhs and no coefficient of its sign, so no
    y >= 0 meets it, exactly when C is nonzero on axis k, and C has no
    entry of one sign there and V none of the opposite sign: relint(C)
    lies strictly on one side of x_k = 0 and V on the other.
    """
    first, v = cones
    if first.ambient_rank != v.ambient_rank:
        raise RankMismatchError("relint test: ambient ranks differ")
    system = v._meets.get(first._ints)
    if system is not None and (point_free or not system.interior_point):
        return system
    interior = point_free and v._face_facets(first._col_sums) is not None
    apart = 0
    if not interior:
        pos, neg = first._signs
        vpos, vneg = v._signs
        apart = (pos | neg) & ~((pos | vneg) & (neg | vpos))
    system = v._meets[first._ints] = FeasibilitySystem.deferred(
        len(first._ints) + len(v._ints), partial(_meet_rows, first, (v,)), apart != 0, interior)
    return system


def _meet_rows(first: Cone, others: Sequence[Cone]) -> tuple[tuple, tuple]:
    """relint(first) [∩ relint(others[0])] ∩ others[-1] as int rows A and
    an int rhs b with y >= 0.

    sum(l_i g_i) = sum(m_j h_j) = sum(n_k k_k), one multiplier per
    generator; the last cone's are >= 0, all others >= 1.  Row k is the
    first cone's k-th coordinates, then minus the other's.  The bounds
    are shifted out here (l = y + 1, m = y + 1, n = y), so every variable
    is >= 0 and row k's rhs is bound * (other's k-th sum) - (first's k-th
    sum).
    """
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


def _witness(c1: Cone, sol: tuple[list[int], int]) -> Vec:
    """The point of relint(c1) a meet system's solution names: int
    numerators y over d > 0, with c1's multipliers shifted by 1, so
    l = (y + d) / d.  The one place that makes a Fraction of it."""
    y, d = sol
    nums = [x + d for x in y[:len(c1._ints)]]
    return tuple(Fraction(sum(map(mul, nums, col)), d) for col in c1._cols)


def relints_meet_in(c1: Cone, c2: Optional[Cone], v: Cone) -> Optional[Vec]:
    """Witness x ∈ relint(c1) [∩ relint(c2)] ∩ v, or None.

    Feasibility of a meet system, the only question here that needs an
    LP; the witness is scale-free, so no extra normalization variable is
    needed.  With c2, this is ``meeting_pairs`` on [c1, c2]; without, the
    system is ``_meet_system``'s, kept on v.
    """
    if c2 is not None:
        return next((w for _, _, w in meeting_pairs([c1, c2], v)), None)
    sol = _meet_system([c1, v]).solve()
    return None if sol is None else _witness(c1, sol)


def _hyperplane_signs(cs: Sequence[Cone]) -> list[tuple[int, int]]:
    """The index: per cone, ``_signs`` widened from the axes (bits 0 to
    n - 1) to the other distinct facet normals and span equations of the
    cones, up to sign, read off ``_idual``.  Each distinct generator is
    dotted with each of those once."""
    n = cs[0].ambient_rank
    planes: dict[tuple[int, ...], None] = {}
    for c in cs:
        eqs, facets, _ = c._idual
        for w in chain(eqs, facets):
            if w.count(0) < n - 1:
                planes.setdefault(w if next(filter(None, w)) > 0 else _neg(w))
    if not planes:
        return [c._signs for c in cs]
    seen: dict[tuple[int, ...], tuple[int, int]] = {}
    out = []
    for c in cs:
        pos, neg = c._signs
        for g in c._ints:
            signs = seen.get(g)
            if signs is None:
                p = q = 0
                for h, w in enumerate(planes, n):
                    s = _idot(w, g)
                    if s > 0:
                        p |= 1 << h
                    elif s < 0:
                        q |= 1 << h
                signs = seen[g] = p, q
            pos |= signs[0]
            neg |= signs[1]
        out.append((pos, neg))
    return out


def _pair_systems(cs: Sequence[Cone],
                  v: Cone) -> Iterator[tuple[int, int, FeasibilitySystem]]:
    """(i, j, the unkept system of relint(cs[i]) ∩ relint(cs[j]) ∩ v, on
    ``_meet_rows``) for each pair i < j, in order, lazily.

    A pair is certified infeasible when the index (``_hyperplane_signs``)
    shows the relative interiors disjoint.  Their points are the
    combinations with every multiplier > 0, so relint(C) lies in w > 0
    when w is >= 0 on C's generators and > 0 on one, in w < 0 likewise,
    and C in w = 0 when w is 0 on all.  Two cones on different ones of
    these sides of some w are disjoint: w is <= 0 on one's generators,
    >= 0 on the other's and nonzero on some, a bit set in
    (p | q | r | s) & ~((p | s) & (q | r)) for masks (p, q) and (r, s).
    That ignores v, so it is sound whatever v is; on the axes it is the
    infeasible-row rule against cs[j], which is also applied against v,
    as in ``_meet_system``.
    """
    n = v.ambient_rank
    if any(c.ambient_rank != n for c in cs):
        raise RankMismatchError("relint test: ambient ranks differ")
    if len(cs) < 2:
        return
    index = _hyperplane_signs(cs)
    vpos, vneg = v._signs
    widths = [len(c._ints) for c in cs]
    for i, c1 in enumerate(cs):
        pos, neg = c1._signs
        off_v = (pos | neg) & ~((pos | vneg) & (neg | vpos))
        p, q = index[i]
        pq = p | q
        width = widths[i] + len(v._ints)
        for j in range(i + 1, len(cs)):
            r, s = index[j]
            apart = off_v or (pq | r | s) & ~((p | s) & (q | r))
            yield i, j, FeasibilitySystem.deferred(
                width + widths[j], partial(_meet_rows, c1, (cs[j], v)), apart != 0, False)


def meeting_pairs(cs: Sequence[Cone], v: Cone) -> Iterator[tuple[int, int, Vec]]:
    """The CF2 pass: (i, j, witness x ∈ relint(cs[i]) ∩ relint(cs[j]) ∩ v)
    for each pair i < j whose relative interiors meet inside v, in order,
    lazily, so a consumer that stops early solves no more LPs."""
    for i, j, system in _pair_systems(cs, v):
        sol = system.solve()
        if sol is not None:
            yield i, j, _witness(cs[i], sol)
