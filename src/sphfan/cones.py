"""Finitely generated rational polyhedral cones.

A cone stores its generators as primitive int vectors; the dual (facet)
description is computed lazily on ints by an incremental double
description pass and cached, and the canonical key is read off it.  A
caller that reads the dual of every cone in a list computes them together
(``_fill_duals``), through one trie of the pass's states by generator
prefix, so a linearly independent prefix the cones share is stepped
once: one step per cone in a face-closed simplicial fan whose cones list
their generators in one order.  The same pass gives each facet's tight set as an int bitset over
the generators, and one walk, ``Cone._ordered_faces``, closes the face
lattice on those bitsets and lists the faces in order, or, for a
simplicial cone, lists the subsets of its generators with no closure;
``Cone.faces`` and the face table of :mod:`sphfan.spherical` both read it.
Point questions (x in C, x in relint C, the face holding x) and the
dimension are read off it with no LP.  Only whether relative interiors
meet inside V needs one: int rows A and an int rhs b with y >= 0 (see
:mod:`sphfan.lp`), built only when read, by one builder per shape:
- ``_meet_system``, relint(C) ∩ V for CC2 and the face tests, a new
  system on each call.  It is settled "yes" when V holds C's generator
  sum, which is then the CC2 witness (``_meet_witness``).
- ``_pair_systems``, relint(C1) ∩ relint(C2) ∩ V for each pair of a CF2
  pass (``meeting_pairs``).
Both read their rows off the cones with one builder, ``_meet_rows``.
Both settle a system "no" by one rule, ``_apart``, on two sign masks per
cone: over the axes, cached per cone, and for a CF2 pair left open, over
the facet hyperplanes of one index per pass.  A settled system builds no
row and runs no simplex.

A cone's generators are ints by construction: outside values pass one
gate, ``_int_vector``, which the constructor and the public point
questions (``contains``, ``relint_contains``) call, and ``faces``,
``intersect`` and the face table of :mod:`sphfan.spherical` make cones
only from int rows the library computed.  So nothing downstream checks
them again.  The point questions share an int core, ``_face_facets``,
which reads no outside value and so skips the gate; the internal callers
ask it, or ``_holds`` for many points at once, with int tuples the
library built: CC1 with the rho images ``_rho_ints`` and the generators
of C against V, the face table with the rho images (``_carrier``), and
``_meet_system`` with a generator sum.  ``Fraction`` appears only at the
boundary: the constructor and the point questions accept rationals, and
``generators``, ``facets``, ``span_equations`` and the witnesses of
``relints_meet_in`` are Fraction views.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain, combinations
from operator import mul, neg
from typing import Iterable, Iterator, Optional, Sequence

from .lp import FeasibilitySystem
from .rational import (Frozen, Mat, RankMismatchError, Vec, _combine, _idot,
                       _pivots, all_ints, bareiss, integer_rows,
                       primitive_ints, rat)


class _lazy:
    """A cached attribute with no lock (``functools.cached_property`` takes
    one on each first read on Python 3.11): the first read stores
    ``func(obj)`` in the instance ``__dict__``, which later reads find
    before this non-data descriptor.  ``Frozen`` still refuses assigning
    and deleting it."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _int_vector(v: Iterable, n: int) -> Sequence[int]:
    """v read by the one rule for outside vectors, the gate: a vector of
    plain ints is taken as it is; any other is read entry by entry by
    ``rat``, which takes Fractions and 'p/q' strings and raises
    ``TypeError`` on bools, floats and other types, and is scaled by the
    lcm of its denominators, so only its direction is kept.  Then a
    length other than n raises ``RankMismatchError``."""
    v = tuple(v)
    xi = v if all_ints(v) else integer_rows([[rat(e) for e in v]])[0]
    if len(xi) != n:
        raise RankMismatchError(f"expected a vector of length {n}, got {len(xi)}")
    return xi


def _divide_by_pivots(basis: Sequence[Sequence[int]]) -> list[Vec]:
    """The reduced row echelon form of ``_echelon`` rows, as Fractions."""
    return [tuple(Fraction(x, r[p]) for x in r) for r, p in zip(basis, _pivots(basis))]


def _dual_ints(ineqs: Sequence[Sequence[int]], n: int, trie: Optional[dict] = None) -> tuple[
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
    moves the other rays along l0 onto its hyperplane; a ray already on it
    stays as it is.  Otherwise each
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

    ``lin`` is kept in the form ``_echelon`` gives, so it needs no echelon
    pass: each row primitive with a positive pivot, pivots increasing, and
    each row zero in the other rows' pivot columns.  The identity starts
    so.  An inequality that is nonzero on L takes as l0 the last row with
    a nonzero dot, so the rows after it lie on the hyperplane and stay as
    they are, and combines only the rows before it: a row l with pivot
    p < pivot(l0) becomes primitive(s0*l - s*l0), s0 > 0.  l0 is zero in
    every column up to p (its pivot is later) and in every other row's
    pivot column, so the new row keeps pivot p with a positive entry and
    stays zero in the other rows' pivot columns; only the column of l0's
    pivot, which no row then holds, gains entries.  So ``lin`` always
    equals ``_echelon(lin)``, the one such basis of L.  Which l0 is taken
    changes no output: the new L is L ∩ {a = 0}, of codimension 1 in L,
    so any two l0 with positive dots agree up to a positive factor modulo
    the new L, and so do the rays moved along them.  A later step reads a
    ray only modulo the L of its time (a row vanishing on L reads the same
    sign on every representative; any other row moves it along L), so the
    tight sets, the order and the rays, reduced at the end, are the same
    for every choice.

    ``lin`` carries its pivot columns, ``piv``: range(n) for the identity,
    and a step drops the column of the row l0 it removes, as the others
    keep theirs.  So the final reduction of the rays modulo L needs no pass
    to find the pivots: row by row, a ray nonzero in the row's pivot column
    becomes a ``_combine`` of the two.  Each ray is made primitive (a unit
    vector, a ``_combine`` output or the negation of one), and so it stays.
    When L ends as 0 (the described cone is pointed; for a cone's
    generators, the cone is full-dimensional) the rays are returned as
    they are.

    Two loops stop early; neither changes a value or an order.  The
    lineality search stops at the last vector of L with a nonzero dot.
    The adjacency scan counts the tight sets that contain Z(u) ∩ Z(v) and
    stops at the third, since Z(u) and Z(v) always do.

    ``trie``, when given, keeps the state after each prefix of rows that
    the calls on it stepped, so calls whose rows share a prefix step it
    once (``_fill_duals``).  It maps n to a root node; a node is (state,
    children): the state is ``lin``, ``piv``, the rays and their tight sets
    after the node's prefix, the empty one at the root, and the children
    are keyed by the next row, so the rows must be hashable.  A call
    resumes from the longest stored prefix of ``ineqs`` and stores each
    state it steps while its prefix is linearly independent: such a state,
    after k rows, holds n vectors (n - k in ``lin``, k rays), so a call
    stores at most n states of n vectors.  The first row in the span of
    the rows before it ends the storing, as past it the ray list can grow
    with every row; every prefix of a simplicial cone's generators is
    independent, and so stored.  The output is exact and the same as with
    no trie: the pass is deterministic, so the state after a prefix
    depends only on n and the prefix; bit k of a tight set is row k, which
    has the same index in every call sharing the prefix; and a stored
    state is never changed, as every step binds new lists and callers copy
    what they keep.  With no trie the loop is the same, and keeps nothing.
    """
    node = None if trie is None else trie.get(n)
    if node is None:
        identity = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
        node = (identity, list(range(n)), [], []), {}
        if trie is not None:
            trie[n] = node
    (lin, piv, rays, tight), below = node
    start = 0
    if trie is not None:
        while start < len(ineqs) and ineqs[start] in below:
            (lin, piv, rays, tight), below = below[ineqs[start]]
            start += 1

    for k in range(start, len(ineqs)):
        a, bit = ineqs[k], 1 << k
        s0 = 0
        for hit in reversed(range(len(lin))):
            if s0 := sum(map(mul, a, lin[hit])):
                break
        if s0:
            l0 = lin[hit]
            if s0 < 0:
                l0, s0 = _neg(l0), -s0
            lin = [_combine(s0, l, s, l0) if (s := sum(map(mul, a, l))) else l
                   for l in lin[:hit]] + lin[hit + 1:]
            piv = piv[:hit] + piv[hit + 1:]
            # primitive(s0 * r) = r for a ray r on the hyperplane, as s0 > 0
            rays = [_combine(s0, r, s, l0) if (s := sum(map(mul, a, r))) else r for r in rays]
            rays.append(l0)
            tight = [z | bit for z in tight] + [bit - 1]
        else:
            trie = None  # a dependent row: this prefix and longer ones are not stored
            dots = [sum(map(mul, a, r)) for r in rays]
            pos, negs, zero = [], [], []
            for h, s in enumerate(dots):
                (pos if s > 0 else negs if s else zero).append(h)
            need = n - len(lin) - 2
            new, new_tight = [], []
            for i in pos:
                zi, ri, si = tight[i], rays[i], dots[i]
                for j in negs:
                    common = zi & tight[j]
                    if common.bit_count() < need:
                        continue
                    c = 0
                    for z in tight:
                        if common & z == common and (c := c + 1) > 2:
                            break
                    else:
                        new.append(_combine(si, rays[j], dots[j], ri))
                        new_tight.append(common | bit)
            rays = [rays[h] for h in pos + zero] + new
            tight = [tight[h] for h in pos] + [tight[h] | bit for h in zero] + new_tight
        if trie is not None:
            below[a] = (lin, piv, rays, tight), {}
            below = below[a][1]

    for l, p in zip(lin, piv):
        rays = [_combine(l[p], r, r[p], l) if r[p] else r for r in rays]
    return lin, rays, tight


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
        primitive int tuple, and zero generators are dropped; of repeated
        ones one dict keeps the first, in order.  The rank is a plain int
        (not a bool, as for ``all_ints``) and >= 0."""
        if type(ambient_rank) is not int:
            raise TypeError(f"ambient rank must be an int, got {ambient_rank!r}")
        if ambient_rank < 0:
            raise ValueError(f"ambient rank must be >= 0, got {ambient_rank}")
        gens = {}
        for g in generators:
            p = primitive_ints(_int_vector(g, ambient_rank))
            if any(p):
                gens[p] = None  # a repeat keeps the first one's place
        Cone._set_ambient_rank(self, ambient_rank)
        Cone._set_ints(self, tuple(gens))

    @classmethod
    def _of_ints(cls, ambient_rank: int, ints: Iterable[tuple[int, ...]],
                 dim: Optional[int] = None) -> "Cone":
        """The cone on ``ints``, with ``dim`` preset when the caller knows it.

        The contract: ``ints`` are already primitive, nonzero and distinct
        int tuples, and nothing checks them.  The callers meet it by
        construction: ``faces`` and the face table of
        :mod:`sphfan.spherical` take subsets of a cone's ``_ints``, and
        ``intersect`` takes the output of ``_dual_ints``."""
        cone = object.__new__(cls)
        cls._set_ambient_rank(cone, ambient_rank)
        cls._set_ints(cone, tuple(ints))
        if dim is not None:
            cone.__dict__["dim"] = dim
        return cone

    def __repr__(self):
        return f"Cone({self.ambient_rank}, {[tuple(map(str, g)) for g in self._ints]})"

    @_lazy
    def generators(self) -> tuple[Vec, ...]:
        """Primitive integer generators as Fraction vectors, in input order."""
        return tuple(tuple(Fraction(x) for x in g) for g in self._ints)

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @_lazy
    def _idual(self, trie: Optional[dict] = None) -> tuple[
            tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(span_equations, facets, tight sets) in int form: the ``_echelon``
        basis of the dual cone's lineality, its reduced primitive extreme
        rays, and for each facet the bitset of the generators it vanishes
        on, all from one ``_dual_ints`` pass over the generators, through
        ``trie`` when ``_fill_duals`` computes it."""
        return tuple(map(tuple, _dual_ints(self._ints, self.ambient_rank, trie)))

    @_lazy
    def facets(self) -> tuple[Vec, ...]:
        """Inward facet normals (extreme rays of the dual cone)."""
        return tuple(tuple(Fraction(x) for x in w) for w in self._idual[1])

    @_lazy
    def span_equations(self) -> tuple[Vec, ...]:
        """Normals w with span(cone) = {x : w . x = 0 for all w}, in RREF."""
        return tuple(_divide_by_pivots(self._idual[0]))

    @_lazy
    def _gens_key(self) -> tuple:
        """(ambient_rank, generator set): equal only for equal cones, with
        no double description.  Generators are kept primitive, nonzero and
        distinct, so two cones with the same set are the same cone; equal
        cones given by different sets (redundant generators, lineality)
        are told apart here and settled by ``key``.  The rank keeps the
        zero cones of different ranks apart."""
        return self.ambient_rank, frozenset(self._ints)

    @_lazy
    def key(self) -> tuple:
        """Hashable canonical form, equal iff the cones are equal.

        The dual description is canonical (see ``dual_description``), and
        primitive rows with positive pivots match RREF rows one to one,
        so the int form is canonical too.
        """
        eqs, facets, _ = self._idual
        return self.ambient_rank, eqs, tuple(sorted(facets))

    @_lazy
    def dim(self) -> int:
        """n minus the number of span equations, read off the dual."""
        return self.ambient_rank - len(self._idual[0])

    def _face_facets(self, xi: Sequence[int]) -> Optional[list[int]]:
        """The indices of the facets vanishing at xi, which cut out the
        smallest face holding xi, or None if xi lies outside: the int core
        of the point questions, decided by the signs of int dot products.

        The core reads no outside value: xi is a plain int vector of
        length n, which nothing checks.  The public point questions pass
        it through the gate, ``_int_vector``, and the internal callers
        hand it int tuples the library built (rho's ``_rho_ints``, a
        cone's generator sums), so they skip the gate."""
        eqs, facets, _ = self._idual
        if eqs and any(sum(map(mul, w, xi)) for w in eqs):
            return None
        tight = []
        for i, w in enumerate(facets):
            s = sum(map(mul, w, xi))
            if s < 0:
                return None
            if s == 0:
                tight.append(i)
        return tight

    def _holds(self, points: Sequence[Sequence[int]]) -> bool:
        """Whether every int point lies in the cone, as one test of all of
        them against the rows of ``_idual``: the int core of ``contains``
        for a list of points, such as another cone's ``_ints``."""
        eqs, facets, _ = self._idual
        return (not any(sum(map(mul, w, x)) for w in eqs for x in points)
                and all(sum(map(mul, w, x)) >= 0 for w in facets for x in points))

    def contains(self, x: Sequence) -> bool:
        """Membership: x on every span equation and on no facet's negative
        side.  Entries may be ints, Fractions or 'p/q' strings: x is an
        outside value, so it passes the gate, ``_int_vector``, which raises
        ``TypeError`` on a bool or float and ``RankMismatchError`` on a
        wrong length, before the int core ``_face_facets`` reads it."""
        return self._face_facets(_int_vector(x, self.ambient_rank)) is not None

    def _carrier(self, xi: Sequence[int]) -> Optional[int]:
        """The generators of the smallest face holding xi as a bitset over
        their indices, or None if xi lies outside: those tight on every
        facet that vanishes at xi, the AND of their tight sets.  xi is an
        int point the library built, such as a ``_rho_ints`` image, so it
        goes to the int core ``_face_facets`` with no gate."""
        tight = self._face_facets(xi)
        if tight is None:
            return None
        s = (1 << len(self._ints)) - 1
        for f in tight:
            s &= self._idual[2][f]
        return s

    def is_strictly_convex(self) -> bool:
        """Pointed, holding no line: C is pointed iff its dual C∨ is
        full-dimensional, i.e. the dual's span equations and facets have
        rank n."""
        eqs, facets, _ = self._idual
        return len(bareiss(eqs + facets)[1]) == self.ambient_rank

    def relint_contains(self, x: Sequence) -> bool:
        """True iff x is a strictly positive combination of the generators,
        i.e. its smallest face is the cone itself: no facet vanishes at x.
        Entries may be ints, Fractions or 'p/q' strings; x passes the gate
        as in ``contains``."""
        return self._face_facets(_int_vector(x, self.ambient_rank)) == []

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
        if m.ncols != self.ambient_rank:
            raise RankMismatchError(f"dimension mismatch: {m.ncols} cols vs {self.ambient_rank}")
        return Cone(m.nrows, [tuple(_idot(row, g) for row in m.ints) for g in self._ints])

    @_lazy
    def _cols(self) -> tuple[tuple[int, ...], ...]:
        """The generators by axis, for every meet system the cone is in:
        ints, as every cone's generators are."""
        return tuple(zip(*self._ints)) if self._ints else ((),) * self.ambient_rank

    @_lazy
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

    @_lazy
    def _col_sums(self) -> tuple[int, ...]:
        return tuple(map(sum, self._cols))

    @_lazy
    def _neg_cols(self) -> tuple[tuple[int, ...], ...]:
        """``_cols`` negated, for a cone after the first in a meet system,
        read only when the system's rows are built (``_meet_rows``): a
        cone that only stands first, such as a face, never builds them."""
        return tuple(map(_neg, self._cols))

    def _ordered_faces(self) -> list[tuple[int, list[int], int]]:
        """(dimension, generator indices, bitset) of every face, self and
        the minimal face included, each once, by dimension and then by
        generator indices.  The one face walk: ``faces`` and the face
        table of :mod:`sphfan.spherical` read it.

        A cone with as many generators as its dimension is simplicial:
        its generators are linearly independent, so every subset of them
        spans a face of dimension its size, and the faces are the Boolean
        lattice of the subsets (``_subsets``), listed with no closure.
        Any other cone's come from ``_face_lattice`` on the facets' tight
        sets (``_idual``), each face decoded once, visiting only its set
        bits, into the index list that is both its sort key and its
        generators."""
        k = len(self._ints)
        if k == self.dim:
            return _subsets(k)
        dims = _face_lattice((1 << k) - 1, self._idual[2], self.dim)
        return sorted([(d, _bits(s), s) for s, d in dims.items()])

    def faces(self) -> list["Cone"]:
        """All faces as ``_ordered_faces`` lists them, each listing its
        generators in index order."""
        gens = self._ints
        return [Cone._of_ints(self.ambient_rank, [gens[i] for i in idx], d)
                for d, idx, _ in self._ordered_faces()]


def _fill_duals(cs: Iterable[Cone], trie: dict) -> None:
    """Computes ``_idual`` for each cone in cs that lacks it, all through
    one trie of ``_dual_ints`` prefix states, so a linearly independent
    generator prefix that cones share is stepped once: in a face-closed
    simplicial fan listing each cone's generators in one order, one step
    per cone.  A caller that
    reads the dual of every cone it holds passes a new ``{}``; the trie
    lives as long as the caller keeps it."""
    for c in cs:
        if "_idual" not in c.__dict__:
            c.__dict__["_idual"] = Cone._idual.func(c, trie)


def _face_lattice(top: int, tight_sets: Sequence[int], dim: int) -> dict[int, int]:
    """{bitset: dimension} of every face of a cone of dimension ``dim``
    whose generators are the bits of ``top``, from its facets' tight sets
    on those bits.

    A face is generated by the generators it contains, and the generators
    a face contains are those tight on the facets containing it.  So the
    faces correspond one-to-one to the intersections of facet tight sets
    (the empty intersection being all generators), and need no dedupe.

    The dimensions come off the face lattice, which is graded (Ziegler,
    Lectures on Polytopes, 2.2), with one rank, the cone's.  Each cover
    G ⋗ F is F = G ∩ t for some facet t, and a face strictly inside another
    has a smaller dimension, so dim(u) = min(dim(s) - 1) over the pairs
    u = s & t != s.  Such an s has more bits than u, so the sets are closed
    layer by layer, in decreasing popcount: when u's layer is reached every
    s above it has been met, and the running minimum is its dimension.
    """
    dims = {top: dim}
    layers: list[list[int]] = [[] for _ in range(top.bit_count())] + [[top]]
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
    return dims


def _subsets(k: int) -> list[tuple[int, list[int], int]]:
    """(size, indices, bitset) of every subset of range(k), by size and
    then by indices, as ``combinations`` yields them: the faces of a
    simplicial cone on k generators, in ``_ordered_faces``' order."""
    return [(r, list(idx), sum(1 << i for i in idx))
            for r in range(k + 1) for idx in combinations(range(k), r)]


def _bits(s: int) -> list[int]:
    """The indices of the set bits of s, in increasing order, as a list
    built in a plain loop: a generator costs more per face than it saves."""
    out = []
    while s:
        low = s & -s
        out.append(low.bit_length() - 1)
        s ^= low
    return out


def cones_equal(a: Cone, b: Cone) -> bool:
    """Equality, settled by the generator set first and otherwise by the
    canonical key, so a cone repeating a known generator set runs no
    double description."""
    return a._gens_key == b._gens_key or a.key == b.key


def relint_meets_cone(c: Cone, v: Cone) -> Optional[Vec]:
    """Witness x ∈ relint(c) ∩ v, or None."""
    return relints_meet_in(c, None, v)


def _apart(a: tuple[int, int], b: tuple[int, int]) -> int:
    """The bits of the hyperplanes that show relint(C1) and relint(C2)
    disjoint, from their sign masks a = (p, q) and b = (r, s): bit h of
    the first mask is set when some generator is > 0 on hyperplane h, of
    the second when some is < 0.

    A relative interior's points are the combinations with every
    multiplier > 0, so relint(C) lies in w > 0 when w is >= 0 on C's
    generators and > 0 on one, in w < 0 likewise, and C lies in w = 0
    when w is 0 on all; C is split when w has both signs on it.  Two
    cones on different ones of these three sides of some w are disjoint:
    w is <= 0 on one's generators, >= 0 on the other's and nonzero on
    some, a bit set in (p | q | r | s) & ~((p | s) & (q | r)).  It is
    the "infeasible row" rule of LP presolve (Andersen & Andersen 1995)
    for a meet system's row of w, decided with no row built."""
    (p, q), (r, s) = a, b
    return (p | q | r | s) & ~((p | s) & (q | r))


def _meet_system(cones: Sequence[Cone]) -> FeasibilitySystem:
    """relint(C) ∩ V as an LP, for cones = [C, V]: whether C's relative
    interior meets V.  Each call makes a new system, whose rows are those
    of ``_meet_rows``, built only when read; the face table of
    :mod:`sphfan.spherical` keeps one per face for as long as it lives.
    The system is certified before it is solved, in one of two ways.

    First, feasible by an interior point: with every multiplier of C 1,
    x = sum(g_i) lies in relint(C), so x in V means relint(C) meets V
    (for C = {0}, x = 0 lies in V).  The test hands x, an int tuple, to
    V's int core ``_face_facets``, and a certified system computes no
    sign mask.  Its witness is x itself (``_meet_witness``).

    Otherwise the system is certified infeasible when ``_apart`` on the
    cones' ``_signs`` finds an axis that C is nonzero on, with no row
    built: relint(C) lies strictly on one side of x_k = 0 and V on the
    other, or on it.  Only a system that both leave open runs the simplex.
    """
    first, v = cones
    if first.ambient_rank != v.ambient_rank:
        raise RankMismatchError("relint test: ambient ranks differ")
    interior = v._face_facets(first._col_sums) is not None
    apart = not interior and (first._signs[0] | first._signs[1]) & _apart(first._signs, v._signs)
    return FeasibilitySystem.deferred(len(first._ints) + len(v._ints),
                                      partial(_meet_rows, (first, v)), apart != 0, interior)


def _meet_rows(cones: Sequence[Cone]) -> tuple[tuple, tuple]:
    """relint(C1) [∩ relint(C2)] ∩ V as int rows A and an int rhs b with
    y >= 0, for cones = [C1, V] or [C1, C2, V], read off the cones when
    the rows are built: C1's ``_cols`` and ``_col_sums`` and each other
    cone's ``_neg_cols`` and ``_col_sums``.

    sum(l_i g_i) = sum(m_j h_j) = sum(n_k k_k), one multiplier per
    generator; the last cone's are >= 0, all others >= 1.  Row k is the
    first cone's k-th coordinates, then minus the other's.  The bounds
    are shifted out here (l = y + 1, m = y + 1, n = y), so every variable
    is >= 0 and row k's rhs is bound * (other's k-th sum) - (first's k-th
    sum).
    """
    first, others = cones[0], cones[1:]
    widths = [len(c._ints) for c in others]
    rows, rhs = [], []
    for i, c in enumerate(others):
        bound = 0 if i == len(others) - 1 else 1
        before = (0,) * sum(widths[:i])
        after = (0,) * sum(widths[i + 1:])
        rows += [col + before + minus + after for col, minus in zip(first._cols, c._neg_cols)]
        rhs += [bound * s - s0 for s, s0 in zip(c._col_sums, first._col_sums)]
    return tuple(rows), tuple(rhs)


def _witness(c1: Cone, sol: tuple[list[int], int]) -> Vec:
    """The point of relint(c1) a meet system's solution names: int
    numerators y over d > 0, with c1's multipliers shifted by 1, so
    l = (y + d) / d.  The one place that makes a Fraction of it."""
    y, d = sol
    nums = [x + d for x in y[:len(c1._ints)]]
    return tuple(Fraction(sum(map(mul, nums, col)), d) for col in c1._cols)


def _meet_witness(c: Cone, system: FeasibilitySystem) -> Optional[Vec]:
    """CC2's witness x ∈ relint(c) ∩ V, or None, from c's system
    relint(c) ∩ V (``_meet_system``), solved here once: by rule, the sum
    of c's generators when V holds it, the point that certified the
    system, else the simplex's.  ``relints_meet_in`` and the face table's
    CC2 both read it."""
    sol = system.solve()
    if system.interior_point:
        return tuple(map(Fraction, c._col_sums))
    return None if sol is None else _witness(c, sol)


def relints_meet_in(c1: Cone, c2: Optional[Cone], v: Cone) -> Optional[Vec]:
    """Witness x ∈ relint(c1) [∩ relint(c2)] ∩ v, or None.

    Feasibility of a meet system, the only question here that needs an
    LP; the witness is scale-free, so no extra normalization variable is
    needed.  With c2, this is ``meeting_pairs`` on [c1, c2], and the
    witness is the simplex's.  Without, it is ``_meet_witness`` on a new
    ``_meet_system``.
    """
    if c2 is not None:
        return next((w for _, _, w in meeting_pairs([c1, c2], v)), None)
    return _meet_witness(c1, _meet_system([c1, v]))


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
    """(i, j, the system of relint(cs[i]) ∩ relint(cs[j]) ∩ v, on
    ``_meet_rows``) for each pair i < j, in order, lazily.

    A pair is certified infeasible when ``_apart`` shows relint(cs[i])
    apart from v, as in ``_meet_system``, or from relint(cs[j]), on the
    axes (``_signs``); only a pair those leave open reads the index
    (``_hyperplane_signs``), which is built then, once, and widens the
    masks to the facet hyperplanes.  The second test ignores v, so it is
    sound whatever v is.  Each cone's masks and width are read once, and
    cs[i]'s test against v once per i, so a pair costs at most one
    ``_apart`` on the axes, written out in the loop, its ``partial`` and
    its system.
    """
    n = v.ambient_rank
    if any(c.ambient_rank != n for c in cs):
        raise RankMismatchError("relint test: ambient ranks differ")
    if len(cs) < 2:
        return
    index = None
    members = [(c, c._signs, len(c._ints)) for c in cs]
    for i, (c1, s1, w1) in enumerate(members):
        pos, neg = s1
        either = pos | neg
        off_v = either & _apart(s1, v._signs)
        width = w1 + len(v._ints)
        for j, (c2, (r, s), w2) in enumerate(members[i + 1:], i + 1):
            # _apart(s1, (r, s)), written out: this line runs once per pair
            apart = off_v or (either | r | s) & ~((pos | s) & (neg | r))
            if not apart:
                if index is None:
                    index = _hyperplane_signs(cs)
                apart = _apart(index[i], index[j])
            yield i, j, FeasibilitySystem.deferred(
                width + w2, partial(_meet_rows, (c1, c2, v)), apart != 0, False)


def meeting_pairs(cs: Sequence[Cone], v: Cone) -> Iterator[tuple[int, int, Vec]]:
    """The CF2 pass: (i, j, witness x ∈ relint(cs[i]) ∩ relint(cs[j]) ∩ v)
    for each pair i < j whose relative interiors meet inside v, in order,
    lazily, so a consumer that stops early solves no more LPs."""
    for i, j, system in _pair_systems(cs, v):
        sol = system.solve()
        if sol is not None:
            yield i, j, _witness(cs[i], sol)
