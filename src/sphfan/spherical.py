"""Spherical data, colored cones, colored fans, and their validity axioms.

A datum is the combinatorial tuple (rank, valuation cone, colors, rho).
Colored cones are pairs (cone, palette); the two cone axioms are

  CC1: the cone is generated by the rho-images of its palette together
       with finitely many valuation-cone elements, and
  CC2: its relative interior meets the valuation cone.

Colored fans additionally satisfy face closure (CF1) and uniqueness of
the cone whose relative interior contains any given valuation vector
(CF2, decided pairwise).

The colored faces of a list of colored cones are found once, on one
generator numbering (``_FaceTable``): a face is the int bitset of the
generators it holds, read off facet–generator incidences as in Kaibel
and Pfetsch, "Computing the face lattice of a polytope from its
vertex-facet incidences" (2002).  CC1 and CC2, CF1, ``maximal_cones``,
the face closure and ``colored_faces`` all read such a table, which
checks each cone against the datum and locates each of its rho images
once, and a face becomes a ``Cone`` only when it is tested, reported or
kept.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import cones
# relint_meets_cone and relints_meet_in are no longer called here, but
# stay names of this module: perfbench/tracing.py wraps them where sphfan
# looks them up
from .cones import (Cone, _fill_duals, _lazy, cones_equal, meeting_pairs,  # noqa: F401
                    relint_meets_cone, relints_meet_in)
from .rational import Frozen, RankMismatchError, Vec, integer_rows, rat


# the palette of every face whose cone carries no color, shared
_NO_COLORS: frozenset[str] = frozenset()


class UnknownColorError(KeyError):
    pass


class FanAxiomError(ValueError):
    """Raised by constructive operations when CF2 fails; carries a witness."""

    def __init__(self, message: str, witness: Optional[Vec] = None):
        super().__init__(message)
        self.witness = witness


class SphericalDatum(Frozen):
    """The input tuple: rank, valuation cone V, color set D, map rho.

    ``rho`` holds the images as Fraction vectors; ``_rho_ints`` holds each
    image's direction once as an int vector, scaled by the lcm of its
    denominators, which the point questions of the cones read as it is."""

    __slots__ = ("rank", "valuation_cone", "colors", "rho", "_rho_ints")

    def __init__(self, rank: int, valuation_cone: Cone,
                 colors: Sequence[str] = (),
                 rho: Mapping[str, Iterable] = None):
        rho = dict(rho or {})
        if valuation_cone.ambient_rank != rank:
            raise RankMismatchError("valuation cone rank differs from datum rank")
        if len(set(colors)) != len(colors):
            raise ValueError("duplicate color identifiers")
        images = {}
        for c in colors:
            if c not in rho:
                raise UnknownColorError(f"no rho image for color {c!r}")
            v = tuple(rat(e) for e in rho[c])
            if len(v) != rank:
                raise RankMismatchError(f"rho image of {c!r} has wrong length")
            images[c] = v
        extra = set(rho) - set(colors)
        if extra:
            raise UnknownColorError(f"rho defined on unknown colors: {sorted(extra)}")
        SphericalDatum._set_rank(self, rank)
        SphericalDatum._set_valuation_cone(self, valuation_cone)
        SphericalDatum._set_colors(self, tuple(colors))
        SphericalDatum._set_rho(self, images)
        SphericalDatum._set_rho_ints(
            self, {c: tuple(integer_rows([v])[0]) for c, v in images.items()})

    def check_colors(self, palette: Iterable[str]) -> None:
        # rho is keyed by exactly the colors
        unknown = set(palette).difference(self.rho)
        if unknown:
            raise UnknownColorError(f"unknown colors: {sorted(unknown)}")

    def permutes_colors(self, perm: Mapping[str, str]) -> bool:
        """True iff perm maps the colors one-to-one onto the colors."""
        return set(perm) == set(perm.values()) == set(self.colors)


class ColoredCone(Frozen):
    """A pair (cone, palette).  Validity only via validate_colored_cone."""

    __slots__ = ("cone", "palette")

    def __init__(self, cone: Cone, palette: Iterable[str] = ()):
        ColoredCone._set_cone(self, cone)
        ColoredCone._set_palette(self, frozenset(palette))

    def __repr__(self):
        return f"ColoredCone({self.cone!r}, {sorted(self.palette)})"

    @property
    def key(self) -> tuple:
        """Hashable canonical form: the cone's key and the sorted palette."""
        return self.cone.key, tuple(sorted(self.palette))

    @property
    def _gens_key(self) -> tuple:
        """The cone's generator key and the palette: equal only for equal
        colored cones, with no double description."""
        return self.cone._gens_key, self.palette


def colored_cones_equal(a: ColoredCone, b: ColoredCone) -> bool:
    """Equality, settled like ``cones_equal``: by generator set and
    palette first, otherwise by canonical key."""
    return a._gens_key == b._gens_key or a.key == b.key


def _distinct(ccs: Iterable[ColoredCone]) -> Iterator[tuple[tuple, ColoredCone]]:
    """(generator key, colored cone) of each colored cone whose key is new,
    in order, lazily, each key read once.

    This is the library's one identity rule: a colored cone repeating a
    generator set and palette seen before is skipped with no key
    computed, and the others are told apart by key.  Their duals are
    computed through one trie (``cones._fill_duals``), so a linearly
    independent generator prefix the cones share is stepped once."""
    gens: set[tuple] = set()
    keys: set[tuple] = set()
    trie: dict = {}
    for cc in ccs:
        g = cc._gens_key
        if g not in gens:
            gens.add(g)
            _fill_duals((cc.cone,), trie)
            k = cc.key
            if k not in keys:
                keys.add(k)
                yield g, cc


class ColoredFan(Frozen):
    """Nonempty, duplicate-free finite collection of colored cones.

    Of equal colored cones the first is kept, generators as given
    (``_distinct``); ``index`` finds a member."""

    __slots__ = ("cones", "_by_gens", "__dict__")

    def __init__(self, cones: Iterable[ColoredCone]):
        by_gens = dict(_distinct(cones))
        if not by_gens:
            raise ValueError("a colored fan must be nonempty")
        members = tuple(by_gens.values())
        if len({cc.cone.ambient_rank for cc in members}) != 1:
            raise RankMismatchError("fan members have mixed ambient ranks")
        ColoredFan._set_cones(self, members)
        ColoredFan._set_by_gens(self, {g: i for i, g in enumerate(by_gens)})

    @classmethod
    def _of_distinct(cls, members: Sequence[ColoredCone]) -> "ColoredFan":
        """The fan of members known to be pairwise distinct colored cones of
        one rank, at least one, kept as they are with no key computed."""
        fan = object.__new__(cls)
        ColoredFan._set_cones(fan, tuple(members))
        ColoredFan._set_by_gens(fan, {cc._gens_key: i for i, cc in enumerate(members)})
        return fan

    @_lazy
    def _by_key(self) -> dict[tuple, int]:
        """Built on the first lookup the generator sets do not settle."""
        return {cc.key: i for i, cc in enumerate(self.cones)}

    def __len__(self):
        return len(self.cones)

    def __iter__(self):
        return iter(self.cones)

    def index(self, cc: ColoredCone) -> Optional[int]:
        """Position of the member equal to cc, or None: by generator set
        and palette first, otherwise by canonical key (a double
        description of cc's cone if it has none yet)."""
        i = self._by_gens.get(cc._gens_key)
        return self._by_key.get(cc.key) if i is None else i


def fans_equal(a: ColoredFan, b: ColoredFan) -> bool:
    # members are pairwise distinct, so a ⊆ b of equal size is a = b
    return len(a) == len(b) and all(b.index(cc) is not None for cc in a)


class ColoredConeReport(NamedTuple):
    cc1: bool
    cc2: bool
    cc2_witness: Optional[Vec]
    cc1_detail: str = ""

    @property
    def ok(self) -> bool:
        return self.cc1 and self.cc2


class ColoredFanReport(NamedTuple):
    cone_reports: tuple[ColoredConeReport, ...]
    cf1: bool
    cf1_missing: tuple[tuple[int, ColoredCone], ...]
    cf2: bool
    cf2_failures: tuple[tuple[int, int, Vec], ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.cone_reports) and self.cf1 and self.cf2


def _check(d: SphericalDatum, cc: ColoredCone) -> None:
    if cc.cone.ambient_rank != d.rank:
        raise RankMismatchError("colored cone rank differs from datum rank")
    d.check_colors(cc.palette)


def validate_colored_cone(d: SphericalDatum, cc: ColoredCone) -> ColoredConeReport:
    """Decide CC1 and CC2 independently, with witnesses: the report of
    the face table over [cc] (``_FaceTable.report``)."""
    return _FaceTable(d, [cc]).report(0)


def is_strictly_convex_colored(d: SphericalDatum, cc: ColoredCone) -> bool:
    _check(d, cc)
    if not cc.cone.is_strictly_convex():
        return False
    return all(any(d.rho[f]) for f in cc.palette)


class _FaceTable:
    """The colored faces of a list of colored cones, on one generator
    numbering.

    Each distinct generator gets one bit, so a face of any of the cones is
    the int of the generators it holds, and faces with equal ints are the
    same cone.  Each cone's faces are read off its own face walk
    (``Cone._ordered_faces``), in its own numbering, and only a face's
    bitset is moved to the table's bits.  A simplicial cone's walk
    depends only on its generator count k, the subsets of range(k), so
    the table lists it once per k and every simplicial cone on k
    generators reads that one list.  A face is generated by the
    generators it contains, so rho(f) lies in a face iff its carrier
    (``Cone._carrier``, in the cone's own numbering) is among the face's
    generators.

    The table is the one keeper of relint(C) ∩ V answers.  A face's
    relint test is made once per distinct bitset, at its first
    occurrence: the system ``cones._meet_system`` gives for a cone that
    exists when it can (the first given cone with the face's generator
    set, which is the same cone, and otherwise the face ``Cone`` built,
    in the index order of its cone).  The table keeps that system, and
    each occurrence, the first included, calls its ``solve()`` once:
    every face test is counted, and the LP is solved once.  CC2 of that
    given cone (``report``) reads the same system, its top face's.  A
    face becomes a ``Cone`` only for that test, or when it is reported or
    kept (``cone``), and a face kept from the cone that built it for the
    test is that Cone.

    Each cone's rank and palette are checked against the datum (``_check``)
    as it is numbered, and each color f of its palette is located once, as
    the pair (f, carrier of rho(f)), or (f, None) when rho(f) lies outside
    the cone: CC1 (``report``) and the palettes of the faces (``colored``)
    read those pairs, so each (cone, color) is one rho test.
    """

    def __init__(self, d: SphericalDatum, ccs: Sequence[ColoredCone]):
        number: dict[tuple[int, ...], int] = {}
        self.bits, self.carriers = [], []
        for cc in ccs:
            _check(d, cc)
            self.bits.append([1 << number.setdefault(g, len(number)) for g in cc.cone._ints])
            self.carriers.append([(f, cc.cone._carrier(d._rho_ints[f]))
                                  for f in sorted(cc.palette)])
        self.d, self.ccs, self.sets = d, ccs, [sum(bits) for bits in self.bits]
        # the first given cone on each bitset, which its relint test asks
        self.given = {s: cc.cone for s, cc in reversed(list(zip(self.sets, ccs)))}
        # each bitset's relint test, kept from its first occurrence, and by
        # its generators the CC2 test of a cone listing them in another
        # order than the first given cone on its bitset
        self.systems = {}
        # every cone read so far is pointed, its generators extreme rays
        self.extreme = True
        # the face walk of the simplicial cones, by generator count
        self.subsets = {}

    def report(self, i: int) -> ColoredConeReport:
        """CC1 and CC2 of cone i, decided independently, with witnesses.

        CC1 is equivalent to: rho(palette) lies in the cone, and the cone
        is regenerated by rho(palette) together with generators of its
        intersection with V.  A color whose carrier is None lies outside.
        A cone whose generators all lie in V is its own intersection with
        V, so then CC1 holds with no intersection; otherwise the
        regenerated cone is compared by ``cones_equal``, by generator set
        first and otherwise by canonical key.  CC1 holds iff
        ``cc1_detail``, the first failed test, is empty.

        CC2's witness is by rule (``cones._meet_witness``): the sum of the
        generators, a point of relint(C), when V holds it, with no simplex
        run; otherwise the simplex's point, or None when relint(C) misses
        V.  Its system is the table's for the cone's bitset when the first
        given cone on it lists its generators in its order, and so has the
        same rows; a cone listing them in another order has a system of
        its own order, kept under its generators, so its witness is its
        own."""
        d, c, carriers = self.d, self.ccs[i].cone, self.carriers[i]
        v = d.valuation_cone
        detail = ""
        outside = next((f for f, s in carriers if s is None), None)
        if outside is not None:
            detail = f"rho({outside}) lies outside the cone"
        elif not v._holds(c._ints):
            regen = Cone(d.rank, [d._rho_ints[f] for f, _ in carriers] + list(c.intersect(v)._ints))
            if not cones_equal(regen, c):
                detail = "cone is not generated by rho(palette) and cone ∩ V"

        b = self.sets[i]
        key = b if self.given[b]._ints == c._ints else c._ints
        system = self.systems.get(key)
        if system is None:
            system = self.systems[key] = cones._meet_system([c, v])
        witness = cones._meet_witness(c, system)
        return ColoredConeReport(not detail, witness is not None, witness, detail)

    def colored(self, i: int) -> list[tuple[int, list[int], int, frozenset[str],
                                             Optional[Cone]]]:
        """(dimension, generator indices, bitset, palette, Cone) of each
        colored face of cone i, in that order: a face whose relative
        interior meets V, with the palette {f : rho(f) in face}, cone i's
        own face included.  The Cone is the one cone i built for the face's
        test, or None."""
        cone, bits = self.ccs[i].cone, self.bits[i]
        k = len(bits)
        if k == cone.dim:
            # simplicial: the walk is the Boolean lattice on k generators,
            # listed once per k, and each generator is an extreme ray
            faces = self.subsets.get(k)
            if faces is None:
                faces = self.subsets[k] = cone._ordered_faces()
        else:
            faces = cone._ordered_faces()
            # the bottom face is {0} and each generator is a face of its own
            self.extreme = (self.extreme and faces[0] == (0, [], 0)
                            and [len(idx) for _, idx, _ in faces].count(1) == k)
        carriers = [(f, c) for f, c in self.carriers[i] if c is not None]
        systems, given, v, out = self.systems, self.given, self.d.valuation_cone, []
        for dim, idx, s in faces:
            # cone 0 is numbered first and in order, so its bits are the table's
            b = s if i == 0 else sum(map(bits.__getitem__, idx))
            system, built = systems.get(b), None
            if system is None:
                face = given.get(b)
                if face is None:
                    face = built = self.cone(i, dim, idx)
                system = systems[b] = cones._meet_system([face, v])
            if system.solve() is not None:
                palette = frozenset(f for f, c in carriers if c & s == c) if carriers else _NO_COLORS
                out.append((dim, idx, b, palette, built))
        return out

    def cone(self, i: int, dim: int, idx: list[int]) -> Cone:
        """The face of cone i on its generators idx, in cone i's order."""
        ints = self.ccs[i].cone._ints
        return Cone._of_ints(self.d.rank, [ints[k] for k in idx], dim)

    def colored_cone(self, i: int, dim: int, idx: list[int], b: int, palette: frozenset[str],
                     built: Optional[Cone]) -> ColoredCone:
        """The colored face, on the Cone built for its test if cone i
        built it, else on a new one."""
        return ColoredCone(self.cone(i, dim, idx) if built is None else built, palette)


def colored_faces(d: SphericalDatum, cc: ColoredCone) -> list[ColoredCone]:
    """Colored faces of cc: faces whose relative interior meets V, with
    the induced palette {f : rho(f) in face}, cc itself included, by
    dimension and then by generator indices.  The face table over [cc]:
    no face needs a dual description of its own, and the top face repeats
    the CC2 test of cc."""
    table = _FaceTable(d, [cc])
    return [table.colored_cone(0, *face) for face in table.colored(0)]


def _face_members(table: _FaceTable, fan: ColoredFan
                  ) -> Iterator[tuple[int, Optional[int], Optional[ColoredCone]]]:
    """(i, j, face) for each colored face of each member i, from the face
    table over the members: j is the position of the member equal to the
    face, or None.  A member with the face's bitset and palette is it;
    otherwise the face becomes a ``ColoredCone``, also yielded, and asks
    ``fan.index``, for members given with other generators."""
    members = {(s, cc.palette): i for i, (s, cc) in enumerate(zip(table.sets, fan))}
    for i in range(len(fan)):
        for face in table.colored(i):
            j = members.get(face[2:4])  # by bitset and palette
            cc = None if j is not None else table.colored_cone(i, *face)
            yield i, j if cc is None else fan.index(cc), cc


def validate_colored_fan(d: SphericalDatum, fan: ColoredFan) -> ColoredFanReport:
    """Per-cone CC1/CC2, then CF1 (face closure) and CF2 (pairwise).
    One face table over the members checks each against the datum and
    locates its rho images once; its reports are CC1/CC2, and CF1 reads
    its faces.  Each member's missing faces are listed by dimension, then
    by generator indices."""
    table = _FaceTable(d, fan.cones)
    reports = tuple(map(table.report, range(len(fan))))
    cf1_missing = [(i, face) for i, j, face in _face_members(table, fan) if j is None]
    cf2_failures = list(meeting_pairs([cc.cone for cc in fan], d.valuation_cone))
    return ColoredFanReport(
        cone_reports=reports,
        cf1=not cf1_missing,
        cf1_missing=tuple(cf1_missing),
        cf2=not cf2_failures,
        cf2_failures=tuple(cf2_failures),
    )


def is_strictly_convex_fan(d: SphericalDatum, fan: ColoredFan) -> bool:
    return all(is_strictly_convex_colored(d, cc) for cc in fan)


def maximal_cones(d: SphericalDatum, fan: ColoredFan) -> list[ColoredCone]:
    """Members that are not a proper colored face of another member.

    The fan is "simple" (one closed orbit) iff exactly one maximal cone.
    """
    proper = {j for i, j, _ in _face_members(_FaceTable(d, fan.cones), fan) if j != i}
    return [cc for i, cc in enumerate(fan) if i not in proper]


def orbit_count(fan: ColoredFan) -> int:
    """Number of orbits of the classified embedding: one per colored cone."""
    return len(fan.cones)


def faces_closure(d: SphericalDatum, cones: Sequence[ColoredCone]) -> ColoredFan:
    """Close the given colored cones under faces and check CF2.

    Only colored faces are kept, so a given colored cone whose relative
    interior misses V, or whose palette holds a color f with rho(f)
    outside the cone, is dropped (the second with its face under the
    smaller palette kept).  Raises FanAxiomError (with witness) on a CF2
    violation, found by the lazy CF2 pass, ``meeting_pairs``; the returned
    fan is ordered by dimension, then first occurrence.
    """
    fan = _faces_fan(d, cones)
    failure = next(meeting_pairs([cc.cone for cc in fan], d.valuation_cone), None)
    if failure is not None:
        raise FanAxiomError(
            "CF2 violation: two cones share a valuation point in their "
            "relative interiors", witness=failure[2])
    return fan


def _faces_fan(d: SphericalDatum, cones: Sequence[ColoredCone]) -> ColoredFan:
    """The fan of the colored faces of the given cones, ordered by
    dimension, each at its first occurrence; CF2 is not checked.

    The occurrences, cone by cone and each cone's faces as
    ``colored_faces`` lists them, are read off one face table, and only
    the first of each bitset and palette becomes a colored cone.  A face
    of a pointed cone whose generators are extreme rays is pointed, and
    its generators are exactly its extreme rays.  So when every given cone
    is such, as its own lattice shows (its bottom face is {0} and each
    generator is a face), equal faces have equal bitsets, and the fan
    computes no key.  Otherwise ``ColoredFan`` tells the faces apart by
    key, and an empty list raises there.  The table reads the dual of each
    given cone, so they are computed together first (``_fill_duals``)."""
    _fill_duals([cc.cone for cc in cones], {})
    table = _FaceTable(d, cones)
    found = sorted(((i, face) for i in range(len(cones)) for face in table.colored(i)),
                   key=lambda m: m[1][0])
    first: dict[tuple[int, frozenset[str]], tuple] = {}
    for i, face in found:
        first.setdefault(face[2:4], (i, face))  # by bitset and palette
    kept = [table.colored_cone(i, *face) for i, face in first.values()]
    return ColoredFan._of_distinct(kept) if table.extreme and kept else ColoredFan(kept)
