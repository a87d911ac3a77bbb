"""Spherical data, colored cones, colored fans, and their validity axioms.

A datum is the combinatorial tuple (rank, valuation cone, colors, rho).
Colored cones are pairs (cone, palette); the two cone axioms are

  CC1: the cone is generated by the rho-images of its palette together
       with finitely many valuation-cone elements, and
  CC2: its relative interior meets the valuation cone.

Colored fans additionally satisfy face closure (CF1) and uniqueness of
the cone whose relative interior contains any given valuation vector
(CF2, decided pairwise).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

# relints_meet_in is no longer called here, but stays a name of this
# module: perfbench/tracing.py wraps it where sphfan looks it up
from .cones import (Cone, cones_equal, meeting_pairs, relint_meets_cone,  # noqa: F401
                    relints_meet_in)
from .rational import Frozen, RankMismatchError, Vec, integer_rows, rat


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
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "valuation_cone", valuation_cone)
        object.__setattr__(self, "colors", tuple(colors))
        object.__setattr__(self, "rho", images)
        object.__setattr__(self, "_rho_ints",
                           {c: tuple(integer_rows([v])[0]) for c, v in images.items()})

    def check_colors(self, palette: Iterable[str]) -> None:
        unknown = set(palette) - set(self.colors)
        if unknown:
            raise UnknownColorError(f"unknown colors: {sorted(unknown)}")

    def permutes_colors(self, perm: Mapping[str, str]) -> bool:
        """True iff perm maps the colors one-to-one onto the colors."""
        return set(perm) == set(perm.values()) == set(self.colors)


class ColoredCone(Frozen):
    """A pair (cone, palette).  Validity only via validate_colored_cone."""

    __slots__ = ("cone", "palette")

    def __init__(self, cone: Cone, palette: Iterable[str] = ()):
        object.__setattr__(self, "cone", cone)
        object.__setattr__(self, "palette", frozenset(palette))

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


def _distinct(ccs: Iterable[ColoredCone]) -> Iterator[ColoredCone]:
    """Each colored cone whose key is new, in order, lazily.

    This is the library's one identity rule: a colored cone repeating a
    generator set and palette seen before is skipped with no key
    computed, and the others are told apart by key."""
    gens: set[tuple] = set()
    keys: set[tuple] = set()
    for cc in ccs:
        if cc._gens_key not in gens:
            gens.add(cc._gens_key)
            if cc.key not in keys:
                keys.add(cc.key)
                yield cc


class ColoredFan(Frozen):
    """Nonempty, duplicate-free finite collection of colored cones.

    Of equal colored cones the first is kept, generators as given
    (``_distinct``); ``index`` finds a member."""

    __slots__ = ("cones", "_by_gens", "_by_key")

    def __init__(self, cones: Iterable[ColoredCone]):
        members = tuple(_distinct(cones))
        if not members:
            raise ValueError("a colored fan must be nonempty")
        if len({cc.cone.ambient_rank for cc in members}) != 1:
            raise RankMismatchError("fan members have mixed ambient ranks")
        object.__setattr__(self, "cones", members)
        object.__setattr__(self, "_by_gens", {cc._gens_key: i for i, cc in enumerate(members)})
        object.__setattr__(self, "_by_key", {cc.key: i for i, cc in enumerate(members)})

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
    """Decide CC1 and CC2 independently, with witnesses.

    CC1 is equivalent to: rho(palette) lies in the cone, and the cone is
    regenerated by rho(palette) together with generators of its
    intersection with V.  A cone whose generators all lie in V is its
    own intersection with V, so then CC1 holds with no intersection;
    otherwise the regenerated cone is compared by ``cones_equal``, by
    generator set first and otherwise by canonical key.  CC1 holds iff
    ``cc1_detail``, the first failed test, is empty.
    """
    _check(d, cc)
    c = cc.cone
    v = d.valuation_cone
    palette = sorted(cc.palette)

    detail = ""
    outside = next((f for f in palette if not c.contains(d._rho_ints[f])), None)
    if outside is not None:
        detail = f"rho({outside}) lies outside the cone"
    elif not all(v.contains(g) for g in c._ints):
        regen = Cone(d.rank, [d._rho_ints[f] for f in palette] + list(c.intersect(v)._ints))
        if not cones_equal(regen, c):
            detail = "cone is not generated by rho(palette) and cone ∩ V"

    witness = relint_meets_cone(c, v)
    return ColoredConeReport(cc1=not detail, cc2=witness is not None,
                             cc2_witness=witness, cc1_detail=detail)


def is_strictly_convex_colored(d: SphericalDatum, cc: ColoredCone) -> bool:
    _check(d, cc)
    if not cc.cone.is_strictly_convex():
        return False
    return all(any(d.rho[f]) for f in cc.palette)


def colored_faces(d: SphericalDatum, cc: ColoredCone) -> list[ColoredCone]:
    """Colored faces of cc: faces whose relative interior meets V, with
    the induced palette {f : rho(f) in face}.  cc itself is included.

    Each color's carrier, the generators of the smallest face of cc
    holding rho(f) (None if rho(f) lies outside cc), is read once off
    cc's facets.  A face is generated by the generators it contains, so
    rho(f) lies in a face iff the carrier is among the face's generators,
    and no face needs a dual description of its own.  The relative
    interiors are tested with ``Cone.relint_meets``, which asks the
    same LP as ``relint_meets_cone`` but assembles no witness, so a face
    whose generator sum lies in V is settled with no simplex run.  That
    LP is kept on V, one per distinct cone, and solved once: the top face
    repeats the CC2 test of cc, and a face shared by several members, or
    itself a member, is solved by the first of them.
    """
    _check(d, cc)
    v = d.valuation_cone
    carriers = {f: cc.cone._carrier(d._rho_ints[f]) for f in cc.palette}
    out = []
    for face in cc.cone.faces():
        if not face.relint_meets(v):
            continue
        gens = set(face._ints)
        palette = {f for f, c in carriers.items() if c is not None and c <= gens}
        out.append(ColoredCone(face, palette))
    return out


def validate_colored_fan(d: SphericalDatum, fan: ColoredFan) -> ColoredFanReport:
    """Per-cone CC1/CC2, then CF1 (face closure) and CF2 (pairwise)."""
    reports = tuple(validate_colored_cone(d, cc) for cc in fan)

    cf1_missing = [(i, face) for i, cc in enumerate(fan)
                   for face in colored_faces(d, cc) if fan.index(face) is None]
    cf2_failures = list(_cf2_failures(d, fan.cones))
    return ColoredFanReport(
        cone_reports=reports,
        cf1=not cf1_missing,
        cf1_missing=tuple(cf1_missing),
        cf2=not cf2_failures,
        cf2_failures=tuple(cf2_failures),
    )


def _cf2_failures(d: SphericalDatum,
                  members: Sequence[ColoredCone]) -> Iterator[tuple[int, int, Vec]]:
    """(i, j, witness) for each pair i < j whose relative interiors meet
    inside V, lazily: a consumer that stops early solves no more LPs.  One
    CF2 pass, ``cones.meeting_pairs``, over the members' cones."""
    return meeting_pairs([cc.cone for cc in members], d.valuation_cone)


def is_strictly_convex_fan(d: SphericalDatum, fan: ColoredFan) -> bool:
    return all(is_strictly_convex_colored(d, cc) for cc in fan)


def maximal_cones(d: SphericalDatum, fan: ColoredFan) -> list[ColoredCone]:
    """Members that are not a proper colored face of another member.

    The fan is "simple" (one closed orbit) iff exactly one maximal cone.
    """
    proper: set[Optional[int]] = set()
    for i, cc in enumerate(fan):
        proper |= {fan.index(f) for f in colored_faces(d, cc)} - {i}
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
    violation, found by the lazy pass of ``_cf2_failures``; the returned
    fan is ordered by dimension, then first occurrence.
    """
    fan = _faces_fan(d, cones)
    failure = next(_cf2_failures(d, fan.cones), None)
    if failure is not None:
        raise FanAxiomError(
            "CF2 violation: two cones share a valuation point in their "
            "relative interiors", witness=failure[2])
    return fan


def _faces_fan(d: SphericalDatum, cones: Iterable[ColoredCone]) -> ColoredFan:
    """The fan of the colored faces of the given cones, ordered by
    dimension, each at its first occurrence; CF2 is not checked."""
    faces = chain.from_iterable(colored_faces(d, cc) for cc in cones)
    return ColoredFan(sorted(faces, key=lambda cc: cc.cone.dim))
