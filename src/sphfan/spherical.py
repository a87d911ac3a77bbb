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

from .cones import Cone, cones_equal, relint_meets_cone, relints_meet_in
from .rational import Vec, is_zero_vec, rat


class UnknownColorError(KeyError):
    pass


class RankMismatchError(ValueError):
    pass


class FanAxiomError(ValueError):
    """Raised by constructive operations when CF2 fails; carries a witness."""

    def __init__(self, message: str, witness: Optional[Vec] = None):
        super().__init__(message)
        self.witness = witness


class SphericalDatum:
    """The input tuple: rank, valuation cone V, color set D, map rho."""

    __slots__ = ("rank", "valuation_cone", "colors", "rho")

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

    def __setattr__(self, name, value):
        raise AttributeError("SphericalDatum is immutable")

    def check_colors(self, palette: Iterable[str]) -> None:
        unknown = set(palette) - set(self.colors)
        if unknown:
            raise UnknownColorError(f"unknown colors: {sorted(unknown)}")


class ColoredCone:
    """A pair (cone, palette).  Validity only via validate_colored_cone."""

    __slots__ = ("cone", "palette")

    def __init__(self, cone: Cone, palette: Iterable[str] = ()):
        object.__setattr__(self, "cone", cone)
        object.__setattr__(self, "palette", frozenset(palette))

    def __setattr__(self, name, value):
        raise AttributeError("ColoredCone is immutable")

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
    return a.key == b.key


class ColoredFan:
    """Nonempty, duplicate-free finite collection of colored cones.

    Of equal colored cones the first is kept, generators as given.
    Equality is settled by the generator set and palette first, and
    otherwise by the canonical key: a colored cone repeating a generator
    set and palette already seen is a duplicate with no key computed.
    ``_keys`` maps each colored generator key seen to its key."""

    __slots__ = ("cones", "_keys")

    def __init__(self, cones: Iterable[ColoredCone]):
        keys: dict[tuple, tuple] = {}
        members: dict[tuple, ColoredCone] = {}
        for cc in cones:
            gens = cc._gens_key
            if gens not in keys:
                keys[gens] = cc.key
                members.setdefault(keys[gens], cc)
        if not members:
            raise ValueError("a colored fan must be nonempty")
        ranks = {cc.cone.ambient_rank for cc in members.values()}
        if len(ranks) != 1:
            raise RankMismatchError("fan members have mixed ambient ranks")
        object.__setattr__(self, "cones", tuple(members.values()))
        object.__setattr__(self, "_keys", keys)

    def __setattr__(self, name, value):
        raise AttributeError("ColoredFan is immutable")

    def __len__(self):
        return len(self.cones)

    def __iter__(self):
        return iter(self.cones)

    def _member_key(self, cc: ColoredCone) -> tuple:
        """The key of the member equal to cc if its generator set and
        palette were seen here, else cc's own key (a double description)."""
        key = self._keys.get(cc._gens_key)
        return cc.key if key is None else key


def fans_equal(a: ColoredFan, b: ColoredFan) -> bool:
    return {x.key for x in a} == {y.key for y in b}


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
    generator set first and otherwise by canonical key.
    """
    _check(d, cc)
    c = cc.cone
    v = d.valuation_cone
    rho_imgs = [d.rho[f] for f in sorted(cc.palette)]

    cc1 = True
    detail = ""
    for f in sorted(cc.palette):
        if not c.contains(d.rho[f]):
            cc1 = False
            detail = f"rho({f}) lies outside the cone"
            break
    if cc1 and not all(v.contains(g) for g in c._ints):
        regen = Cone(d.rank, list(rho_imgs) + list(c.intersect(v).generators))
        if not cones_equal(regen, c):
            cc1 = False
            detail = "cone is not generated by rho(palette) and cone ∩ V"

    witness = relint_meets_cone(c, v)
    return ColoredConeReport(cc1=cc1, cc2=witness is not None,
                             cc2_witness=witness, cc1_detail=detail)


def is_strictly_convex_colored(d: SphericalDatum, cc: ColoredCone) -> bool:
    _check(d, cc)
    if not cc.cone.is_strictly_convex():
        return False
    return all(not is_zero_vec(d.rho[f]) for f in cc.palette)


def colored_faces(d: SphericalDatum, cc: ColoredCone) -> list[ColoredCone]:
    """Colored faces of cc: faces whose relative interior meets V, with
    the induced palette {f : rho(f) in face}.  cc itself is included.

    Each color's carrier, the generators of the smallest face of cc
    holding rho(f) (None if rho(f) lies outside cc), is read once off
    cc's facets.  A face is generated by the generators it contains, so
    rho(f) lies in a face iff the carrier is among the face's generators,
    and no face needs a dual description of its own.  The relative
    interiors are tested with ``Cone.relint_meets``, which solves the
    same LP as ``relint_meets_cone`` but assembles no witness.
    """
    _check(d, cc)
    v = d.valuation_cone
    carriers = {f: cc.cone._carrier(d.rho[f]) for f in cc.palette}
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
    for cc in fan:
        _check(d, cc)
    reports = tuple(validate_colored_cone(d, cc) for cc in fan)

    keys = {cc.key for cc in fan}
    cf1_missing = [(i, face) for i, cc in enumerate(fan)
                   for face in colored_faces(d, cc) if fan._member_key(face) not in keys]
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
    inside V, lazily: a consumer that stops early solves no more LPs."""
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            w = relints_meet_in(members[i].cone, members[j].cone, d.valuation_cone)
            if w is not None:
                yield i, j, w


def is_strictly_convex_fan(d: SphericalDatum, fan: ColoredFan) -> bool:
    return all(is_strictly_convex_colored(d, cc) for cc in fan)


def maximal_cones(d: SphericalDatum, fan: ColoredFan) -> list[ColoredCone]:
    """Members that are not a proper colored face of another member.

    The fan is "simple" (one closed orbit) iff exactly one maximal cone.
    """
    proper: set[tuple] = set()
    for cc in fan:
        proper |= {fan._member_key(f) for f in colored_faces(d, cc)} - {cc.key}
    return [cc for cc in fan if cc.key not in proper]


def is_simple(d: SphericalDatum, fan: ColoredFan) -> bool:
    return len(maximal_cones(d, fan)) == 1


def orbit_count(fan: ColoredFan) -> int:
    """Number of orbits of the classified embedding: one per colored cone."""
    return len(fan.cones)


def faces_closure(d: SphericalDatum, cones: Sequence[ColoredCone]) -> ColoredFan:
    """Close the given colored cones under faces and check CF2.

    Only colored faces are kept, so a given colored cone whose relative
    interior misses V, or whose palette holds a color f with rho(f)
    outside the cone, is dropped (the second with its face under the
    smaller palette kept).  Raises FanAxiomError (with witness) on a CF2
    violation; the returned fan is ordered by dimension, then first
    occurrence.
    """
    return _closed_fan(d, [colored_faces(d, cc) for cc in cones])


def _closed_fan(d: SphericalDatum,
                face_lists: Iterable[Sequence[ColoredCone]]) -> ColoredFan:
    """The fan of the colored cones in face_lists, each key at its first
    occurrence, ordered by dimension, after the lazy CF2 pass: one double
    description per distinct generator set and palette."""
    fan = ColoredFan(sorted(chain.from_iterable(face_lists), key=lambda cc: cc.cone.dim))
    failure = next(_cf2_failures(d, fan.cones), None)
    if failure is not None:
        raise FanAxiomError(
            "CF2 violation: two cones share a valuation point in their "
            "relative interiors", witness=failure[2])
    return fan
