"""Morphisms of spherical data and compatibility with colored fans.

A morphism carries a surjective linear map between the ambient spaces
that sends the source valuation cone onto the target one, plus a partial
color map.  The domain of the color map is input data: which colors have
non-dense image is a geometric fact that the combinatorial datum does
not determine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

from .cones import Cone, cones_equal
from .rational import Frozen, Mat, RankMismatchError, Vec
from .spherical import ColoredCone, ColoredFan, SphericalDatum, UnknownColorError


class FanMorphism(Frozen):
    """Linear map (target_rank x source_rank) + partial color map."""

    __slots__ = ("source", "target", "linear_map", "domain_colors", "color_map")

    def __init__(self, source: SphericalDatum, target: SphericalDatum,
                 linear_map: Mat, domain_colors: Sequence[str] = (),
                 color_map: Mapping[str, str] = None):
        color_map = dict(color_map or {})
        if linear_map.nrows != target.rank or linear_map.ncols != source.rank:
            raise RankMismatchError(
                f"linear map must be {target.rank}x{source.rank}, "
                f"got {linear_map.nrows}x{linear_map.ncols}")
        source.check_colors(domain_colors)
        if set(color_map) != set(domain_colors):
            raise UnknownColorError("color_map domain must equal domain_colors")
        target.check_colors(color_map.values())
        FanMorphism._set_source(self, source)
        FanMorphism._set_target(self, target)
        FanMorphism._set_linear_map(self, linear_map)
        FanMorphism._set_domain_colors(self, frozenset(domain_colors))
        FanMorphism._set_color_map(self, color_map)

    def push_cone(self, c: Cone) -> Cone:
        return c.image(self.linear_map)


class MorphismReport(NamedTuple):
    surjective: bool
    v_onto_v: bool
    v_counterexample: Optional[Vec]   # generator witnessing the failed inclusion
    rho_warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.surjective and self.v_onto_v


def _first_outside(a: Cone, b: Cone) -> Optional[Vec]:
    """The first generator of a that b does not contain, or None.  Both
    lie in the target's space, whose rank the morphism fixed, so a's int
    generators go to b's int core with no gate; the answer is a Fraction
    vector."""
    g = next((g for g in a._ints if b._face_facets(g) is None), None)
    return None if g is None else tuple(map(Fraction, g))


def validate_morphism(m: FanMorphism) -> MorphismReport:
    """Check surjectivity of the linear map and V1 -> onto -> V2.

    Colors whose target rho image disagrees with the pushed source image
    are listed as warnings, not failures.
    """
    surjective = m.linear_map.rank() == m.target.rank

    image = m.push_cone(m.source.valuation_cone)
    v2 = m.target.valuation_cone
    counterexample = _first_outside(image, v2)
    if counterexample is None:
        counterexample = _first_outside(v2, image)

    warnings = tuple(c for c in sorted(m.domain_colors)
                     if m.linear_map.matvec(m.source.rho[c]) != m.target.rho[m.color_map[c]])
    return MorphismReport(surjective=surjective, v_onto_v=counterexample is None,
                          v_counterexample=counterexample, rho_warnings=warnings)


def _mapped_palette(m: FanMorphism, cc1: ColoredCone) -> set[str]:
    return {m.color_map[f] for f in cc1.palette & m.domain_colors}


def _target_rank(m: FanMorphism, c2: Cone) -> None:
    """Raise ``RankMismatchError`` unless c2 lies in the target's space,
    where the pushed cones lie."""
    if c2.ambient_rank != m.target.rank:
        raise RankMismatchError(f"target cone of rank {c2.ambient_rank}, expected {m.target.rank}")


def _maps_into(image: Cone, mapped: set[str], cc2: ColoredCone) -> bool:
    """The pushed cone inside C2, and the mapped colors inside F2.  The
    pushed generators are ints of C2's rank, which the caller checked, so
    they are tested at once against C2's int core."""
    # the pushed generators are positive multiples of the nonzero m·g,
    # and the zero images it drops lie in every cone
    return cc2.cone._holds(image._ints) and mapped <= cc2.palette


def is_morphism_of_cones(m: FanMorphism, cc1: ColoredCone, cc2: ColoredCone) -> bool:
    """Image of C1 inside C2, and mapped domain colors of F1 inside F2."""
    _target_rank(m, cc2.cone)
    return _maps_into(m.push_cone(cc1.cone), _mapped_palette(m, cc1), cc2)


class FanMorphismReport(NamedTuple):
    # per source cone: index of the first matching target cone, or None
    matches: tuple[Optional[int], ...]

    @property
    def ok(self) -> bool:
        return all(i is not None for i in self.matches)


def is_morphism_of_fans(m: FanMorphism, f1: ColoredFan,
                        f2: ColoredFan) -> FanMorphismReport:
    # the members of a fan share one rank, so one check covers f2
    _target_rank(m, f2.cones[0].cone)
    matches = []
    for cc1 in f1:
        # each source cone is pushed, and its colors mapped, once
        image, mapped = m.push_cone(cc1.cone), _mapped_palette(m, cc1)
        matches.append(next((j for j, cc2 in enumerate(f2)
                             if _maps_into(image, mapped, cc2)), None))
    return FanMorphismReport(matches=tuple(matches))


def compose(first: FanMorphism, second: FanMorphism) -> FanMorphism:
    """second ∘ first; the composed color domain is the pullback.

    The target of first and the source of second must be equal data:
    the same rank, valuation cone, colors and rho.
    """
    mid, src = first.target, second.source
    if mid.rank != src.rank:
        raise RankMismatchError("composition rank mismatch")
    if (not cones_equal(mid.valuation_cone, src.valuation_cone)
            or set(mid.colors) != set(src.colors) or mid.rho != src.rho):
        raise ValueError("composition: the first target is not the second source")
    domain = [c for c in first.domain_colors
              if first.color_map[c] in second.domain_colors]
    cmap = {c: second.color_map[first.color_map[c]] for c in domain}
    return FanMorphism(first.source, second.target,
                       second.linear_map.matmul(first.linear_map), domain, cmap)
