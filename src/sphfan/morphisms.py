"""Morphisms of spherical data and compatibility with colored fans.

A morphism carries a surjective linear map between the ambient spaces
that sends the source valuation cone onto the target one, plus a partial
color map.  The domain of the color map is input data: which colors have
non-dense image is a geometric fact that the combinatorial datum does
not determine.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

from .cones import Cone
from .rational import Mat, Vec
from .spherical import (ColoredCone, ColoredFan, RankMismatchError,
                        SphericalDatum, UnknownColorError)


class FanMorphism:
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
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "linear_map", linear_map)
        object.__setattr__(self, "domain_colors", frozenset(domain_colors))
        object.__setattr__(self, "color_map", color_map)

    def __setattr__(self, name, value):
        raise AttributeError("FanMorphism is immutable")

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
    """The first generator of a that b does not contain, or None."""
    return next((g for g in a.generators if not b.contains(g)), None)


def validate_morphism(m: FanMorphism, warn_rho: bool = False) -> MorphismReport:
    """Check surjectivity of the linear map and V1 -> onto -> V2.

    With warn_rho, colors whose target rho image disagrees with the
    pushed source image are listed as warnings (not failures).
    """
    surjective = m.linear_map.rank() == m.target.rank

    image = m.push_cone(m.source.valuation_cone)
    v2 = m.target.valuation_cone
    counterexample = _first_outside(image, v2)
    if counterexample is None:
        counterexample = _first_outside(v2, image)

    warnings = []
    if warn_rho:
        for c in sorted(m.domain_colors):
            pushed = m.linear_map.matvec(m.source.rho[c])
            if pushed != m.target.rho[m.color_map[c]]:
                warnings.append(c)
    return MorphismReport(surjective=surjective, v_onto_v=counterexample is None,
                          v_counterexample=counterexample,
                          rho_warnings=tuple(warnings))


def _mapped_palette(m: FanMorphism, cc1: ColoredCone) -> set[str]:
    return {m.color_map[f] for f in cc1.palette & m.domain_colors}


def _maps_into(image: Cone, mapped: set[str], cc2: ColoredCone) -> bool:
    """The pushed cone inside C2, and the mapped colors inside F2."""
    # the pushed generators are positive multiples of the nonzero m·g,
    # and the zero images it drops lie in every cone
    return all(cc2.cone.contains(g) for g in image.generators) and mapped <= cc2.palette


def is_morphism_of_cones(m: FanMorphism, cc1: ColoredCone, cc2: ColoredCone) -> bool:
    """Image of C1 inside C2, and mapped domain colors of F1 inside F2."""
    return _maps_into(m.push_cone(cc1.cone), _mapped_palette(m, cc1), cc2)


class FanMorphismReport(NamedTuple):
    # per source cone: index of the first matching target cone, or None
    matches: tuple[Optional[int], ...]

    @property
    def ok(self) -> bool:
        return all(i is not None for i in self.matches)


def is_morphism_of_fans(m: FanMorphism, f1: ColoredFan,
                        f2: ColoredFan) -> FanMorphismReport:
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
    if (mid.valuation_cone.key != src.valuation_cone.key
            or set(mid.colors) != set(src.colors) or mid.rho != src.rho):
        raise ValueError("composition: the first target is not the second source")
    domain = [c for c in first.domain_colors
              if first.color_map[c] in second.domain_colors]
    cmap = {c: second.color_map[first.color_map[c]] for c in domain}
    return FanMorphism(first.source, second.target,
                       second.linear_map.matmul(first.linear_map), domain, cmap)
