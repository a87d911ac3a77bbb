"""Exact rational colored cones and colored fans for spherical embedding data."""

from .cones import Cone, cones_equal, relint_meets_cone, relints_meet_in
from .galois import (GaloisAction, GroupElement, apply_element, invariant_closure,
                     is_invariant_fan, orbit, validate_action)
from .lp import FeasibilitySystem, OracleDisagreement
from .morphisms import (FanMorphism, is_morphism_of_cones, is_morphism_of_fans,
                        validate_morphism)
from .rational import Mat, Vec, format_rat, parse_rat
from .spherical import (ColoredCone, ColoredFan, FanAxiomError, SphericalDatum,
                        UnknownColorError, colored_cones_equal, colored_faces,
                        faces_closure, fans_equal, is_strictly_convex_colored,
                        is_strictly_convex_fan, maximal_cones, orbit_count,
                        validate_colored_cone, validate_colored_fan)

__all__ = [
    "Cone", "cones_equal", "relint_meets_cone", "relints_meet_in",
    "GaloisAction", "GroupElement", "apply_element",
    "invariant_closure", "is_invariant_fan", "orbit", "validate_action",
    "FeasibilitySystem", "OracleDisagreement", "FanMorphism",
    "is_morphism_of_cones", "is_morphism_of_fans", "validate_morphism",
    "Mat", "Vec", "format_rat", "parse_rat", "ColoredCone", "ColoredFan",
    "FanAxiomError", "SphericalDatum", "UnknownColorError", "colored_cones_equal",
    "colored_faces", "faces_closure", "fans_equal", "is_strictly_convex_colored",
    "is_strictly_convex_fan", "maximal_cones", "orbit_count", "validate_colored_cone",
    "validate_colored_fan",
]
