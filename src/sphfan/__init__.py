"""Exact rational colored cones and colored fans for spherical embedding data.

``import sphfan`` loads no submodule.  Each public name is imported from
the module that defines it when it is first read (PEP 562) and then bound
here, so a later read is a plain attribute lookup.
"""

from importlib import import_module as _import_module

_HOMES = {
    "cones": ("Cone", "cones_equal", "relint_meets_cone", "relints_meet_in"),
    "galois": ("GaloisAction", "GroupElement", "apply_element", "invariant_closure",
               "is_invariant_fan", "orbit", "validate_action"),
    "lp": ("FeasibilitySystem", "OracleDisagreement"),
    "morphisms": ("FanMorphism", "is_morphism_of_cones", "is_morphism_of_fans",
                  "validate_morphism"),
    "rational": ("Mat", "Vec", "format_rat", "parse_rat"),
    "spherical": ("ColoredCone", "ColoredFan", "FanAxiomError", "SphericalDatum",
                  "UnknownColorError", "colored_cones_equal", "colored_faces",
                  "faces_closure", "fans_equal", "is_strictly_convex_colored",
                  "is_strictly_convex_fan", "maximal_cones", "orbit_count",
                  "validate_colored_cone", "validate_colored_fan"),
}
# the defining submodule of each public name
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
