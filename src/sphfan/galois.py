"""Finite group actions on a spherical datum and fan invariance.

The group is given by an explicit finite list of elements (matrix on the
ambient lattice plus a permutation of colors); continuity means every
relevant action factors through such a finite quotient, so closure and
inverse checks can be exhaustive.  The invariant closure of a set of
colored cones is the closure of the seeds under the elements, handed to
``spherical.faces_closure``: faces are closed in that one place.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, NamedTuple, Sequence

from .cones import cones_equal
from .rational import Frozen, Mat, RankMismatchError
from .spherical import ColoredCone, ColoredFan, SphericalDatum, _distinct, faces_closure
# not called here: the benchmark's tracer wraps this name in this module
from .spherical import colored_cones_equal  # noqa: F401


class GroupElement(Frozen):
    __slots__ = ("name", "matrix", "color_perm")

    def __init__(self, name: str, matrix: Mat, color_perm: Mapping[str, str]):
        GroupElement._set_name(self, name)
        GroupElement._set_matrix(self, matrix)
        GroupElement._set_color_perm(self, dict(color_perm))


class GaloisAction(Frozen):
    """Finite quotient of a Galois group acting on a spherical datum."""

    __slots__ = ("datum", "elements")

    def __init__(self, datum: SphericalDatum, elements: Sequence[GroupElement]):
        names = [e.name for e in elements]
        if len(set(names)) != len(names):
            raise ValueError("duplicate element names")
        for e in elements:
            if e.matrix.nrows != datum.rank or e.matrix.ncols != datum.rank:
                raise RankMismatchError(f"element {e.name!r} matrix is not rank x rank")
            if not datum.permutes_colors(e.color_perm):
                raise ValueError(f"element {e.name!r} color map is not a permutation of the colors")
        GaloisAction._set_datum(self, datum)
        GaloisAction._set_elements(self, tuple(elements))

    def element(self, name: str) -> GroupElement:
        for e in self.elements:
            if e.name == name:
                return e
        raise KeyError(f"unknown group element {name!r}")

    def compose(self, g: GroupElement, h: GroupElement) -> tuple[Mat, dict]:
        """The action of g∘h (apply h, then g)."""
        matrix = g.matrix.matmul(h.matrix)
        perm = {c: g.color_perm[h.color_perm[c]] for c in self.datum.colors}
        return matrix, perm


class ActionReport(NamedTuple):
    has_identity: bool
    closed: bool
    has_inverses: bool
    unimodular: bool
    v_stable: bool
    rho_equivariant: bool
    failures: tuple[str, ...]   # human-readable counterexample notes

    @property
    def ok(self) -> bool:
        return not self.failures


def _action_key(matrix: Mat, perm: Mapping[str, str]) -> tuple:
    """Hashable form of an action: equal iff matrix and color map are."""
    return matrix.den, matrix.ints, tuple(sorted(perm.items()))


def validate_action(a: GaloisAction) -> ActionReport:
    """Group axioms, unimodularity, V-stability and rho-equivariance.

    Each property collects its counterexample notes in a list of its own,
    and its flag is the emptiness of that list; ``failures`` joins the
    lists in the order of the flags.  Each composite g∘h is formed once
    and looked up by its key, so the group checks take O(|Γ|²)
    compositions.
    """
    d = a.datum
    v = d.valuation_cone
    present = {_action_key(e.matrix, e.color_perm) for e in a.elements}
    ident = _action_key(Mat.identity(d.rank), {c: c for c in d.colors})
    # composites[i][j] is the key of elements[i]∘elements[j]
    composites = [[_action_key(*a.compose(g, h)) for h in a.elements]
                  for g in a.elements]

    notes = {"has_identity": [] if ident in present else ["no identity element"]}
    notes["closed"] = [f"composite {g.name!r}∘{h.name!r} is not in the list"
                       for g, row in zip(a.elements, composites)
                       for h, key in zip(a.elements, row) if key not in present]
    # an inverse h gives g∘h = identity, which must itself be listed
    notes["has_inverses"] = [f"element {g.name!r} has no inverse in the list"
                             for g, row in zip(a.elements, composites)
                             if notes["has_identity"] or ident not in row]
    notes["unimodular"] = [f"element {g.name!r} is not integral unimodular"
                           for g in a.elements if not g.matrix.is_integral_unimodular()]
    notes["v_stable"] = [f"element {g.name!r} does not map V onto V"
                         for g in a.elements if not cones_equal(v.image(g.matrix), v)]
    notes["rho_equivariant"] = [
        f"element {g.name!r} breaks rho-equivariance at color {c!r}"
        for g in a.elements for c in d.colors
        if g.matrix.matvec(d.rho[c]) != d.rho[g.color_perm[c]]]
    return ActionReport(**{flag: not n for flag, n in notes.items()},
                        failures=tuple(chain.from_iterable(notes.values())))


def apply_element(a: GaloisAction, gamma: str | GroupElement,
                  cc: ColoredCone) -> ColoredCone:
    """The translated colored cone (M·C, perm(F))."""
    e = a.element(gamma) if isinstance(gamma, str) else gamma
    palette = {e.color_perm[f] for f in cc.palette}
    return ColoredCone(cc.cone.image(e.matrix), palette)


class InvarianceReport(NamedTuple):
    # (element name, member index) pairs whose image is not a member
    failures: tuple[tuple[str, int], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def is_invariant_fan(a: GaloisAction, fan: ColoredFan) -> InvarianceReport:
    """Each image is looked up with ``ColoredFan.index``, by the rule of
    ``spherical._distinct``."""
    failures = [(e.name, i) for e in a.elements for i, cc in enumerate(fan)
                if fan.index(apply_element(a, e, cc)) is None]
    return InvarianceReport(failures=tuple(failures))


def orbit(a: GaloisAction, cc: ColoredCone) -> list[ColoredCone]:
    """The distinct images of cc (``spherical._distinct``), each at its
    first element."""
    return [cc for _, cc in _distinct(apply_element(a, e, cc) for e in a.elements)]


def invariant_closure(a: GaloisAction, seeds: Sequence[ColoredCone]) -> ColoredFan:
    """Minimal Γ-invariant colored fan containing the seeds.

    Precondition: every element is invertible and rho-equivariant (the
    CLI calls this only after ``validate_action`` passes).  Such a γ maps
    the faces of a cone C onto the faces of γC, and rho(γf) = γ·rho(f)
    puts rho(γf) in γF iff rho(f) is in F, so γ maps the colored faces of
    C, palettes included, onto the colored faces of γC.  Faces of faces
    and images of faces therefore add no member: the closure is
    ``faces_closure`` of the seeds closed under the elements.

    That closure is one first-in-first-out worklist, started with the
    seeds and read through ``spherical._distinct``: each colored cone new
    there is kept and its orbit goes to the back.  ``faces_closure``
    orders by dimension, then first occurrence, and raises FanAxiomError
    with a witness on a CF2 failure.  Γ must be finite: an element of
    infinite order makes orbits of ever new cones, and the worklist never
    empties.
    """
    worklist = list(seeds)
    members = []
    # a list iterator also reads the items appended while it runs
    for _, cc in _distinct(worklist):
        members.append(cc)
        worklist += orbit(a, cc)
    return faces_closure(a.datum, members)
