"""Finite group actions on a spherical datum and fan invariance.

The group is given by an explicit finite list of elements (matrix on the
ambient lattice plus a permutation of colors); continuity means every
relevant action factors through such a finite quotient, so closure and
inverse checks can be exhaustive.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .cones import cones_equal
from .rational import Mat
from .spherical import (ColoredCone, ColoredFan, RankMismatchError,
                        SphericalDatum, _closed_fan, _distinct)
# not called here: the benchmark's tracer wraps these names in this module
from .spherical import colored_cones_equal, faces_closure  # noqa: F401


class GroupElement:
    __slots__ = ("name", "matrix", "color_perm")

    def __init__(self, name: str, matrix: Mat, color_perm: Mapping[str, str]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "color_perm", dict(color_perm))

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")


class GaloisAction:
    """Finite quotient of a Galois group acting on a spherical datum."""

    __slots__ = ("datum", "elements")

    def __init__(self, datum: SphericalDatum, elements: Sequence[GroupElement]):
        names = [e.name for e in elements]
        if len(set(names)) != len(names):
            raise ValueError("duplicate element names")
        for e in elements:
            if e.matrix.nrows != datum.rank or e.matrix.ncols != datum.rank:
                raise RankMismatchError(f"element {e.name!r} matrix is not rank x rank")
            if set(e.color_perm) != set(datum.colors) or \
                    set(e.color_perm.values()) != set(datum.colors):
                raise ValueError(f"element {e.name!r} color map is not a permutation of the colors")
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "elements", tuple(elements))

    def __setattr__(self, name, value):
        raise AttributeError("GaloisAction is immutable")

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
        return (self.has_identity and self.closed and self.has_inverses
                and self.unimodular and self.v_stable and self.rho_equivariant)


def _action_key(matrix: Mat, perm: Mapping[str, str]) -> tuple:
    """Hashable form of an action: equal iff matrix and color map are."""
    return matrix.den, matrix.ints, tuple(sorted(perm.items()))


def validate_action(a: GaloisAction) -> ActionReport:
    """Group axioms, unimodularity, V-stability and rho-equivariance.

    Each composite g∘h is formed once and looked up by its key, so the
    group checks take O(|Γ|²) compositions.
    """
    d = a.datum
    failures = []

    present = {_action_key(e.matrix, e.color_perm) for e in a.elements}
    ident = _action_key(Mat.identity(d.rank), {c: c for c in d.colors})
    has_identity = ident in present
    if not has_identity:
        failures.append("no identity element")

    # composites[i][j] is the key of elements[i]∘elements[j]
    composites = [[_action_key(*a.compose(g, h)) for h in a.elements]
                  for g in a.elements]

    closed = True
    for g, row in zip(a.elements, composites):
        for h, key in zip(a.elements, row):
            if key not in present:
                closed = False
                failures.append(f"composite {g.name!r}∘{h.name!r} is not in the list")

    has_inverses = True
    for g, row in zip(a.elements, composites):
        # an inverse h gives g∘h = identity, which must itself be listed
        if not (has_identity and ident in row):
            has_inverses = False
            failures.append(f"element {g.name!r} has no inverse in the list")

    unimodular = True
    for g in a.elements:
        if not g.matrix.is_integral_unimodular():
            unimodular = False
            failures.append(f"element {g.name!r} is not integral unimodular")

    v_stable = True
    v = d.valuation_cone
    for g in a.elements:
        image = v.image(g.matrix)
        if not cones_equal(image, v):
            v_stable = False
            failures.append(f"element {g.name!r} does not map V onto V")

    rho_equivariant = True
    for g in a.elements:
        for c in d.colors:
            if g.matrix.matvec(d.rho[c]) != d.rho[g.color_perm[c]]:
                rho_equivariant = False
                failures.append(f"element {g.name!r} breaks rho-equivariance at color {c!r}")

    return ActionReport(has_identity=has_identity, closed=closed,
                        has_inverses=has_inverses, unimodular=unimodular,
                        v_stable=v_stable, rho_equivariant=rho_equivariant,
                        failures=tuple(failures))


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
    return list(_distinct(apply_element(a, e, cc) for e in a.elements))


def invariant_closure(a: GaloisAction, seeds: Sequence[ColoredCone]) -> ColoredFan:
    """Minimal Γ-invariant colored fan containing the seeds.

    One first-in-first-out worklist, started with the seeds and read
    through ``spherical._distinct``: each colored cone new there becomes
    a member, its colored faces are recorded, and its orbit and then
    those faces go to the back, so each member's orbit and faces are
    computed once.  The recorded faces go through the finisher of
    ``faces_closure``: dimension order, then the CF2 pass (FanAxiomError
    with a witness on failure).  Γ must be finite: an element of infinite
    order makes orbits of ever new cones, and the worklist never empties.
    """
    # looked up per call, so a wrapper put on spherical.colored_faces sees it
    from .spherical import colored_faces

    worklist = list(seeds)
    face_lists = []
    # a list iterator also reads the items appended while it runs
    for cc in _distinct(worklist):
        faces = colored_faces(a.datum, cc)
        face_lists.append(faces)
        worklist += orbit(a, cc) + faces
    return _closed_fan(a.datum, face_lists)
