"""Seeded benchmark inputs, each carrying the answer known from its construction.

Every family is built so that the seed picks among instances of equal
cost: a signed permutation of the coordinates (a ``Move``) for P1 fans
and pointed cones, the colored coordinates of a projection, the seed
orthant and element order of a group action.  The inputs change with the
seed while the amount of work does not.

The generators produce plain tuples; ``build_*`` functions turn them into
fresh sphfan objects, so each timed call starts without cached state.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb


def unit(n: int, i: int, s: int = 1) -> tuple[int, ...]:
    return tuple(s if j == i else 0 for j in range(n))


@dataclass(frozen=True)
class Move:
    """A signed permutation of coordinates: y[i] = signs[i] * x[perm[i]].

    Inputs are built in canonical coordinates and moved by a seeded Move,
    keeping their order, so every seed gives a congruent input.
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __call__(self, x):
        return tuple(self.signs[i] * x[self.perm[i]] for i in range(len(x)))

    def unit_of(self, y) -> tuple[int, int]:
        """(k, s) with self(s * e_k) = y, for a signed unit vector y."""
        (j,) = [i for i, x in enumerate(y) if x]
        return self.perm[j], (1 if y[j] > 0 else -1) * self.signs[j]


def random_move(rng: random.Random, n: int) -> Move:
    return Move(tuple(rng.sample(range(n), n)),
                tuple(rng.choice((1, -1)) for _ in range(n)))


def identity_move(n: int) -> Move:
    return Move(tuple(range(n)), (1,) * n)


# ------------------------------------------------------------ P1^n fans

@dataclass(frozen=True)
class P1Fan:
    """A subfan of the product fan of n copies of P1, with extra rays.

    In canonical coordinates the first ``n_free`` coordinates take the
    signs {0, +, -} and the others {0, +}; with every coordinate free this
    is the complete P1^n fan of 3^n cones.  The valuation cone is all of
    Q^n.  A coordinate i in ``colored`` carries the color ``D<i>`` with
    rho = +e_i, and every cone containing +e_i carries that color.  Each
    of the ``n_extra`` extra rays runs through the relative interior of a
    distinct 2-cone, so each adds exactly one CF2 failure.  ``move`` maps
    all of it to the coordinates the library sees.
    """

    n: int
    n_free: int
    colored: tuple[int, ...]
    n_extra: int
    move: Move

    def sign_vectors(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*[(0, 1, -1) if i < self.n_free else (0, 1)
                                        for i in range(self.n)]))

    def maximal_sign_vectors(self) -> list[tuple[int, ...]]:
        return [s for s in self.sign_vectors() if all(s)]

    def extra(self) -> list[tuple[int, ...]]:
        return [s for s in self.sign_vectors() if sum(map(abs, s)) == 2][:self.n_extra]

    def palette(self, signs: tuple[int, ...]) -> list[str]:
        return [f"D{i}" for i in self.colored if signs[i] == 1]

    def ray(self, i: int, s: int = 1) -> tuple[int, ...]:
        return self.move(unit(self.n, i, s))

    def signature(self, cc) -> tuple[tuple[int, ...], frozenset]:
        """Canonical (sign vector, palette) of a cone spanned by moved unit rays."""
        signs = [0] * self.n
        for g in cc.cone.generators:
            k, s = self.move.unit_of(g)
            signs[k] = s
        return tuple(signs), frozenset(cc.palette)

    def expected_signatures(self) -> set:
        return {(s, frozenset(self.palette(s))) for s in self.sign_vectors()}

    @property
    def n_cones(self) -> int:
        """Cones of the face-closed part, extra rays not counted."""
        return 3 ** self.n_free * 2 ** (self.n - self.n_free)

    @property
    def validate_lp_calls(self) -> int:
        """LP solves of validate_colored_fan: CF2 pairs + CC2 tests + face tests.

        A cone of dimension k is simplicial with 2^k faces, each tested
        once for meeting V; summed over sign vectors this is 5 per free
        coordinate and 3 per other one.
        """
        m = self.n_cones + self.n_extra
        faces = 5 ** self.n_free * 3 ** (self.n - self.n_free) + 2 * self.n_extra
        return comb(m, 2) + m + faces

    def cf2_failures(self) -> set[tuple[int, int]]:
        """Index pairs (2-cone, extra ray) in the member order of build_p1_cones."""
        index = {s: i for i, s in enumerate(self.sign_vectors())}
        return {(index[s], self.n_cones + k) for k, s in enumerate(self.extra())}


def p1_fan(rng: random.Random, n: int, n_free: int, n_colored: int,
           n_extra: int = 0) -> P1Fan:
    """The canonical fan with colors on the first n_colored coordinates, moved."""
    return P1Fan(n, n_free, tuple(range(n_colored)), n_extra, random_move(rng, n))


def build_p1_datum(f: P1Fan):
    from sphfan import Cone, SphericalDatum
    v = Cone(f.n, [f.ray(i, s) for i in range(f.n) for s in (1, -1)])
    return SphericalDatum(f.n, v, [f"D{i}" for i in f.colored],
                          {f"D{i}": f.ray(i) for i in f.colored})


def build_p1_cones(f: P1Fan, maximal_only: bool = False):
    from sphfan import ColoredCone, Cone
    vectors = f.maximal_sign_vectors() if maximal_only else f.sign_vectors()
    cones = [ColoredCone(Cone(f.n, [f.ray(i, x) for i, x in enumerate(s) if x]),
                         f.palette(s))
             for s in vectors]
    if not maximal_only:
        cones += [ColoredCone(Cone(f.n, [f.move(s)])) for s in f.extra()]
    return cones


# ------------------------------------------------------- pointed cones

@dataclass(frozen=True)
class PointedCone:
    """A pointed cone with a known number of faces (apex and itself included).

    ``colored`` lists generator indices whose ray carries a color; each
    such ray is a face of ``faces_per_colored_ray`` faces, so the colored
    faces of the cone carry that many colors per colored ray in total.
    """

    rank: int
    generators: tuple[tuple[int, ...], ...]
    n_faces: int
    colored: tuple[int, ...]
    faces_per_colored_ray: int


def cube_cone(rng: random.Random, r: int, n_colored: int = 0) -> PointedCone:
    """The cone over an (r-1)-cube, in seeded signed coordinates.

    It has 3^(r-1) + 1 faces; each vertex ray lies in 2^(r-1) of them.
    The seed picks the Move; the generator order stays canonical, so
    double description does the same steps for every seed.
    """
    move = random_move(rng, r)
    gens = tuple(move((1,) + v) for v in itertools.product((1, -1), repeat=r - 1))
    colored = tuple(sorted(rng.sample(range(len(gens)), n_colored)))
    return PointedCone(r, gens, 3 ** (r - 1) + 1, colored, 2 ** (r - 1))


def cyclic_cone(rng: random.Random, ts: tuple[int, ...]) -> PointedCone:
    """The cone over the cyclic 4-polytope on the moment-curve points ts.

    Its faces: apex, k rays, C(k,2) edges (the polytope is neighbourly),
    k(k-3) triangles, k(k-3)/2 facets and the cone itself.  As for cubes,
    the seed picks the Move.
    """
    move = random_move(rng, 5)
    gens = tuple(move((1, t, t * t, t ** 3, t ** 4)) for t in sorted(ts))
    k = len(ts)
    n_faces = 2 + k + comb(k, 2) + k * (k - 3) + k * (k - 3) // 2
    return PointedCone(5, gens, n_faces, (), 0)


def build_pointed(p: PointedCone):
    """(datum, colored cone) with V = Q^rank and one color per colored ray."""
    from sphfan import ColoredCone, Cone, SphericalDatum
    r = p.rank
    v = Cone(r, [unit(r, i, s) for i in range(r) for s in (1, -1)])
    names = [f"R{i}" for i in p.colored]
    d = SphericalDatum(r, v, names,
                       {f"R{i}": p.generators[i] for i in p.colored})
    return d, ColoredCone(Cone(r, p.generators), names)


# ------------------------------------------------ signed permutations

@dataclass(frozen=True)
class TwistedP1:
    """A signed-permutation group acting on P1^n colored on all 2n rays.

    The color ``D<i><+|->`` has rho = ±e_i.  The group contains every sign
    change, so the invariant closure of one seed orthant cone is the
    complete P1^n fan of 3^n cones.
    """

    n: int
    seed_orthant: tuple[int, ...]
    elements: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (perm, signs)

    @property
    def n_cones(self) -> int:
        return 3 ** self.n

    def expected_signatures(self) -> set:
        """(sign vector, colors) of every cone of the closure."""
        full = P1Fan(self.n, self.n, (), 0, identity_move(self.n))
        return {(s, frozenset(_color(i, x) for i, x in enumerate(s) if x))
                for s in full.sign_vectors()}


def _color(i: int, s: int) -> str:
    return f"D{i}{'+' if s > 0 else '-'}"


def twisted_p1(rng: random.Random, n: int) -> TwistedP1:
    """All of B_n, in seeded order, with a seeded seed orthant."""
    elements = [(perm, signs)
                for perm in itertools.permutations(range(n))
                for signs in itertools.product((1, -1), repeat=n)]
    rng.shuffle(elements)
    orthant = tuple(rng.choice((1, -1)) for _ in range(n))
    return TwistedP1(n, orthant, tuple(elements))


def sign_changes(rng: random.Random, n: int) -> TwistedP1:
    """The sign-change subgroup (Z/2)^n of B_n; its closure is the same fan."""
    t = twisted_p1(rng, n)
    identity = tuple(range(n))
    return TwistedP1(n, t.seed_orthant,
                     tuple(e for e in t.elements if e[0] == identity))


def build_twisted(t: TwistedP1):
    """(datum, seed colored cones, action) as sphfan objects."""
    from sphfan import ColoredCone, Cone, GaloisAction, GroupElement, Mat, SphericalDatum
    n = t.n
    colors = [_color(i, s) for i in range(n) for s in (1, -1)]
    rho = {_color(i, s): unit(n, i, s) for i in range(n) for s in (1, -1)}
    v = Cone(n, list(rho.values()))
    d = SphericalDatum(n, v, colors, rho)
    elements = []
    for k, (perm, signs) in enumerate(t.elements):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[perm[i]][i] = signs[i]
        cperm = {_color(i, s): _color(perm[i], s * signs[i])
                 for i in range(n) for s in (1, -1)}
        elements.append(GroupElement(f"g{k}", Mat(m), cperm))
    seed = ColoredCone(Cone(n, [unit(n, i, s) for i, s in enumerate(t.seed_orthant)]),
                       [_color(i, s) for i, s in enumerate(t.seed_orthant)])
    return d, [seed], GaloisAction(d, elements)


# ------------------------------------------------------------ morphisms

@dataclass(frozen=True)
class Projection:
    """Dropping coordinate ``drop`` maps the colored P1^n fan onto P1^(n-1).

    Colors sit on +e_i for i in ``colored``; the color of the dropped
    coordinate has dense image and stays out of the color map.  Member j
    of the source fan lands in the target member with the same signs on
    the kept coordinates.
    """

    source: P1Fan
    target: P1Fan
    drop: int

    def kept(self) -> list[int]:
        return [i for i in range(self.source.n) if i != self.drop]

    def matches(self) -> list[int]:
        index = {s: j for j, s in enumerate(self.target.sign_vectors())}
        return [index[tuple(s[i] for i in self.kept())]
                for s in self.source.sign_vectors()]

    def color_map(self) -> dict[str, str]:
        return {f"D{i}": f"D{k}" for k, i in enumerate(self.kept())
                if i in self.source.colored}


def projection(rng: random.Random, n: int, drop: int, n_colored: int) -> Projection:
    """Seeded colors on the complete P1^n fan; the coordinates stay canonical."""
    colored = tuple(sorted(rng.sample(range(n), n_colored)))
    src = P1Fan(n, n, colored, 0, identity_move(n))
    kept = [i for i in range(n) if i != drop]
    tgt = P1Fan(n - 1, n - 1, tuple(k for k, i in enumerate(kept) if i in colored),
                0, identity_move(n - 1))
    return Projection(src, tgt, drop)


def build_projection(p: Projection):
    from sphfan import FanMorphism, Mat
    src, tgt = build_p1_datum(p.source), build_p1_datum(p.target)
    m = Mat([unit(p.source.n, i) for i in p.kept()])
    cmap = p.color_map()
    return FanMorphism(src, tgt, m, list(cmap), cmap)
