import random
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

from sphfan import cones, lp, rational, spherical
from sphfan.cones import Cone, cones_equal
from sphfan.spherical import (ColoredCone, ColoredFan, FanAxiomError,
                              RankMismatchError, SphericalDatum,
                              UnknownColorError, colored_cones_equal,
                              colored_faces, faces_closure, fans_equal,
                              is_simple, is_strictly_convex_colored,
                              is_strictly_convex_fan, maximal_cones,
                              orbit_count, validate_colored_cone,
                              validate_colored_fan)

from helpers import (KeyOnlyColoredFan, closure_outcome, intersect_cc1,
                     key_only_faces_closure, key_only_validate_colored_fan,
                     load_perfbench, presolve_certifies, random_cone, random_datum,
                     random_valid_colored_cone, random_vec, reference_colored_faces,
                     reference_meet_system)

bench_inputs = load_perfbench("inputs")


def full_line():
    return Cone(1, [(1,), (-1,)])


def full_plane():
    return Cone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])


def p1_datum():
    return SphericalDatum(1, full_line())


def p1_fan():
    return ColoredFan([ColoredCone(Cone(1)),
                       ColoredCone(Cone(1, [(1,)])),
                       ColoredCone(Cone(1, [(-1,)]))])


class TestDatum:
    def test_duplicate_colors_rejected(self):
        with pytest.raises(ValueError):
            SphericalDatum(1, full_line(), ["a", "a"], {"a": (1,)})

    def test_missing_rho(self):
        with pytest.raises(UnknownColorError):
            SphericalDatum(1, full_line(), ["a"], {})

    def test_rho_length_checked(self):
        with pytest.raises(RankMismatchError):
            SphericalDatum(1, full_line(), ["a"], {"a": (1, 0)})

    def test_rank_of_valuation_cone(self):
        with pytest.raises(RankMismatchError):
            SphericalDatum(2, full_line())


class TestValidateColoredCone:
    def test_zero_cone_over_line(self):
        r = validate_colored_cone(p1_datum(), ColoredCone(Cone(1)))
        assert r.cc1 and r.cc2

    def test_ray_outside_valuation_cone(self):
        d = SphericalDatum(1, Cone(1, [(1,)]))
        r = validate_colored_cone(d, ColoredCone(Cone(1, [(-1,)])))
        assert not r.cc1 and not r.cc2

    def test_quadrant_with_color(self):
        d = SphericalDatum(2, full_plane(), ["a"], {"a": (1, 0)})
        r = validate_colored_cone(d, ColoredCone(Cone(2, [(1, 0), (0, 1)]), ["a"]))
        assert r.cc1 and r.cc2
        assert r.cc2_witness is not None

    def test_color_needed_for_cc1(self):
        # V is only the upper half plane: the ray (1,0) is generated by
        # rho(a), not by valuation vectors, so CC1 holds with the color
        # and fails without it
        d = SphericalDatum(2, Cone(2, [(0, 1), (1, 1), (-1, 1)]),
                           ["a"], {"a": (1, 0)})
        with_color = validate_colored_cone(
            d, ColoredCone(Cone(2, [(1, 0), (0, 1)]), ["a"]))
        assert with_color.cc1
        without = validate_colored_cone(
            d, ColoredCone(Cone(2, [(1, 0), (0, 1)])))
        assert not without.cc1

    def test_unknown_color(self):
        with pytest.raises(UnknownColorError):
            validate_colored_cone(p1_datum(), ColoredCone(Cone(1), ["nope"]))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            validate_colored_cone(p1_datum(), ColoredCone(Cone(2)))


class TestStrictConvexity:
    def test_zero(self):
        assert is_strictly_convex_colored(p1_datum(), ColoredCone(Cone(1)))

    def test_line_cone(self):
        d = SphericalDatum(2, full_plane())
        assert not is_strictly_convex_colored(
            d, ColoredCone(Cone(2, [(1, 0), (-1, 0)])))

    def test_zero_rho_in_palette(self):
        d = SphericalDatum(2, full_plane(), ["a"], {"a": (0, 0)})
        assert not is_strictly_convex_colored(
            d, ColoredCone(Cone(2, [(1, 0)]), ["a"]))


class TestColoredFaces:
    def test_ray_over_line(self):
        faces = colored_faces(p1_datum(), ColoredCone(Cone(1, [(1,)])))
        assert len(faces) == 2
        assert any(f.cone.is_zero for f in faces)

    def test_face_excluded_when_relint_misses_v(self):
        # V = upper closed half plane; relint(ray(0,-1)) misses V
        d = SphericalDatum(2, Cone(2, [(0, 1), (1, 0), (-1, 0)]))
        cc = ColoredCone(Cone(2, [(1, 0), (0, -1)]))
        faces = colored_faces(d, cc)
        assert not any(cones_equal(f.cone, Cone(2, [(0, -1)])) for f in faces)
        assert any(cones_equal(f.cone, Cone(2, [(1, 0)])) for f in faces)

    def test_palette_restricts_to_face(self):
        d = SphericalDatum(2, full_plane(), ["a"], {"a": (1, 0)})
        cc = ColoredCone(Cone(2, [(1, 0), (0, 1)]), ["a"])
        faces = colored_faces(d, cc)
        assert len(faces) == 4
        for f in faces:
            if f.cone.contains((Fraction(1), Fraction(0))):
                assert f.palette == frozenset({"a"})
            else:
                assert f.palette == frozenset()

    def test_faces_are_valid_and_closed(self):
        rng = random.Random(101)
        d = random_datum(rng)
        cc = random_valid_colored_cone(rng, d)
        assert cc is not None
        faces = colored_faces(d, cc)
        for f in faces:
            assert validate_colored_cone(d, f).ok
            for ff in colored_faces(d, f):
                assert any(colored_cones_equal(ff, g) for g in faces)


def combination(rng: random.Random, n: int, gens) -> tuple:
    """A positive integer combination of gens in Q^n (zero for none)."""
    coeffs = [rng.randint(1, 3) for _ in gens]
    return tuple(sum(a * g[k] for a, g in zip(coeffs, gens)) for k in range(n))


def rho_images(rng: random.Random, c: Cone) -> dict[str, tuple]:
    """One image of each kind for c: in its relative interior, in the
    relative interior of a proper face, outside it, zero, and in its
    lineality space, where such points exist."""
    n = c.ambient_rank
    faces = c.faces()
    images = {"zero": (0,) * n}
    if c.generators:
        images["interior"] = combination(rng, n, c.generators)
    if faces[0].generators:
        images["lineality"] = combination(rng, n, faces[0].generators)
    if len(faces) > 1:
        images["face"] = combination(rng, n, rng.choice(faces[1:-1] or faces[:1]).generators)
    for _ in range(20):
        x = random_vec(rng, n, -3, 3)
        if not c.contains(x):
            images["outside"] = x
            break
    return images


class TestColoredFacesAgainstReference:
    """Palettes from carriers against ``face.contains`` on every face."""

    def test_random_cones(self):
        rng = random.Random(131)
        # per kind, how often it landed in some palette and was left out of another
        kept, dropped = Counter(), Counter()
        for _ in range(250):
            c = random_cone(rng, max_rank=4, max_gens=6)
            if c.generators and rng.random() < 0.5:
                c = Cone(c.ambient_rank, c.generators + (tuple(-x for x in c.generators[0]),))
            images = rho_images(rng, c)
            n = c.ambient_rank
            if rng.random() < 0.5:
                v = Cone(n, [tuple(s * (i == j) for j in range(n)) for i in range(n)
                             for s in (1, -1)])
            else:
                v = Cone(n, [random_vec(rng, n, -2, 2) for _ in range(rng.randint(1, 2 * n))])
            d = SphericalDatum(n, v, list(images), images)
            cc = ColoredCone(c, images)
            got, want = colored_faces(d, cc), reference_colored_faces(d, cc)
            assert [f.cone.generators for f in got] == [f.cone.generators for f in want]
            assert [f.palette for f in got] == [f.palette for f in want]
            assert [f.key for f in got] == [f.key for f in want]
            for kind in images:
                kept[kind] += any(kind in f.palette for f in got)
                dropped[kind] += any(kind not in f.palette for f in got)
        assert min(kept[k] for k in ("interior", "face", "zero", "lineality")) > 50
        assert kept["outside"] == 0 and dropped["outside"] > 100
        assert min(dropped[k] for k in ("interior", "face")) > 40


class TestColoredFacesWork:
    """Pinned work: no rank (the parent's dimension comes off its dual),
    one ``faces()`` per ``colored_faces``, and, with no face key asked,
    one double description, the parent's."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_rank_one_faces_one_dual(self, seed, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        rank = counted("rank", rational.bareiss)
        monkeypatch.setattr(rational, "bareiss", rank)
        monkeypatch.setattr(cones, "bareiss", rank, raising=False)
        monkeypatch.setattr(cones, "_dual_ints", counted("dual", cones._dual_ints))
        monkeypatch.setattr(Cone, "faces", counted("faces", Cone.faces))
        rng = random.Random(seed)
        for p in (bench_inputs.cube_cone(rng, 4, 2), bench_inputs.cube_cone(rng, 5, 3),
                  bench_inputs.cyclic_cone(rng, tuple(range(-3, 4)))):
            calls.clear()
            faces = Cone(p.rank, p.generators).faces()
            assert len(faces) == p.n_faces
            assert calls == {"dual": 1, "faces": 1}
            d, cc = bench_inputs.build_pointed(p)
            calls.clear()
            out = colored_faces(d, cc)
            assert len(out) == p.n_faces
            assert calls == {"dual": 1, "faces": 1}
            assert "_idual" in vars(cc.cone)
            assert not any("_idual" in vars(f.cone) for f in out)

    def test_faces_never_negate(self, monkeypatch):
        # a face only stands first in a meet system, so its negated columns
        # are never read, nor built; V is read negated, and so is the second
        # cone of a CF2 pair whose rows are built, which happens just when
        # the presolve leaves the pair to the simplex
        seen = []
        colored = spherical.colored_faces

        def recorded(d, cc):
            out = colored(d, cc)
            seen.extend(out)
            return out
        monkeypatch.setattr(spherical, "colored_faces", recorded)
        rng = random.Random(14)
        d_cube, cube = bench_inputs.build_pointed(bench_inputs.cube_cone(rng, 4, 2))
        p1 = bench_inputs.p1_fan(rng, 3, 3, 2)
        outcomes = []
        for d, fan in ((d_cube, faces_closure(d_cube, [cube])),
                       (bench_inputs.build_p1_datum(p1),
                        ColoredFan(bench_inputs.build_p1_cones(p1)))):
            seen.clear()
            assert validate_colored_fan(d, fan).ok
            assert len(seen) > len(fan)
            assert not any("_neg_cols" in vars(face.cone) for face in seen)
            assert "_neg_cols" in vars(d.valuation_cone)
            v = d.valuation_cone
            simplex_second = [
                any(not presolve_certifies(reference_meet_system(
                    [a.cone._ints, b.cone._ints, v._ints], d.rank, 0)) for a in fan.cones[:j])
                for j, b in enumerate(fan.cones)]
            assert ["_neg_cols" in vars(cc.cone) for cc in fan] == simplex_second
            outcomes.append(any(simplex_second))
        # the cube's faces leave some pairs to the simplex, the P1 fan none
        assert outcomes == [True, False]


def orthant_faces(signs, rho):
    """The faces of the orthant cone(s_i e_i), each colored by the colors
    whose rho image is one of its generators."""
    n = len(signs)
    axes = [tuple(s * (i == j) for j in range(n)) for i, s in enumerate(signs)]
    out = []
    for mask in range(2 ** n):
        gens = [axes[i] for i in range(n) if mask >> i & 1]
        out.append(ColoredCone(Cone(n, gens), [f for f, r in rho.items() if r in gens]))
    return out


class TestLPWork:
    """Pinned work: one LP per CF2 pair, per CC2 test and per face test,
    each through ``FeasibilitySystem.solve``, and no witness assembled
    for a face test."""

    def fans(self):
        plane = SphericalDatum(2, full_plane())
        p1p1 = ColoredFan(chain.from_iterable(
            orthant_faces(s, {}) for s in ((1, 1), (-1, 1), (-1, -1), (1, -1))))
        space = Cone(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                         (0, 0, 1), (0, 0, -1)])
        rho = {"a": (0, 0, 1), "b": (0, -1, 0)}
        colored = SphericalDatum(3, space, list(rho), rho)
        sub = ColoredFan(chain.from_iterable(
            orthant_faces(s, rho)
            for s in ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1))))
        return [(plane, p1p1, 9), (colored, sub, 18)]

    def test_solves_per_validation(self, monkeypatch):
        solves = []
        solve = lp.FeasibilitySystem.solve

        def counted(system):
            solves.append(system)
            return solve(system)
        monkeypatch.setattr(lp.FeasibilitySystem, "solve", counted)
        for d, fan, m in self.fans():
            assert len(fan) == m
            faces = sum(len(cc.cone.faces()) for cc in fan)
            solves.clear()
            assert validate_colored_fan(d, fan).ok
            assert len(solves) == m * (m - 1) // 2 + m + faces

    def test_face_tests_build_no_witness(self, monkeypatch):
        solves, meets = [], []
        solve = lp.FeasibilitySystem.solve
        meet = cones.relints_meet_in

        def counted(system):
            solves.append(system)
            return solve(system)

        def counted_meet(*args):
            meets.append(args)
            return meet(*args)
        monkeypatch.setattr(lp.FeasibilitySystem, "solve", counted)
        monkeypatch.setattr(cones, "relints_meet_in", counted_meet)
        monkeypatch.setattr(spherical, "relints_meet_in", counted_meet)
        for d, fan, _ in self.fans():
            for cc in fan:
                solves.clear()
                out = colored_faces(d, cc)
                assert len(solves) == len(out) == len(cc.cone.faces())
        assert not meets


class TestValidateColoredFan:
    def test_p1_fan_valid(self):
        rep = validate_colored_fan(p1_datum(), p1_fan())
        assert rep.ok
        assert is_strictly_convex_fan(p1_datum(), p1_fan())

    def test_missing_face_fails_cf1(self):
        fan = ColoredFan([ColoredCone(Cone(1, [(1,)]))])
        rep = validate_colored_fan(p1_datum(), fan)
        assert not rep.cf1 and rep.cf1_missing

    def test_overlap_fails_cf2(self):
        d = SphericalDatum(2, full_plane())
        a = ColoredCone(Cone(2, [(1, 0), (0, 1)]))
        b = ColoredCone(Cone(2, [(1, 1), (1, -1)]))
        members = [a, b]
        for cc in (a, b):
            members.extend(colored_faces(d, cc))
        rep = validate_colored_fan(d, ColoredFan(members))
        assert not rep.cf2
        (i, j, w), *_ = rep.cf2_failures
        assert rep.cone_reports[i].ok and rep.cone_reports[j].ok
        assert d.valuation_cone.contains(w)

    def test_same_cone_two_palettes_rejected_by_cf2(self):
        d = SphericalDatum(2, full_plane(), ["a"], {"a": (1, 0)})
        cone = Cone(2, [(1, 0), (0, 1)])
        fan = ColoredFan([ColoredCone(cone, ["a"]), ColoredCone(cone)])
        assert len(fan) == 2
        rep = validate_colored_fan(d, fan)
        assert not rep.cf2

    def test_empty_fan_rejected(self):
        with pytest.raises(ValueError):
            ColoredFan([])


class TestMaximalAndOrbits:
    def test_p1(self):
        d, fan = p1_datum(), p1_fan()
        maxc = maximal_cones(d, fan)
        assert len(maxc) == 2
        assert not is_simple(d, fan)
        assert orbit_count(fan) == 3

    def test_single_cone_closure_is_simple(self):
        d = SphericalDatum(2, full_plane(), ["a"], {"a": (1, 0)})
        cc = ColoredCone(Cone(2, [(1, 0), (0, 1)]), ["a"])
        fan = faces_closure(d, [cc])
        assert is_simple(d, fan)
        assert orbit_count(fan) == len(colored_faces(d, cc)) == 4

    def test_homogeneous_fan(self):
        fan = ColoredFan([ColoredCone(Cone(1))])
        assert orbit_count(fan) == 1
        assert is_simple(p1_datum(), fan)


class TestFacesClosure:
    def test_single_ray(self):
        fan = faces_closure(p1_datum(), [ColoredCone(Cone(1, [(1,)]))])
        assert len(fan) == 2

    def test_both_rays_give_p1(self):
        fan = faces_closure(p1_datum(), [ColoredCone(Cone(1, [(1,)])),
                                         ColoredCone(Cone(1, [(-1,)]))])
        assert fans_equal(fan, p1_fan())

    def test_cf2_violation_raises_with_witness(self):
        d = SphericalDatum(2, full_plane())
        with pytest.raises(FanAxiomError) as exc:
            faces_closure(d, [ColoredCone(Cone(2, [(1, 0), (0, 1)])),
                              ColoredCone(Cone(2, [(1, 1), (1, -1)]))])
        assert exc.value.witness is not None

    def test_closure_output_validates(self):
        rng = random.Random(131)
        count = 0
        while count < 10:
            d = random_datum(rng)
            cc = random_valid_colored_cone(rng, d)
            if cc is None:
                continue
            count += 1
            fan = faces_closure(d, [cc])
            assert validate_colored_fan(d, fan).ok

    def test_toric_reduction(self):
        # with no colors and V = Q^n, a classical fan is a colored fan
        d = SphericalDatum(2, full_plane())
        quadrants = [Cone(2, [(1, 0), (0, 1)]), Cone(2, [(0, 1), (-1, 0)]),
                     Cone(2, [(-1, 0), (0, -1)]), Cone(2, [(0, -1), (1, 0)])]
        fan = faces_closure(d, [ColoredCone(c) for c in quadrants])
        rep = validate_colored_fan(d, fan)
        assert rep.ok
        assert orbit_count(fan) == 9  # 4 quadrants + 4 rays + origin


def proper_datum(rng: random.Random) -> SphericalDatum:
    """A datum of rank 2 or 3 whose V is a nonzero cone other than the
    whole space, with one to three colors."""
    n = rng.randint(2, 3)
    while True:
        v = Cone(n, [random_vec(rng, n, -2, 2) for _ in range(rng.randint(1, n + 1))])
        if any(not v.contains(tuple(-x for x in g)) for g in v.generators):
            break
    names = [f"c{i}" for i in range(rng.randint(1, 3))]
    return SphericalDatum(n, v, names, {f: random_vec(rng, n, -2, 2) for f in names})


def with_redundant(rng: random.Random, cc: ColoredCone) -> ColoredCone:
    """cc with one more generator, a positive combination of two of its own:
    the same colored cone under another generator set."""
    gens = cc.cone.generators
    if len(gens) < 2:
        return cc
    extra = combination(rng, cc.cone.ambient_rank, rng.sample(gens, 2))
    return ColoredCone(Cone(cc.cone.ambient_rank, gens + (extra,)), cc.palette)


def random_top(rng: random.Random, d: SphericalDatum) -> ColoredCone:
    """A colored cone on rho images of (most of) its palette, points of V
    and sometimes a random vector, so CC1 goes every way."""
    n = d.rank
    palette = [f for f in d.colors if rng.random() < 0.5]
    gens = [d.rho[f] for f in palette if rng.random() < 0.8]
    vgens = d.valuation_cone.generators
    gens += [combination(rng, n, rng.sample(vgens, rng.randint(1, len(vgens))))
             for _ in range(rng.randint(0, 2))]
    gens += [random_vec(rng, n, -2, 2) for _ in range(rng.randint(0, 1))]
    return ColoredCone(Cone(n, gens), palette)


def random_members(rng: random.Random, d: SphericalDatum, redundant: bool) -> list:
    """One or two colored cones and most of their colored faces, shuffled;
    with ``redundant``, most given with a redundant generator."""
    tops = [random_top(rng, d) for _ in range(rng.randint(1, 2))]
    members = tops + [f for cc in tops for f in colored_faces(d, cc) if rng.random() < 0.8]
    if redundant:
        members = [with_redundant(rng, cc) if rng.random() < 0.8 else cc for cc in members]
    rng.shuffle(members)
    return members


def report_form(rep):
    """A fan report with each missing face as (index, generators, palette)."""
    return rep._replace(cf1_missing=tuple((i, f.cone.generators, f.palette)
                                          for i, f in rep.cf1_missing))


class TestGeneratorLookupAgainstKeyOnly:
    """The generator-set lookups and the CC1 containment shortcut must
    give the key-only path's members, reports and closures."""

    def test_cc1_against_intersection(self):
        rng = random.Random(151)
        seen = Counter()
        for _ in range(300):
            d = proper_datum(rng)
            cc = random_top(rng, d)
            rep = validate_colored_cone(d, cc)
            assert (rep.cc1, rep.cc1_detail) == intersect_cc1(d, cc)
            inside = all(d.valuation_cone.contains(g) for g in cc.cone.generators)
            seen[inside, rep.cc1_detail] += 1
        # the intersection ran both ways, and the shortcut was taken
        assert seen[False, ""] > 10
        assert seen[False, "cone is not generated by rho(palette) and cone ∩ V"] > 10
        assert sum(v for (_, detail), v in seen.items() if detail.startswith("rho(")) > 10
        assert seen[True, ""] > 10

    def test_members_in_order(self):
        rng = random.Random(157)
        for _ in range(150):
            d = proper_datum(rng)
            members = random_members(rng, d, redundant=rng.random() < 0.5)
            members += rng.sample(members, rng.randint(0, len(members)))
            got, want = ColoredFan(members).cones, KeyOnlyColoredFan(members).cones
            assert len(got) == len(want)
            assert all(x is y for x, y in zip(got, want))

    def test_mixed_ranks_with_one_generator_set(self):
        for members in ([ColoredCone(Cone(2)), ColoredCone(Cone(3))],
                        [ColoredCone(Cone(2, [(1, 0)])), ColoredCone(Cone(2)),
                         ColoredCone(Cone(3))]):
            for make in (ColoredFan, KeyOnlyColoredFan):
                with pytest.raises(RankMismatchError):
                    make(members)

    @pytest.mark.parametrize("redundant", [False, True])
    def test_validate_reports(self, redundant):
        rng = random.Random(163 + redundant)
        cf1 = Counter()
        key_hits = 0
        for _ in range(120):
            d = proper_datum(rng)
            fan = ColoredFan(random_members(rng, d, redundant))
            got = validate_colored_fan(d, fan)
            assert report_form(got) == report_form(key_only_validate_colored_fan(d, fan))
            cf1[got.cf1] += 1
            keys = {cc.key for cc in fan}
            key_hits += sum(face._gens_key not in fan._keys
                            and face.key in keys
                            for cc in fan for face in colored_faces(d, cc))
        assert min(cf1[True], cf1[False]) > 10
        # with redundant generators, faces miss the map and the key finds them
        assert (key_hits > 15) if redundant else (key_hits == 0)

    def test_faces_closure_bytes(self):
        rng = random.Random(167)
        outcomes = Counter()
        for _ in range(60):
            d = proper_datum(rng)
            tops = [random_top(rng, d) for _ in range(rng.randint(1, 3))]
            tops = [with_redundant(rng, cc) if rng.random() < 0.5 else cc for cc in tops]
            got = closure_outcome(faces_closure, d, tops)
            assert got == closure_outcome(key_only_faces_closure, d, tops)
            outcomes[isinstance(got, str)] += 1
        assert min(outcomes.values()) > 5


class TestDualWork:
    """Pinned double descriptions, counted at ``cones._dual_ints``: on the
    complete uncolored P1^n fan, validation runs one per member key and
    one for V's facets, read by the CC1 containment scan; ``faces_closure``
    runs one per member key and one per maximal cone, for its face
    lattice.  No face, regenerated cone or intersection runs one."""

    @pytest.mark.parametrize("n, validate, closure", [(3, 28, 35), (4, 82, 97)])
    def test_complete_p1(self, monkeypatch, n, validate, closure):
        calls = []
        dual = cones._dual_ints

        def counted(*args):
            calls.append(args)
            return dual(*args)
        monkeypatch.setattr(cones, "_dual_ints", counted)
        f = bench_inputs.p1_fan(random.Random(1), n, n, 0)
        fan = ColoredFan(bench_inputs.build_p1_cones(f))
        assert validate_colored_fan(bench_inputs.build_p1_datum(f), fan).ok
        assert len(calls) == validate == len(fan) + 1
        calls.clear()
        maximal = bench_inputs.build_p1_cones(f, maximal_only=True)
        fan = faces_closure(bench_inputs.build_p1_datum(f), maximal)
        assert len(fan) == f.n_cones
        assert len(calls) == closure == len(fan) + len(maximal)
