import random
from fractions import Fraction

import pytest

from sphfan.cones import Cone
from sphfan.morphisms import (FanMorphism, compose, is_morphism_of_cones,
                              is_morphism_of_fans, validate_morphism)
from sphfan.rational import Mat
from sphfan.spherical import (ColoredCone, ColoredFan, RankMismatchError,
                              SphericalDatum, faces_closure)

from helpers import (load_perfbench, random_valid_colored_cone, random_vec,
                     reference_is_morphism_of_cones)

bench_inputs = load_perfbench("inputs")


def full_plane():
    return Cone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])


def plane_datum():
    return SphericalDatum(2, full_plane())


def line_datum():
    return SphericalDatum(1, Cone(1, [(1,), (-1,)]))


def projection():
    return FanMorphism(plane_datum(), line_datum(), Mat([[1, 0]]))


def p1_fan():
    return ColoredFan([ColoredCone(Cone(1)),
                       ColoredCone(Cone(1, [(1,)])),
                       ColoredCone(Cone(1, [(-1,)]))])


class TestValidateMorphism:
    def test_identity(self):
        d = plane_datum()
        m = FanMorphism(d, d, Mat.identity(2))
        assert validate_morphism(m).ok

    def test_projection(self):
        assert validate_morphism(projection()).ok

    def test_image_larger_than_target_v(self):
        tgt = SphericalDatum(1, Cone(1, [(1,)]))
        m = FanMorphism(plane_datum(), tgt, Mat([[1, 0]]))
        r = validate_morphism(m)
        assert not r.v_onto_v
        assert r.v_counterexample is not None

    def test_counterexample_is_asked_in_ints_and_given_as_fractions(self, monkeypatch):
        points = []
        face_facets = Cone._face_facets
        monkeypatch.setattr(Cone, "_face_facets",
                            lambda c, x: points.append(x) or face_facets(c, x))
        m = FanMorphism(plane_datum(), SphericalDatum(1, Cone(1, [(1,)])), Mat([[1, 0]]))
        r = validate_morphism(m)
        assert r.v_counterexample == (Fraction(-1),)
        assert all(type(x) is Fraction for x in r.v_counterexample)
        assert points and all(type(x) is int for p in points for x in p)

    def test_non_surjective(self):
        m = FanMorphism(plane_datum(), line_datum(), Mat([[0, 0]]))
        assert not validate_morphism(m).surjective

    def test_shape_mismatch(self):
        with pytest.raises(RankMismatchError):
            FanMorphism(plane_datum(), line_datum(), Mat.identity(2))

    def test_rho_warning_is_optional(self):
        src = SphericalDatum(2, full_plane(), ["a"], {"a": (0, 1)})
        tgt = SphericalDatum(1, Cone(1, [(1,), (-1,)]), ["b"], {"b": (1,)})
        m = FanMorphism(src, tgt, Mat([[1, 0]]), ["a"], {"a": "b"})
        # the warning is reported but does not fail the morphism
        report = validate_morphism(m)
        assert report.ok
        assert report.rho_warnings == ("a",)


class TestMorphismOfCones:
    def test_identity(self):
        d = plane_datum()
        m = FanMorphism(d, d, Mat.identity(2))
        cc = ColoredCone(Cone(2, [(1, 0), (0, 1)]))
        assert is_morphism_of_cones(m, cc, cc)

    def test_projection_into_ray(self):
        m = projection()
        cc1 = ColoredCone(Cone(2, [(1, 0), (0, 1)]))
        assert is_morphism_of_cones(m, cc1, ColoredCone(Cone(1, [(1,)])))
        assert not is_morphism_of_cones(m, cc1, ColoredCone(Cone(1)))

    def test_color_condition(self):
        src = SphericalDatum(2, full_plane(), ["a"], {"a": (1, 0)})
        tgt = SphericalDatum(1, Cone(1, [(1,), (-1,)]), ["b"], {"b": (1,)})
        m = FanMorphism(src, tgt, Mat([[1, 0]]), ["a"], {"a": "b"})
        cc1 = ColoredCone(Cone(2, [(1, 0)]), ["a"])
        assert is_morphism_of_cones(m, cc1, ColoredCone(Cone(1, [(1,)]), ["b"]))
        assert not is_morphism_of_cones(m, cc1, ColoredCone(Cone(1, [(1,)])))


class TestMorphismOfFans:
    def test_identity_fan(self):
        d = line_datum()
        m = FanMorphism(d, d, Mat.identity(1))
        rep = is_morphism_of_fans(m, p1_fan(), p1_fan())
        assert rep.ok

    def test_projection_quadrant_onto_p1(self):
        quad_fan = faces_closure(plane_datum(),
                                 [ColoredCone(Cone(2, [(1, 0), (0, 1)]))])
        rep = is_morphism_of_fans(projection(), quad_fan, p1_fan())
        assert rep.ok

    def test_nonzero_cone_onto_trivial_fan(self):
        trivial = ColoredFan([ColoredCone(Cone(1))])
        quad_fan = faces_closure(plane_datum(),
                                 [ColoredCone(Cone(2, [(1, 0), (0, 1)]))])
        rep = is_morphism_of_fans(projection(), quad_fan, trivial)
        assert not rep.ok

    def test_matches_are_first_in_input_order(self):
        m = projection()
        quad = ColoredCone(Cone(2, [(1, 0), (0, 1)]))
        f1 = ColoredFan([quad])
        f2 = ColoredFan([ColoredCone(Cone(1, [(1,)])),
                         ColoredCone(Cone(1, [(1,), (-1,)]))])
        rep = is_morphism_of_fans(m, f1, f2)
        assert rep.matches == (0,)

    def test_target_fan_of_another_rank(self, monkeypatch):
        """A target fan outside the target's space raises, checked once per
        fan: also when every pushed cone is {0}, which asks no point."""
        plane_fan = ColoredFan([ColoredCone(Cone(2, [(1, 0)]))])
        quad_fan = faces_closure(plane_datum(),
                                 [ColoredCone(Cone(2, [(1, 0), (0, 1)]))])
        zero = FanMorphism(plane_datum(), line_datum(), Mat([[0, 0]]))
        checks = []
        face_facets = Cone._face_facets
        monkeypatch.setattr(Cone, "_face_facets",
                            lambda c, x: checks.append(x) or face_facets(c, x))
        for m in (projection(), zero):
            with pytest.raises(RankMismatchError):
                is_morphism_of_fans(m, quad_fan, plane_fan)
            with pytest.raises(RankMismatchError):
                is_morphism_of_cones(m, quad_fan.cones[-1], plane_fan.cones[0])
        assert checks == []

    @pytest.mark.parametrize("seed", [1, 2])
    def test_no_point_passes_the_gate(self, seed, monkeypatch):
        """The pushed generators and V's generators are ints the library
        built, so ``validate_morphism`` and ``is_morphism_of_fans`` ask the
        int core and never the public ``Cone.contains``."""
        def refused(cone, x):
            raise AssertionError("Cone.contains called")
        monkeypatch.setattr(Cone, "contains", refused)
        for drop in range(3):
            p = bench_inputs.projection(random.Random(seed), 3, drop, 2)
            m = bench_inputs.build_projection(p)
            assert validate_morphism(m).ok
            report = is_morphism_of_fans(m, ColoredFan(bench_inputs.build_p1_cones(p.source)),
                                         ColoredFan(bench_inputs.build_p1_cones(p.target)))
            assert list(report.matches) == p.matches()


class TestProperties:
    def test_monotone_in_target(self):
        rng = random.Random(47)
        m = projection()
        src, tgt = m.source, m.target
        for _ in range(50):
            cc1 = random_valid_colored_cone(rng, src)
            cc2 = random_valid_colored_cone(rng, tgt)
            if cc1 is None or cc2 is None:
                continue
            before = is_morphism_of_cones(m, cc1, cc2)
            enlarged = ColoredCone(
                Cone(1, list(cc2.cone.generators) + [(1,), (-1,)]), cc2.palette)
            if before:
                assert is_morphism_of_cones(m, cc1, enlarged)

    def test_composition_is_a_fan_morphism(self):
        d2, d1 = plane_datum(), line_datum()
        m1 = projection()
        m2 = FanMorphism(d1, d1, Mat.identity(1))
        comp = compose(m1, m2)
        assert validate_morphism(comp).ok
        quad_fan = faces_closure(d2, [ColoredCone(Cone(2, [(1, 0), (0, 1)]))])
        assert is_morphism_of_fans(comp, quad_fan, p1_fan()).ok

    def test_composition_rejects_different_intermediate_data(self):
        ray = SphericalDatum(1, Cone(1, [(1,)]))
        into_ray = FanMorphism(line_datum(), ray, Mat.identity(1))
        from_line = FanMorphism(line_datum(), line_datum(), Mat.identity(1))
        with pytest.raises(ValueError):
            compose(into_ray, from_line)
        colored = SphericalDatum(1, Cone(1, [(1,), (-1,)]), ["a"], {"a": (1,)})
        with pytest.raises(ValueError):
            compose(FanMorphism(line_datum(), line_datum(), Mat.identity(1)),
                    FanMorphism(colored, line_datum(), Mat.identity(1)))
        with pytest.raises(RankMismatchError):
            compose(from_line, projection())


def verdicts(is_morphism, m, f1, f2):
    return [[is_morphism(m, cc1, cc2) for cc2 in f2] for cc1 in f1]


class TestMorphismOfConesAgainstReference:
    """Pushing the source cone once must give the per-generator
    ``matvec`` verdicts."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_p1_projections(self, seed):
        for drop in range(3):
            p = bench_inputs.projection(random.Random(seed), 3, drop, 2)
            m = bench_inputs.build_projection(p)
            f1 = bench_inputs.build_p1_cones(p.source)
            f2 = bench_inputs.build_p1_cones(p.target)
            got = verdicts(is_morphism_of_cones, m, f1, f2)
            assert got == verdicts(reference_is_morphism_of_cones, m, f1, f2)
            assert [row.index(True) for row in got] == p.matches()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fans_push_each_source_cone_once(self, seed, monkeypatch):
        image = Cone.image
        calls = []

        def counted(cone, mat):
            calls.append(cone)
            return image(cone, mat)
        monkeypatch.setattr(Cone, "image", counted)
        for drop in range(3):
            p = bench_inputs.projection(random.Random(seed), 3, drop, 2)
            m = bench_inputs.build_projection(p)
            f1 = ColoredFan(bench_inputs.build_p1_cones(p.source))
            f2 = ColoredFan(bench_inputs.build_p1_cones(p.target))
            calls.clear()
            report = is_morphism_of_fans(m, f1, f2)
            assert len(calls) == len(f1) == 27
            want = [row.index(True) for row in
                    verdicts(reference_is_morphism_of_cones, m, f1, f2)]
            assert list(report.matches) == want == p.matches()

    def test_random_rational_maps(self):
        rng = random.Random(149)
        entries = [0, 0, 1, -1, 2, "1/2", "-2/3", "3/4"]
        hits = singular = 0
        for k in range(150):
            n, r = rng.randint(1, 3), rng.randint(1, 3)
            rows = [[rng.choice(entries) for _ in range(n)] for _ in range(r)]
            if k % 3 == 0:
                rows[-1] = [0] * n if r == 1 else list(rows[0])
            lin = Mat(rows)
            singular += lin.rank() < r
            src = SphericalDatum(n, Cone(n), ["a", "b"],
                                 {"a": random_vec(rng, n), "b": random_vec(rng, n)})
            tgt = SphericalDatum(r, Cone(r), ["x", "y"],
                                 {"x": random_vec(rng, r), "y": random_vec(rng, r)})
            domain = [c for c in src.colors if rng.random() < 0.5]
            m = FanMorphism(src, tgt, lin, domain, {c: rng.choice("xy") for c in domain})
            f1 = [ColoredCone(Cone(n, [random_vec(rng, n, -2, 2)
                                       for _ in range(rng.randint(0, 3))]),
                              [c for c in src.colors if rng.random() < 0.5])
                  for _ in range(3)]
            f2 = [ColoredCone(Cone(r, [random_vec(rng, r, -2, 2)
                                       for _ in range(rng.randint(0, 3))]),
                              [c for c in tgt.colors if rng.random() < 0.5])
                  for _ in range(3)]
            f2 += [ColoredCone(m.push_cone(cc.cone), ["x", "y"]) for cc in f1]
            got = verdicts(is_morphism_of_cones, m, f1, f2)
            assert got == verdicts(reference_is_morphism_of_cones, m, f1, f2)
            hits += sum(map(sum, got))
        assert singular > 40 and 150 < hits < 150 * 18
