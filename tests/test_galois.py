import random

import pytest

from sphfan import docio, galois, spherical
from sphfan.cones import Cone, cones_equal
from sphfan.galois import (ActionReport, GaloisAction, GroupElement, apply_element,
                           invariant_closure, is_invariant_fan, orbit,
                           validate_action)
from sphfan.morphisms import FanMorphism
from sphfan.rational import Mat
from sphfan.spherical import (ColoredCone, ColoredFan, FanAxiomError,
                              SphericalDatum, colored_cones_equal, fans_equal,
                              is_strictly_convex_colored,
                              validate_colored_cone)

from helpers import (closure_outcome, key_only_invariant_closure, key_only_orbit,
                     load_perfbench, random_cone, random_valid_colored_cone,
                     random_vec, reference_image, reference_invariant_closure,
                     reference_validate_action)

bench_inputs = load_perfbench("inputs")


def line_datum():
    return SphericalDatum(1, Cone(1, [(1,), (-1,)]))


def negation_action():
    d = line_datum()
    return GaloisAction(d, [GroupElement("id", Mat([[1]]), {}),
                            GroupElement("sigma", Mat([[-1]]), {})])


def swap_datum():
    v = Cone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    return SphericalDatum(2, v, ["a", "b"], {"a": (1, 0), "b": (0, 1)})


def swap_action():
    d = swap_datum()
    ident = GroupElement("id", Mat.identity(2), {"a": "a", "b": "b"})
    swap = GroupElement("s", Mat([[0, 1], [1, 0]]), {"a": "b", "b": "a"})
    return GaloisAction(d, [ident, swap])


def p1_fan():
    return ColoredFan([ColoredCone(Cone(1)),
                       ColoredCone(Cone(1, [(1,)])),
                       ColoredCone(Cone(1, [(-1,)]))])


class TestValidateAction:
    def test_trivial_group(self):
        d = line_datum()
        a = GaloisAction(d, [GroupElement("id", Mat([[1]]), {})])
        assert validate_action(a).ok

    def test_negation(self):
        assert validate_action(negation_action()).ok

    def test_v_not_stable(self):
        d = SphericalDatum(1, Cone(1, [(1,)]))
        a = GaloisAction(d, [GroupElement("id", Mat([[1]]), {}),
                             GroupElement("sigma", Mat([[-1]]), {})])
        r = validate_action(a)
        assert not r.v_stable and not r.ok

    def test_missing_identity(self):
        a = GaloisAction(line_datum(), [GroupElement("sigma", Mat([[-1]]), {})])
        r = validate_action(a)
        assert not r.has_identity

    def test_not_closed(self):
        d = swap_datum()
        rot = GroupElement("r", Mat([[0, -1], [1, 0]]), {"a": "b", "b": "a"})
        ident = GroupElement("id", Mat.identity(2), {"a": "a", "b": "b"})
        r = validate_action(GaloisAction(d, [ident, rot]))
        assert not r.closed

    def test_non_unimodular(self):
        a = GaloisAction(line_datum(), [GroupElement("id", Mat([[1]]), {}),
                                        GroupElement("g", Mat([[2]]), {})])
        assert not validate_action(a).unimodular

    def test_rho_equivariance(self):
        d = swap_datum()
        bad = GroupElement("s", Mat([[0, 1], [1, 0]]), {"a": "a", "b": "b"})
        ident = GroupElement("id", Mat.identity(2), {"a": "a", "b": "b"})
        r = validate_action(GaloisAction(d, [ident, bad]))
        assert not r.rho_equivariant

    def test_swap_action_is_valid(self):
        assert validate_action(swap_action()).ok


def rotations(names):
    """The named powers of the quarter turn on swap_datum, the odd ones
    swapping the colors: all four form a group of order 4 (though not a
    rho-equivariant one, which these tests do not need)."""
    turn = Mat([[0, -1], [1, 0]])
    power = {"id": Mat.identity(2), "r": turn, "r2": turn.matmul(turn),
             "r3": turn.matmul(turn).matmul(turn)}
    odd = {"a": "b", "b": "a"}
    perm = {"id": {"a": "a", "b": "b"}, "r": odd, "r2": {"a": "a", "b": "b"}, "r3": odd}
    return GaloisAction(swap_datum(), [GroupElement(k, power[k], perm[k]) for k in names])


class TestValidateActionAgainstReference:
    """Keyed lookups must give the linear scans' report, failure order included."""

    @pytest.mark.parametrize("names, broken", [
        (["r", "r2", "r3"], "has_identity"),      # no identity, so no inverses
        (["id", "r"], "has_inverses"),            # r has no inverse, r∘r missing
        (["id", "r", "r3"], "closed"),            # inverses present, r∘r missing
        (["r3", "id", "r2", "r"], None),          # the whole group, shuffled
    ])
    def test_rotation_subsets(self, names, broken):
        a = rotations(names)
        r = validate_action(a)
        assert r == reference_validate_action(a)
        if broken is None:
            assert r.has_identity and r.closed and r.has_inverses
        else:
            assert not getattr(r, broken)

    def test_random_subsets_of_b2(self):
        rng = random.Random(97)
        d, _, full = bench_inputs.build_twisted(bench_inputs.twisted_p1(rng, 2))
        seen = set()
        for _ in range(40):
            elements = rng.sample(full.elements, rng.randint(1, len(full.elements)))
            a = GaloisAction(d, elements)
            r = validate_action(a)
            assert r == reference_validate_action(a)
            seen.add((r.has_identity, r.closed, r.has_inverses))
        assert len(seen) >= 3

    def test_every_failure_kind(self):
        # B2 elements mixed with three broken ones: 2·I is not unimodular
        # (and scales rho), a singular projection moves V = Q^2, and the
        # identity matrix with two colors swapped breaks only rho
        rng = random.Random(53)
        d, _, full = bench_inputs.build_twisted(bench_inputs.twisted_p1(rng, 2))
        c0, c1 = d.colors[:2]
        fixed = {c: c for c in d.colors}
        broken = [GroupElement("twice", Mat([[2, 0], [0, 2]]), fixed),
                  GroupElement("flat", Mat([[1, 0], [0, 0]]), fixed),
                  GroupElement("swap", Mat.identity(2), {**fixed, c0: c1, c1: c0})]
        false_counts = dict.fromkeys(ActionReport._fields[:6], 0)
        for _ in range(60):
            elements = rng.sample(full.elements, rng.randint(0, len(full.elements)))
            elements += [e for e in broken if rng.random() < 0.4]
            if not elements:
                continue
            rng.shuffle(elements)
            a = GaloisAction(d, elements)
            r = validate_action(a)
            assert r == reference_validate_action(a)
            assert r.ok == (not r.failures)
            for flag in false_counts:
                false_counts[flag] += not getattr(r, flag)
        assert min(false_counts.values()) >= 5, false_counts


class TestApplyElement:
    def test_identity_fixes(self):
        a = negation_action()
        cc = ColoredCone(Cone(1, [(1,)]))
        assert colored_cones_equal(apply_element(a, "id", cc), cc)

    def test_negation_flips_ray(self):
        a = negation_action()
        out = apply_element(a, "sigma", ColoredCone(Cone(1, [(1,)])))
        assert cones_equal(out.cone, Cone(1, [(-1,)]))

    def test_swap_moves_color(self):
        a = swap_action()
        out = apply_element(a, "s", ColoredCone(Cone(2, [(1, 0)]), ["a"]))
        assert cones_equal(out.cone, Cone(2, [(0, 1)]))
        assert out.palette == frozenset({"b"})

    def test_unknown_element(self):
        with pytest.raises(KeyError):
            apply_element(negation_action(), "tau", ColoredCone(Cone(1)))

    def test_preserves_validity_and_convexity(self):
        rng = random.Random(71)
        a = swap_action()
        d = a.datum
        checked = 0
        while checked < 20:
            cc = random_valid_colored_cone(rng, d)
            if cc is None:
                continue
            checked += 1
            for e in a.elements:
                out = apply_element(a, e, cc)
                assert validate_colored_cone(d, out).ok
                assert (is_strictly_convex_colored(d, cc)
                        == is_strictly_convex_colored(d, out))

    def test_composition_law(self):
        a = swap_action()
        cc = ColoredCone(Cone(2, [(1, 0), (1, 1)]), ["a"])
        for g in a.elements:
            for h in a.elements:
                matrix, perm = a.compose(g, h)
                composite = next(e for e in a.elements
                                 if e.matrix == matrix and e.color_perm == perm)
                lhs = apply_element(a, composite, cc)
                rhs = apply_element(a, g, apply_element(a, h, cc))
                assert colored_cones_equal(lhs, rhs)


class TestInvariance:
    def test_p1_invariant_under_negation(self):
        assert is_invariant_fan(negation_action(), p1_fan()).ok

    def test_half_fan_not_invariant(self):
        fan = ColoredFan([ColoredCone(Cone(1)), ColoredCone(Cone(1, [(1,)]))])
        rep = is_invariant_fan(negation_action(), fan)
        assert not rep.ok
        assert ("sigma", 1) in rep.failures

    def test_trivial_group_always_invariant(self):
        d = line_datum()
        a = GaloisAction(d, [GroupElement("id", Mat([[1]]), {})])
        assert is_invariant_fan(a, p1_fan()).ok


class TestOrbit:
    def test_fixed_zero_cone(self):
        assert len(orbit(negation_action(), ColoredCone(Cone(1)))) == 1

    def test_swapped_rays(self):
        o = orbit(negation_action(), ColoredCone(Cone(1, [(1,)])))
        assert len(o) == 2

    def test_fixed_diagonal(self):
        o = orbit(swap_action(), ColoredCone(Cone(2, [(1, 1)])))
        assert len(o) == 1

    def test_orbit_size_divides_group_order(self):
        rng = random.Random(83)
        a = swap_action()
        for _ in range(10):
            cc = random_valid_colored_cone(rng, a.datum)
            if cc is None:
                continue
            assert len(a.elements) % len(orbit(a, cc)) == 0

    def test_images_in_element_order(self):
        d = swap_datum()
        ident = GroupElement("id", Mat.identity(2), {"a": "a", "b": "b"})
        swap = GroupElement("s", Mat([[0, 1], [1, 0]]), {"a": "b", "b": "a"})
        cc = ColoredCone(Cone(2, [(1, 0)]), ["a"])
        for elements, order in (([ident, swap], ["a", "b"]), ([swap, ident], ["b", "a"])):
            out = orbit(GaloisAction(d, elements), cc)
            assert [sorted(c.palette) for c in out] == [[x] for x in order]

    def test_equal_images_keep_the_first(self):
        d = swap_datum()
        ident = GroupElement("id", Mat.identity(2), {"a": "a", "b": "b"})
        neg = GroupElement("n", Mat([[-1, 0], [0, -1]]), {"a": "a", "b": "b"})
        line = ColoredCone(Cone(2, [(1, 0), (-1, 0)]))
        for elements, gens in (([ident, neg], (1, -1)), ([neg, ident], (-1, 1))):
            (image,) = orbit(GaloisAction(d, elements), line)
            assert [g[0] for g in image.cone.generators] == list(gens)


class TestInvariantClosure:
    def test_seed_ray_gives_p1(self):
        fan = invariant_closure(negation_action(), [ColoredCone(Cone(1, [(1,)]))])
        assert fans_equal(fan, p1_fan())

    def test_trivial_group_reduces_to_faces_closure(self):
        from sphfan.spherical import faces_closure
        d = line_datum()
        a = GaloisAction(d, [GroupElement("id", Mat([[1]]), {})])
        seed = ColoredCone(Cone(1, [(1,)]))
        assert fans_equal(invariant_closure(a, [seed]),
                          faces_closure(d, [seed]))

    def test_overlap_raises_cf2(self):
        # quarter rotation carries the quadrant onto one overlapping it
        v = Cone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        d = SphericalDatum(2, v)
        rot = Mat([[0, -1], [1, 0]])
        elements = [GroupElement("id", Mat.identity(2), {})]
        m = rot
        for i in range(3):
            elements.append(GroupElement(f"r{i + 1}", m, {}))
            m = m.matmul(rot)
        a = GaloisAction(d, elements)
        assert validate_action(a).ok
        seed = ColoredCone(Cone(2, [(1, 0), (-1, 1)]))
        with pytest.raises(FanAxiomError) as exc:
            invariant_closure(a, [seed])
        assert exc.value.witness is not None

    def test_closure_is_invariant_and_idempotent(self):
        a = negation_action()
        fan = invariant_closure(a, [ColoredCone(Cone(1, [(1,)]))])
        assert is_invariant_fan(a, fan).ok
        again = invariant_closure(a, list(fan.cones))
        assert fans_equal(fan, again)


def assert_same_closure(a, seeds):
    got = closure_outcome(invariant_closure, a, seeds)
    assert got == closure_outcome(reference_invariant_closure, a, seeds)
    return got


def half_plane_action():
    """x -> -x on the lower half plane, swapping the colors on ±e_1."""
    v = Cone(2, [(1, 0), (-1, 0), (0, -1)])
    d = SphericalDatum(2, v, ["a", "b"], {"a": (1, 0), "b": (-1, 0)})
    return GaloisAction(d, [GroupElement("id", Mat.identity(2), {"a": "a", "b": "b"}),
                            GroupElement("s", Mat([[-1, 0], [0, 1]]), {"a": "b", "b": "a"})])


def seeds_around(a, seed, rng):
    """Seed lists mixing seed with its colored faces, a copy of it with
    its generators reordered, and images of it and of its faces."""
    faces = spherical.colored_faces(a.datum, seed)
    gens = list(seed.cone.generators)
    rng.shuffle(gens)
    reordered = ColoredCone(Cone(a.datum.rank, gens), seed.palette)
    image, face_image = (apply_element(a, rng.choice(a.elements), cc)
                         for cc in (seed, rng.choice(faces)))
    return ([rng.choice(faces), seed], [reordered, seed, image], [face_image, image],
            faces[::-1], [seed, *rng.sample(faces, 2), reordered])


class TestInvariantClosureAgainstReference:
    """Closing the seeds' orbit and then its faces must give the fan of
    the pass-by-pass fixed point, which maps faces and takes faces of
    images, byte for byte, or the same CF2 witness."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_twisted_actions(self, seed):
        rng = random.Random(seed)
        for t in (bench_inputs.twisted_p1(rng, 2), bench_inputs.sign_changes(rng, 3),
                  bench_inputs.twisted_p1(rng, 3)):
            d, seeds, a = bench_inputs.build_twisted(t)
            got = assert_same_closure(a, seeds)
            assert len(docio.parse_fan(got, d)) == t.n_cones
            for more in seeds_around(a, seeds[0], rng):
                assert_same_closure(a, more)

    def test_duplicate_keys_keep_the_first(self):
        d, (seed,), a = bench_inputs.build_twisted(
            bench_inputs.twisted_p1(random.Random(5), 2))
        gens = list(seed.cone.generators)
        flipped = ColoredCone(Cone(2, gens[::-1]), seed.palette)
        ray = ColoredCone(Cone(2, [gens[1]]), seed.palette)
        image = apply_element(a, a.elements[3], seed)
        outcomes = [assert_same_closure(a, seeds) for seeds in
                    ([seed, flipped, ray], [flipped, seed], [ray, image, seed, image])]
        # the first of two equal seeds is kept: its generator order shows
        assert outcomes[0] != outcomes[1]

    def test_seed_failing_cc2(self):
        a = half_plane_action()
        up = ColoredCone(Cone(2, [(0, 1)]))
        assert not validate_colored_cone(a.datum, up).cc2
        below = ColoredCone(Cone(2, [(1, 0), (1, -1)]), ["a"])
        for seeds in ([up], [up, below], [below, up, below]):
            assert isinstance(assert_same_closure(a, seeds), str)

    def test_random_seeds(self):
        rng = random.Random(139)
        d, _, a = bench_inputs.build_twisted(bench_inputs.twisted_p1(rng, 2))
        cf2 = 0
        for _ in range(40):
            seeds = [ColoredCone(Cone(2, [random_vec(rng, 2, -2, 2)
                                          for _ in range(rng.randint(0, 3))]),
                                 [c for c in d.colors if rng.random() < 0.3])
                     for _ in range(rng.randint(1, 3))]
            cf2 += not isinstance(assert_same_closure(a, seeds), str)
        assert 0 < cf2 < 40
        d, _, a = bench_inputs.build_twisted(bench_inputs.sign_changes(rng, 3))
        cf2 = 0
        for _ in range(20):
            seeds = [ColoredCone(Cone(3, [random_vec(rng, 3, -1, 1)
                                          for _ in range(rng.randint(0, 3))]),
                                 [c for c in d.colors if rng.random() < 0.3])
                     for _ in range(rng.randint(1, 2))]
            cf2 += not isinstance(assert_same_closure(a, seeds), str)
        assert 0 < cf2 < 20

    def test_cf2_violation(self):
        v = Cone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        turn = Mat([[0, -1], [1, 0]])
        powers = [Mat.identity(2), turn, turn.matmul(turn), turn.matmul(turn).matmul(turn)]
        a = GaloisAction(SphericalDatum(2, v),
                         [GroupElement(f"r{i}", m, {}) for i, m in enumerate(powers)])
        got = assert_same_closure(a, [ColoredCone(Cone(2, [(1, 0), (-1, 1)]))])
        assert got[0] == "CF2" and got[1] is not None

    def test_lists_that_are_not_groups(self):
        d = swap_datum()
        fix = {"a": "a", "b": "b"}
        involution = GaloisAction(line_datum(), [GroupElement("sigma", Mat([[-1]]), {})])
        assert not validate_action(involution).has_identity
        assert_same_closure(involution, [ColoredCone(Cone(1, [(1,)]))])
        reflections = GaloisAction(d, [GroupElement("x", Mat([[1, 0], [0, -1]]), fix),
                                       GroupElement("y", Mat([[-1, 0], [0, 1]]), fix)])
        assert not validate_action(reflections).closed
        got = assert_same_closure(reflections, [ColoredCone(Cone(2, [(1, 0), (0, 1)]))])
        assert len(docio.parse_fan(got, d)) == 9
        mirrors = GaloisAction(d, [GroupElement("x", Mat([[1, 0], [0, -1]]), fix),
                                   GroupElement("s", Mat([[0, 1], [1, 0]]),
                                                {"a": "b", "b": "a"})])
        got = assert_same_closure(mirrors, [ColoredCone(Cone(2, [(1, 0), (1, 1)]))])
        assert len(docio.parse_fan(got, d)) == 17
        # sublists of B_2 and B_3, mostly missing the identity or a composite
        rng = random.Random(191)
        groups = 0
        for n in (2, 2, 3, 3, 3):
            d, (seed,), b = bench_inputs.build_twisted(bench_inputs.twisted_p1(rng, n))
            sub = GaloisAction(d, rng.sample(b.elements, rng.randint(1, 4)))
            groups += validate_action(sub).ok
            for seeds in ([seed], *seeds_around(sub, seed, rng)):
                assert_same_closure(sub, seeds)
        assert groups < 5


class TestGeneratorLookupAgainstKeyOnly:
    """Orbits, closures and invariance checks that skip repeated generator
    sets must match the path that computes every key."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closure_bytes(self, seed):
        rng = random.Random(seed)
        for t in (bench_inputs.twisted_p1(rng, 2), bench_inputs.sign_changes(rng, 3),
                  bench_inputs.twisted_p1(rng, 3)):
            _, seeds, a = bench_inputs.build_twisted(t)
            got = closure_outcome(invariant_closure, a, seeds)
            assert got == closure_outcome(key_only_invariant_closure, a, seeds)

    def test_random_seeds(self):
        rng = random.Random(173)
        d, _, a = bench_inputs.build_twisted(bench_inputs.twisted_p1(rng, 2))
        for _ in range(30):
            seeds = [ColoredCone(Cone(2, [random_vec(rng, 2, -2, 2)
                                          for _ in range(rng.randint(0, 3))]),
                                 [c for c in d.colors if rng.random() < 0.3])
                     for _ in range(rng.randint(1, 3))]
            got = closure_outcome(invariant_closure, a, seeds)
            assert got == closure_outcome(key_only_invariant_closure, a, seeds)

    def test_orbits(self):
        rng = random.Random(179)
        _, _, a = bench_inputs.build_twisted(bench_inputs.twisted_p1(rng, 3))
        for _ in range(40):
            cc = ColoredCone(Cone(3, [random_vec(rng, 3, -2, 2)
                                      for _ in range(rng.randint(0, 4))]),
                             [c for c in a.datum.colors if rng.random() < 0.3])
            got, want = orbit(a, cc), key_only_orbit(a, cc)
            assert ([(x.cone.generators, x.palette) for x in got]
                    == [(y.cone.generators, y.palette) for y in want])

    def test_invariance_with_redundant_generators(self):
        rng = random.Random(181)
        for t in (bench_inputs.twisted_p1(rng, 2), bench_inputs.sign_changes(rng, 3)):
            d, seeds, a = bench_inputs.build_twisted(t)
            members = list(invariant_closure(a, seeds))
            # members given with a redundant generator miss the generator
            # map, and a dropped member makes its orbit fail
            for i, cc in enumerate(members):
                gens = cc.cone.generators
                if len(gens) > 1 and rng.random() < 0.5:
                    extra = tuple(map(sum, zip(*gens)))
                    members[i] = ColoredCone(Cone(d.rank, gens + (extra,)), cc.palette)
            for fan in (ColoredFan(members), ColoredFan(members[:-1])):
                keys = {cc.key for cc in fan}
                want = [(e.name, i) for e in a.elements for i, cc in enumerate(fan)
                        if apply_element(a, e, cc).key not in keys]
                assert list(is_invariant_fan(a, fan).failures) == want
            assert not is_invariant_fan(a, ColoredFan(members[:-1])).ok


class TestInvariantClosureCounts:
    """Only the seeds' orbit is walked: each orbit member's colored faces
    once, and one image of it per element.  The faces themselves are
    never mapped or walked."""

    @pytest.mark.parametrize("make, members, orbit_size", [
        (lambda rng: bench_inputs.twisted_p1(rng, 2), 9, 4),
        (lambda rng: bench_inputs.sign_changes(rng, 3), 27, 8),
    ])
    def test_work_per_member(self, monkeypatch, make, members, orbit_size):
        d, seeds, a = bench_inputs.build_twisted(make(random.Random(1)))
        faces_of, images = [], []
        colored, apply = spherical._FaceTable.colored, galois.apply_element

        # the orbit members whose colored faces the closure's face table walks
        def count_faces(table, i):
            faces_of.append(table.ccs[i].key)
            return colored(table, i)

        def count_images(action, e, cc):
            images.append(cc.key)
            return apply(action, e, cc)

        monkeypatch.setattr(spherical._FaceTable, "colored", count_faces)
        monkeypatch.setattr(galois, "apply_element", count_images)
        fan = invariant_closure(a, seeds)
        assert len(fan) == members
        assert len(faces_of) == len(set(faces_of)) == orbit_size
        assert len(images) == len(a.elements) * orbit_size
        # the orbit members are the top-dimensional members
        assert set(faces_of) == {cc.key for cc in fan if cc.cone.dim == d.rank}


def assert_same_image(m: Mat, c: Cone, got: Cone):
    """got is the image of c under m as the Fraction ``matvec`` path built
    it: the same generators, dual and key."""
    want = reference_image(m, c)
    assert got.ambient_rank == want.ambient_rank
    assert got.generators == want.generators
    assert got.facets == want.facets and got.span_equations == want.span_equations
    assert got.key == Cone(m.nrows, [m.matvec(g) for g in c.generators]).key


def random_unimodular(rng: random.Random, n: int) -> Mat:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            f = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
        else:
            rows[i] = [-a for a in rows[i]]
    rng.shuffle(rows)
    return Mat(rows)


class TestIntegralImages:
    """``Cone.image`` maps int generators when the matrix is integral; the
    images must equal those of the Fraction path it replaced."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_twisted_actions(self, seed):
        rng = random.Random(seed)
        for t in (bench_inputs.twisted_p1(rng, 2), bench_inputs.sign_changes(rng, 3)):
            d, seeds, a = bench_inputs.build_twisted(t)
            fan = invariant_closure(a, seeds)
            for e in a.elements:
                assert_same_image(e.matrix, d.valuation_cone,
                                  d.valuation_cone.image(e.matrix))
                for cc in fan:
                    assert_same_image(e.matrix, cc.cone, apply_element(a, e, cc).cone)

    def test_random_unimodular_matrices(self):
        rng = random.Random(113)
        for _ in range(200):
            c = random_cone(rng, max_rank=4, max_gens=5)
            m = random_unimodular(rng, c.ambient_rank)
            assert abs(m.det()) == 1
            assert_same_image(m, c, c.image(m))

    def test_singular_matrices(self):
        rng = random.Random(127)
        fixed = Mat([[1, 2, 0], [2, 4, 0], [0, 0, 0]])
        for k in range(100):
            c = random_cone(rng, max_rank=4, max_gens=5)
            n = c.ambient_rank
            if k % 4 == 0 and n == 3:
                m = fixed
            else:
                rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                rows[-1] = list(rows[0]) if n > 1 else [0]
                m = Mat(rows)
            assert m.det() == 0
            assert_same_image(m, c, c.image(m))

    def test_rational_projection(self):
        rng = random.Random(131)
        src = SphericalDatum(3, Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        tgt = SphericalDatum(2, Cone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)]))
        m = Mat([["1/2", 0, 1], [0, "-1/3", "2/5"]])
        mor = FanMorphism(src, tgt, m)
        for _ in range(100):
            c = random_cone(rng, max_rank=3, max_gens=5)
            if c.ambient_rank == 3:
                assert_same_image(m, c, mor.push_cone(c))
