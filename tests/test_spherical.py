import ast
import gc
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Optional

import pytest

from sphfan import cones, fourier_motzkin, galois, lp, rational, spherical
from sphfan.cones import Cone, cones_equal, relints_meet_in
from sphfan.spherical import (ColoredCone, ColoredFan, ColoredFanReport, FanAxiomError,
                              RankMismatchError, SphericalDatum,
                              UnknownColorError, colored_cones_equal,
                              colored_faces, faces_closure, fans_equal,
                              is_strictly_convex_colored,
                              is_strictly_convex_fan, maximal_cones,
                              orbit_count, relint_meets_cone, validate_colored_cone,
                              validate_colored_fan)

from helpers import (KeyOnlyColoredFan, closure_outcome, cube_face_fan, cyclic_garbage, dot,
                     fm_relint_meets_cone, fresh_meet_system, generator_sum,
                     intersect_cc1, key_only_faces_closure,
                     key_only_validate_colored_fan, load_perfbench,
                     pre_table_colored_faces, pre_table_faces_closure,
                     pre_table_maximal_cones, pre_table_validate_colored_fan,
                     presolve_certifies, random_cone, random_datum,
                     random_valid_colored_cone, random_vec, reference_colored_faces,
                     reference_contains, reference_holds, reference_index_certifies,
                     reference_meet_system, reference_relints_meet_in, trie_states,
                     without_kept_systems)

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

    def test_point_questions_read_rho_in_ints(self, monkeypatch):
        # each rho image's int direction is made once, by the datum, and
        # CC1 and colored_faces hand it to the int core of the cone's point
        # questions, which no gate guards; so does CC1's one test of the
        # cone's generators against V
        d = SphericalDatum(2, full_plane(), ["a", "b"],
                           {"a": ("1/2", "1/3"), "b": (0, Fraction(-2, 3))})
        assert d._rho_ints == {"a": (3, 2), "b": (0, -2)}
        points = []
        face_facets, holds = Cone._face_facets, Cone._holds
        monkeypatch.setattr(Cone, "_face_facets",
                            lambda c, x: points.append(x) or face_facets(c, x))
        monkeypatch.setattr(Cone, "_holds",
                            lambda c, xs: points.extend(xs) or holds(c, xs))
        cc = ColoredCone(Cone(2, [(1, 0), (0, 1), (0, -1)]), ["a", "b"])
        assert validate_colored_cone(d, cc).ok
        faces = colored_faces(d, cc)
        assert points and all(rational.all_ints(x) for x in points)
        assert [f.key for f in faces] == [f.key for f in reference_colored_faces(d, cc)]


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


class TestEachMemberCheckedOnce:
    """``validate_colored_fan`` checks each member's rank and palette once
    and tests each of its rho images once, in its one face table: CC1 and
    the face palettes read the same carriers.  Every other entry point
    still checks them."""

    def test_complete_colored_p1_cubed(self, monkeypatch):
        counts = Counter()
        check_colors = SphericalDatum.check_colors

        def counted(d, palette):
            counts["check_colors"] += 1
            return check_colors(d, palette)
        f = bench_inputs.p1_fan(random.Random(1), 3, 3, 3)
        d, fan = bench_inputs.build_p1_datum(f), ColoredFan(bench_inputs.build_p1_cones(f))
        monkeypatch.setattr(SphericalDatum, "check_colors", counted)
        assert validate_colored_fan(d, fan).ok
        assert counts == {"check_colors": 27}

    def test_one_rho_test_per_member_and_color(self, monkeypatch):
        # a rho test is Cone._face_facets on a rho image by a member's cone;
        # the 27 members carry 27 (member, color) pairs in all, and CC1 and
        # the face table once tested each pair apart (54 tests)
        f = bench_inputs.p1_fan(random.Random(1), 3, 3, 3)
        d, fan = bench_inputs.build_p1_datum(f), ColoredFan(bench_inputs.build_p1_cones(f))
        assert sum(len(cc.palette) for cc in fan) == 27
        images, face_facets, tests = set(d._rho_ints.values()), Cone._face_facets, [0]

        def counted(c, xi):
            tests[0] += c is not d.valuation_cone and tuple(xi) in images
            return face_facets(c, xi)
        monkeypatch.setattr(Cone, "_face_facets", counted)
        assert validate_colored_fan(d, fan).ok
        assert tests == [27]

    def test_every_member_is_checked_before_any_lp(self, monkeypatch):
        # the last member's unknown color raises before any solve() call,
        # with the message validate_colored_cone gives that member alone
        f = bench_inputs.p1_fan(random.Random(1), 3, 3, 3)
        d, members = bench_inputs.build_p1_datum(f), bench_inputs.build_p1_cones(f)
        bad = ColoredCone(members[-1].cone, ["nope"])
        with pytest.raises(UnknownColorError) as alone:
            validate_colored_cone(d, bad)
        calls, solve = [0], lp.FeasibilitySystem.solve

        def counted(system):
            calls[0] += 1
            return solve(system)
        monkeypatch.setattr(lp.FeasibilitySystem, "solve", counted)
        with pytest.raises(UnknownColorError) as raised:
            validate_colored_fan(d, ColoredFan(members + [bad]))
        assert raised.value.args == alone.value.args == ("unknown colors: ['nope']",)
        assert calls == [0]

    def test_every_entry_point_still_checks(self):
        d = p1_datum()
        fan = ColoredFan([ColoredCone(Cone(1, [(1,)])), ColoredCone(Cone(1), ["nope"])])
        for call in (validate_colored_fan, maximal_cones):
            with pytest.raises(UnknownColorError):
                call(d, fan)
        with pytest.raises(UnknownColorError):
            faces_closure(d, fan.cones)
        with pytest.raises(UnknownColorError):
            colored_faces(d, fan.cones[1])
        with pytest.raises(RankMismatchError):
            maximal_cones(d, ColoredFan([ColoredCone(Cone(2))]))


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
    one lattice closure (``cones._face_lattice``, called only by the face
    walk ``Cone._ordered_faces``, which ``faces()`` and the face table
    read) per ``faces()`` and per ``colored_faces``, and,
    with no face key asked, two double descriptions: the parent's, for its
    face lattice, and V's, whose facets the interior-point test of the
    first face reads (V is new with each datum, so no earlier call
    computed them)."""

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
        lattice = counted("lattice", cones._face_lattice)
        monkeypatch.setattr(cones, "_face_lattice", lattice)
        rng = random.Random(seed)
        for p in (bench_inputs.cube_cone(rng, 4, 2), bench_inputs.cube_cone(rng, 5, 3),
                  bench_inputs.cyclic_cone(rng, tuple(range(-3, 4)))):
            calls.clear()
            faces = Cone(p.rank, p.generators).faces()
            assert len(faces) == p.n_faces
            assert calls == {"dual": 1, "lattice": 1}
            d, cc = bench_inputs.build_pointed(p)
            calls.clear()
            out = colored_faces(d, cc)
            assert len(out) == p.n_faces
            assert calls == {"dual": 2, "lattice": 1}
            assert "_idual" in vars(cc.cone)
            assert not any("_idual" in vars(f.cone) for f in out)

    def test_simplicial_fan_runs_no_lattice_closure(self, monkeypatch):
        """Every member of the complete colored P1^3 fan is simplicial, so
        its face walk is the Boolean lattice of its generators: validating
        the fan closes no lattice, where a closure per member would make
        27, and the face table lists the subsets once per generator count
        0..3, four lists for 27 members.  The report is the one the
        pre-table path gives."""
        f = bench_inputs.p1_fan(random.Random(1), 3, 3, 3)
        d, fan = bench_inputs.build_p1_datum(f), ColoredFan(bench_inputs.build_p1_cones(f))
        calls = Counter()
        for name in ("_face_lattice", "_subsets"):
            fn = getattr(cones, name)
            monkeypatch.setattr(cones, name,
                                lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args))
        report = validate_colored_fan(d, fan)
        assert calls == {"_subsets": 4}
        monkeypatch.undo()
        assert report == pre_table_validate_colored_fan(d, fan) and report.ok

    def test_faces_never_negate(self, monkeypatch):
        # a face only stands first in a meet system, so its negated columns
        # are never read, nor built; V is read negated, and so is the second
        # cone of a CF2 pair, only when a system's rows are built, which
        # happens just when no certificate settles the system (V = Q^n holds
        # every generator sum, so only a CF2 pair can).  The cube closure is
        # the faces of one cone, and two faces F != G of a cone are split by one of
        # its facets (one with G on it and F not, say), so the index
        # settles every pair; so it does in the P1 fan, on the axes.  An
        # extra ray through the relative interior of a 2-cone of the P1
        # fan leaves that pair to the simplex.  The faces collected are
        # those the face table builds (``_FaceTable.cone``): CF1 of these
        # closed fans tests each face on its member and builds none, so
        # each member's colored faces are listed after the validation.
        seen = []
        build = spherical._FaceTable.cone

        def recorded(table, *args):
            face = build(table, *args)
            seen.append(face)
            return face
        monkeypatch.setattr(spherical._FaceTable, "cone", recorded)
        rng = random.Random(14)
        d_cube, cube = bench_inputs.build_pointed(bench_inputs.cube_cone(rng, 4, 2))
        p1 = bench_inputs.p1_fan(rng, 3, 3, 2)
        extra = bench_inputs.p1_fan(rng, 3, 3, 2, 1)
        outcomes = []
        for d, fan, ok in ((d_cube, faces_closure(d_cube, [cube]), True),
                           (bench_inputs.build_p1_datum(p1),
                            ColoredFan(bench_inputs.build_p1_cones(p1)), True),
                           (bench_inputs.build_p1_datum(extra),
                            ColoredFan(bench_inputs.build_p1_cones(extra)), False)):
            seen.clear()
            assert validate_colored_fan(d, fan).ok == ok
            for cc in fan:
                colored_faces(d, cc)
            assert len(seen) > len(fan)
            assert not any("_neg_cols" in vars(face) for face in seen)
            pairs = [(i, j) for i in range(len(fan)) for j in range(i + 1, len(fan))]
            certified = reference_index_certifies([cc.cone for cc in fan], d.valuation_cone)
            left = {pair for pair, c in zip(pairs, certified) if not c}
            assert ("_neg_cols" in vars(d.valuation_cone)) == bool(left)
            simplex_second = [any((i, j) in left for i in range(j)) for j in range(len(fan))]
            assert ["_neg_cols" in vars(cc.cone) for cc in fan] == simplex_second
            outcomes.append(len(left))
        # the index leaves the extra ray's pair alone to the simplex
        assert outcomes == [0, 0, 1]


class TestSimplexRuns:
    """Pinned work at both LP counters: ``FeasibilitySystem.solve`` calls
    and simplex runs (``lp._solve_eq_nonneg``), on the complete P1^n fan,
    whose 3^n members are the orthant cones of the sign vectors in
    {0, +, -}^n, with V = Q^n.

    - ``validate_colored_fan`` calls ``solve()`` once per CF2 pair, CC2
      test and face test: C(3^n, 2) + 3^n + 5^n, since a member with k
      rays is simplicial with 2^k faces, and summing 2^k over the sign
      vectors gives (1 + 2 + 2)^n.  That is 351 + 27 + 125 = 503 for
      n = 3, 3,240 + 81 + 625 = 3,946 for n = 4 and 29,403 + 243 +
      3,125 = 32,771 for n = 5.
    - Two distinct members differ on some axis, where one is nonzero and
      the other has no entry of its sign, so the infeasible-row presolve
      settles every CF2 pair.  Each face of a member is a member, on the
      same generators in the same order, so the CC2 and face tests ask
      3^n distinct systems: 27, 81 and 243.  V = Q^n holds every
      generator sum, so each of them is certified feasible by an interior
      point, and CC2 takes that sum as its witness.  So validation runs
      the simplex 0 times.  (That was 27, 81 and 243 runs while CC2 read
      the simplex's point, and 152 = 27 + 125 and 706 = 81 + 625 when
      every test ran its own.)
    - ``faces_closure`` from the 2^n maximal cones calls ``solve()``
      2^n · 2^n times for faces and C(3^n, 2) times for CF2: for n = 4,
      256 + 3,240 = 3,496 calls, and for n = 5, 1,024 + 29,403 = 30,427.
      It runs the simplex 0 times, for the same two reasons: each of the
      3^n distinct face systems is certified feasible by an interior
      point, and the presolve settles every CF2 pair.  (That was 81 runs
      for n = 4 with one run per distinct face, and 256 when every face
      test ran its own.)
    """

    @pytest.mark.parametrize("n, calls, members, closure_calls",
                             [(3, 503, 27, 64 + 351), (4, 3946, 81, 256 + 3240),
                              (5, 32771, 243, 1024 + 29403)])
    @pytest.mark.parametrize("colored", [False, True])
    def test_complete_p1(self, monkeypatch, n, calls, members, closure_calls, colored):
        counts = Counter()
        simplex, solve = lp._solve_eq_nonneg, lp.FeasibilitySystem.solve

        def counted_simplex(*args):
            counts["runs"] += 1
            return simplex(*args)

        def counted_solve(system):
            counts["calls"] += 1
            return solve(system)
        monkeypatch.setattr(lp, "_solve_eq_nonneg", counted_simplex)
        monkeypatch.setattr(lp.FeasibilitySystem, "solve", counted_solve)
        f = bench_inputs.p1_fan(random.Random(1), n, n, n if colored else 0)
        assert validate_colored_fan(bench_inputs.build_p1_datum(f),
                                    ColoredFan(bench_inputs.build_p1_cones(f))).ok
        assert counts == {"calls": calls}
        assert counts["runs"] == 0
        assert calls == f.validate_lp_calls
        counts.clear()
        fan = faces_closure(bench_inputs.build_p1_datum(f),
                            bench_inputs.build_p1_cones(f, maximal_only=True))
        assert len(fan) == f.n_cones == members == 3 ** n
        assert counts == {"calls": closure_calls}
        assert counts["runs"] == 0

    def test_complete_cube_face_fan(self, monkeypatch):
        """The complete face fan of the 4-cube (``cube_face_fan``): 81
        members, {0} and the cones over the proper faces, one per sign
        vector s != 0 in {0, +, -}^4, with V = Q^4.

        Validation calls ``solve()`` 3,240 + 81 + 625 = 3,946 times: the
        cone over an f-face has 3^f + 1 faces, and summing over the 2^(4-f)
        C(4, f) f-faces, plus {0}'s one, gives 32 + 128 + 240 + 224 + 1.
        It runs the simplex 0 times (81 while CC2 read the simplex's point,
        one run per member):
        - each face of a member is a member on the same generators in the
          same order, so the face tests find the systems CC2 made, and V
          holds every generator sum, so each is certified feasible by an
          interior point;
        - no CF2 pair reaches the simplex.  Members over the faces s != t
          have disjoint relative interiors, and the index shows it.  If
          s_k = -t_k != 0 for some k, the axis x_k splits them, which the
          sign masks see.  Otherwise, say s_k != 0 = t_k, take l with
          t_l != 0: w = s_k e_k - t_l e_l, a facet normal of the maximal
          member over x_k = s_k, is >= 0 on s's vertices and <= 0 on t's,
          which have v_l = t_l, with one < 0, at v_k = -s_k.  {0} lies on
          every axis, where every other member is one-signed.
        With the sign masks alone, 1,080 pairs, split by no axis, ran the
        simplex: 1,161 runs, with the 81 CC2 runs of that time.

        ``faces_closure`` from the 8 maximal cones calls ``solve()``
        8 · 28 + 3,240 = 3,464 times and runs the simplex 0 times: V holds
        every generator sum, so each face test is certified feasible by an
        interior point, and the index settles every pair as above.
        """
        counts = Counter()
        simplex, solve = lp._solve_eq_nonneg, lp.FeasibilitySystem.solve

        def counted_simplex(*args):
            counts["runs"] += 1
            return simplex(*args)

        def counted_solve(system):
            counts["calls"] += 1
            return solve(system)
        monkeypatch.setattr(lp, "_solve_eq_nonneg", counted_simplex)
        monkeypatch.setattr(lp.FeasibilitySystem, "solve", counted_solve)
        d, fan = cube_face_fan(4)
        assert len(fan) == 81
        assert validate_colored_fan(d, fan).ok
        assert counts == {"calls": 3946}
        assert counts["runs"] == 0
        counts.clear()
        maximal = [cc for cc in fan if cc.cone.dim == 4]
        assert len(maximal) == 8
        assert fans_equal(faces_closure(d, maximal), fan)
        assert counts == {"calls": 8 * 28 + 3240}


class TestFaceTableReuse:
    """The face table makes each distinct face bitset's relint test once
    (``cones._meet_system``) and calls ``solve()`` on the kept system at
    every occurrence, so every face test is still one ``solve()`` call.
    CC2 of the first member on a bitset reads the same system.

    - CF1 of the complete colored P1^3 fan reads a table over its 27
      members.  Each member has 2^k faces for its k rays, 5^3 = 125
      occurrences in all, and each face is a member on the same
      generators: 27 distinct bitsets, whose systems the 27 CC2 tests,
      asked first, have made.  So CF1 makes none (27 while CC2 kept its
      own systems on V, 125 before the table kept them) and calls
      ``solve()`` 125 times.
    - The face closure of P1^4 from its 16 maximal cones reads 16 · 16 =
      256 occurrences of the 3^4 = 81 distinct faces: 81 lookups (256
      before) and 256 face ``solve()`` calls.  Its CF2 pass builds its
      systems in ``cones._pair_systems``, with no lookup.
    """

    def count(self, monkeypatch):
        counts, phase = Counter(), [""]
        solve, make, members = (lp.FeasibilitySystem.solve, cones._meet_system,
                                spherical._face_members)

        def counted_solve(system):
            counts["solve", phase[0]] += 1
            return solve(system)

        def counted_make(cs):
            counts["lookup", phase[0]] += 1
            return make(cs)

        def cf1(*args):
            phase[0] = "CF1"
            yield from members(*args)
            phase[0] = ""
        monkeypatch.setattr(lp.FeasibilitySystem, "solve", counted_solve)
        monkeypatch.setattr(cones, "_meet_system", counted_make)
        monkeypatch.setattr(spherical, "_face_members", cf1)
        return counts

    def test_cf1_of_the_complete_colored_p1_cube(self, monkeypatch):
        counts = self.count(monkeypatch)
        f = bench_inputs.p1_fan(random.Random(1), 3, 3, 3)
        d, fan = bench_inputs.build_p1_datum(f), ColoredFan(bench_inputs.build_p1_cones(f))
        assert validate_colored_fan(d, fan).ok
        assert counts["lookup", "CF1"] == 0 and counts["solve", "CF1"] == 125
        # CC2, one system and one solve per member, and CF2, one solve per pair
        assert counts["lookup", ""] == 27 and counts["solve", ""] == 27 + 351

    def test_the_p1_4_closure(self, monkeypatch):
        counts = self.count(monkeypatch)
        f = bench_inputs.p1_fan(random.Random(1), 4, 4, 4)
        maximal = bench_inputs.build_p1_cones(f, maximal_only=True)
        assert len(maximal) == 16
        fan = faces_closure(bench_inputs.build_p1_datum(f), maximal)
        assert len(fan) == 81
        assert counts["lookup", ""] == 81 and counts["solve", ""] == 256 + 3240


class TestSignMasks:
    """A cone's sign masks (``Cone._signs``) are computed once, and only
    for a system no interior point certifies or for a CF2 pass.

    Validating the complete colored P1^3 fan asks 351 CF2 systems, 27 CC2
    systems and 125 face tests (see ``TestSimplexRuns``).  The CF2 pass
    reads the masks of all 27 members and of V once, for its index.  The
    CC2 systems, one per member, are certified feasible by an interior
    point, so they read no mask.  Each face's bitset is a member's, so
    its test is on the member's CC2 system, which the face table keeps,
    and it computes no mask.  That makes 27 + 1 = 28 computes, against
    153 = 28 + 125 when every face computed its own.
    """

    def test_complete_colored_p1_computes_one_mask_per_cone(self, monkeypatch):
        computed = []
        signs = Cone.__dict__["_signs"].func

        def counted(cone):
            computed.append(cone)
            return signs(cone)
        prop = cones._lazy(counted)
        prop.__set_name__(Cone, "_signs")
        monkeypatch.setattr(Cone, "_signs", prop)
        f = bench_inputs.p1_fan(random.Random(1), 3, 3, 3)
        d, fan = bench_inputs.build_p1_datum(f), ColoredFan(bench_inputs.build_p1_cones(f))
        assert validate_colored_fan(d, fan).ok
        assert len(computed) == 28
        assert {id(c) for c in computed} == {id(cc.cone) for cc in fan} | {id(d.valuation_cone)}


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
        assert orbit_count(fan) == 3

    def test_single_cone_closure_is_simple(self):
        d = SphericalDatum(2, full_plane(), ["a"], {"a": (1, 0)})
        cc = ColoredCone(Cone(2, [(1, 0), (0, 1)]), ["a"])
        fan = faces_closure(d, [cc])
        assert len(maximal_cones(d, fan)) == 1
        assert orbit_count(fan) == len(colored_faces(d, cc)) == 4

    def test_homogeneous_fan(self):
        fan = ColoredFan([ColoredCone(Cone(1))])
        assert orbit_count(fan) == 1
        assert len(maximal_cones(p1_datum(), fan)) == 1


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


def proper_datum(rng: random.Random, max_rank: int = 3, min_rank: int = 2) -> SphericalDatum:
    """A datum of rank ``min_rank`` to ``max_rank`` whose V is a nonzero
    cone other than the whole space, with one to three colors."""
    n = rng.randint(min_rank, max_rank)
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


def face_facets_by_fractions(c: Cone, x) -> Optional[list[int]]:
    """The facets vanishing at x by Fraction dot products on the public
    ``facets``, or None when x lies outside (``reference_contains``)."""
    if not reference_contains(c, x):
        return None
    return [i for i, w in enumerate(c.facets) if dot(w, x) == 0]


class TestIntCoreAgainstGate:
    """The int core that CC1, CC2 and the face table ask with no gate
    (``Cone._face_facets``, ``_carrier``, ``_holds``), and the witness made
    over d = 1 with no gcd, against the gated public point questions and
    Fraction references, on data of ranks 1-5 with a proper V."""

    def int_points(self, rng: random.Random, d: SphericalDatum, cones) -> list:
        """Int points the library builds (rho images, generators and
        generator sums) and random ones."""
        n = d.rank
        points = list(d._rho_ints.values()) + [tuple(rng.randint(-2, 2) for _ in range(n))
                                               for _ in range(3)]
        for c in cones:
            points += list(c._ints) + [c._col_sums]
        return points

    def test_core_answers_as_the_gate(self):
        rng = random.Random(191)
        seen = Counter()
        for _ in range(150):
            d = proper_datum(rng, 5, min_rank=1)
            cs = [random_top(rng, d), random_top(rng, d)]
            cones_asked = [cc.cone for cc in cs] + [d.valuation_cone]
            for c in cones_asked:
                for xi in self.int_points(rng, d, cones_asked):
                    tight = c._face_facets(xi)
                    assert tight == face_facets_by_fractions(c, xi)
                    assert c.contains(xi) == (tight is not None)
                    assert c.relint_contains(xi) == (tight == [])
                    # the gate reads a rational point to the same direction
                    xf = tuple(Fraction(x, 6) for x in xi)
                    assert c.contains(xf) == (tight is not None)
                    assert c.relint_contains(xf) == (tight == [])
                    carrier = None if tight is None else sum(
                        1 << k for k, g in enumerate(c.generators)
                        if all(dot(c.facets[i], g) == 0 for i in tight))
                    assert c._carrier(xi) == carrier
                    seen["outside" if tight is None else "relint" if not tight else "face"] += 1
        assert min(seen.values()) > 500

    def test_one_shot_containment(self):
        rng = random.Random(193)
        seen = Counter()
        for _ in range(300):
            d = proper_datum(rng, 5, min_rank=1)
            cs = [cc.cone for cc in (random_top(rng, d), random_top(rng, d))]
            v = d.valuation_cone
            for a, b in ((cs[0], v), (cs[1], v), (v, cs[0]), (cs[0], cs[1]), (cs[1], cs[1])):
                got = b._holds(a._ints)
                assert got == all(b.contains(g) for g in a._ints)
                seen[got] += 1
            points = [tuple(rng.randint(-2, 2) for _ in range(d.rank))
                      for _ in range(rng.randint(0, 3))]
            assert v._holds(points) == all(v.contains(x) for x in points)
        assert min(seen[True], seen[False]) > 300

    def test_reports_against_the_key_only_path(self):
        rng = random.Random(197)
        cc1 = Counter()
        for _ in range(200):
            d = proper_datum(rng, 5, min_rank=1)
            cc = random_top(rng, d)
            rep = validate_colored_cone(d, cc)
            assert (rep.cc1, rep.cc1_detail) == intersect_cc1(d, cc)
            cc1[rep.cc1_detail[:4]] += 1
            fan = ColoredFan(random_members(rng, d, redundant=rng.random() < 0.5))
            got = validate_colored_fan(d, fan)
            assert report_form(got) == report_form(key_only_validate_colored_fan(d, fan))
        # CC1 held, failed on a rho image and failed on the regenerated cone
        assert min(cc1.values()) > 5 and len(cc1) == 3

    def test_witness_as_the_general_path(self):
        rng = random.Random(199)
        over = Counter()
        for _ in range(400):
            d = proper_datum(rng, 5, min_rank=1)
            c = random_top(rng, d).cone
            den = rng.choice([1, rng.randint(2, 12)])
            y = [rng.randint(0, 20) for _ in range(len(c._ints) + rng.randint(0, 3))]
            got = cones._witness(c, (y, den))
            nums = [x + den for x in y[:len(c._ints)]]
            want = tuple(Fraction(sum(l * g[k] for l, g in zip(nums, c._ints)), den)
                         for k in range(d.rank))
            assert got == want
            assert [(type(x), x.numerator, x.denominator) for x in got] == [
                (Fraction, x.numerator, x.denominator) for x in want]
            over[den == 1] += 1
        assert min(over.values()) > 150


def closure_of_maximal_p1(n: int, n_colored: int) -> ColoredFan:
    f = bench_inputs.p1_fan(random.Random(n), n, n, n_colored)
    return faces_closure(bench_inputs.build_p1_datum(f),
                         bench_inputs.build_p1_cones(f, maximal_only=True))


def validate_complete_p1(n: int) -> ColoredFanReport:
    f = bench_inputs.p1_fan(random.Random(n), n, n, n)
    return validate_colored_fan(bench_inputs.build_p1_datum(f),
                                ColoredFan(bench_inputs.build_p1_cones(f)))


def cube_colored_faces() -> list[ColoredCone]:
    return colored_faces(*bench_inputs.build_pointed(
        bench_inputs.cube_cone(random.Random(0), 5, 2)))


def cube_faces() -> list[Cone]:
    p = bench_inputs.cube_cone(random.Random(0), 5, 2)
    return Cone(p.rank, p.generators).faces()


def twisted_closure(t) -> ColoredFan:
    _, seeds, action = bench_inputs.build_twisted(t)
    return galois.invariant_closure(action, seeds)


class TestNoCyclicGarbage:
    """A call leaves nothing that only the cyclic collector frees: the
    meet systems hold the cones their rows are built from, and no cone
    holds a system, so the face table, its systems and their builders
    are freed by reference counting when the call returns.  Each call
    builds its inputs, with ``perfbench/inputs.py``, and drops them when
    it returns."""

    @pytest.mark.parametrize("call, args", [
        (closure_of_maximal_p1, (3, 3)),
        (closure_of_maximal_p1, (4, 2)),
        (cube_colored_faces, ()),
        (twisted_closure, (bench_inputs.twisted_p1(random.Random(0), 2),)),
        (twisted_closure, (bench_inputs.sign_changes(random.Random(0), 3),)),
        (validate_complete_p1, (3,)),
        (cube_faces, ()),
    ], ids=["faces_closure P1^3", "faces_closure P1^4", "colored_faces 4-cube",
            "invariant_closure B2", "invariant_closure (Z2)^3", "validate P1^3",
            "faces 4-cube"])
    def test_call(self, call, args):
        assert cyclic_garbage(call, *args) == Counter()


def test_a_datum_keeps_no_meet_system():
    """Validating a fan leaves no LP system alive once the report and the
    fan are dropped, though the datum, and with it V, is kept: the face
    table of the call is the one keeper of relint(C) ∩ V systems, and it
    goes with the call.  On the complete colored P1^5 fan (243 members),
    a V that kept one system per member's generators held 243."""
    def alive() -> int:
        gc.collect()
        return sum(isinstance(o, lp.FeasibilitySystem) for o in gc.get_objects())
    f = bench_inputs.p1_fan(random.Random(5), 5, 5, 5)
    d = bench_inputs.build_p1_datum(f)
    before = alive()
    assert validate_colored_fan(d, ColoredFan(bench_inputs.build_p1_cones(f))).ok
    assert alive() - before == 0


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
            found = [(face, fan.index(face)) for cc in fan for face in colored_faces(d, cc)]
            key_hits += sum(i is not None and fan.cones[i]._gens_key != face._gens_key
                            for face, i in found)
        assert min(cf1[True], cf1[False]) > 10
        # with redundant generators, faces miss the generator sets and the
        # key finds them
        assert (key_hits > 15) if redundant else (key_hits == 0)

    def test_index_against_key_only(self):
        rng = random.Random(173)
        hits = Counter()
        for _ in range(150):
            d = proper_datum(rng)
            members = random_members(rng, d, redundant=rng.random() < 0.5)
            members += rng.sample(members, rng.randint(0, len(members)))
            fan = ColoredFan(members)
            keys = [cc.key for cc in KeyOnlyColoredFan(members)]
            # the members, copies with a redundant generator, the same
            # cones under other palettes, and other cones
            probes = members + [with_redundant(rng, cc) for cc in members]
            probes += [ColoredCone(cc.cone, [f for f in d.colors if rng.random() < 0.5])
                       for cc in members]
            probes += random_members(rng, d, redundant=True)
            for cc in probes:
                got = fan.index(cc)
                assert got == (keys.index(cc.key) if cc.key in keys else None)
                by_gens = got is not None and fan.cones[got]._gens_key == cc._gens_key
                hits[got is None, by_gens] += 1
        # misses, hits by generator set and hits by key alone
        assert min(hits[True, False], hits[False, True], hits[False, False]) > 50

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


def extreme(cc: ColoredCone) -> bool:
    """Pointed, with every generator on an extreme ray: as many rays
    among the faces as generators."""
    c = cc.cone
    return c.is_strictly_convex() and sum(f.dim == 1 for f in c.faces()) == len(c._ints)


def with_line(cc: ColoredCone) -> ColoredCone:
    """cc with the negative of its first generator added: a cone with a line."""
    gens = cc.cone.generators
    return ColoredCone(Cone(cc.cone.ambient_rank, gens + (tuple(-x for x in gens[0]),)),
                       cc.palette) if gens else cc


def table_members(rng: random.Random, d: SphericalDatum) -> list:
    """One or two colored cones, one of them sometimes with a line, and
    most of their colored faces, shuffled.  A member is sometimes given
    with a redundant generator, with its generators in another order than
    its faces list them, or under another palette than the one its face
    induces (the same generator set, so a CF1 miss)."""
    tops = [random_top(rng, d) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.3:
        tops[0] = with_line(tops[0])
    members = []
    for cc in tops + [f for cc in tops for f in pre_table_colored_faces(d, cc)
                      if rng.random() < 0.8]:
        r = rng.random()
        if r < 0.15:
            cc = with_redundant(rng, cc)
        elif r < 0.3:
            cc = ColoredCone(Cone(d.rank, rng.sample(cc.cone.generators,
                                                     len(cc.cone.generators))), cc.palette)
        elif r < 0.4:
            cc = ColoredCone(cc.cone, [f for f in d.colors if rng.random() < 0.5])
        members.append(cc)
    rng.shuffle(members)
    return members


class TestFaceTableAgainstReference:
    """CF1, ``maximal_cones``, ``faces_closure`` and ``colored_faces`` read
    one face table; each must give what the body it replaced gives
    (``pre_table_*`` in helpers): reports and maximal cones equal by repr,
    witnesses included, closures with the same bytes or the same CF2
    witness, and the same number of ``solve()`` calls, on every case."""

    def test_random_fans(self, monkeypatch):
        rng = random.Random(181)
        calls = Counter()
        solve = lp.FeasibilitySystem.solve

        def counted(system):
            calls["solve"] += 1
            return solve(system)
        monkeypatch.setattr(lp.FeasibilitySystem, "solve", counted)

        def outcome(fn, *args):
            calls.clear()
            return repr(fn(*args)), calls["solve"]
        seen = Counter()
        for _ in range(150):
            d = proper_datum(rng, max_rank=4)
            members = table_members(rng, d)
            fan = ColoredFan(members)
            got = outcome(validate_colored_fan, d, fan)
            assert got == outcome(pre_table_validate_colored_fan, d, fan)
            assert (outcome(maximal_cones, d, fan)
                    == outcome(pre_table_maximal_cones, d, fan))
            tops = [cc for cc in members if cc.cone.dim == max(m.cone.dim for m in members)]
            assert (outcome(closure_outcome, faces_closure, d, tops)
                    == outcome(closure_outcome, pre_table_faces_closure, d, tops))
            for cc in members:
                assert outcome(colored_faces, d, cc) == outcome(pre_table_colored_faces, d, cc)
            report = validate_colored_fan(d, fan)
            seen["cf1 fails"] += not report.cf1
            seen["cf1 miss on a member's generator set"] += any(
                face.cone._gens_key in {m.cone._gens_key for m in fan}
                for _, face in report.cf1_missing)
            seen["line"] += any(not cc.cone.is_strictly_convex() for cc in tops)
            seen["closure key path"] += not all(extreme(cc) for cc in tops)
            seen["closure CF2 fails"] += isinstance(
                closure_outcome(faces_closure, d, tops), tuple)
            seen["several maximal"] += len(maximal_cones(d, fan)) > 1
            seen[f"rank {d.rank}"] += 1
        assert min(seen.values()) > 10 and len(seen) == 9, seen
        assert seen["closure key path"] < 140, seen

    def test_only_tested_or_kept_faces_become_cones(self, monkeypatch):
        """On the complete colored P1^3 fan every face of a member is a
        member, tested on that member: CF1 and ``maximal_cones`` build no
        face ``Cone``.  The closure from the 8 maximal cones builds one per
        member of the closed fan: the 19 lower faces once each, for the
        first test of each bitset, and kept as they are, and a new Cone
        for each maximal cone's own face, tested on the given cone."""
        built = []
        cone = spherical._FaceTable.cone

        def recorded(table, *args):
            built.append(cone(table, *args))
            return built[-1]
        monkeypatch.setattr(spherical._FaceTable, "cone", recorded)
        f = bench_inputs.p1_fan(random.Random(1), 3, 3, 3)
        d, fan = bench_inputs.build_p1_datum(f), ColoredFan(bench_inputs.build_p1_cones(f))
        assert validate_colored_fan(d, fan).ok and len(maximal_cones(d, fan)) == 8
        assert built == []
        top = bench_inputs.build_p1_cones(f, maximal_only=True)
        closed = faces_closure(bench_inputs.build_p1_datum(f), top)
        assert len(built) == len(closed) == 27
        assert {id(cc.cone) for cc in closed} == {id(c) for c in built}

    def test_closure_of_extreme_cones_keys_no_face(self, monkeypatch):
        """Tops that are pointed with extreme generators: building the
        closed fan (``_faces_fan``, the closure before its CF2 pass, whose
        hyperplane index may read the members' facets) runs a double
        description for the tops and V only.  With one top given with a
        redundant generator or a line, faces are keyed, and the closure
        still equals the reference."""
        rng = random.Random(191)
        rows = []
        dual = cones._dual_ints

        def counted(ineqs, n, trie=None):
            rows.append(tuple(ineqs))
            return dual(ineqs, n, trie)
        monkeypatch.setattr(cones, "_dual_ints", counted)
        seen = Counter()
        for _ in range(120):
            d = proper_datum(rng, max_rank=4)
            tops = []
            while len(tops) < rng.randint(1, 3):
                cc = random_top(rng, d)
                if cc.cone.is_strictly_convex():
                    rays = [f._ints[0] for f in cc.cone.faces() if f.dim == 1]
                    tops.append(ColoredCone(Cone(d.rank, rng.sample(rays, len(rays))),
                                            cc.palette))
            spoiled = rng.random() < 0.4
            if spoiled:
                spoil = with_line if rng.random() < 0.5 else partial(with_redundant, rng)
                tops[0] = spoil(tops[0])
                spoiled = not extreme(tops[0])
            # fresh tops with distinct generator lists, so a row list read
            # twice, or not a top's or V's, is a face's key
            tops = list({cc.cone._ints: ColoredCone(Cone._of_ints(d.rank, cc.cone._ints),
                                                    cc.palette) for cc in tops}.values())
            given = {cc.cone._ints for cc in tops} | {d.valuation_cone._ints}
            rows.clear()
            spherical._faces_fan(d, tops)
            keyed = len(set(rows)) < len(rows) or not given.issuperset(rows)
            assert keyed == spoiled
            assert (closure_outcome(faces_closure, d, tops)
                    == closure_outcome(pre_table_faces_closure, d, tops))
            seen[spoiled] += 1
        assert min(seen[True], seen[False]) > 20, seen


class TestKeptMeetSystems:
    """Each (cone, V) system is kept by the face table of a call and solved
    once; the answers must be those of a fresh system solved afresh on
    every call."""

    def test_reports_against_fresh_systems(self, monkeypatch):
        rng = random.Random(22)
        cf2 = ranks = 0
        runs, path = Counter(), [None]
        simplex = lp._solve_eq_nonneg

        def counted(*args):
            runs[path[0]] += 1
            return simplex(*args)
        monkeypatch.setattr(lp, "_solve_eq_nonneg", counted)
        for _ in range(400):
            d = proper_datum(rng, max_rank=4)
            path[0] = "inputs"
            members = random_members(rng, d, redundant=False)
            fan = ColoredFan(members)
            path[0] = "kept"
            got = validate_colored_fan(d, fan)
            path[0] = "fresh"
            want = without_kept_systems(validate_colored_fan, d, fan)
            assert repr(got) == repr(want)
            assert report_form(got) == report_form(want)
            path[0] = "closures"
            tops = [cc for cc in members if cc.cone.dim == max(m.cone.dim for m in members)]
            assert (closure_outcome(faces_closure, d, tops)
                    == without_kept_systems(closure_outcome, faces_closure, d, tops))
            cf2 += len(got.cf2_failures)
            ranks |= 1 << d.rank
        # CF2 fails often, every rank is drawn, and kept systems save runs
        assert cf2 > 50 and ranks == 0b11100
        assert runs["kept"] < runs["fresh"] / 2, runs


def straddling(rng: random.Random, d: SphericalDatum) -> ColoredCone:
    """A colored cone on a point of V and two or three random vectors:
    its generator sum often lies outside V while its relative interior
    meets V, so the simplex decides its CC2."""
    n = d.rank
    gens = [combination(rng, n, d.valuation_cone.generators)]
    gens += [random_vec(rng, n, -3, 3) for _ in range(rng.randint(2, 3))]
    return ColoredCone(Cone(n, gens), [f for f in d.colors if rng.random() < 0.5])


def with_twins(rng: random.Random, d: SphericalDatum, members: list) -> list:
    """members with a twin after some of them: the same generators in
    reversed order, under the palette with one color more or less, so
    the fan keeps both."""
    out = list(members)
    for cc in members:
        if len(cc.cone._ints) > 1 and d.colors and rng.random() < 0.5:
            out.append(ColoredCone(Cone(d.rank, cc.cone.generators[::-1]),
                                   cc.palette ^ {rng.choice(d.colors)}))
    return out


class TestTwinMembers:
    """A member on the generator set of an earlier one, in another order
    (a twin), asks CC2 on a system of its own generators, so its witness
    is its own simplex point; every other member's CC2 reads its top
    face's system in the face table.  On seeded fans with twins and a V
    that is no linear space (``random_datum``), ``validate_colored_fan``,
    each call on a datum of its own, must give the reports, witnesses
    included, of the all-LP reference and of each member's
    ``validate_colored_cone``, and run the simplex exactly as often as
    when V kept one system per generator tuple."""

    def test_reports_and_simplex_runs(self, monkeypatch):
        rng = random.Random(3907)
        runs = Counter()
        simplex, path = lp._solve_eq_nonneg, [None]

        def counted(*args):
            runs[path[0]] += 1
            return simplex(*args)
        monkeypatch.setattr(lp, "_solve_eq_nonneg", counted)
        seen = Counter()
        while seen["fans"] < 600:
            d = random_datum(rng, max_rank=4)
            v = d.valuation_cone
            if all(v.contains(tuple(-x for x in g)) for g in v.generators):
                continue
            members = random_members(rng, d, redundant=False)
            fan = ColoredFan(with_twins(rng, d, members + [straddling(rng, d) for _ in range(3)]))
            d = SphericalDatum(d.rank, Cone(d.rank, v.generators), d.colors, d.rho)
            path[0] = "call"
            got = validate_colored_fan(d, fan)
            path[0] = None
            assert repr(got) == repr(without_kept_systems(validate_colored_fan, d, fan))
            assert got.cone_reports == tuple(validate_colored_cone(d, cc) for cc in fan)
            first = {}
            for cc, r in zip(fan, got.cone_reports):
                twin = first.setdefault(cc.cone._gens_key, (cc, r))
                if twin[0] is not cc:
                    seen["twins"] += 1
                    seen["twin witness differs"] += r.cc2_witness != twin[1].cc2_witness
            seen["fans"] += 1
        # many twins, and a few whose own simplex point is another than
        # the earlier member's, which the table's system would have given
        assert seen["twins"] > 500 and seen["twin witness differs"] >= 5, seen
        # 11,596 when V kept one system per generator tuple: no call runs
        # more than it did then, so none runs fewer either
        assert runs["call"] == 11596, runs


class TestInteriorPointCertificate:
    """A relint(C) ∩ V system (``cones._meet_system``) whose C has its
    generator sum in V is certified feasible and runs no simplex, whoever
    asks: a face test or CC2.  On random data with a proper V, a system
    must be certified exactly when a reference that reads no facet of V
    finds the sum in V, every certified system must be feasible for the
    simplex and for Fourier-Motzkin, ``colored_faces`` must equal its
    all-simplex reference, and a CC2 test asked after a certified face
    test of the same cone, in one face table, must take the kept system
    and give the generator sum as its witness."""

    def test_certified_systems_are_feasible(self, monkeypatch):
        rng = random.Random(31)
        certified, asked = [], Counter()
        make = cones._meet_system

        def recorded(cs):
            system = make(cs)
            assert system.interior_point == reference_holds(cs[1], generator_sum(cs[0]))
            asked[system.interior_point] += 1
            if system.interior_point:
                certified.append((cs, system))
            return system
        monkeypatch.setattr(cones, "_meet_system", recorded)
        for _ in range(200):
            d = proper_datum(rng, max_rank=4)
            cc = random_top(rng, d)
            got = colored_faces(d, cc)
            assert repr(got) == repr(without_kept_systems(colored_faces, d, cc))
            assert validate_colored_cone(d, cc) == without_kept_systems(validate_colored_cone, d, cc)
        for cs, system in certified:
            assert system.solve() == ([], 1)
            assert fresh_meet_system(cs).solve() is not None
            assert fourier_motzkin.feasible(system.equalities, system.rhs, system.nvars)
        # many systems are certified and many are not
        assert len(certified) > 200 and asked[False] > 100, asked

    def test_cc2_after_a_certified_face_test(self, monkeypatch):
        # the closure's members listed top down, as ``sphfan faces`` lists
        # them (each member's report, then its colored faces, off one
        # table): a member that is a face of an earlier one finds its
        # system made by that face test
        rng = random.Random(37)
        made = Counter()
        make = cones._meet_system
        monkeypatch.setattr(cones, "_meet_system", lambda cs: made.update(["system"]) or make(cs))
        kept = 0
        for _ in range(150):
            d = proper_datum(rng, max_rank=4)
            v = d.valuation_cone
            fan = faces_closure(d, [random_top(rng, d)])
            members = fan.cones[::-1]
            table = spherical._FaceTable(d, members)
            for i, cc in enumerate(members):
                before, n = table.systems.get(table.sets[i]), made["system"]
                r = table.report(i)
                assert r.cc2_witness == reference_relints_meet_in(cc.cone, None, v)
                if before is not None:
                    assert made["system"] == n
                    if before.interior_point:
                        assert r.cc2_witness == generator_sum(cc.cone)
                        kept += 1
                table.colored(i)
            assert report_form(validate_colored_fan(d, fan)) == report_form(
                without_kept_systems(validate_colored_fan, d, fan))
        # most members were certified by an earlier member's face tests,
        # and CC2 took each kept system, with the generator sum as its
        # witness
        assert kept > 200, kept


def simplex_point(c: Cone, sol) -> tuple:
    """The point of relint(c) that a meet system's solution names, summed
    in Fraction arithmetic from c's public generators: the multipliers
    are y / d shifted by 1."""
    y, d = sol
    return tuple(sum((((Fraction(yi, d) + 1) * g[k]) for yi, g in zip(y, c.generators)),
                     Fraction(0)) for k in range(c.ambient_rank))


class TestCC2WitnessRule:
    """CC2's witness and ``relint_meets_cone``'s are by one rule: the sum
    of C's generators when V holds it, otherwise the point of the simplex
    on a fresh system (``fresh_meet_system``), otherwise None.  On random
    data with a proper V (``proper_datum``, and ``random_datum``, whose V
    is the whole space half the time), for a random cone and its faces,
    each asked on a V of its own: the sum is taken exactly when
    ``reference_holds``, which reads V's generators and no facet, finds it
    in V; a witness lies in relint(C) and in V; and the verdict is
    Fourier-Motzkin's."""

    def test_witness_by_rule(self):
        rng = random.Random(2101)
        seen = Counter()
        for i in range(240):
            d = proper_datum(rng, max_rank=4) if i % 2 else random_datum(rng, max_rank=4)
            vgens = d.valuation_cone.generators
            top = (random_top(rng, d).cone if vgens else
                   Cone(d.rank, [random_vec(rng, d.rank, -2, 2) for _ in range(d.rank)]))
            for c in top.faces():
                x = generator_sum(c)
                sol = fresh_meet_system([c, d.valuation_cone]).solve()
                holds = reference_holds(d.valuation_cone, x)
                want = x if holds else None if sol is None else simplex_point(c, sol)
                cc2 = validate_colored_cone(SphericalDatum(d.rank, Cone(d.rank, vgens)),
                                            ColoredCone(c)).cc2_witness
                v = Cone(d.rank, vgens)
                assert cc2 == relint_meets_cone(c, v) == want
                assert (want is not None) == fm_relint_meets_cone(c, v)
                if want is not None:
                    assert c.relint_contains(want) and v.contains(want)
                seen["sum" if holds else "simplex" if sol is not None else "none"] += 1
                seen["sum, not the simplex's"] += holds and simplex_point(c, sol) != x
        assert min(seen.values()) > 30, seen


class TestHyperplaneIndex:
    """A CF2 pass (``cones._pair_systems``) certifies a pair infeasible when
    the hyperplane index shows its relative interiors disjoint, or the
    infeasible-row rule settles its system.  On random fans (a proper V
    of rank 2 to 4; cube face fans moved by a signed permutation; P1
    subfans with extra rays, each of which meets one 2-cone), every
    certified pair must be infeasible for the simplex and for
    Fourier-Motzkin, each certificate must be the Fraction reference's,
    so every pair the row rule settles is certified, and reports and
    closures must equal those of the all-LP path."""

    def fans(self):
        rng = random.Random(28)
        for _ in range(80):
            d = proper_datum(rng, max_rank=4)
            yield "proper", d, random_members(rng, d, redundant=rng.random() < 0.5)
        for n in (3, 3, 4):
            d, fan = cube_face_fan(n, rng)
            yield "cube", d, list(fan)
        for _ in range(6):
            n = rng.randint(2, 3)
            f = bench_inputs.p1_fan(rng, n, rng.randint(1, n), rng.randint(0, n),
                                    rng.randint(1, 2))
            yield "p1", *sheared(rng, bench_inputs.build_p1_datum(f),
                                 bench_inputs.build_p1_cones(f))

    def test_certified_pairs_are_infeasible(self):
        seen = Counter()
        for kind, d, members in self.fans():
            v = d.valuation_cone
            cs = [cc.cone for cc in ColoredFan(members)]
            want = reference_index_certifies(cs, v)
            got = list(cones._pair_systems(cs, v))
            assert [(i, j) for i, j, _ in got] == [
                (i, j) for i in range(len(cs)) for j in range(i + 1, len(cs))]
            for (i, j, system), certified in zip(got, want):
                assert system.certified_infeasible == certified
                rows = reference_meet_system([cs[i]._ints, cs[j]._ints, v._ints], d.rank, 0)
                rule = presolve_certifies(rows)
                assert certified >= rule
                seen[kind, "rule" if rule else "index" if certified else "left"] += 1
                if certified and (kind != "cube" or one_in_seven(i, j)):
                    assert fresh_meet_system([cs[i], cs[j], v]).solve() is None
                    assert not fourier_motzkin.feasible(system.equalities, system.rhs,
                                                        system.nvars)
        # the index certifies pairs the row rule leaves, on every kind of
        # fan, and pairs are left to the simplex on the proper and P1 fans
        assert all(seen[kind, "index"] > 20 for kind in ("proper", "cube", "p1")), seen
        assert seen["proper", "left"] > 20 and seen["p1", "left"] > 5, seen
        assert seen["cube", "left"] == 0, seen

    def test_reports_against_the_all_lp_path(self):
        cf2 = Counter()
        for kind, d, members in self.fans():
            fan = ColoredFan(members)
            got = validate_colored_fan(d, fan)
            assert repr(got) == repr(without_kept_systems(validate_colored_fan, d, fan))
            tops = [cc for cc in members if cc.cone.dim == max(m.cone.dim for m in members)]
            assert (closure_outcome(faces_closure, d, tops)
                    == without_kept_systems(closure_outcome, faces_closure, d, tops))
            cf2[kind, got.cf2] += 1
        assert cf2["proper", False] > 10 and cf2["proper", True] > 10, cf2
        assert cf2["p1", False] == 6 and cf2["cube", True] == 3, cf2

    def test_the_index_is_built_only_for_a_pair_the_axes_leave_open(self, monkeypatch):
        """The index reads every cone's double description (``_dual_ints``),
        so a pass whose pairs the axis masks settle builds none: here the
        cone over the cyclic polytope C(16,7), with 440 facets, and a ray
        that is 0 on axis 1, where each generator of the first is > 0.
        Two rays on the same open quadrant need the index: the span
        equation of one has the other on its negative side."""
        runs = []
        dual_ints = cones._dual_ints

        def counted(ineqs, n, trie=None):
            runs.append(n)
            return dual_ints(ineqs, n, trie)
        monkeypatch.setattr(cones, "_dual_ints", counted)
        axes = [tuple(int(i == j) for j in range(8)) for i in range(8)]
        space = Cone(8, axes + [tuple(-x for x in e) for e in axes])
        cyclic = Cone(8, [tuple(t ** e for e in range(8)) for t in range(1, 17)])
        assert relints_meet_in(cyclic, Cone(8, [(1, 0, 0, 0, 0, 0, 0, 1)]), space) is None
        assert runs == []
        assert relints_meet_in(Cone(2, [(1, 1)]), Cone(2, [(1, 2)]), full_plane()) is None
        assert runs == [2, 2]


def sheared(rng: random.Random, d: SphericalDatum, members: list) -> tuple:
    """(d, members) moved by a random unimodular shear, so that few of
    their facets lie on the axes the sign masks see."""
    n = d.rank
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    mat = rational.Mat(m)
    rho = {f: tuple(sum(a * x for a, x in zip(row, r)) for row in m) for f, r in d.rho.items()}
    return (SphericalDatum(n, d.valuation_cone.image(mat), d.colors, rho),
            [ColoredCone(cc.cone.image(mat), cc.palette) for cc in members])


def one_in_seven(i: int, j: int) -> bool:
    """One pair in seven of a cube face fan, for the slow replays."""
    return (i * 31 + j) % 7 == 0


class TestDualWork:
    """Pinned double descriptions, counted at ``cones._dual_ints``: on the
    complete uncolored P1^n fan, validation runs one per member key and
    one for V's facets, read by the CC1 containment scan: 3^n + 1, that is
    28 for n = 3 and 82 for n = 4.  ``faces_closure`` runs one per maximal
    cone, for its face lattice, and one for V's facets, read by the
    interior-point test of the first face: 2^n + 1, that is 8 + 1 = 9 for
    n = 3 and 16 + 1 = 17 for n = 4.  The maximal cones are simplicial,
    so pointed with extreme generators, and the closure tells their faces
    apart by generator set with no member key; it ran one per member key
    too, 3^n + 2^n + 1 (36 and 98), before the face table.  No face,
    regenerated cone or intersection runs one."""

    @pytest.mark.parametrize("n, validate, closure", [(3, 28, 9), (4, 82, 17)])
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
        assert len(calls) == closure == len(maximal) + 1

    @pytest.mark.parametrize("n, nodes, per_cone", [(3, 26, 54), (4, 80, 216)])
    def test_one_step_per_generator_prefix(self, monkeypatch, n, nodes, per_cone):
        """The fan's members share one trie of ``_dual_ints`` states
        (``cones._fill_duals``), one node per step.  The member of a sign
        vector s lists ray(i, s_i) for its nonzero s_i by increasing i, so
        a prefix of its generators is the member of s cut after a nonzero
        entry, another nonzero sign vector: 3^n - 1 nodes, 26 and 80.
        Per-cone duals step every member's generators, each coordinate
        nonzero in 2·3^(n-1) sign vectors: 2n·3^(n-1), 54 and 216."""
        tries = []
        dual = cones._dual_ints

        def captured(ineqs, rank, trie=None):
            tries.append(trie)
            return dual(ineqs, rank, trie)
        monkeypatch.setattr(cones, "_dual_ints", captured)
        f = bench_inputs.p1_fan(random.Random(1), n, n, 0)
        fan = ColoredFan(bench_inputs.build_p1_cones(f))
        assert len(tries) == len(fan) == 3 ** n and len({id(t) for t in tries}) == 1
        assert len(trie_states(tries[0])) == nodes == 3 ** n - 1
        assert sum(len(cc.cone._ints) for cc in fan) == per_cone == 2 * n * 3 ** (n - 1)
        assert all(cc.cone._idual == tuple(map(tuple, dual(cc.cone._ints, n))) for cc in fan)

    @pytest.mark.parametrize("n, nodes, per_cone", [(3, 14, 24), (4, 30, 64)])
    def test_closure_steps_each_prefix_of_the_given_cones_once(
            self, monkeypatch, n, nodes, per_cone):
        """``faces_closure`` reads the dual of every given cone, and
        ``_faces_fan`` computes them through one trie.  The 2^n maximal
        cones of complete P1^n list ray(i, s_i) for i = 0..n-1, so their
        prefixes of length k are the 2^k sign vectors on the first k
        coordinates: 2^(n+1) - 2 nodes, 14 and 30, where per-cone duals
        step n·2^n generators, 24 and 64.  V's dual is read by one more
        pass, with no trie."""
        tries = []
        dual = cones._dual_ints

        def captured(ineqs, rank, trie=None):
            tries.append(trie)
            return dual(ineqs, rank, trie)
        monkeypatch.setattr(cones, "_dual_ints", captured)
        f = bench_inputs.p1_fan(random.Random(1), n, n, 0)
        maximal = bench_inputs.build_p1_cones(f, maximal_only=True)
        assert len(faces_closure(bench_inputs.build_p1_datum(f), maximal)) == 3 ** n
        shared = [t for t in tries if t is not None]
        assert len(shared) == len(maximal) == 2 ** n and len(tries) == 2 ** n + 1
        assert len({id(t) for t in shared}) == 1
        assert len(trie_states(shared[0])) == nodes == 2 ** (n + 1) - 2
        assert sum(len(cc.cone._ints) for cc in maximal) == per_cone == n * 2 ** n
        assert all(cc.cone._idual == tuple(map(tuple, dual(cc.cone._ints, n)))
                   for cc in maximal)

    def test_a_repeated_member_runs_none(self, monkeypatch):
        """Of members with one generator set and palette only the first
        runs a double description; equal cones on other generator sets
        run one each, for their keys: the P1^3 members given twice, the
        second time as new cones, and the 20 members of two or three
        generators once more with their generator sum added: 27 + 20
        passes for 27 members."""
        calls = []
        dual = cones._dual_ints

        def counted(*args):
            calls.append(args)
            return dual(*args)
        monkeypatch.setattr(cones, "_dual_ints", counted)
        members = bench_inputs.build_p1_cones(bench_inputs.p1_fan(random.Random(2), 3, 3, 0))
        again = [ColoredCone(Cone(3, cc.cone._ints), cc.palette) for cc in members]
        redundant = [ColoredCone(Cone(3, cc.cone._ints + (tuple(map(sum, zip(*cc.cone._ints))),)),
                                 cc.palette) for cc in members if len(cc.cone._ints) > 1]
        fan = ColoredFan(members + again + redundant)
        assert len(fan) == 27 and all(cc is m for cc, m in zip(fan, members))
        assert len(redundant) == 20 and len(calls) == 27 + 20

    def test_colored_cones_equal_by_generator_set(self, monkeypatch):
        calls = []
        dual = cones._dual_ints

        def counted(*args):
            calls.append(args)
            return dual(*args)
        monkeypatch.setattr(cones, "_dual_ints", counted)
        a = ColoredCone(Cone(2, [(1, 0), (0, 1)]), ["x"])
        assert colored_cones_equal(a, ColoredCone(Cone(2, [(0, 2), (1, 0)]), {"x"}))
        assert calls == []
        # another generator set of the same cone is settled by key
        assert colored_cones_equal(a, ColoredCone(Cone(2, [(1, 0), (1, 1), (0, 1)]), ["x"]))
        assert len(calls) == 2
        assert not colored_cones_equal(a, ColoredCone(a.cone))


def test_colored_cone_identity_is_decided_in_spherical():
    # spherical._distinct and ColoredFan.index decide whether two colored
    # cones are equal; another module reading a key would decide it again
    paths = sorted(Path(spherical.__file__).parent.glob("*.py"))
    assert {"cones.py", "spherical.py", "galois.py", "docio.py"} <= {p.name for p in paths}
    reads = {}
    for path in paths:
        text = path.read_text()
        assert "_member_key" not in text, path.name
        reads[path.name] = sorted({node.attr for node in ast.walk(ast.parse(text))
                                   if isinstance(node, ast.Attribute)
                                   and node.attr in ("key", "_gens_key")})
    assert reads["spherical.py"] == ["_gens_key", "key"]
    assert {name: got for name, got in reads.items()
            if got and name not in ("cones.py", "spherical.py")} == {}
