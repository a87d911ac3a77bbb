import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from sphfan import cones, rational
from sphfan.cones import (Cone, _divide_by_pivots, _dual_ints, _lazy, _meet_system,
                          cones_equal, dual_description, relint_meets_cone, relints_meet_in)
from sphfan.lp import FeasibilitySystem
from sphfan.rational import (Mat, RankMismatchError, _combine, _echelon, _idot, all_ints,
                             bareiss, format_rat, integer_rows)

from helpers import (ReferenceCone, brute_force_faces, dot, fm_relint_meets_cone,
                     load_perfbench, random_cone, random_vec, reference_cones_equal,
                     reference_contains, reference_dual_description, reference_dual_ints,
                     reference_lineality, reference_relints_meet_in, reference_rref,
                     seed_cone_ints)

bench_inputs = load_perfbench("inputs")


def F(x):
    return Fraction(x)


def quadrant():
    return Cone(2, [(1, 0), (0, 1)])


class TestConstruction:
    def test_quadrant(self):
        c = Cone(2, [(1, 0), (0, 1)])
        assert len(c.generators) == 2

    def test_zero_cone(self):
        c = Cone(2)
        assert c.is_zero and c.generators == ()

    def test_drops_zero_and_duplicate_rays(self):
        c = Cone(2, [(0, 0), (1, 0), (2, 0), (3, 0)])
        assert len(c.generators) == 1

    def test_line(self):
        c = Cone(2, [(1, 0), (-1, 0)])
        assert not c.is_strictly_convex() and len(reference_lineality(c)) == 1
        for g in [(1, 0), (-1, 0)]:
            assert all(dot(w, g) >= 0 for w in c.facets)

    def test_dimension_mismatch(self):
        with pytest.raises(RankMismatchError):
            Cone(2, [(1, 0, 0)])

    @pytest.mark.parametrize("bad, error", [(True, TypeError), (1.5, TypeError),
                                            (1.0, TypeError), (None, TypeError),
                                            ("1.5", ValueError)])
    def test_rejects_bools_floats_and_bad_strings(self, bad, error):
        # the plain-int fast path must not let a bool through; and since
        # (True, 0) == (1, 0) and 1.0 == 1, a bool or a float let in would
        # share the kept meet systems of an int cone
        for gens in ([(1, 0), (bad, 1)], [(bad, 0)]):
            with pytest.raises(error):
                Cone(2, gens)

    @pytest.mark.parametrize("rank, error", [(True, TypeError), (False, TypeError),
                                             (2.0, TypeError), (None, TypeError),
                                             ("2", TypeError), (F(2), TypeError),
                                             (-1, ValueError), (-2, ValueError)])
    def test_rejects_a_rank_that_is_not_a_nonnegative_int(self, rank, error):
        # checked like a generator entry: a bool or a float is no int rank
        for gens in ((), [(1, 0)]):
            with pytest.raises(error):
                Cone(rank, gens)

    def test_rank_zero(self):
        c = Cone(0)
        assert c.dim == 0 and [f._ints for f in c.faces()] == [()]

    def test_image_checks_the_width_of_the_zero_cone_too(self):
        m = Mat([[1, 0]])
        for c in (Cone(3), Cone(3, [(1, 0, 0)])):
            with pytest.raises(RankMismatchError):
                c.image(m)
        image = Cone(2).image(m)
        assert image.ambient_rank == 1 and image.is_zero

    def test_generators_order_and_errors_as_before(self):
        # one dict keeps each primitive generator's first occurrence, in
        # order, as the set and list did; the first bad generator raises
        # the error it raised, a bad entry before a wrong length
        rng = random.Random(227)
        outcomes = Counter()
        for _ in range(3000):
            n = rng.randint(1, 5)
            gens, made = [], []
            for _ in range(rng.randint(0, 7)):
                if made and rng.random() < 0.3:
                    # a repeat, scaled, as ints, Fractions or strings
                    t = rng.randint(1, 3)
                    g = [t * x for x in rng.choice(made)]
                else:
                    g = [rng.randint(-2, 2) for _ in range(n)]
                made.append(list(g))
                kind = rng.random()
                if kind < 0.2:
                    g = [Fraction(x, 2) for x in g]
                elif kind < 0.3:
                    g = [f"{x}/3" for x in g]
                elif kind < 0.33:
                    g[rng.randrange(n)] = rng.choice([True, 1.5])
                elif kind < 0.36:
                    g = g + [0] if rng.random() < 0.5 else g[1:]
                gens.append(tuple(g))
            try:
                want = seed_cone_ints(n, gens)
            except (TypeError, RankMismatchError) as e:
                with pytest.raises(type(e)) as got:
                    Cone(n, iter(gens))
                assert str(got.value) == str(e)
                outcomes[type(e).__name__] += 1
                continue
            assert Cone(n, iter(gens))._ints == want
            outcomes[len(want) < len(gens)] += 1
        assert min(outcomes.values()) > 50 and len(outcomes) == 4

    def test_int_fraction_and_string_entries_agree(self):
        want = Cone(2, [(2, -4), (0, 3), (1, -2)])
        for gens in ([(F(2), F(-4)), (F(0), F(3))], [("1/3", "-2/3"), ("0", "5")],
                     [(1, "-2"), (F(0), 1)]):
            got = Cone(2, gens)
            assert got.generators == want.generators == ((F(1), F(-2)), (F(0), F(1)))
            assert got.key == want.key


ENTRIES = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def rational_rows(draw, n, min_rows=0, max_rows=5):
    """``min_rows`` to ``max_rows`` rows of n rationals, each entry given
    as an int (when integral), a Fraction or a 'p/q' string."""
    rows = draw(st.lists(st.lists(st.tuples(ENTRIES, st.integers(0, 2)),
                                  min_size=n, max_size=n),
                         min_size=min_rows, max_size=max_rows))
    return [[(int(q) if q.denominator == 1 else q, q, format_rat(q))[form]
             for q, form in row] for row in rows]


def assert_int_generators(c: Cone) -> None:
    """The invariant every cone keeps: primitive, nonzero and distinct
    int tuples of the ambient rank."""
    assert all_ints(x for g in c._ints for x in g)
    assert all(type(g) is tuple and len(g) == c.ambient_rank and gcd(*g) == 1
               for g in c._ints)
    assert len(set(c._ints)) == len(c._ints)


def test_lazy_attributes_are_computed_once_and_frozen(monkeypatch):
    """Each lazy attribute of a cone runs its function on the first read
    only, and is then held in the instance ``__dict__``; assigning or
    deleting it raises ``AttributeError``, as for any attribute."""
    lazy = {name: attr for name, attr in vars(Cone).items() if isinstance(attr, _lazy)}
    assert set(lazy) == {"generators", "_idual", "facets", "span_equations", "_gens_key",
                         "key", "dim", "_cols", "_signs", "_col_sums", "_neg_cols"}
    calls = Counter()
    for name, attr in lazy.items():
        def spy(cone, func=attr.func, name=name):
            calls[name] += 1
            return func(cone)
        monkeypatch.setattr(attr, "func", spy)
    c = Cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)])
    first = {name: getattr(c, name) for name in lazy}
    assert all(getattr(c, name) is first[name] for name in lazy)
    assert calls == Counter(dict.fromkeys(lazy, 1))
    for name in lazy:
        assert vars(c)[name] is first[name]
        with pytest.raises(AttributeError):
            setattr(c, name, None)
        with pytest.raises(AttributeError):
            delattr(c, name)
        assert getattr(c, name) is first[name]


class TestIntsByConstruction:
    """A cone's generators are primitive int tuples by construction: the
    constructor is the one gate for outside values (what it rejects is in
    ``TestConstruction``), and the cones the library derives keep the
    property, so the meet systems and the simplex read them with no
    further check."""

    # derandomized: the same 50 examples on every run
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_given_and_derived_cones_have_int_generators(self, data):
        n = data.draw(st.integers(1, 3))
        c = Cone(n, data.draw(rational_rows(n)))
        other = Cone(n, data.draw(rational_rows(n)))
        assert_int_generators(c)
        for face in c.faces():
            assert_int_generators(face)
        assert_int_generators(c.intersect(other))
        m = data.draw(st.integers(1, 3))
        assert_int_generators(c.image(Mat(data.draw(rational_rows(n, m, m)))))

    def test_a_rational_cone_meets_through_the_int_system(self):
        ray, line = Cone(2, [(1, 0)]), Cone(2, [(1, 0), (-1, 0)])
        ints = _meet_system([ray, line])
        for gens in ([(Fraction(2), 0)], [("1/3", "0")], [(1, 0)]):
            system = _meet_system([Cone(2, gens), line])
            assert (system.equalities, system.rhs, system.nvars) == (
                ints.equalities, ints.rhs, ints.nvars)
            assert system.solve() == ints.solve() == ([], 1)


class TestContains:
    def test_quadrant_inside(self):
        assert quadrant().contains((F(2), F(3)))

    def test_quadrant_outside(self):
        assert not quadrant().contains((F(-1), F(0)))

    def test_combination(self):
        c = Cone(2, [(1, 0), (1, 1)])
        assert c.contains((F(2), F(1)))  # (2,1) = (1,0) + (1,1)

    def test_mismatch(self):
        with pytest.raises(RankMismatchError):
            quadrant().contains((F(1),))

    @pytest.mark.parametrize("method", ["contains", "relint_contains"])
    def test_points_are_read_by_the_constructors_rule(self, method):
        # bools and floats are no rationals; a 'p/q' string is the Fraction.
        # The int core reads a point unchecked, and its dot products zip,
        # so a short int point would be read as padded: the public
        # questions keep the gate, a bool or float raising before a length
        # is read, and a wrong length raising for plain int points too
        ask = getattr(Cone(2, [(1, 0)]), method)
        for bad in ((True, 0), (1.0, 0), (F(1), False), (0.5,), (1, 0, True)):
            with pytest.raises(TypeError):
                ask(bad)
        for short_or_long in ((1,), (1, 0, 0), (F(1),), ("1", "0", "0"), ()):
            with pytest.raises(RankMismatchError):
                ask(short_or_long)
        assert ask(("1/2", "0")) == ask((Fraction(1, 2), 0)) is True
        assert ask(("-1/2", "0")) == ask((Fraction(-1, 2), 0)) is False


def random_member_point(rng: random.Random, gens) -> tuple:
    """A nonnegative rational combination of some of the generators."""
    n = len(gens[0])
    point = [Fraction(0)] * n
    for g in gens:
        if rng.random() < 0.6:
            t = Fraction(rng.randint(0, 4), rng.randint(1, 3))
            point = [p + t * x for p, x in zip(point, g)]
    return tuple(point)


class TestContainsAgainstReference:
    """The int dot products must give the Fraction dot products' verdicts."""

    def test_random_cones_and_points(self):
        rng = random.Random(83)
        kinds = {"facet": 0, "lineality": 0}
        verdicts = set()
        for _ in range(400):
            c = random_cone(rng, max_rank=4, max_gens=5)
            n = c.ambient_rank
            points = [random_vec(rng, n, -3, 3),
                      tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))]
            if c.generators:
                points.append(random_member_point(rng, c.generators))
                # on a facet: a combination of the generators tight on it
                for w in c.facets[:2]:
                    tight = [g for g in c.generators if dot(w, g) == 0]
                    if tight:
                        points.append(random_member_point(rng, tight))
                        kinds["facet"] += 1
            lin = list(reference_lineality(c))
            if lin:
                lin += [tuple(-x for x in l) for l in lin]
                points.append(random_member_point(rng, lin))
                kinds["lineality"] += 1
            # just outside: a member point pushed across a facet
            for w in c.facets[:1]:
                p = points[-1]
                points.append(tuple(x - Fraction(1, 7) * y for x, y in zip(p, w)))
            for x in points:
                got = c.contains(x)
                assert got == reference_contains(c, x)
                verdicts.add(got)
            # int coordinates are accepted as well
            xi = tuple(rng.randint(-3, 3) for _ in range(n))
            assert c.contains(xi) == reference_contains(c, xi)
        assert verdicts == {True, False}
        assert kinds["facet"] > 100 and kinds["lineality"] > 30


class TestRrefAgainstReference:
    """The fraction-free elimination must return the Fraction RREF: the same
    Fraction tuples in the same order."""

    def test_int_and_rational_bases(self):
        rng = random.Random(89)
        rational = 0
        for _ in range(1500):
            n = rng.randint(0, 5)
            rows = random_ineqs(rng, n, rng.randint(0, 6))
            rational += any(x.denominator != 1 for r in rows for x in r)
            got = _divide_by_pivots(_echelon(integer_rows(rows)))
            assert got == reference_rref(rows)
            assert all(type(x) is Fraction for r in got for x in r)
        assert rational > 300


class TestStrictConvexityAgainstReference:
    """One rank of the int dual against the Fraction kernel it replaced:
    C is pointed iff it holds no line."""

    def test_random_cones(self):
        rng = random.Random(79)
        answers = {True: 0, False: 0}
        kinds = set()
        for i in range(600):
            n = rng.randint(0, 4)
            units = [tuple(s * (a == b) for b in range(n)) for a in range(n) for s in (1, -1)]
            kind = ("zero", "space", "lineality", "random")[i % 4]
            if kind == "zero":
                gens = []
            elif kind == "space":
                gens = units + [random_vec(rng, n, -3, 3) for _ in range(rng.randint(0, 2))]
            else:
                gens = [random_vec(rng, n, -3, 3) for _ in range(rng.randint(1, 5))]
                if kind == "lineality":
                    gens.append(tuple(-x for x in rng.choice(gens)))
            c = Cone(n, gens)
            got = c.is_strictly_convex()
            assert got == (not reference_lineality(c))
            answers[got] += 1
            kinds.add((kind, n == 0, got))
        assert min(answers.values()) > 100, answers
        assert {("zero", True, True), ("zero", False, True), ("space", False, False),
                ("lineality", False, False), ("random", False, True)} <= kinds


class TestEquality:
    def test_redundant_generator(self):
        assert cones_equal(quadrant(), Cone(2, [(0, 1), (1, 0), (1, 1)]))

    def test_zero_vs_ray(self):
        assert not cones_equal(Cone(2), Cone(2, [(1, 0)]))

    def test_same_ray_scaled(self):
        assert cones_equal(Cone(2, [(2, 0)]), Cone(2, [(1, 0)]))

    def test_different_ambient_ranks(self):
        assert not cones_equal(Cone(1), Cone(2))


def equal_by_construction(rng: random.Random, c: Cone) -> Cone:
    """Another generator list for c: rescaled, shuffled, with redundant
    combinations, or shifted along the lineality space."""
    n = c.ambient_rank
    scales = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in c.generators]
    gens = [tuple(s * x for x in g) for s, g in zip(scales, c.generators)]
    kind = rng.randrange(3)
    if kind == 1 and gens:
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(0, 2) for _ in gens]
            gens.append(tuple(sum((a * g[k] for a, g in zip(coeffs, gens)), Fraction(0))
                              for k in range(n)))
    elif kind == 2:
        lin = reference_lineality(c)
        shifted = []
        for g in gens:
            t = [rng.randint(-3, 3) for _ in lin]
            shifted.append(tuple(g[k] + sum((a * l[k] for a, l in zip(t, lin)), Fraction(0))
                                 for k in range(n)))
        gens = shifted + list(lin) + [tuple(-x for x in l) for l in lin]
    rng.shuffle(gens)
    return Cone(n, gens)


class TestKeyAgainstReference:
    def test_equal_by_construction(self):
        rng = random.Random(67)
        for _ in range(150):
            a = random_cone(rng, max_rank=4, max_gens=5)
            b = equal_by_construction(rng, a)
            assert reference_cones_equal(a, b)
            assert cones_equal(a, b) and hash(a.key) == hash(b.key)

    def test_agreement_on_random_pairs(self):
        rng = random.Random(71)
        equal = 0
        for _ in range(300):
            a = random_cone(rng, max_rank=3, max_gens=4)
            n = a.ambient_rank
            pick = rng.randrange(3)
            if pick == 0:
                b = Cone(n, [random_vec(rng, n, -1, 1) for _ in range(rng.randint(0, 4))])
            elif pick == 1:
                b = Cone(n, list(a.generators) + [random_vec(rng, n, -2, 2)])
            else:
                b = Cone(n, a.generators[1:])
            got = cones_equal(a, b)
            assert got == reference_cones_equal(a, b)
            equal += got
        assert 30 < equal < 270


class TestGeneratorKey:
    """``cones_equal`` settles equal generator sets with no key and
    otherwise agrees with the key."""

    def test_same_set_needs_no_key(self):
        rng = random.Random(83)
        for _ in range(100):
            a = random_cone(rng, max_rank=4, max_gens=5)
            scales = [rng.randint(1, 4) for _ in a.generators]
            gens = [tuple(s * x for x in g) for s, g in zip(scales, a.generators)]
            gens += rng.sample(gens, rng.randint(0, len(gens)))
            rng.shuffle(gens)
            b = Cone(a.ambient_rank, gens)
            assert cones_equal(a, b)
            assert "key" not in vars(a) and "key" not in vars(b)
            assert a.key == b.key

    def test_agrees_with_key(self):
        rng = random.Random(89)
        kinds = {"same set": 0, "equal": 0, "different": 0}
        for _ in range(300):
            a = random_cone(rng, max_rank=3, max_gens=4)
            n = a.ambient_rank
            pick = rng.randrange(4)
            if pick == 0:
                b = equal_by_construction(rng, a)
            elif pick == 1 and len(a.generators) > 1:
                # a redundant generator: the same cone, another set
                g, h = rng.sample(a.generators, 2)
                b = Cone(n, list(a.generators) + [tuple(map(sum, zip(g, h)))])
            elif pick == 2:
                b = Cone(n, list(a.generators) + [random_vec(rng, n, -2, 2)])
            else:
                b = Cone(n, [random_vec(rng, n, -1, 1) for _ in range(rng.randint(0, 4))])
            got = cones_equal(a, b)
            assert got == (a.key == b.key)
            if a._gens_key == b._gens_key:
                kinds["same set"] += 1
            else:
                kinds["equal" if got else "different"] += 1
        assert min(kinds.values()) > 30

    def test_zero_cones_of_different_ranks(self):
        for m, n in ((1, 2), (2, 3), (3, 1)):
            assert Cone(m)._gens_key != Cone(n)._gens_key
            assert not cones_equal(Cone(m), Cone(n))
            assert not cones_equal(Cone(m, [(0,) * m]), Cone(n))


class TestIntersect:
    def test_wedge_inside_quadrant(self):
        got = quadrant().intersect(Cone(2, [(1, 1), (0, 1)]))
        assert cones_equal(got, Cone(2, [(1, 1), (0, 1)]))

    def test_idempotent(self):
        c = Cone(3, [(1, 0, 0), (1, 1, 0), (0, 0, 1)])
        assert cones_equal(c.intersect(c), c)

    def test_rays_to_zero(self):
        z = Cone(2, [(1, 0)]).intersect(Cone(2, [(0, 1)]))
        assert z.is_zero

    def test_contained_in_both_random(self):
        rng = random.Random(5)
        for _ in range(25):
            a = random_cone(rng, max_rank=3, max_gens=4)
            b = Cone(a.ambient_rank,
                     [random_vec(rng, a.ambient_rank) for _ in range(rng.randint(0, 4))])
            i = a.intersect(b)
            for g in i.generators:
                assert a.contains(g) and b.contains(g)


class TestFaces:
    def test_quadrant_faces(self):
        faces = quadrant().faces()
        assert len(faces) == 4
        dims = sorted(f.dim for f in faces)
        assert dims == [0, 1, 1, 2]

    def test_zero_cone_single_face(self):
        assert len(Cone(2).faces()) == 1

    def test_line_has_no_proper_faces(self):
        faces = Cone(2, [(1, 0), (-1, 0)]).faces()
        assert len(faces) == 1

    def test_face_of_face_is_face(self):
        c = Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        faces = c.faces()
        for f in faces:
            for ff in f.faces():
                assert any(cones_equal(ff, g) for g in faces)

    def test_strictly_convex_iff_zero_face(self):
        rng = random.Random(17)
        for _ in range(20):
            c = random_cone(rng, max_rank=3, max_gens=4)
            has_zero_face = any(f.is_zero for f in c.faces())
            assert c.is_strictly_convex() == has_zero_face


class TestFaceOracle:
    def test_agreement_on_random_pointed_cones(self):
        rng = random.Random(29)
        done = 0
        while done < 30:
            c = random_cone(rng, max_rank=3, max_gens=5)
            if not c.is_strictly_convex():
                continue
            done += 1
            got = c.faces()
            expected = []
            for f in brute_force_faces(c):
                if not any(cones_equal(f, e) for e in expected):
                    expected.append(f)
            assert len(got) == len(expected)
            for f in got:
                assert any(cones_equal(f, e) for e in expected)

    def test_agreement_on_random_non_pointed_cones(self):
        rng = random.Random(37)
        done = 0
        while done < 20:
            c = random_cone(rng, max_rank=3, max_gens=5)
            if c.is_strictly_convex():
                continue
            done += 1
            got = c.faces()
            assert len({f.key for f in got}) == len(got)
            expected = []
            for f in brute_force_faces(c):
                if not any(reference_cones_equal(f, e) for e in expected):
                    expected.append(f)
            assert len(got) == len(expected)
            for f in got:
                assert any(reference_cones_equal(f, e) for e in expected)

    def test_faces_have_distinct_keys(self):
        rng = random.Random(43)
        for _ in range(100):
            c = random_cone(rng)
            faces = c.faces()
            assert len({f.key for f in faces}) == len(faces)


def assert_face_dims(c: Cone) -> list[Cone]:
    """Every face's dim, read off the face lattice, equals its own rank."""
    faces = c.faces()
    assert [f.dim for f in faces] == [len(bareiss(f._ints)[1]) for f in faces]
    return faces


class TestFaceDimensions:
    """``faces()`` ranks only the parent; the graded lattice gives the rest."""

    def test_random_cones(self):
        rng = random.Random(113)
        seen = {"lineality": 0, "lower": 0, "redundant": 0}
        for _ in range(300):
            n = rng.randint(1, 5)
            gens = [random_vec(rng, n, -3, 3) for _ in range(rng.randint(1, 8))]
            kind = rng.choice(["plain", "lineality", "lower", "redundant"])
            if kind == "lineality":
                gens.append(tuple(-x for x in rng.choice(gens)))
            elif kind == "lower" and n > 1:
                gens = [g[:-1] + (0,) for g in gens]
            elif kind == "redundant":
                a, b = rng.choice(gens), rng.choice(gens)
                gens.append(tuple(x + 2 * y for x, y in zip(a, b)))
            c = Cone(n, gens)
            faces = assert_face_dims(c)
            for f in faces[1:-1]:
                assert_face_dims(f)
            seen["lineality"] += not c.is_strictly_convex()
            seen["lower"] += 0 < c.dim < n
            seen["redundant"] += len(c._ints) > sum(f.dim - faces[0].dim == 1 for f in faces)
        assert min(seen.values()) > 30

    @pytest.mark.parametrize("c", [
        Cone(3),
        Cone(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]),
        Cone(3, [(1, 1, 0), (-1, 0, 0), (0, -1, 0)]),
        Cone(2, [(1, 0), (0, 1), (-1, -1)]),
        Cone(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]),
    ], ids=["zero", "plane", "plane-by-three", "whole-space", "half-plane"])
    def test_special_cones(self, c):
        faces = assert_face_dims(c)
        assert faces[-1].dim == c.dim
        assert len(faces) == (2 if c.facets else 1)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_cube_and_cyclic_cones(self, seed):
        rng = random.Random(seed)
        for p in (bench_inputs.cube_cone(rng, 5), bench_inputs.cyclic_cone(rng, (-3, -1, 0, 2, 3))):
            faces = assert_face_dims(Cone(p.rank, p.generators))
            assert len(faces) == p.n_faces

    def test_generator_order_on_many_generators(self):
        # past eight generators a frozenset of indices need not iterate in
        # order; each face lists its generators in index order regardless
        rng = random.Random(127)
        unordered = 0
        for _ in range(12):
            n = rng.randint(4, 5)
            gens = [(1,) + random_vec(rng, n - 1, -3, 3) for _ in range(rng.randint(10, 16))]
            c = Cone(n, gens)
            got, want = c.faces(), ReferenceCone(n, gens).faces()
            assert [f.generators for f in got] == [f.generators for f in want]
            assert [f.dim for f in got] == [f.dim for f in want]
            index = {g: i for i, g in enumerate(c._ints)}
            unordered += any([index[g] for g in f._ints] != sorted(index[g] for g in f._ints)
                             for f in got)
        assert unordered == 0


_face_lattice = cones._face_lattice  # as imported, so never a test's counter


def lattice_faces(c: Cone) -> list[tuple[int, list[int], int]]:
    """The face walk by the general closure, ``_face_lattice`` on the
    facets' tight sets, decoded and sorted, for any cone."""
    dims = _face_lattice((1 << len(c._ints)) - 1, c._idual[2], c.dim)
    return sorted((d, cones._bits(s), s) for s, d in dims.items())


class TestBooleanFaceWalk:
    """A simplicial cone (as many generators as its dimension) lists its
    faces as the subsets of its generators, with no lattice closure; every
    cone's walk equals the closure's, element by element."""

    def test_equals_the_lattice_path(self, monkeypatch):
        rng = random.Random(4111)
        seen = Counter()
        closures = []
        monkeypatch.setattr(cones, "_face_lattice",
                            lambda *args: closures.append(args) or _face_lattice(*args))
        for _ in range(600):
            n = rng.randint(1, 6)
            kind = rng.choice(["simplicial", "plain", "lower", "lineality", "zero"])
            if kind == "zero":
                gens = []
            elif kind == "simplicial":
                gens = [random_vec(rng, n, -3, 3) for _ in range(rng.randint(1, n))]
            else:
                gens = [random_vec(rng, n, -3, 3) for _ in range(rng.randint(1, n + 3))]
                if kind == "lower" and n > 1:
                    gens = [g[:-1] + (0,) for g in gens]
                elif kind == "lineality":
                    gens.append(tuple(-x for x in rng.choice(gens)))
            c = Cone(n, gens)
            simplicial = len(c._ints) == c.dim
            closures.clear()
            got = c._ordered_faces()
            assert len(closures) == (not simplicial)
            assert got == lattice_faces(c)
            seen["simplicial" if simplicial else "other"] += 1
            seen["lower"] += 0 < c.dim < n
            seen["lineality"] += not c.is_strictly_convex()
            seen["zero"] += not c._ints
            seen["lower simplicial"] += simplicial and 0 < c.dim < n
        assert min(seen.values()) > 30, seen

    @pytest.mark.parametrize("c", [
        Cone(3),
        Cone(1, [(1,)]),
        Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        Cone(4, [(1, 2, 0, 0), (0, 1, -1, 0)]),
        Cone(2, [(1, 0), (-1, 0)]),
        Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    ], ids=["zero", "ray", "orthant", "lower", "line", "redundant"])
    def test_special_cones(self, c):
        assert c._ordered_faces() == lattice_faces(c)

    def test_subsets_by_size_then_indices(self):
        assert cones._subsets(0) == [(0, [], 0)]
        assert cones._subsets(3) == [
            (0, [], 0), (1, [0], 1), (1, [1], 2), (1, [2], 4),
            (2, [0, 1], 3), (2, [0, 2], 5), (2, [1, 2], 6), (3, [0, 1, 2], 7)]


class TestRelint:
    def test_quadrant_interior(self):
        assert quadrant().relint_contains((F(1), F(1)))

    def test_quadrant_boundary(self):
        assert not quadrant().relint_contains((F(1), F(0)))

    def test_small_interior_point(self):
        assert quadrant().relint_contains((Fraction(1, 7), Fraction(1, 9)))

    def test_zero_cone(self):
        assert Cone(2).relint_contains((F(0), F(0)))
        assert not Cone(2).relint_contains((F(1), F(0)))

    def test_input(self):
        c = quadrant()
        assert c.relint_contains([1, "1/3"]) and not c.relint_contains(["0", 2])
        with pytest.raises(TypeError):
            c.relint_contains((True, 1))
        with pytest.raises(RankMismatchError):
            c.relint_contains((1, 1, 1))

    def test_point_questions_read_tight_sets_only_for_a_carrier(self):
        c, edge = quadrant(), (F(3), F(0))
        assert c.contains(edge) and not c.relint_contains(edge)
        # carriers are bitsets over the generator indices
        assert c._carrier(edge) == 0b01 and c._carrier((F(1), F(1))) == 0b11
        assert c._carrier((F(-1), F(1))) is None

    def test_partition_into_face_relints(self):
        rng = random.Random(41)
        c = Cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)])
        faces = c.faces()
        for _ in range(100):
            coeffs = [Fraction(rng.randint(0, 4)) for _ in c.generators]
            x = tuple(
                sum((a * g[i] for a, g in zip(coeffs, c.generators)), Fraction(0))
                for i in range(3))
            hits = [f for f in faces if f.relint_contains(x)]
            assert len(hits) == 1


class TestRelintMeets:
    def test_ray_in_quadrant(self):
        w = relint_meets_cone(Cone(2, [(1, 0)]), quadrant())
        assert w is not None and quadrant().contains(w)

    def test_opposite_ray(self):
        assert relint_meets_cone(Cone(2, [(0, -1)]), quadrant()) is None

    def test_quadrant_meets_diagonal(self):
        diag = Cone(2, [(1, 1)])
        w = relint_meets_cone(quadrant(), diag)
        assert w is not None
        assert quadrant().relint_contains(w) and diag.contains(w)

    def test_disjoint_relints(self):
        plane = Cone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert relints_meet_in(Cone(2, [(1, 0)]), Cone(2, [(0, 1)]), plane) is None

    def test_equal_rays(self):
        plane = Cone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        r = Cone(2, [(1, 0)])
        w = relints_meet_in(r, r, plane)
        assert w is not None and r.relint_contains(w)

    def test_overlapping_interiors(self):
        plane = Cone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        a = quadrant()
        b = Cone(2, [(1, 1), (1, -1)])
        w = relints_meet_in(a, b, plane)
        assert w is not None
        assert a.relint_contains(w) and b.relint_contains(w)

    def test_agreement_with_fm_oracle(self):
        rng = random.Random(59)
        for _ in range(40):
            c = random_cone(rng, max_rank=3, max_gens=4)
            v = Cone(c.ambient_rank,
                     [random_vec(rng, c.ambient_rank) for _ in range(rng.randint(0, 4))])
            w = relint_meets_cone(c, v)
            assert fm_relint_meets_cone(c, v) == (w is not None)
            if w is not None:
                assert c.relint_contains(w) and v.contains(w)

    def test_yes_no_query_on_faces(self):
        # relint_meets_cone's yes/no answer against Fourier-Motzkin's: every
        # face of random cones, the zero face among them, against random V,
        # the zero cone, the whole space and a V with lineality
        rng = random.Random(1513)
        seen = {"meets": 0, "apart": 0, "zero face": 0, "rank 1": 0}
        for _ in range(80):
            c = random_cone(rng, max_rank=3, max_gens=5)
            n = c.ambient_rank
            axes = [tuple(F(i == j) for j in range(n)) for i in range(n)]
            line = [axes[0], tuple(-x for x in axes[0])]
            vs = [Cone(n), Cone(n, axes + [tuple(-x for x in a) for a in axes]),
                  Cone(n, line + [random_vec(rng, n) for _ in range(rng.randint(0, 2))]),
                  Cone(n, [random_vec(rng, n) for _ in range(rng.randint(1, 3))])]
            for face in c.faces():
                seen["zero face"] += face.is_zero
                seen["rank 1"] += n == 1
                for v in vs:
                    got = relint_meets_cone(face, v) is not None
                    assert got == fm_relint_meets_cone(face, v)
                    seen["meets" if got else "apart"] += 1
        assert min(seen.values()) > 20, seen

    def test_yes_no_query_checks_ranks(self):
        for c, v in ((Cone(2), Cone(3)), (quadrant(), Cone(1, [(1,)])),
                     (Cone(1, [(1,)]), quadrant())):
            with pytest.raises(RankMismatchError):
                relint_meets_cone(c, v)


class TestDoubleDescription:
    def test_consistency_on_random_cones(self):
        rng = random.Random(61)
        for _ in range(40):
            c = random_cone(rng)
            eqs, facets = c.span_equations, c.facets
            for g in c.generators:
                assert all(dot(w, g) == 0 for w in eqs)
                assert all(dot(w, g) >= 0 for w in facets)
            # each facet normal is tight on a subset spanning a facet of c
            for w in facets:
                tight = [g for g in c.generators if dot(w, g) == 0]
                assert Cone(c.ambient_rank, tight).dim == c.dim - 1

    def test_strict_convexity(self):
        assert quadrant().is_strictly_convex()
        assert not Cone(2, [(1, 0), (-1, 0)]).is_strictly_convex()
        assert Cone(2).is_strictly_convex()


def assert_same_description(got, want):
    """Equal lists in the same order, every vector a tuple of Fractions."""
    assert got == want
    for vecs in got:
        assert type(vecs) is list
        assert all(type(v) is tuple and all(type(x) is Fraction for x in v)
                   for v in vecs)


def random_ineqs(rng: random.Random, n: int, k: int) -> list:
    """Inequalities with zero vectors, ± pairs, rescaled duplicates and
    rational entries mixed in."""
    out = []
    for _ in range(k):
        kind = rng.randrange(6)
        if kind == 0:
            out.append((Fraction(0),) * n)
        elif kind == 1 and out:
            out.append(tuple(-x for x in rng.choice(out)))
        elif kind == 2 and out:
            c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            out.append(tuple(c * x for x in rng.choice(out)))
        elif kind == 3:
            out.append(tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 4))
                             for _ in range(n)))
        else:
            out.append(random_vec(rng, n, -3, 3))
    return out


class TestDualDescriptionAgainstReference:
    def test_random_inputs(self):
        rng = random.Random(73)
        non_trivial = 0
        for _ in range(2000):
            n = rng.randint(0, 4)
            ineqs = random_ineqs(rng, n, rng.randint(0, 7))
            want = reference_dual_description(ineqs, n)
            assert_same_description(dual_description(ineqs, n), want)
            non_trivial += 0 < len(want[0]) < n
        assert non_trivial > 300

    def test_intersection_inputs(self):
        # the facet normals and ± span equations that Cone.intersect feeds
        # back in; span equations in RREF carry rational entries
        rng = random.Random(79)
        rational = 0
        for _ in range(200):
            a = random_cone(rng, max_rank=4, max_gens=5)
            b = Cone(a.ambient_rank, [random_vec(rng, a.ambient_rank)
                                      for _ in range(rng.randint(0, 5))])
            ineqs = []
            for c in (a, b):
                ineqs.extend(c.facets)
                for w in c.span_equations:
                    ineqs += [w, tuple(-x for x in w)]
            rational += any(x.denominator != 1 for w in ineqs for x in w)
            assert_same_description(dual_description(ineqs, a.ambient_rank),
                                    reference_dual_description(ineqs, a.ambient_rank))
        assert rational > 10

    @pytest.mark.parametrize("rank, seed", [(3, 0), (4, 0), (4, 1), (5, 0), (5, 1), (6, 0)])
    def test_cube_cones_both_directions(self, rank, seed):
        gens = Cone(rank, bench_inputs.cube_cone(random.Random(seed), rank).generators)
        self._both_directions(rank, gens.generators)

    @pytest.mark.parametrize("ts", [tuple(range(-3, 4)), tuple(range(-4, 4))])
    def test_cyclic_cones_both_directions(self, ts):
        gens = Cone(5, bench_inputs.cyclic_cone(random.Random(2), ts).generators)
        self._both_directions(5, gens.generators)

    @staticmethod
    def _both_directions(n, generators):
        want = reference_dual_description(generators, n)
        assert_same_description(dual_description(generators, n), want)
        facets = want[1]
        assert_same_description(dual_description(facets, n),
                                reference_dual_description(facets, n))


def random_int_system(rng: random.Random, n: int, k: int) -> list[tuple[int, ...]]:
    """k int rows on a support that widens now and then by one axis, up
    to n, so the lineality space shrinks step by step and rows that
    vanish on it come between the cuts; repeated, opposite and zero rows
    mixed in."""
    rows = []
    width = rng.randint(min(n, 1), n)
    for _ in range(k):
        kind = rng.randrange(8)
        if kind == 0 and rows:
            rows.append(rng.choice(rows))
        elif kind == 1 and rows:
            rows.append(tuple(-x for x in rng.choice(rows)))
        elif kind == 2:
            rows.append((0,) * n)
        else:
            rows.append(tuple(rng.randint(-3, 3) for _ in range(width)) + (0,) * (n - width))
        if width < n and rng.random() < 0.3:
            width += 1
    return rows


def assert_dual_as_reference(ineqs, n):
    """``_dual_ints`` gives the reference's basis and rays in its order,
    and each tight set is exactly the rows vanishing on its ray."""
    basis, rays, tight = _dual_ints(ineqs, n)
    assert (basis, rays) == reference_dual_ints(ineqs, n)
    assert tight == [sum(1 << k for k, a in enumerate(ineqs) if _idot(a, r) == 0)
                     for r in rays]
    return basis, rays


class TestBitsetDualAgainstFrozenset:
    """``_dual_ints`` on bitsets with the popcount prefilter against the
    frozenset version it replaced (``reference_dual_ints``): the same
    basis and rays in the same order, and each returned tight set is
    exactly the rows vanishing on its ray."""

    def test_random_int_systems(self):
        rng = random.Random(131)
        shrinking = many_rays = 0
        for _ in range(20000):
            n = rng.randint(0, 6)
            ineqs = random_int_system(rng, n, rng.randint(0, 12))
            basis, rays = assert_dual_as_reference(ineqs, n)
            shrinking += 0 < len(basis) < n - 1
            many_rays += len(rays) > n
        assert shrinking > 3000 and many_rays > 500

    def test_random_int_systems_of_rank_7_and_8(self):
        rng = random.Random(139)
        shrinking = many_rays = 0
        for _ in range(400):
            n = rng.randint(7, 8)
            ineqs = random_int_system(rng, n, rng.randint(0, 20))
            basis, rays = assert_dual_as_reference(ineqs, n)
            shrinking += 0 < len(basis) < n - 1
            many_rays += len(rays) > n
        assert shrinking > 150 and many_rays > 40

    def test_cyclic_cones(self):
        for ts in (tuple(range(-3, 4)), tuple(range(-4, 5))):
            gens = Cone(5, bench_inputs.cyclic_cone(random.Random(3), ts).generators)._ints
            assert_dual_as_reference(gens, 5)

    @pytest.mark.parametrize("r", [6, 7])
    def test_cube_cones(self, r):
        """The cone over the (r-1)-cube, pointed and full-dimensional:
        2(r-1) facets and no lineality."""
        gens = Cone(r, bench_inputs.cube_cone(random.Random(5), r).generators)._ints
        basis, rays = assert_dual_as_reference(gens, r)
        assert basis == [] and len(rays) == 2 * (r - 1)

    def test_rank_8_cyclic_cone(self):
        """The cone over the cyclic 7-polytope on 18 points of the moment
        curve, t = -9..8: 2·C(14,3) = 728 facets (McMullen's upper bound
        theorem), the largest such cone the frozenset reference runs on
        in a test."""
        gens = [tuple(t ** e for e in range(8)) for t in range(-9, 9)]
        basis, rays = assert_dual_as_reference(gens, 8)
        assert basis == [] and len(rays) == 728

    def test_tight_sets_and_carriers(self):
        rng = random.Random(137)
        outside = 0
        for _ in range(400):
            c = random_cone(rng, max_rank=5, max_gens=9)
            gens, facets = c._ints, c._idual[1]
            assert c._idual[2] == tuple(
                sum(1 << i for i, g in enumerate(gens) if _idot(w, g) == 0) for w in facets)
            for _ in range(5):
                if gens and rng.random() < 0.7:
                    picked = rng.sample(gens, rng.randint(1, len(gens)))
                    x = [sum(rng.randint(1, 3) * g[k] for g in picked)
                         for k in range(c.ambient_rank)]
                else:
                    x = [rng.randint(-2, 2) for _ in range(c.ambient_rank)]
                if not reference_contains(c, x):
                    assert c._carrier(x) is None
                    outside += 1
                    continue
                zero = [w for w in facets if _idot(w, x) == 0]
                assert c._carrier(x) == sum(
                    1 << i for i, g in enumerate(gens) if all(_idot(w, g) == 0 for w in zero))
        assert outside > 200

    def test_a_ray_on_a_new_lineality_hyperplane_is_kept(self, monkeypatch):
        """On the signed rank-4 orthant, each generator row meets the
        lineality left by the rows before it, and every ray made so far
        lies on its hyperplane, as a·r = 0 for distinct axes.  Such a ray
        is kept as it is, so no ``_combine`` runs; moving each one along
        l0 took 0 + 1 + 2 + 3 = 6."""
        combined = []

        def counted(*args):
            combined.append(args)
            return _combine(*args)
        monkeypatch.setattr(cones, "_combine", counted)
        gens = [(1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)]
        basis, rays, tight = cones._dual_ints(gens, 4)
        assert combined == []
        assert (basis, rays) == reference_dual_ints(gens, 4)
        assert sorted(rays) == sorted(gens) and tight == [0b1110, 0b1101, 0b1011, 0b0111]

    @pytest.mark.parametrize("gens, n, lineality", [
        (bench_inputs.cube_cone(random.Random(7), 5).generators, 5, 0),
        ([(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0),
          (0, 0, -1, 0), (0, 0, 0, 1)], 4, 0),
        ([(1, 0, 0, 2), (0, 1, 0, 1), (0, 0, 1, -1), (1, 1, 1, 2)], 4, 1),
    ], ids=["cube", "half-space", "in-a-hyperplane"])
    def test_no_dual_runs_echelon(self, monkeypatch, gens, n, lineality):
        """No double description runs ``_echelon``: the lineality basis is
        kept in its form as the pass goes.  A full-dimensional cone, the
        rank-5 cube cone or a half-space, has a pointed dual, so the rays
        come out as the pass made them; a cone in a hyperplane has a dual
        that holds the normal line, whose basis row the pass leaves in
        canonical form (one run before the basis was kept reduced)."""
        calls = []

        def counted(rows):
            calls.append(rows)
            return _echelon(rows)
        monkeypatch.setattr(rational, "_echelon", counted)
        monkeypatch.setattr(cones, "_echelon", counted, raising=False)
        basis, _ = assert_dual_as_reference(Cone(n, gens)._ints, n)
        assert calls == [] and len(basis) == lineality

    def test_random_systems_with_lineality(self):
        """Systems of rank 0 to 7 in ambient rank 1 to 8, always below
        it, so the dual has a nonzero lineality space: combinations of a
        few base rows (unit rows among them), with zero, repeated and
        opposite rows.  The rays match the reference in order, and the
        basis, which no echelon pass touched, is its own ``_echelon``."""
        rng = random.Random(149)
        multi = 0
        for _ in range(2000):
            n = rng.randint(1, 8)
            base = [tuple(rng.randint(-3, 3) for _ in range(n))
                    for _ in range(rng.randint(0, n - 1))]
            for k in rng.sample(range(len(base)), len(base) // 3):
                unit = rng.randrange(n)
                base[k] = tuple(int(i == unit) for i in range(n))
            rows = []
            for _ in range(rng.randint(0, 12)):
                kind = rng.randrange(6)
                if kind == 0 or not base:
                    rows.append((0,) * n)
                elif kind == 1 and rows:
                    rows.append(tuple(-x for x in rng.choice(rows)))
                else:
                    coef = [rng.randint(-2, 2) for _ in base]
                    rows.append(tuple(sum(c * b[i] for c, b in zip(coef, base))
                                      for i in range(n)))
            basis, _ = assert_dual_as_reference(rows, n)
            assert basis and basis == _echelon(basis)
            multi += len(basis) > 1
        assert multi > 1000


def as_given(rng: random.Random, gens) -> list:
    """The same generators as ints, Fractions or "p/q" strings, at random."""
    out = []
    for g in gens:
        kind = rng.randrange(3)
        if kind == 0 and all(x.denominator == 1 for x in g):
            out.append(tuple(int(x) for x in g))
        elif kind == 1:
            out.append(tuple(f"{x.numerator * 3}/{x.denominator * 3}" for x in g))
        else:
            out.append(tuple(g))
    return out


def random_cone_family(rng: random.Random) -> list[list]:
    """Generator lists of one random cone: the base, with a zero and a
    duplicate in it, plus equal cones built from it (rescaled, shuffled,
    rational, shifted along the lineality space) and one perturbed cone."""
    n = rng.randint(1, 4)
    base = [random_vec(rng, n, -3, 3) for _ in range(rng.randint(0, 5))]
    if base and rng.random() < 0.3:
        l = rng.choice(base)
        base.append(tuple(-x for x in l))
    c = Cone(n, base)
    lists = [base + [(Fraction(0),) * n] + base[:1]]
    for _ in range(4):
        lists.append(as_given(rng, equal_by_construction(rng, c).generators))
    perturbed = [list(g) for g in base] or [[Fraction(0)] * n]
    perturbed[0][rng.randrange(n)] += rng.choice((-1, 1))
    lists.append([tuple(g) for g in perturbed])
    return [[n, gens] for gens in lists]


def assert_fraction_vectors(vs):
    assert all(type(v) is tuple and all(type(x) is Fraction for x in v) for v in vs)


class TestIntegerConeAgainstReference:
    """The integer-native cone against the Fraction cone it replaced
    (``ReferenceCone``): the same public values, order and types, the
    same equality classes, faces and witnesses."""

    @pytest.fixture(scope="class")
    def cones(self):
        rng = random.Random(97)
        specs = [spec for _ in range(100) for spec in random_cone_family(rng)]
        return [(Cone(n, gens), ReferenceCone(n, gens), group)
                for group, (n, gens) in zip([i // 6 for i in range(len(specs))], specs)]

    def test_public_views(self, cones):
        assert len(cones) >= 500
        for c, ref, _ in cones:
            assert c.generators == ref.generators
            assert c.facets == ref.facets
            assert c.span_equations == ref.span_equations
            for vs in (c.generators, c.facets, c.span_equations):
                assert type(vs) is tuple
                assert_fraction_vectors(vs)
            assert c.dim == ref.dim
            assert c.is_zero == (not ref.generators)

    def test_key_classes(self, cones):
        rng = random.Random(101)
        for i, (a, ra, _) in enumerate(cones):
            for b, rb, _ in cones[i + 1:]:
                assert (a.key == b.key) == (ra.key == rb.key)
        # mutual inclusion on every pair within a family and on random pairs
        pairs = [(x, y) for x in cones for y in cones if x[2] == y[2]]
        pairs += [tuple(rng.sample(cones, 2)) for _ in range(1500)]
        equal = 0
        for (a, ra, _), (b, rb, _) in pairs:
            got = a.key == b.key
            assert got == reference_cones_equal(ra, rb)
            if got:
                assert hash(a.key) == hash(b.key)
            equal += got
        assert 500 < equal < len(pairs) - 500

    def test_faces(self, cones):
        for c, ref, _ in cones[::2]:
            got, want = c.faces(), ref.faces()
            assert [f.generators for f in got] == [f.generators for f in want]
            assert [f.dim for f in got] == [f.dim for f in want]
            assert [f.facets for f in got] == [f.facets for f in want]

    def test_intersect(self, cones):
        rng = random.Random(103)
        by_rank = {}
        for c in cones:
            by_rank.setdefault(c[0].ambient_rank, []).append(c)
        lineality = 0
        for _ in range(300):
            (a, ra, _), (b, rb, _) = rng.sample(by_rank[rng.choice(sorted(by_rank))], 2)
            got, want = a.intersect(b), ra.intersect(rb)
            assert got.generators == want.generators
            assert got.facets == want.facets and got.span_equations == want.span_equations
            # the trusted constructor gives what normalising would
            assert got.key == Cone(got.ambient_rank, got.generators).key
            lineality += not got.is_strictly_convex()
        assert lineality > 30

    def test_relints_meet_in_witnesses(self):
        rng = random.Random(107)
        met = {"pair": 0, "single": 0}
        for _ in range(400):
            n = rng.randint(1, 3)
            specs = [[random_vec(rng, n, -2, 2) for _ in range(rng.randint(0, 3))]
                     for _ in range(3)]
            if rng.random() < 0.5:
                specs[2] = [tuple(Fraction(s * (i == j)) for j in range(n))
                            for i in range(n) for s in (1, -1)]
            new = [Cone(n, g) for g in specs]
            ref = [ReferenceCone(n, g) for g in specs]
            for kind, c2, r2 in (("pair", new[1], ref[1]), ("single", None, None)):
                got = relints_meet_in(new[0], c2, new[2])
                want = reference_relints_meet_in(ref[0], r2, ref[2])
                assert got == want
                if got is not None:
                    assert_fraction_vectors([got])
                    met[kind] += 1
        assert met["pair"] > 100 and met["single"] > 100

    @staticmethod
    def relint_cases(rng):
        """(n, generators, kind) of random cones, some with lineality, and
        of the zero cone, the whole space and a half-space."""
        for _ in range(300):
            n = rng.randint(1, 4)
            gens = [random_vec(rng, n, -3, 3) for _ in range(rng.randint(0, 4))]
            if gens and rng.random() < 0.3:
                gens.append(tuple(-x for x in gens[0]))
            yield n, gens, "random"
        for n in (1, 2, 3):
            units = [tuple(Fraction(s * (i == j)) for j in range(n)) for i in range(n)
                     for s in (1, -1)]
            yield n, [], "zero"
            yield n, units, "space"
            yield n, units[:-1], "half-space"

    def test_relint_contains(self, monkeypatch):
        # the int dual scan against the LP formulation: random points, the
        # sum of every generator, points on proper faces, the zero vector
        # (in cones with lineality too) and 'p/q' strings; no LP is solved
        solves = []
        solve = FeasibilitySystem.solve

        def counted(system):
            solves.append(system)
            return solve(system)
        monkeypatch.setattr(FeasibilitySystem, "solve", counted)
        rng = random.Random(109)
        verdicts = []
        kinds = {"proper face": 0, "zero in lineality": 0, "string": 0}
        for n, gens, _ in self.relint_cases(rng):
            c, ref = Cone(n, gens), ReferenceCone(n, gens)
            points = [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)),
                      (Fraction(0),) * n]
            if c.generators:
                points.append(tuple(sum(g[k] for g in c.generators) for k in range(n)))
                points.append(tuple(Fraction(x, 3) for x in points[-1]))
                points.append(c.generators[0])
            for face in c.faces()[:-1]:
                points.append(tuple(sum((rng.randint(1, 3) * g[k] for g in face.generators),
                                        Fraction(0)) for k in range(n)))
                kinds["proper face"] += 1
            kinds["zero in lineality"] += not c.is_strictly_convex() and bool(c.generators)
            for x in points:
                solves.clear()
                got = c.relint_contains(x)
                assert not solves
                assert got == ref.relint_contains(x)
                verdicts.append(got)
                strings = tuple(str(a) for a in x)
                assert c.relint_contains(strings) == got
                kinds["string"] += any("/" in a for a in strings)
        assert 100 < sum(verdicts) < len(verdicts) - 100
        assert min(kinds.values()) > 50, kinds

    def test_dim_is_a_rank(self):
        rng = random.Random(113)
        dims = set()
        for n, gens, kind in self.relint_cases(rng):
            c = Cone(n, gens)
            assert c.dim == len(bareiss(c._ints)[1])
            dims.add((kind, c.dim == n, not c.is_strictly_convex()))
        assert {("random", False, False), ("random", False, True),
                ("random", True, True), ("zero", False, False),
                ("space", True, True), ("half-space", True, True)} <= dims
