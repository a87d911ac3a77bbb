import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sphfan import rational, spherical
from sphfan.cones import Cone
from sphfan.galois import GaloisAction, GroupElement
from sphfan.lp import FeasibilitySystem
from sphfan.morphisms import FanMorphism
from sphfan.rational import Mat, RankMismatchError, format_rat, parse_rat
from sphfan.spherical import ColoredCone, ColoredFan, SphericalDatum

from helpers import (primitive, reference_det, reference_is_integral_unimodular,
                     reference_matmul, reference_matvec, reference_rref,
                     reference_solve_homogeneous)


class TestParseFormat:
    def test_integer(self):
        assert parse_rat("7") == Fraction(7)
        assert parse_rat("-3") == Fraction(-3)

    def test_fraction(self):
        assert parse_rat("-3/7") == Fraction(-3, 7)
        assert parse_rat("4/2") == Fraction(2)

    @pytest.mark.parametrize("bad", ["", "1.5", "1/0", "1/-2", "a", "1 /2", "+/3",
                                     "3\n", "1/2\n", "\u0663", "1/\u0662"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)

    def test_canonical(self):
        assert format_rat(Fraction(4, 2)) == "2"
        assert format_rat(Fraction(-6, -4)) == "3/2"
        assert format_rat(Fraction(6, -4)) == "-3/2"

    def test_past_the_digit_limit_raises_overflow(self):
        limit = sys.get_int_max_str_digits()
        big = 10 ** limit
        assert format_rat(Fraction(big - 2, 3)).endswith("/3")
        for q in (Fraction(big), Fraction(1, big), Fraction(big + 1, 3)):
            with pytest.raises(OverflowError, match=f"more than {limit} digits"):
                format_rat(q)

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rat(format_rat(q)) == q


class TestRank:
    def test_identity(self):
        assert Mat.identity(3).rank() == 3

    def test_zero(self):
        assert Mat([[0] * 4] * 2).rank() == 0

    def test_proportional_rows(self):
        assert Mat([[1, 2], [2, 4]]).rank() == 1

    def test_rank_transpose_on_random(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = Mat([[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(cols)] for _ in range(rows)])
            assert m.rank() == Mat(zip(*m.rows)).rank()


class TestKernel:
    def test_single_equation(self):
        basis = Mat([[1, 1]]).solve_homogeneous()
        assert len(basis) == 1
        assert primitive(basis[0]) in (primitive((1, -1)), primitive((-1, 1)))

    def test_identity_has_trivial_kernel(self):
        assert Mat.identity(4).solve_homogeneous() == []

    def test_proportional_rows_kernel(self):
        m = Mat([[1, 2], [2, 4]])
        basis = m.solve_homogeneous()
        assert len(basis) == 1
        assert primitive(basis[0]) in (primitive((2, -1)), primitive((-2, 1)))

    def test_rank_nullity_and_exactness(self):
        rng = random.Random(11)
        for _ in range(50):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = Mat([[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(cols)] for _ in range(rows)])
            basis = m.solve_homogeneous()
            assert m.rank() + len(basis) == cols
            for x in basis:
                assert all(v == 0 for v in m.matvec(x))

    def test_against_back_substitution(self):
        # the kernel read off the reduced echelon form against the Fraction
        # back-substitution it replaced: the same Fraction tuples, in order
        rng = random.Random(13)
        shapes = [(n, k) for n in range(5) for k in range(6)]
        seen = {"zero row": 0, "zero matrix": 0, "0 x n": 0, "n x 0": 0,
                "full rank": 0, "rank-deficient": 0}
        for i in range(600):
            n, k = shapes[i % len(shapes)]
            m = _random_mat(rng, n, k)
            if n and k and rng.random() < 0.3:
                rows = [list(r) for r in m.rows]
                rows[rng.randrange(n)] = [0] * k
                m = Mat(rows)
            elif not n:
                # a matrix the constructor makes with no rows has no columns either
                m = object.__new__(Mat)
                m._store([], 1, k)
            got = m.solve_homogeneous()
            assert got == reference_solve_homogeneous(m)
            assert all(type(x) is Fraction for v in got for x in v)
            seen["zero row"] += any(not any(r) for r in m.ints)
            seen["zero matrix"] += not any(map(any, m.ints))
            seen["0 x n"] += not m.nrows
            seen["n x 0"] += m.nrows and not m.ncols
            seen["full rank"] += m.rank() == min(m.nrows, m.ncols)
            seen["rank-deficient"] += m.rank() < min(m.nrows, m.ncols)
        assert min(seen.values()) > 50, seen


class TestUnimodular:
    def test_identity(self):
        assert Mat.identity(3).is_integral_unimodular()

    def test_permutation(self):
        assert Mat([[0, 1], [1, 0]]).is_integral_unimodular()

    def test_det_two(self):
        assert not Mat([[1, 0], [0, 2]]).is_integral_unimodular()

    def test_non_integral(self):
        assert not Mat([[Fraction(1, 2), 0], [0, 2]]).is_integral_unimodular()

    def test_non_square_raises(self):
        with pytest.raises(RankMismatchError):
            Mat([[1, 0]]).is_integral_unimodular()

    def test_inverse_of_unimodular_is_unimodular(self):
        # adjugate-based inverse of small unimodular matrices stays unimodular
        rng = random.Random(3)
        for _ in range(20):
            # random product of elementary integer operations is unimodular
            m = [[1, 0], [0, 1]]
            for _ in range(5):
                c = rng.randint(-3, 3)
                if rng.random() < 0.5:
                    m = [[m[0][0] + c * m[1][0], m[0][1] + c * m[1][1]], m[1]]
                else:
                    m = [m[0], [m[1][0] + c * m[0][0], m[1][1] + c * m[0][1]]]
            mat = Mat(m)
            assert mat.is_integral_unimodular()
            d = mat.det()
            inv = Mat([[m[1][1] / d, -m[0][1] / d], [-m[1][0] / d, m[0][0] / d]])
            assert inv.is_integral_unimodular()
            assert mat.matmul(inv) == Mat.identity(2)


def test_det_matches_the_fraction_elimination():
    rng = random.Random(11)
    singular = 0
    for _ in range(500):
        n = rng.randint(0, 5)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.7
                 else Fraction(0) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows[rng.randrange(1, n)] = [c * x for x in rows[0]]
        m = Mat(rows)
        got = m.det()
        assert got == reference_det(m) and type(got) is Fraction
        singular += got == 0
    assert 50 < singular < 450


def _random_mat(rng: random.Random, nrows: int, ncols: int) -> Mat:
    """A random matrix: integral, rational, or square unimodular (signed
    permutation times elementary row operations); a rational one gets a
    row proportional to row 0 now and then."""
    kind = rng.choice(("int", "rat", "rat", "unimodular"))
    if kind == "unimodular" and nrows == ncols:
        perm = rng.sample(range(nrows), nrows)
        rows = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(ncols)]
                for i in range(nrows)]
        for _ in range(rng.randint(0, 4) if nrows > 1 else 0):
            i, j = rng.sample(range(nrows), 2)
            c = rng.randint(-3, 3)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        return Mat(rows)
    dens = (1,) if kind == "int" else (1, 1, 2, 3, 4)
    rows = [[Fraction(rng.randint(-6, 6), rng.choice(dens)) if rng.random() < 0.7
             else Fraction(0) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        rows[rng.randrange(1, nrows)] = [c * x for x in rows[0]]
    return Mat(rows)


def test_int_grid_matches_the_fraction_references():
    """Products, rank, det, unimodularity, ``==`` and ``hash`` on the int
    grid agree with the Fraction computations they replaced."""
    rng = random.Random(29)
    seen = {"square": 0, "singular": 0, "unimodular": 0, "integral": 0}
    for _ in range(500):
        n, k, p = (rng.randint(0, 4) for _ in range(3))
        a = _random_mat(rng, n, n if rng.random() < 0.6 else k)
        b = _random_mat(rng, a.ncols, p)
        v = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(a.ncols))
        assert all(q * a.den == x for row, r in zip(a.rows, a.ints) for q, x in zip(row, r))
        got, want = a.matmul(b), reference_matmul(a, b)
        assert got == want and got.rows == want.rows
        assert (got.nrows, got.ncols, got.den) == (want.nrows, want.ncols, want.den)
        assert hash(got) == hash(want)
        assert a.matvec(v) == reference_matvec(a, v)
        assert all(type(x) is Fraction for x in a.matvec(v))
        assert a.rank() == len(reference_rref(a.rows))
        same = Mat([[format_rat(x) for x in row] for row in a.rows])
        assert same == a and hash(same) == hash(a)
        assert (a == b) == (a.rows == b.rows)
        if a.nrows == a.ncols:
            seen["square"] += 1
            assert a.det() == reference_det(a)
            seen["singular"] += a.det() == 0
            unimodular = a.is_integral_unimodular()
            assert unimodular == reference_is_integral_unimodular(a)
            seen["unimodular"] += unimodular
            seen["integral"] += a.den == 1
    assert all(count > 20 for count in seen.values()), seen
    # denominators that cancel in the product, fully or in part
    F = Fraction
    for a, b in (([[F(1, 2)]], [[2]]),
                 ([[F(1, 2), F(1, 3)]], [[2], [3]]),
                 ([[F(1, 6)]], [[F(3, 4)]]),
                 ([[F(1, 2), F(1, 2)], [F(-1, 2), F(1, 2)]], [[1, -1], [1, 1]]),
                 ([[F(2, 3), 0]], [[F(3, 2), 0], [0, F(5, 7)]])):
        a, b = Mat(a), Mat(b)
        got, want = a.matmul(b), reference_matmul(a, b)
        assert got == want and got.rows == want.rows and got.den == want.den
        assert got.ints == tuple(tuple(q * want.den for q in row) for row in want.rows)
        assert hash(got) == hash(want)
    assert Mat([[F(1, 2)]]).matmul(Mat([[2]])).den == 1
    assert Mat([[F(1, 6)]]).matmul(Mat([[F(3, 4)]])).den == 8


def test_the_int_core_has_one_form():
    # Mat keeps only its int grid, and the int eliminations live here: a
    # module reading rows, a cone kernel or a copy of the elimination
    # would compute in Fractions again
    paths = sorted(Path(rational.__file__).parent.glob("*.py"))
    assert {"rational.py", "cones.py", "docio.py"} <= {p.name for p in paths}
    assert "rows" not in Mat.__slots__
    for path in paths:
        text = path.read_text()
        tree = ast.parse(text)
        assert "lineality_basis" not in text, path.name
        if path.name not in ("rational.py", "docio.py"):
            assert not any(isinstance(node, ast.Attribute) and node.attr == "rows"
                           for node in ast.walk(tree)), path.name
        if path.name == "cones.py":
            defined = {node.name for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            assert not defined & {"_echelon", "_combine", "_pivots", "_reduce_ints",
                                  "bareiss"}, defined
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            assert {n.split(".")[0] for n in names} <= sys.stdlib_module_names, (
                path.name, names)


_SHAPE_CHECKS = [
    ("ragged", lambda: Mat([[1, 0], [1]])),
    ("matvec", lambda: Mat.identity(2).matvec((Fraction(1),))),
    ("matmul", lambda: Mat.identity(2).matmul(Mat.identity(3))),
    ("det", lambda: Mat([[1, 0]]).det()),
    ("intersect", lambda: Cone(2).intersect(Cone(3))),
    ("image", lambda: Cone(2, [(1, 0)]).image(Mat.identity(3))),
    ("action", lambda: GaloisAction(SphericalDatum(2, Cone(2)),
                                    [GroupElement("g", Mat.identity(3), {})])),
]


@pytest.mark.parametrize("check", [c for _, c in _SHAPE_CHECKS],
                         ids=[name for name, _ in _SHAPE_CHECKS])
def test_shape_checks_raise_the_one_rank_error(check):
    assert spherical.RankMismatchError is RankMismatchError
    assert issubclass(RankMismatchError, ValueError)
    with pytest.raises(RankMismatchError):
        check()


def _frozen_instances() -> list:
    """One instance of each value type built on ``rational.Frozen``."""
    d = SphericalDatum(1, Cone(1, [(1,), (-1,)]), ["a"], {"a": (1,)})
    cc = ColoredCone(Cone(1, [(1,)]), ["a"])
    e = GroupElement("id", Mat.identity(1), {"a": "a"})
    return [Mat([[1, Fraction(1, 2)], [3, 4]]), Cone(2, [(1, 0), (0, 1)]),
            FeasibilitySystem(((1, 1),), (1,), 2), d, cc, ColoredFan([cc]), e,
            GaloisAction(d, [e]), FanMorphism(d, d, Mat.identity(1), ["a"], {"a": "a"})]


@pytest.mark.parametrize("obj", _frozen_instances(), ids=lambda obj: type(obj).__name__)
def test_value_types_are_immutable(obj):
    assert isinstance(obj, rational.Frozen)
    slots = [s for cls in type(obj).__mro__ for s in vars(cls).get("__slots__", ())
             if s != "__dict__"]
    before = {s: getattr(obj, s) for s in slots}
    h = hash(obj)
    for name in slots + ["other"]:
        with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
            delattr(obj, name)
    assert all(getattr(obj, s) is v for s, v in before.items())
    assert hash(obj) == h
    if isinstance(obj, Mat):
        assert obj == Mat([[1, Fraction(1, 2)], [3, 4]])


def test_each_fact_has_one_home():
    # immutability, row scaling, color membership and each action flag are
    # decided in one place; a second copy could drift from the first
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(Path(rational.__file__).parent.glob("*.py"))}
    assert {"rational.py", "fourier_motzkin.py", "docio.py", "galois.py"} <= set(trees)

    def sets_slots(node) -> bool:
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "__setattr__"
                   and isinstance(n.func.value, ast.Name) and n.func.value.id == "object"
                   for n in ast.walk(node))

    overrides = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                overrides += [(name, node.name) for f in node.body
                              if isinstance(f, ast.FunctionDef)
                              and f.name in ("__setattr__", "__delattr__")]
        for stmt in tree.body:
            if sets_slots(stmt):
                assert isinstance(stmt, ast.ClassDef), (name, stmt.lineno)
                assert "Frozen" in {b.id for b in stmt.bases if isinstance(b, ast.Name)}, (
                    name, stmt.name)
    assert overrides == [("rational.py", "Frozen")] * 2

    def used(tree) -> set[str]:
        return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
                | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
                | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                   for a in n.names})

    assert not used(trees["fourier_motzkin.py"]) & {"gcd", "lcm"}

    # one error for ranks that disagree, and one reader of rational
    # literals, which docio calls through rat
    homes = [name for name, tree in trees.items() for n in ast.walk(tree)
             if isinstance(n, ast.ClassDef) and n.name == "RankMismatchError"]
    assert homes == ["rational.py"]
    assert not any("DimensionMismatch" in used(tree) for tree in trees.values())
    assert "parse_rat" not in used(trees["docio.py"])

    # docio reads a datum's colors only to write them out; every membership
    # test goes through SphericalDatum.check_colors or permutes_colors
    readers = {f.name for f in ast.walk(trees["docio.py"]) if isinstance(f, ast.FunctionDef)
               and any(isinstance(n, ast.Attribute) and n.attr == "colors"
                       for n in ast.walk(f))}
    assert readers <= {"serialize_datum"}, readers

    # each flag of validate_action is read off its failure list: no name
    # is set to a boolean or bound twice
    fn = next(f for f in ast.walk(trees["galois.py"])
              if isinstance(f, ast.FunctionDef) and f.name == "validate_action")
    assert not any(isinstance(n, ast.Constant) and isinstance(n.value, bool)
                   for n in ast.walk(fn))
    bound = [t.id for n in ast.walk(fn) if isinstance(n, (ast.Assign, ast.AugAssign))
             for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
             if isinstance(t, ast.Name)]
    assert len(bound) == len(set(bound)), bound
