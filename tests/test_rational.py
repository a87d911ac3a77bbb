import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sphfan.rational import Mat, format_rat, parse_rat

from helpers import (primitive, reference_det, reference_is_integral_unimodular,
                     reference_matmul, reference_matvec, reference_rref)


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

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rat(format_rat(q)) == q


class TestRank:
    def test_identity(self):
        assert Mat.identity(3).rank() == 3

    def test_zero(self):
        assert Mat.zero(2, 4).rank() == 0

    def test_proportional_rows(self):
        assert Mat([[1, 2], [2, 4]]).rank() == 1

    def test_rank_transpose_on_random(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = Mat([[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(cols)] for _ in range(rows)])
            assert m.rank() == m.transpose().rank()


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
        with pytest.raises(ValueError):
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
