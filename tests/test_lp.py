import random
from fractions import Fraction

import pytest

from sphfan import lp
from sphfan.fourier_motzkin import feasible
from sphfan.lp import FeasibilitySystem, solve_eq_nonneg

from helpers import reference_feasible, reference_solve, reference_solve_eq_nonneg


def F(x):
    return Fraction(x)


class TestSimplexCore:
    def test_trivial_feasible(self):
        y = solve_eq_nonneg([[F(1), F(1)]], [F(2)])
        assert y is not None
        assert y[0] + y[1] == 2 and y[0] >= 0 and y[1] >= 0

    def test_infeasible_negative_sum(self):
        assert solve_eq_nonneg([[F(1), F(1)]], [F(-1)]) is None

    def test_degenerate_system(self):
        a = [[F(1), F(0)], [F(1), F(0)]]
        y = solve_eq_nonneg(a, [F(1), F(1)])
        assert y is not None and y[0] == 1

    def test_inconsistent_equalities(self):
        a = [[F(1), F(0)], [F(1), F(0)]]
        assert solve_eq_nonneg(a, [F(1), F(2)]) is None


class TestFeasibilitySystem:
    def test_free_variables(self):
        # x + y = 1, x >= 3 forces y <= -2, y free
        sys_ = FeasibilitySystem(
            equalities=((F(1), F(1)),), rhs=(F(1),),
            lower_bounds=(F(3), None))
        x = sys_.solve()
        assert x is not None
        assert x[0] >= 3 and x[0] + x[1] == 1

    def test_bounded_infeasible(self):
        # x + y = 1 with both >= 1
        sys_ = FeasibilitySystem(
            equalities=((F(1), F(1)),), rhs=(F(1),),
            lower_bounds=(F(1), F(1)))
        assert sys_.solve() is None

    def test_random_agreement_with_fm(self):
        rng = random.Random(23)
        for _ in range(60):
            nvars = rng.randint(1, 4)
            neq = rng.randint(1, 3)
            eqs = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(nvars))
                        for _ in range(neq))
            rhs = tuple(F(rng.randint(-3, 3)) for _ in range(neq))
            bounds = tuple(rng.choice([None, F(0), F(1), F(-2)])
                           for _ in range(nvars))
            sys_ = FeasibilitySystem(eqs, rhs, bounds)
            witness = sys_.solve()
            assert feasible(sys_._as_inequalities(), nvars) == (witness is not None)
            if witness is not None:
                for row, b in zip(eqs, rhs):
                    assert sum(c * x for c, x in zip(row, witness)) == b
                for x, lb in zip(witness, bounds):
                    assert lb is None or x >= lb


    def test_no_equalities_gives_the_lower_bounds(self):
        sys_ = FeasibilitySystem((), (), (F(1), None, Fraction(-2, 3)))
        assert sys_.solve() == (F(1), F(0), Fraction(-2, 3))

    def test_positional_and_keyword_construction(self):
        eqs, rhs, bounds = ((1, 2), (0, 1)), (3, 1), (None, F(0))
        by_position = FeasibilitySystem(eqs, rhs, bounds)
        by_keyword = FeasibilitySystem(lower_bounds=bounds, rhs=rhs, equalities=eqs)
        for sys_ in (by_position, by_keyword):
            assert (sys_.equalities, sys_.rhs, sys_.lower_bounds) == (eqs, rhs, bounds)
            assert sys_.solve() == (F(1), F(1))

    def test_row_length_must_match_the_variable_count(self):
        with pytest.raises(ValueError, match="row length"):
            FeasibilitySystem(((1, 2), (1,)), (0, 0), (None, None))
        with pytest.raises(ValueError, match="row length"):
            FeasibilitySystem(((1, 2, 3),), (0,), (None, None))

    def test_rhs_length_must_match_the_equality_count(self):
        with pytest.raises(ValueError, match="rhs length"):
            FeasibilitySystem(((1, 2),), (0, 1), (None, None))
        with pytest.raises(ValueError, match="rhs length"):
            FeasibilitySystem((), (0,), (None,))

    def test_immutable(self):
        sys_ = FeasibilitySystem(((1,),), (1,), (None,))
        for name in ("equalities", "rhs", "lower_bounds", "other"):
            with pytest.raises(AttributeError):
                setattr(sys_, name, ())
        assert (sys_.equalities, sys_.rhs, sys_.lower_bounds) == (((1,),), (1,), (None,))


def _random_system(rng):
    """Rational rows, some repeated (scaled, or with a shifted rhs), some
    with rhs 0, so inconsistent rows and ratio ties both come up."""
    def q():
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
    nvars = rng.randint(1, 5)
    a = [[q() for _ in range(nvars)] for _ in range(rng.randint(1, 3))]
    b = [q() if rng.random() < 0.6 else F(0) for _ in a]
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(a))
        k = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        a.append([k * x for x in a[i]])
        b.append(k * b[i] + rng.choice([0, 0, 0, 1]))
    bounds = tuple(rng.choice([None, F(0), F(1), F(-2), Fraction(1, 3),
                               Fraction(-5, 2)]) for _ in range(nvars))
    return a, b, bounds


class TestAgainstFractionSimplex:
    """The integer tableau must take the Fraction tableau's pivots, so the
    witnesses are identical, not merely both valid."""

    def test_same_witnesses(self):
        rng = random.Random(1967)
        verdicts = set()
        for _ in range(400):
            a, b, bounds = _random_system(rng)
            y = solve_eq_nonneg(a, b)
            assert y == reference_solve_eq_nonneg(a, b)
            sys_ = FeasibilitySystem(tuple(map(tuple, a)), tuple(b), bounds)
            x = sys_.solve()
            assert x == reference_solve(sys_)
            for w in (y, x):
                assert w is None or all(type(v) is Fraction for v in w)
            verdicts.add(x is None)
        assert verdicts == {True, False}

    def test_int_and_fraction_encodings(self):
        # the all-int path skips the common-denominator scaling; the same
        # system written with Fractions must give the same witness
        rng = random.Random(2000)
        verdicts = {True: 0, False: 0}
        for _ in range(400):
            nvars = rng.randint(1, 6)
            a = [[rng.randint(-3, 3) for _ in range(nvars)] for _ in range(rng.randint(1, 4))]
            b = [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in a]
            bounds = tuple(rng.choice([None, 0, 1, 1, -2]) for _ in range(nvars))
            y = solve_eq_nonneg(a, b)
            assert y == solve_eq_nonneg([[F(x) for x in r] for r in a], [F(r) for r in b])
            ints = FeasibilitySystem(tuple(map(tuple, a)), tuple(b), bounds)
            fracs = FeasibilitySystem(tuple(tuple(F(x) for x in r) for r in a),
                                      tuple(F(r) for r in b),
                                      tuple(lb if lb is None else F(lb) for lb in bounds))
            x = ints.solve()
            assert x == fracs.solve() == reference_solve(fracs)
            for w in (y, x):
                assert w is None or all(type(v) is Fraction for v in w)
            verdicts[x is not None] += 1
        assert min(verdicts.values()) > 100


class TestCrossCheck:
    def test_hook_replays_through_fm(self):
        sys_ = FeasibilitySystem(
            equalities=((F(1), F(-1)),), rhs=(F(0),),
            lower_bounds=(F(1), F(1)))
        lp.set_oracle_cross_check(True)
        try:
            assert sys_.solve() is not None
        finally:
            lp.set_oracle_cross_check(False)


class TestFourierMotzkin:
    def test_simple_box(self):
        # x >= 1, -x >= -2
        assert feasible([((F(1),), F(1)), ((F(-1),), F(-2))], 1)

    def test_empty_box(self):
        assert not feasible([((F(1),), F(3)), ((F(-1),), F(-2))], 1)

    def test_no_constraints(self):
        assert feasible([], 2)

    def test_constant_contradiction(self):
        assert not feasible([((F(0),), F(1))], 1)


def random_fm_system(rng, max_rows=7, max_vars=5):
    """Rows c . x >= r, each tagged with how it was made: int or rational
    entries, an opposite of an earlier row (rescaled, its rhs sometimes
    shifted into a slab or a contradiction), the negated sum of two rows
    (an implicit equality when the rhs is not shifted), or all zero."""
    nvars = rng.choice([0] + [v for v in range(1, max_vars + 1) for _ in (0, 1)])

    def q():
        if rng.random() < 0.3:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.randint(-3, 3)
    rows, kinds = [], set()
    for _ in range(rng.randint(0, max_rows)):
        kind = rng.choice(["zero", "opposite", "sum", "random", "random", "random",
                           "random", "random"])
        if kind == "zero":
            rows.append(((0,) * nvars, rng.randint(-1, 1)))
        elif kind == "opposite" and rows:
            c, r = rng.choice(rows)
            s = rng.choice([1, 1, 2, Fraction(1, 2)])
            rows.append((tuple(-s * x for x in c), -s * r + rng.choice([0, 0, 0, 1, -1])))
        elif kind == "sum" and len(rows) >= 2:
            (c1, r1), (c2, r2) = rng.sample(rows, 2)
            rows.append((tuple(-(a + b) for a, b in zip(c1, c2)),
                         -(r1 + r2) + rng.choice([0, 0, 1])))
        else:
            kind = "random"
            rows.append((tuple(q() for _ in range(nvars)),
                         q() if rng.random() < 0.6 else 0))
        kinds.add(kind)
    if any(type(x) is Fraction and x.denominator != 1 for c, r in rows for x in c + (r,)):
        kinds.add("rational")
    rng.shuffle(rows)
    return rows, nvars, kinds


class TestFourierMotzkinAgainstReference:
    """The integer eliminator must give the Fraction eliminator's verdict."""

    def test_random_systems(self):
        rng = random.Random(1965)
        seen = {True: 0, False: 0}
        kinds = {"zero": 0, "opposite": 0, "sum": 0, "rational": 0, "nvars=0": 0}
        for _ in range(5000):
            rows, nvars, made = random_fm_system(rng)
            got = feasible(rows, nvars)
            assert got == reference_feasible(rows, nvars), (rows, nvars)
            seen[got] += 1
            for k in made & kinds.keys():
                kinds[k] += 1
            kinds["nvars=0"] += nvars == 0
        assert min(seen.values()) > 1000
        assert min(kinds.values()) > 300, kinds

    def test_duplicate_rows_keep_every_needed_history(self):
        # infeasible; keeping, among rows with equal coefficients, only the
        # tightest one with the smallest history lets Chernikov's rule drop
        # a combination that is needed, and calls this system feasible
        rows = [((2, 2, 2, 0), -2), ((1, 0, 1, 2), 1), ((-1, 0, 2, 2), -2),
                ((-2, -1, -2, 2), 1), ((1, 2, -1, -1), -2), ((1, 0, -1, -1), -1),
                ((-1, 0, -2, 1), 2), ((1, -2, 1, 2), 0), ((-1, -2, 1, -1), 0),
                ((0, 1, 2, 1), 1)]
        assert not reference_feasible(rows, 4)
        assert not feasible(rows, 4)

    def test_larger_systems_against_the_simplex(self):
        # past the size at which the Fraction eliminator's rows explode
        # (some systems of 8 rows in 5 variables take it seconds), so the
        # simplex gives the verdict: c . x - s = r with x free and s >= 0
        rng = random.Random(1993)
        seen = {True: 0, False: 0}
        for _ in range(1500):
            rows, nvars, _ = random_fm_system(rng, max_rows=14, max_vars=7)
            m = len(rows)
            eqs = tuple(tuple(c) + tuple(-1 if j == i else 0 for j in range(m))
                        for i, (c, _) in enumerate(rows))
            system = FeasibilitySystem(eqs, tuple(F(r) for _, r in rows),
                                       (None,) * nvars + (F(0),) * m)
            got = feasible(rows, nvars)
            assert got == (system.solve() is not None), (rows, nvars)
            seen[got] += 1
        assert min(seen.values()) > 300
