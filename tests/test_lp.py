import random
from fractions import Fraction

from sphfan import lp
from sphfan.fourier_motzkin import feasible
from sphfan.lp import FeasibilitySystem, solve_eq_nonneg

from helpers import reference_solve, reference_solve_eq_nonneg


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
