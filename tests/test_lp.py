import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sphfan import lp
from sphfan.cones import Cone, _meet_system, relints_meet_in
from sphfan.fourier_motzkin import feasible
from sphfan.lp import FeasibilitySystem, solve_eq_nonneg

from helpers import (one_sign_row, presolve_certifies, reference_feasible,
                     reference_meet_system, reference_relints_meet_in, reference_solve,
                     reference_solve_eq_nonneg, shifted_rhs)


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

    def test_reference_on_int_rows(self):
        # int rows once made the reference pivot in floats and miss this
        # feasible system
        a = [[2, 1, -2, 0, 1], [-1, 1, 2, 1, 1], [-1, 1, 1, 1, -1], [2, -1, -2, 2, -2]]
        b = [1, 2, 0, -2]
        want = tuple(Fraction(x, 11) for x in (7, 6, 8, 0, 7))
        assert tuple(solve_eq_nonneg(a, b)) == want
        y = reference_solve_eq_nonneg(a, b)
        assert tuple(y) == want and all(type(v) is Fraction for v in y)

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


def _plant_row(rng, a, b, bounds, kind):
    """Insert a row that no solution meets once the lower bounds are shifted
    out: a nonzero rhs and coefficients of the other sign or zero
    ("one-sign"), or all zero ("zero").  "free" makes one variable free and
    puts a nonzero coefficient on it, which the presolve must let through.
    Returns the bounds."""
    s = rng.choice([1, -1])
    bounds = list(bounds)
    if kind == "free":
        k = rng.randrange(len(bounds))
        bounds[k] = None
    # zero on the other free variables, which would give the row both signs
    row = [F(0) if kind == "zero" or lb is None
           else -s * Fraction(rng.randint(0, 4), rng.choice([1, 1, 2, 3])) for lb in bounds]
    if kind == "free":
        row[k] = F(rng.choice([1, -1]) * rng.randint(1, 3))
    shift = sum((c * lb for c, lb in zip(row, bounds) if lb is not None), F(0))
    at = rng.randint(0, len(a))
    a.insert(at, row)
    b.insert(at, shift + s * Fraction(rng.randint(1, 5), rng.choice([1, 1, 2])))
    return tuple(bounds)


class TestInfeasibleRowPresolve:
    """The presolve may end a solve early only where the Fraction simplex,
    which has no presolve, reports infeasibility too; every other system
    keeps its simplex witness."""

    def test_planted_rows_against_the_fraction_simplex(self):
        rng = random.Random(1995)
        seen = {"one-sign": 0, "zero": 0, "free": 0, "free-feasible": 0}
        for _ in range(600):
            a, b, bounds = _random_system(rng)
            kind = rng.choice(["one-sign", "zero", "free"])
            bounds = _plant_row(rng, a, b, bounds, kind)
            # the bare y >= 0 form, bounds ignored
            y = solve_eq_nonneg(a, b)
            assert y == reference_solve_eq_nonneg(a, b)
            assert y is None or not one_sign_row(a, b)
            system = FeasibilitySystem(tuple(map(tuple, a)), tuple(b), bounds)
            x = system.solve()
            assert x == reference_solve(system)
            if kind == "free":
                seen["free-feasible"] += x is not None
            else:
                assert presolve_certifies(system) and x is None
            seen[kind] += 1
        assert min(seen.values()) > 20, seen

    def test_int_systems_certified_or_not(self):
        rng = random.Random(71)
        verdicts = {"certified": 0, "feasible": 0, "infeasible by the simplex": 0}
        for _ in range(600):
            nvars = rng.randint(1, 5)
            a = [[rng.randint(-2, 2) for _ in range(nvars)] for _ in range(rng.randint(1, 4))]
            b = [rng.randint(-3, 3) for _ in a]
            bounds = tuple(rng.choice([None, 0, 0, 1, -1]) for _ in range(nvars))
            y = solve_eq_nonneg(a, b)
            # the reference needs Fractions: its ratio test divides
            assert y == reference_solve_eq_nonneg([[F(x) for x in r] for r in a], [F(r) for r in b])
            system = FeasibilitySystem(tuple(map(tuple, a)), tuple(b), bounds)
            x = system.solve()
            assert x == reference_solve(system)
            if presolve_certifies(system):
                assert x is None
                verdicts["certified"] += 1
            else:
                verdicts["feasible" if x is not None else "infeasible by the simplex"] += 1
        assert min(verdicts.values()) > 50, verdicts

    def test_zero_rows(self):
        for n in (0, 1, 3):
            zero = [0] * n
            for r in (1, -1, Fraction(-1, 2)):
                assert solve_eq_nonneg([zero], [r]) is None
                assert reference_solve_eq_nonneg([zero], [r]) is None
            assert solve_eq_nonneg([zero], [0]) == [F(0)] * n
        system = FeasibilitySystem(((0, 0),), (F(2),), (None, F(1)))
        assert presolve_certifies(system) and system.solve() is None

    def test_meet_systems_of_cone_triples(self, monkeypatch):
        # c1 and c2 on opposite sides of x_k = 0 (c2 possibly inside it):
        # the meet system is certified; arbitrary triples are compared too
        tableaux = []
        solve = lp._solve_eq_nonneg

        def recorded(a, b, n):
            tableaux.append(([tuple(row) for row in a], list(b), n))
            return solve(a, b, n)
        monkeypatch.setattr(lp, "_solve_eq_nonneg", recorded)
        rng = random.Random(1512)
        seen = {"separated": 0, "certified": 0, "meets": 0, "apart": 0}
        for _ in range(300):
            n = rng.randint(1, 4)
            separated = rng.random() < 0.5
            k = rng.randrange(n)

            def gens(side):
                out = [[rng.randint(-3, 3) for _ in range(n)]
                       for _ in range(rng.randint(1, 4))]
                if separated:
                    for g in out:
                        g[k] = side * abs(g[k])
                    if side > 0:
                        out[0][k] = rng.randint(1, 3)
                    elif rng.random() < 0.3:
                        for g in out:
                            g[k] = 0
                return out
            c1, c2 = Cone(n, gens(1)), Cone(n, gens(-1))
            v = Cone(n, [[rng.randint(-3, 3) for _ in range(n)]
                         for _ in range(rng.randint(0, 2 * n))])
            if not c1._ints or not c2._ints:
                continue
            system = _meet_system([c1, c2, v])
            x = system.solve()
            assert x == reference_solve(system)
            assert (relints_meet_in(c1, c2, v) is None) == (x is None)
            # the shifted system is the one the simplex got from the unshifted
            # one, so the pivots are the same; and so is the witness
            for triple in ([c1, c2, v], [c1, v], [c2, v]):
                new = _meet_system(triple)
                old = reference_meet_system([c._ints for c in triple], n, 0)
                assert new.equalities == old.equalities
                assert new.rhs == shifted_rhs(old)
                assert set(new.lower_bounds) <= {0}
                tableaux.clear()
                y = new.solve()
                want = old.solve()
                assert tableaux[0] == tableaux[1]
                assert want == reference_solve(old)
                assert (y is None) == (want is None)
                if y is not None:
                    assert tuple(a + lb for a, lb in zip(y, old.lower_bounds)) == want
            assert relints_meet_in(c1, c2, v) == reference_relints_meet_in(c1, c2, v)
            assert relints_meet_in(c1, None, v) == reference_relints_meet_in(c1, None, v)
            if separated:
                assert presolve_certifies(system) and x is None
                seen["separated"] += 1
            else:
                seen["certified"] += presolve_certifies(system)
                seen["meets" if x is not None else "apart"] += 1
        assert min(seen.values()) > 20, seen


def test_solve_is_the_only_lp_entry_point():
    # the benchmark counts LPs at FeasibilitySystem.solve, so a module that
    # reached the simplex another way would solve LPs nobody counts; and
    # cones._meet_system is the one place outside lp that builds a system
    paths = sorted(Path(lp.__file__).parent.glob("*.py"))
    assert {"cones.py", "spherical.py"} <= {p.name for p in paths}
    builders = []
    for path in paths:
        if path.name != "lp.py":
            text = path.read_text()
            assert "_solve_eq_nonneg" not in text and "_solve_simplex" not in text, path.name
            builders += [(path.name, where) for where in _constructions(ast.parse(text))]
    assert builders == [("cones.py", "_meet_system")]


def _constructions(tree, where=None):
    """The enclosing function name of every ``FeasibilitySystem(...)`` call."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _constructions(node, where or getattr(node, "name", "<lambda>"))
            continue
        if isinstance(node, ast.Call) and "FeasibilitySystem" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield where
        yield from _constructions(node, where)


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
