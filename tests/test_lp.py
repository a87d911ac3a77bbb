import ast
import random
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import lcm
from pathlib import Path

import pytest

from sphfan import fourier_motzkin, lp
from sphfan.cones import Cone, _meet_system, _pair_systems, relints_meet_in
from sphfan.fourier_motzkin import feasible
from sphfan.lp import FeasibilitySystem
from sphfan.rational import RankMismatchError

from helpers import (as_fractions, eliminate, generator_bland_solve, generator_sum,
                     one_sign_row, presolve_certifies, reference_feasible, reference_holds,
                     reference_index_certifies, reference_meet_system,
                     reference_relints_meet_in, reference_shift, reference_solve,
                     reference_solve_eq_nonneg, shifted_rhs)


def F(x):
    return Fraction(x)


def meet_system(cones):
    """The system the library asks for relint(cones[0]) ∩ cones[-1], or for
    relint(cones[0]) ∩ relint(cones[1]) ∩ cones[2]: ``_meet_system``, or
    the one pair of ``_pair_systems`` on [cones[0], cones[1]]."""
    if len(cones) == 2:
        return _meet_system(cones)
    ((_, _, system),) = _pair_systems(cones[:2], cones[2])
    return system


def certifies(cones):
    """Whether ``meet_system(cones)`` should be certified: the
    infeasible-row rule, and for a pair the hyperplane index too."""
    if len(cones) == 2:
        return presolve_certifies(reference_meet_system([c._ints for c in cones],
                                                        cones[0].ambient_rank, 0))
    return reference_index_certifies(cones[:2], cones[2])[0]


def interior(cones):
    """Whether ``meet_system(cones)`` should be certified feasible by the
    interior point: relint(C) ∩ V alone, when V holds C's generator sum
    (by the Fraction eliminator, with no facet of V)."""
    return len(cones) == 2 and reference_holds(cones[1], generator_sum(cones[0]))


def int_system(a, b):
    """Rational rows and rhs as one ``FeasibilitySystem``, scaled by ONE
    common denominator: scaling rows apart would reweight the phase-1 cost
    row and could change Bland's pivots.  The solutions are unchanged."""
    scale = lcm(*(Fraction(x).denominator for x in chain(chain.from_iterable(a), b)))
    rows = tuple(tuple(int(x * scale) for x in row) for row in a)
    return FeasibilitySystem(rows, tuple(int(r * scale) for r in b),
                             len(a[0]) if a else 0)


def solve_fractions(a, b):
    """The witness of ``int_system(a, b)`` as Fractions, or None."""
    return as_fractions(int_system(a, b).solve())


class TestSimplexCore:
    def test_trivial_feasible(self):
        y = solve_fractions([[1, 1]], [2])
        assert y is not None
        assert y[0] + y[1] == 2 and y[0] >= 0 and y[1] >= 0

    def test_infeasible_negative_sum(self):
        assert solve_fractions([[1, 1]], [-1]) is None

    def test_degenerate_system(self):
        a = [[1, 0], [1, 0]]
        y = solve_fractions(a, [1, 1])
        assert y is not None and y[0] == 1

    def test_inconsistent_equalities(self):
        a = [[1, 0], [1, 0]]
        assert solve_fractions(a, [1, 2]) is None


class TestFeasibilitySystem:
    def test_random_agreement_with_fm(self):
        rng = random.Random(23)
        for _ in range(60):
            nvars = rng.randint(1, 4)
            neq = rng.randint(1, 3)
            eqs = tuple(tuple(rng.randint(-3, 3) for _ in range(nvars))
                        for _ in range(neq))
            rhs = tuple(rng.randint(-3, 3) for _ in range(neq))
            sys_ = FeasibilitySystem(eqs, rhs, nvars)
            witness = as_fractions(sys_.solve())
            assert feasible(eqs, rhs, nvars) == (witness is not None)
            if witness is not None:
                for row, b in zip(eqs, rhs):
                    assert sum(c * x for c, x in zip(row, witness)) == b
                assert min(witness) >= 0

    def test_solutions_are_int_pairs(self):
        # a planted y >= 0 makes every system feasible; the solution is
        # (list[int], d) with d > 0 and A·y = d·b on ints
        rng = random.Random(2302)
        for _ in range(200):
            nvars = rng.randint(1, 6)
            eqs = tuple(tuple(rng.randint(-4, 4) for _ in range(nvars))
                        for _ in range(rng.randint(0, 4)))
            point = [rng.randint(0, 3) for _ in range(nvars)]
            rhs = tuple(sum(c * x for c, x in zip(row, point)) for row in eqs)
            sol = FeasibilitySystem(eqs, rhs, nvars).solve()
            assert sol is not None
            y, d = sol
            assert type(y) is list and len(y) == nvars and {int} >= set(map(type, y))
            assert type(d) is int and d > 0 and min(y) >= 0
            for row, b in zip(eqs, rhs):
                assert sum(c * v for c, v in zip(row, y)) == d * b

    def test_no_equalities_gives_the_lower_bounds(self):
        # every lower bound is 0
        assert FeasibilitySystem((), (), 3).solve() == ([0, 0, 0], 1)
        assert FeasibilitySystem((), (), 0).solve() == ([], 1)

    def test_positional_and_keyword_construction(self):
        eqs, rhs = ((1, 2), (0, 1)), (3, 1)
        by_position = FeasibilitySystem(eqs, rhs, 2)
        by_keyword = FeasibilitySystem(nvars=2, rhs=rhs, equalities=eqs)
        for sys_ in (by_position, by_keyword):
            assert (sys_.equalities, sys_.rhs, sys_.nvars) == (eqs, rhs, 2)
            assert sys_.solve() == ([1, 1], 1)

    @pytest.mark.parametrize("eqs, rhs, nvars", [
        (((F(1), 2),), (0,), 2),
        (((1, 2),), (Fraction(1, 2),), 2),
        (((1, 2),), (F(3),), 2),
        (((True, 2),), (0,), 2),
        (((1, 2),), (False,), 2),
        (((1, 2),), (0,), True),
        (((1, 2.0),), (0,), 2),
    ])
    def test_rejects_non_int_entries(self, eqs, rhs, nvars):
        # a Fraction, even a whole one, or a bool would reach the tableau's
        # floor divisions
        with pytest.raises(TypeError, match="must be ints"):
            FeasibilitySystem(eqs, rhs, nvars)

    def test_row_length_must_match_the_variable_count(self):
        with pytest.raises(RankMismatchError, match="row length"):
            FeasibilitySystem(((1, 2), (1,)), (0, 0), 2)
        with pytest.raises(RankMismatchError, match="row length"):
            FeasibilitySystem(((1, 2, 3),), (0,), 2)

    def test_rhs_length_must_match_the_equality_count(self):
        with pytest.raises(RankMismatchError, match="rhs length"):
            FeasibilitySystem(((1, 2),), (0, 1), 2)
        with pytest.raises(RankMismatchError, match="rhs length"):
            FeasibilitySystem((), (0,), 1)

    def test_immutable(self):
        sys_ = FeasibilitySystem(((1,),), (1,), 1)
        for name in ("equalities", "rhs", "nvars", "other"):
            with pytest.raises(AttributeError):
                setattr(sys_, name, ())
        assert (sys_.equalities, sys_.rhs, sys_.nvars) == (((1,),), (1,), 1)


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
    return a, b


class TestAgainstFractionSimplex:
    """The integer tableau must take the Fraction tableau's pivots, so the
    witnesses are identical, not merely both valid."""

    def test_same_witnesses(self):
        rng = random.Random(1967)
        verdicts = set()
        for _ in range(400):
            a, b = _random_system(rng)
            y = solve_fractions(a, b)
            want = reference_solve_eq_nonneg(a, b)
            assert y == (None if want is None else tuple(want))
            verdicts.add(y is None)
        assert verdicts == {True, False}

    def test_reference_on_int_rows(self):
        # int rows once made the reference pivot in floats and miss this
        # feasible system
        a = [[2, 1, -2, 0, 1], [-1, 1, 2, 1, 1], [-1, 1, 1, 1, -1], [2, -1, -2, 2, -2]]
        b = [1, 2, 0, -2]
        want = tuple(Fraction(x, 11) for x in (7, 6, 8, 0, 7))
        assert solve_fractions(a, b) == want
        y = reference_solve_eq_nonneg(a, b)
        assert tuple(y) == want and all(type(v) is Fraction for v in y)


class TestAgainstGeneratorBland:
    """The Bland loop, whose one row update ``(x*p - f*y) // d`` serves
    every pivot, against the loop it replaced (``generator_bland_solve``):
    the same (y, d) on random int systems with entries -4..4, where the
    pivot mix covers that update on p != d pivots and on p == d pivots,
    both with d == 1 and with d > 1, ratio ties occur, and on systems
    with no row or no column."""

    def test_same_numerators_and_denominator(self):
        rng = random.Random(2011)
        seen, verdicts = Counter(), Counter()
        for _ in range(5000):
            nvars, m = rng.randint(0, 6), rng.randint(0, 5)
            a = [[rng.randint(-4, 4) for _ in range(nvars)] for _ in range(m)]
            b = [rng.randint(-4, 4) for _ in range(m)]
            got = lp._solve_eq_nonneg(a, b, nvars)
            assert got == generator_bland_solve(a, b, nvars, seen), (a, b, nvars)
            verdicts[got is None] += 1
        assert seen["p != d"] > 2000 and seen["tie"] > 300, seen
        assert seen["p == d == 1"] > 200 and seen["p == d > 1"] > 100, seen
        assert min(verdicts.values()) > 1000, verdicts


def _plant_row(rng, a, b, kind):
    """Insert a row that no y >= 0 meets: a nonzero rhs and coefficients of
    the other sign or zero ("one-sign"), or all zero ("zero")."""
    s = rng.choice([1, -1])
    row = [F(0) if kind == "zero"
           else -s * Fraction(rng.randint(0, 4), rng.choice([1, 1, 2, 3])) for _ in a[0]]
    at = rng.randint(0, len(a))
    a.insert(at, row)
    b.insert(at, s * Fraction(rng.randint(1, 5), rng.choice([1, 1, 2])))


class TestInfeasibleRowPresolve:
    """The presolve may end a solve early only where the Fraction simplex,
    which has no presolve, reports infeasibility too; every other system
    keeps its simplex witness."""

    def test_planted_rows_against_the_fraction_simplex(self):
        rng = random.Random(1995)
        seen = {"one-sign": 0, "zero": 0}
        for _ in range(400):
            a, b = _random_system(rng)
            kind = rng.choice(["one-sign", "zero"])
            _plant_row(rng, a, b, kind)
            system = int_system(a, b)
            assert one_sign_row(a, b) and presolve_certifies(system)
            assert system.solve() is None
            assert reference_solve_eq_nonneg(a, b) is None
            seen[kind] += 1
        assert min(seen.values()) > 100, seen

    def test_int_systems_certified_or_not(self):
        rng = random.Random(71)
        verdicts = {"certified": 0, "feasible": 0, "infeasible by the simplex": 0}
        for _ in range(600):
            nvars = rng.randint(1, 5)
            a = [[rng.randint(-2, 2) for _ in range(nvars)] for _ in range(rng.randint(1, 4))]
            b = [rng.randint(-3, 3) for _ in a]
            system = FeasibilitySystem(tuple(map(tuple, a)), tuple(b), nvars)
            y = as_fractions(system.solve())
            assert y == reference_solve(system)
            if presolve_certifies(system):
                assert y is None
                verdicts["certified"] += 1
            else:
                verdicts["feasible" if y is not None else "infeasible by the simplex"] += 1
        assert min(verdicts.values()) > 50, verdicts

    def test_zero_rows(self):
        for n in (0, 1, 3):
            zero = (0,) * n
            for r in (1, -1):
                assert FeasibilitySystem((zero,), (r,), n).solve() is None
                assert reference_solve_eq_nonneg([zero], [r]) is None
            assert FeasibilitySystem((zero,), (0,), n).solve() == ([0] * n, 1)

    def test_meet_systems_of_cone_triples(self, monkeypatch):
        # c1 and c2 on opposite sides of x_k = 0 (c2 possibly inside it):
        # the meet system is certified; arbitrary triples are compared too,
        # and the pair systems certified beyond the row rule are counted
        tableaux = []
        solve = lp._solve_eq_nonneg

        def recorded(a, b, n):
            tableaux.append(([tuple(row) for row in a], list(b), n))
            return solve(a, b, n)
        monkeypatch.setattr(lp, "_solve_eq_nonneg", recorded)
        rng = random.Random(1512)
        seen = {"separated": 0, "certified": 0, "meets": 0, "apart": 0}
        repeats = beyond_rows = interiors = 0
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
            system = meet_system([c1, c2, v])
            x = as_fractions(system.solve())
            assert x == reference_solve(system)
            assert (relints_meet_in(c1, c2, v) is None) == (x is None)
            # the shifted system is the one the Fraction simplex makes of the
            # unshifted reference, so the int simplex gets the same tableau,
            # takes the same pivots and returns the same witness
            solved = []
            for triple in ([c1, c2, v], [c1, v], [c2, v]):
                new = meet_system(triple)
                old = reference_meet_system([c._ints for c in triple], n, 0)
                assert new.equalities == old.equalities
                assert new.rhs == shifted_rhs(old)
                assert new.nvars == len(old.lower_bounds)
                a, b, _ = reference_shift(old)
                tableaux.clear()
                y = new.solve()
                # only the first solve of a system no certificate settles
                # reaches the simplex: [c2, v] is the kept [c1, v] when c2 has
                # c1's generators in c1's order
                assert new.certified_infeasible == certifies(triple)
                assert new.certified_infeasible >= presolve_certifies(old)
                assert new.interior_point == interior(triple)
                beyond_rows += new.certified_infeasible > presolve_certifies(old)
                interiors += new.interior_point
                repeat = any(new is s for s in solved)
                repeats += repeat
                solved.append(new)
                assert tableaux == ([] if new.certified_infeasible or new.interior_point or repeat
                                    else [(list(map(tuple, a)), b, new.nvars)])
                want = reference_solve(old)
                assert (y is None) == (want is None)
                if new.interior_point:
                    assert y == ([], 1)
                elif y is not None:
                    assert tuple(x + lb for x, lb in zip(as_fractions(y), old.lower_bounds)) == want
            assert relints_meet_in(c1, c2, v) == reference_relints_meet_in(c1, c2, v)
            assert relints_meet_in(c1, None, v) == reference_relints_meet_in(c1, None, v)
            if separated:
                assert presolve_certifies(system) and x is None
                seen["separated"] += 1
            else:
                seen["certified"] += presolve_certifies(system)
                seen["meets" if x is not None else "apart"] += 1
        assert min(seen.values()) > 20, seen
        assert repeats > 0 and beyond_rows > 0 and interiors > 20, interiors


def _signed_cone(rng, n):
    """A cone of 0-4 generators whose axes each carry entries of both
    signs, of one sign, or none, so one-signed rows and zero axes are
    common."""
    signs = [rng.choice([(-2, -1, 0, 1, 2), (0, 1, 2), (-2, -1, 0), (0,)]) for _ in range(n)]
    return Cone(n, [[rng.choice(s) for s in signs] for _ in range(rng.randint(0, 4))])


class TestSignMaskPresolve:
    """``_meet_system`` and ``_pair_systems`` settle the infeasible-row rule
    from each cone's sign masks; the reference applies it row by row to
    the system built from the generators with the bounds shifted out.  A
    pair is certified by the hyperplane index too, whose axis case the
    rule against the second cone is."""

    def test_masks_agree_with_the_row_rule(self):
        rng = random.Random(1995)
        seen = {"certified": 0, "left": 0, "pair 0-1 only": 0, "pair 0-2 only": 0}
        index_only = 0
        zero_at = set()
        for _ in range(4000):
            n = rng.randint(1, 4)
            cones = [_signed_cone(rng, n) for _ in range(rng.choice([2, 3]))]
            ref = reference_meet_system([c._ints for c in cones], n, 0)
            system = meet_system(cones)
            assert system.certified_infeasible == certifies(cones)
            if system.certified_infeasible and not presolve_certifies(ref):
                index_only += 1
                continue
            assert system.certified_infeasible == presolve_certifies(ref)
            seen["certified" if system.certified_infeasible else "left"] += 1
            zero_at |= {(len(cones), i) for i, c in enumerate(cones) if c.is_zero}
            if len(cones) == 3 and system.certified_infeasible:
                pairs = [presolve_certifies(reference_meet_system(
                    [cones[0]._ints, cones[i]._ints], n, 1 if i == 1 else 0)) for i in (1, 2)]
                if pairs != [True, True]:
                    seen[f"pair 0-{pairs.index(True) + 1} only"] += 1
        assert min(seen.values()) > 100 and index_only > 5, (seen, index_only)
        assert zero_at == {(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)}

    def test_only_systems_the_rule_leaves_reach_the_simplex(self, monkeypatch):
        tableaux = []
        solve = lp._solve_eq_nonneg

        def recorded(a, b, n):
            tableaux.append(([tuple(row) for row in a], list(b), n))
            return solve(a, b, n)
        monkeypatch.setattr(lp, "_solve_eq_nonneg", recorded)
        rng = random.Random(2015)
        verdicts = set()
        for _ in range(1500):
            n = rng.randint(1, 3)
            cones = [_signed_cone(rng, n) for _ in range(rng.choice([2, 3]))]
            ref = reference_meet_system([c._ints for c in cones], n, 0)
            system = meet_system(cones)
            tableaux.clear()
            y = system.solve()
            assert system.interior_point == interior(cones)
            if system.certified_infeasible:
                # settled with no row built
                assert y is None and tableaux == [] and callable(system._rows)
            elif system.interior_point:
                # settled feasible with no row built, and no point named
                assert y == ([], 1) and tableaux == [] and callable(system._rows)
            else:
                a, b, _ = reference_shift(ref)
                assert tableaux == [(list(map(tuple, a)), b, system.nvars)]
            want = reference_solve(system)
            assert (want is not None) if system.interior_point else as_fractions(y) == want
            assert system.equalities == ref.equalities
            assert system.rhs == shifted_rhs(ref)
            verdicts.add((system.certified_infeasible, system.interior_point, y is None))
        assert verdicts == {(True, False, True), (False, True, False),
                            (False, False, True), (False, False, False)}


def test_solve_is_the_only_lp_entry_point():
    # the benchmark counts LPs at FeasibilitySystem.solve, so a module that
    # reached the simplex another way would solve LPs nobody counts; and
    # cones builds every system outside lp, one builder per system shape:
    # _meet_system for relint(C) ∩ V, _pair_systems for a CF2 pair
    paths = sorted(Path(lp.__file__).parent.glob("*.py"))
    assert {"cones.py", "spherical.py"} <= {p.name for p in paths}
    internal = {node.name for node in ast.walk(ast.parse(Path(lp.__file__).read_text()))
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                and not node.name.startswith("__")}
    assert internal == {"_solve_eq_nonneg", "_built_rows"}
    builders = []
    for path in paths:
        if path.name != "lp.py":
            text = path.read_text()
            assert not any(name in text for name in internal), path.name
            builders += [(path.name, where) for where in _constructions(ast.parse(text))]
    assert builders == [("cones.py", "_meet_system"), ("cones.py", "_pair_systems")]


def _constructions(tree, where=None):
    """The enclosing function name of every ``FeasibilitySystem(...)`` or
    ``FeasibilitySystem.deferred(...)`` call, however qualified."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _constructions(node, where or getattr(node, "name", "<lambda>"))
            continue
        if isinstance(node, ast.Call) and "FeasibilitySystem" in ast.unparse(node.func).split("."):
            yield where
        yield from _constructions(node, where)


class TestCrossCheck:
    def test_hook_replays_through_fm(self, monkeypatch):
        replays = []
        fm = fourier_motzkin.feasible

        def count(equalities, rhs, nvars):
            replays.append((equalities, rhs, nvars))
            return fm(equalities, rhs, nvars)
        monkeypatch.setattr(fourier_motzkin, "feasible", count)
        sys_ = FeasibilitySystem(((1, -1),), (0,), 2)
        lp.set_oracle_cross_check(True)
        try:
            assert sys_.solve() == ([0, 0], 1)
        finally:
            lp.set_oracle_cross_check(False)
        # the oracle reads the system's own rows
        assert replays == [(((1, -1),), (0,), 2)]


FEASIBLE = (((1, 1),), (2,))
INFEASIBLE = (((1, 1),), (-1,))

# (kind, system maker, certified_infeasible, interior_point, answer, source)
KINDS = [
    ("certified no", lambda: FeasibilitySystem.deferred(2, lambda: INFEASIBLE, True, False),
     True, False, None, "certificate"),
    ("interior point", lambda: FeasibilitySystem.deferred(2, lambda: FEASIBLE, False, True),
     False, True, ([], 1), "interior point"),
    ("simplex yes", lambda: FeasibilitySystem(*FEASIBLE, 2), False, False, ([2, 0], 1), "simplex"),
    ("simplex no", lambda: FeasibilitySystem(*INFEASIBLE, 2), False, False, None, "simplex"),
]


@pytest.mark.parametrize("kind, make, certified, interior, answer, source", KINDS,
                         ids=[k[0] for k in KINDS])
class TestFourKindsOfSystem:
    """A system certified infeasible, one certified by an interior point,
    and one the simplex solves either way: the flags read the stored
    answer, each ``solve`` hands out a list of its own, the flags cannot
    be set, and the oracle names the answer's source when it disagrees."""

    def test_flags_and_answer(self, kind, make, certified, interior, answer, source):
        system = make()
        assert (system.certified_infeasible, system.interior_point) == (certified, interior)
        assert system.solve() == system.solve() == answer
        assert (system.certified_infeasible, system.interior_point) == (certified, interior)
        assert (system.equalities, system.rhs, system.nvars) == (*(
            INFEASIBLE if answer is None else FEASIBLE), 2)

    def test_each_solve_returns_its_own_list(self, kind, make, certified, interior, answer,
                                             source):
        system = make()
        first = system.solve()
        if first is not None:
            first[0].append(7)
            second = system.solve()
            assert second == answer and second[0] is not first[0]

    def test_flags_are_read_only(self, kind, make, certified, interior, answer, source):
        system = make()
        for name in ("certified_infeasible", "interior_point", "_sol", "_rows"):
            with pytest.raises(AttributeError, match="FeasibilitySystem is immutable"):
                setattr(system, name, True)
        assert system.solve() == answer

    def test_a_disagreement_names_its_source(self, kind, make, certified, interior, answer,
                                             source, monkeypatch):
        monkeypatch.setattr(fourier_motzkin, "feasible", lambda *rows: answer is None)
        system = make()
        lp.set_oracle_cross_check(True)
        try:
            with pytest.raises(lp.OracleDisagreement) as e:
                system.solve()
        finally:
            lp.set_oracle_cross_check(False)
        said, fm = ("infeasible", "feasible") if answer is None else ("feasible", "infeasible")
        assert str(e.value) == f"{source} says {said}, Fourier-Motzkin says {fm}"


class TestFourierMotzkin:
    """``feasible`` on A·y = b, y >= 0, the one shape ``lp`` holds."""

    def test_simple_box(self):
        # 1 <= y0 <= 2: y0 + y1 = 2, y0 - y2 = 1
        assert feasible(((1, 1, 0), (1, 0, -1)), (2, 1), 3)

    def test_empty_box(self):
        # 3 <= y0 <= 2
        assert not feasible(((1, 1, 0), (1, 0, -1)), (2, 3), 3)

    def test_no_constraints(self):
        assert feasible((), (), 2)

    def test_no_variables(self):
        assert feasible((), (), 0)
        assert feasible(((), ()), (0, 0), 0)
        assert not feasible(((),), (1,), 0)

    def test_constant_contradiction(self):
        # a zero row with rhs != 0 is a pivot in the rhs column
        assert not feasible(((0,),), (1,), 1)
        assert not feasible(((0, 0), (1, 1)), (-2, 1), 2)

    def test_dependent_rows(self):
        assert feasible(((1, 1), (2, 2), (-1, -1)), (1, 2, -1), 2)
        assert not feasible(((1, 1), (2, 2)), (1, 3), 2)

    def test_pivot_row_contradiction(self):
        # y0 = -1: the pivot row has no free part and a negative rhs
        assert not feasible(((1,),), (-1,), 1)
        assert not feasible(((1, 0), (0, 1)), (1, -1), 2)
        # y0 = -1 shows only after the echelon pass
        assert not feasible(((1, 1), (1, 2)), (-1, -1), 2)
        assert feasible(((1, 1), (1, 2)), (1, 1), 2)


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
    """The integer elimination, run by ``eliminate`` on general rows,
    must give the Fraction eliminator's verdict."""

    def test_random_systems(self):
        rng = random.Random(1965)
        seen = {True: 0, False: 0}
        kinds = {"zero": 0, "opposite": 0, "sum": 0, "rational": 0, "nvars=0": 0}
        for _ in range(5000):
            rows, nvars, made = random_fm_system(rng)
            got = eliminate(rows, nvars)
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
        assert not eliminate(rows, 4)

    def test_larger_systems_against_the_simplex(self):
        # past the size at which the Fraction eliminator's rows explode
        # (some systems of 8 rows in 5 variables take it seconds), so the
        # simplex gives the verdict: c . (x+ - x-) - s = r with x+, x- and
        # s >= 0, each free x written as the two columns x+ - x-
        rng = random.Random(1993)
        seen = {True: 0, False: 0}
        for _ in range(1500):
            rows, nvars, _ = random_fm_system(rng, max_rows=14, max_vars=7)
            m = len(rows)
            eqs = [[x for v in c for x in (v, -v)] + [-1 if j == i else 0 for j in range(m)]
                   for i, (c, _) in enumerate(rows)]
            system = int_system(eqs, [r for _, r in rows])
            got = eliminate(rows, nvars)
            assert got == (system.solve() is not None), (rows, nvars)
            seen[got] += 1
        assert min(seen.values()) > 300


class TestFourierMotzkinAgainstTheSimplex:
    """On the one shape, the oracle's verdict is that of the int simplex
    and of the Fraction simplex."""

    def test_random_systems(self):
        rng = random.Random(1512)
        seen = {True: 0, False: 0}
        for _ in range(3000):
            nvars = rng.randint(0, 6)
            a = [[rng.randint(-3, 3) for _ in range(nvars)] for _ in range(rng.randint(0, 5))]
            b = [rng.randint(-3, 3) for _ in a]
            if a and rng.random() < 0.3:
                # a multiple of the first row, consistent or not
                k = rng.choice([-2, -1, 2])
                a.append([k * x for x in a[0]])
                b.append(k * b[0] + rng.choice([0, 0, 1]))
            got = feasible(a, b, nvars)
            assert got == (lp._solve_eq_nonneg(a, b, nvars) is not None), (a, b, nvars)
            assert got == (reference_solve_eq_nonneg(a, b) is not None), (a, b, nvars)
            seen[got] += 1
        assert min(seen.values()) > 500, seen
