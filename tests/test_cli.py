import contextlib
import io
import json
import random
import sys
from collections import Counter
from operator import or_
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sphfan
from sphfan import docio, fourier_motzkin, lp, spherical
from sphfan.cli import build_parser, main
from sphfan.cones import Cone

from helpers import (as_inequalities, cyclic_garbage, load_perfbench, presolve_certifies,
                     reference_feasible, run_probe)
from test_readme import fenced

DATUM = """
{"kind": "datum", "version": "1",
 "payload": {"rank": 1,
             "valuation_cone": {"generators": [["1"], ["-1"]]},
             "colors": []}}
"""

P1_FAN = """
{"kind": "fan", "version": "1",
 "payload": {"cones": [{"generators": [], "colors": []},
                       {"generators": [["1"]], "colors": []},
                       {"generators": [["-1"]], "colors": []}]}}
"""

HALF_FAN = """
{"kind": "fan", "version": "1",
 "payload": {"cones": [{"generators": [["1"]], "colors": []}]}}
"""

NEGATION = """
{"kind": "action", "version": "1",
 "payload": {"elements": [{"name": "id", "matrix": [[1]], "color_perm": {}},
                          {"name": "sigma", "matrix": [[-1]], "color_perm": {}}]}}
"""

BAD_ACTION = """
{"kind": "action", "version": "1",
 "payload": {"elements": [{"name": "id", "matrix": [[1]], "color_perm": {}},
                          {"name": "g", "matrix": [[2]], "color_perm": {}}]}}
"""

PLANE_DATUM = """
{"kind": "datum", "version": "1",
 "payload": {"rank": 2,
             "valuation_cone": {"generators": [["1", "0"], ["-1", "0"],
                                               ["0", "1"], ["0", "-1"]]},
             "colors": []}}
"""

SPACE_DATUM = """
{"kind": "datum", "version": "1",
 "payload": {"rank": 3,
             "valuation_cone": {"generators": [["1", "0", "0"], ["-1", "0", "0"],
                                               ["0", "1", "0"], ["0", "-1", "0"],
                                               ["0", "0", "1"], ["0", "0", "-1"]]},
             "colors": []}}
"""

QUAD_FAN = """
{"kind": "fan", "version": "1",
 "payload": {"cones": [{"generators": [], "colors": []},
                       {"generators": [["1", "0"]], "colors": []},
                       {"generators": [["0", "1"]], "colors": []},
                       {"generators": [["1", "0"], ["0", "1"]], "colors": []}]}}
"""

PROJECTION = """
{"kind": "morphism", "version": "1",
 "payload": {"matrix": [["1", "0"]], "domain_colors": [], "color_map": {}}}
"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestValidate:
    def test_p1_passes(self, files, capsys):
        code, out = run(capsys, "validate", files("d.json", DATUM),
                        files("f.json", P1_FAN), "--strict")
        assert code == 0
        report = json.loads(out)
        assert report["overall"] == "pass"
        assert any(c["axiom"] == "SC" for c in report["checks"])

    def test_half_fan_fails_cf1(self, files, capsys):
        code, out = run(capsys, "validate", files("d.json", DATUM),
                        files("f.json", HALF_FAN))
        assert code == 1
        report = json.loads(out)
        assert any(c["axiom"] == "CF1" and c["result"] == "fail"
                   for c in report["checks"])

    def test_autocomplete_fixes_cf1(self, files, capsys):
        code, out = run(capsys, "validate", files("d.json", DATUM),
                        files("f.json", HALF_FAN), "--autocomplete")
        assert code == 0

    def test_autocomplete_is_idempotent_on_closed_fan(self, files, capsys):
        code1, out1 = run(capsys, "validate", files("d.json", DATUM),
                          files("f.json", P1_FAN), "--autocomplete")
        code2, out2 = run(capsys, "validate", files("d2.json", DATUM),
                          files("f2.json", P1_FAN))
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("datum, member", [
        # V = cone((-1)) misses the relative interior of the ray
        ('{"rank": 1, "valuation_cone": {"generators": [["-1"]]}, "colors": []}',
         '{"generators": [["1"]], "colors": []}'),
        # rho(a) lies outside the ray, whose face keeps no color
        ('{"rank": 1, "valuation_cone": {"generators": [["1"], ["-1"]]},'
         ' "colors": [{"name": "a", "rho": ["-1"]}]}',
         '{"generators": [["1"]], "colors": ["a"]}'),
    ])
    def test_autocomplete_reports_a_dropped_member(self, files, capsys, datum, member):
        d = files("d.json", f'{{"kind": "datum", "version": "1", "payload": {datum}}}')
        f = files("f.json", f'{{"kind": "fan", "version": "1", "payload": {{"cones": [{member}]}}}}')
        plain_code, plain = run(capsys, "validate", d, f)
        code, out = run(capsys, "validate", d, f, "--autocomplete")
        assert plain_code == code == 1
        failing = [c for c in json.loads(plain)["checks"]
                   if c["subject"] == "cone[0]" and c["axiom"] in ("CC1", "CC2")
                   and c["result"] == "fail"]
        checks = json.loads(out)["checks"]
        assert failing and checks[:len(failing)] == [dict(c, subject="input[0]") for c in failing]
        # the closure itself, the zero cone, passes
        assert all(c["result"] == "pass" for c in checks[len(failing):])
        assert json.loads(out)["overall"] == "fail"

    @pytest.mark.parametrize("command", [["validate"], ["validate", "--autocomplete"],
                                         ["faces"]],
                             ids=["validate", "validate --autocomplete", "faces"])
    def test_leaves_no_cyclic_garbage(self, files, capsys, command):
        """An in-process run on the colored P1^3 fan given by its maximal
        cones leaves only the reference cycles of the standard library's
        parts: the argument parser ``main`` builds and the indenting JSON
        encoder of ``dump_json``.  The datum, its V, the face table and
        the meet systems it keeps are freed by reference counting."""
        inputs = load_perfbench("inputs")
        f = inputs.p1_fan(random.Random(1), 3, 3, 3)
        argv = [command[0], files("d.json", docio.serialize_datum(inputs.build_p1_datum(f))),
                files("f.json", docio.serialize_fan(
                    sphfan.ColoredFan(inputs.build_p1_cones(f, maximal_only=True))))]
        argv += command[1:]
        garbage = cyclic_garbage(main, argv)
        report = json.loads(capsys.readouterr().out)
        stdlib = (cyclic_garbage(lambda: build_parser().parse_args(argv))
                  + cyclic_garbage(docio.dump_json, report))
        assert garbage == stdlib

    @pytest.mark.parametrize("n_colored", [1, 2, 3])
    def test_autocomplete_runs_cf2_once(self, files, capsys, monkeypatch, n_colored):
        """The colored P1^3 fan given by its 8 maximal cones closes to 27
        members.  One CF2 pass over them is C(27, 2) = 351 solves; the CC2
        tests are 27; CF1 tests the 1 + 6·2 + 12·4 + 8·8 = 125 faces of
        the closure's members and the closure the 8·8 = 64 faces of the
        input members: 351 + 27 + 125 + 64 = 567.  A second CF2 pass would
        add 351."""
        inputs = load_perfbench("inputs")
        f = inputs.p1_fan(random.Random(1), 3, 3, n_colored)
        d = inputs.build_p1_datum(f)
        fan = sphfan.ColoredFan(inputs.build_p1_cones(f, maximal_only=True))
        argv = ["validate", files("d.json", docio.serialize_datum(d)),
                files("f.json", docio.serialize_fan(fan)), "--autocomplete"]
        solves = []
        solve = lp.FeasibilitySystem.solve

        def count(system):
            solves.append(system)
            return solve(system)
        monkeypatch.setattr(lp.FeasibilitySystem, "solve", count)
        code, out = run(capsys, *argv)
        assert len(solves) == 567
        # CC1 and CC2 per member, then CF1 and CF2 of the fan
        checks = json.loads(out)["checks"]
        assert code == 0 and len(checks) == 2 * 27 + 2
        assert all(c["result"] == "pass" for c in checks)

    def test_parse_error_exits_2(self, files, capsys):
        code, _ = run(capsys, "validate", files("d.json", DATUM),
                      files("f.json", "{bad"))
        assert code == 2

    def test_entry_with_a_trailing_newline_exits_2(self, files, capsys):
        doc = json.loads(DATUM)
        doc["payload"]["valuation_cone"]["generators"][0] = ["1\n"]
        text = json.dumps(doc)
        with pytest.raises(docio.ParseError, match=r"not a rational literal: '1\\n'"):
            docio.parse_datum(text)
        code = main(["validate", files("d.json", text), files("f.json", P1_FAN)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("sphfan: error: not a rational literal")

    def test_missing_file_exits_2(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00")
        for path, reason in (("/nonexistent/fan.json", "No such file"),
                             (str(bad), "not UTF-8 text")):
            code = main(["validate", files("d.json", DATUM), path])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.startswith(f"sphfan: error: cannot read {path}: {reason}")
            assert "Traceback" not in captured.err

    def test_reports_are_deterministic(self, files, capsys):
        d = files("d.json", DATUM)
        f = files("f.json", P1_FAN)
        _, out1 = run(capsys, "validate", d, f)
        _, out2 = run(capsys, "validate", d, f)
        assert out1 == out2

    def test_oracle_flag(self, files, capsys):
        code, _ = run(capsys, "--oracle", "validate", files("d.json", DATUM),
                      files("f.json", P1_FAN))
        assert code == 0


class TestFaces:
    def test_lists_faces_sorted_by_dimension(self, files, capsys):
        code, out = run(capsys, "faces", files("d.json", PLANE_DATUM),
                        files("f.json", QUAD_FAN), "--cone", "3")
        assert code == 0
        report = json.loads(out)
        dims = [f["dim"] for f in report["faces"]]
        assert dims == sorted(dims)
        assert len(report["faces"]) == 4

    def test_restricted_cone_reports_its_fan_index(self, files, capsys):
        d, f = files("d.json", PLANE_DATUM), files("f.json", QUAD_FAN)
        code, out = run(capsys, "faces", d, f, "--cone", "3")
        assert code == 0
        report = json.loads(out)
        assert {c["subject"] for c in report["checks"]} == {"cone[3]"}
        assert {face["of"] for face in report["faces"]} == {3}
        # the same faces and checks as member 3 of the unrestricted listing
        _, full = run(capsys, "faces", d, f)
        full = json.loads(full)
        assert report["faces"] == [x for x in full["faces"] if x["of"] == 3]
        assert report["checks"] == [c for c in full["checks"] if c["subject"] == "cone[3]"]

    def test_invalid_cone_exits_1(self, files, capsys):
        datum = DATUM.replace('["1"], ["-1"]', '["1"]')
        fan = HALF_FAN.replace('[["1"]]', '[["-1"]]')
        code, out = run(capsys, "faces", files("d.json", datum),
                        files("f.json", fan))
        assert code == 1
        report = json.loads(out)
        assert any(c["result"] == "fail" for c in report["checks"])

    def test_index_out_of_range(self, files, capsys):
        code, _ = run(capsys, "faces", files("d.json", DATUM),
                      files("f.json", P1_FAN), "--cone", "9")
        assert code == 2

    def test_one_face_table_per_call(self, files, capsys, monkeypatch):
        """The complete colored P1^3 fan (27 members): the listed cones'
        reports and colored faces come from one face table over them, so
        each (member, color) is located once, by one ``Cone._carrier``;
        two tables per cone would make 54 tables and 54 rho tests.  The 152
        ``solve()`` calls are the 27 CC2 tests and the 125 face tests of
        the members, and the listing is the one ``validate_colored_cone``
        and ``colored_faces`` give."""
        inputs = load_perfbench("inputs")
        f = inputs.p1_fan(random.Random(1), 3, 3, 3)
        d, fan = inputs.build_p1_datum(f), sphfan.ColoredFan(inputs.build_p1_cones(f))
        argv = ["faces", files("d.json", docio.serialize_datum(d)),
                files("f.json", docio.serialize_fan(fan))]
        calls = Counter()

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(owner, name, wrapper)
        for owner, name in ((spherical._FaceTable, "__init__"), (Cone, "_carrier"),
                            (lp.FeasibilitySystem, "solve")):
            counted(owner, name)
        code, out = run(capsys, *argv)
        assert code == 0
        assert calls == {"__init__": 1, "_carrier": 27, "solve": 152}
        monkeypatch.undo()
        faces = [{"of": i, "dim": face.cone.dim,
                  "generators": [list(map(str, g)) for g in face.cone._ints],
                  "colors": sorted(face.palette)}
                 for i, cc in enumerate(fan) for face in spherical.colored_faces(d, cc)]
        report = json.loads(out)
        assert report["faces"] == sorted(faces, key=lambda x: (x["dim"], x["of"]))
        assert [c["result"] for c in report["checks"]] == ["pass"] * 54
        assert all(spherical.validate_colored_cone(d, cc).ok for cc in fan)

    def test_a_face_two_listed_cones_share_runs_one_simplex(self, files, capsys, monkeypatch):
        """V = cone((1, 1), (1, -1)), a proper cone, and two listed cones
        that share the ray (0, 1): its generator sum lies outside V and no
        sign mask sets it apart, so only the simplex decides its face test.
        The one face table of the call tests it once, as a V that kept one
        system per generator tuple did: one simplex run for the 10
        ``solve()`` calls (2 CC2 tests and 8 face tests; every other system
        is certified)."""
        datum = """
        {"kind": "datum", "version": "1",
         "payload": {"rank": 2,
                     "valuation_cone": {"generators": [["1", "1"], ["1", "-1"]]},
                     "colors": [{"name": "a", "rho": ["0", "1"]}]}}
        """
        fan = """
        {"kind": "fan", "version": "1",
         "payload": {"cones": [{"generators": [["0", "1"], ["1", "0"]], "colors": ["a"]},
                               {"generators": [["0", "1"], ["2", "1"]], "colors": ["a"]}]}}
        """
        calls = Counter()
        solve, simplex = lp.FeasibilitySystem.solve, lp._solve_eq_nonneg
        monkeypatch.setattr(lp.FeasibilitySystem, "solve",
                            lambda system: calls.update(["solve"]) or solve(system))
        monkeypatch.setattr(lp, "_solve_eq_nonneg",
                            lambda *args: calls.update(["simplex"]) or simplex(*args))
        code, out = run(capsys, "faces", files("d.json", datum), files("f.json", fan))
        assert code == 0
        assert calls == {"solve": 10, "simplex": 1}
        # the shared ray misses V, so neither cone lists it
        listed = [(f["of"], f["generators"]) for f in json.loads(out)["faces"]]
        assert listed == [(0, []), (1, []), (0, [["1", "0"]]), (1, [["2", "1"]]),
                          (0, [["0", "1"], ["1", "0"]]), (1, [["0", "1"], ["2", "1"]])]


class TestInvariant:
    def test_p1_invariant(self, files, capsys):
        code, out = run(capsys, "invariant", files("d.json", DATUM),
                        files("f.json", P1_FAN), files("a.json", NEGATION))
        assert code == 0
        report = json.loads(out)
        assert report["overall"] == "pass"

    def test_half_fan_not_invariant(self, files, capsys):
        code, out = run(capsys, "invariant", files("d.json", DATUM),
                        files("f.json", HALF_FAN), files("a.json", NEGATION))
        assert code == 1
        report = json.loads(out)
        assert any(c["axiom"] == "INV" and c["result"] == "fail"
                   for c in report["checks"])

    def test_closure_emits_p1_fan(self, files, capsys):
        code, out = run(capsys, "invariant", files("d.json", DATUM),
                        files("f.json", HALF_FAN), files("a.json", NEGATION),
                        "--closure")
        doc = json.loads(out)
        assert doc["kind"] == "fan"
        assert len(doc["payload"]["cones"]) == 3

    def test_bad_action_fails_act(self, files, capsys):
        code, out = run(capsys, "invariant", files("d.json", DATUM),
                        files("f.json", P1_FAN), files("a.json", BAD_ACTION))
        assert code == 1
        report = json.loads(out)
        assert any(c["axiom"] == "ACT" and c["result"] == "fail"
                   for c in report["checks"])


    def test_closure_of_an_infinite_order_element_exits_1(self, files, capsys):
        shear = BAD_ACTION.replace("[[1]]", "[[1, 0], [0, 1]]").replace(
            "[[2]]", "[[1, 1], [0, 1]]")
        code, out = run(capsys, "invariant", files("d.json", PLANE_DATUM),
                        files("f.json", QUAD_FAN), files("a.json", shear),
                        "--closure")
        assert code == 1
        report = json.loads(out)
        assert {"axiom": "ACT", "subject": "closed", "result": "fail"} in report["checks"]


class TestMorphism:
    def test_identity(self, files, capsys):
        ident = PROJECTION.replace('[["1", "0"]]', '[["1", "0"], ["0", "1"]]')
        code, out = run(capsys, "morphism", files("sd.json", PLANE_DATUM),
                        files("td.json", PLANE_DATUM), files("m.json", ident),
                        files("sf.json", QUAD_FAN), files("tf.json", QUAD_FAN))
        assert code == 0

    def test_projection_onto_p1(self, files, capsys):
        code, out = run(capsys, "morphism", files("sd.json", PLANE_DATUM),
                        files("td.json", DATUM), files("m.json", PROJECTION),
                        files("sf.json", QUAD_FAN), files("tf.json", P1_FAN))
        assert code == 0
        report = json.loads(out)
        assert all(c["result"] == "pass" for c in report["checks"])

    def test_projection_onto_trivial_fan_fails(self, files, capsys):
        trivial = '{"kind": "fan", "version": "1", "payload": {"cones": [{"generators": [], "colors": []}]}}'
        code, out = run(capsys, "morphism", files("sd.json", PLANE_DATUM),
                        files("td.json", DATUM), files("m.json", PROJECTION),
                        files("sf.json", QUAD_FAN), files("tf.json", trivial))
        assert code == 1


class TestMaxDim:
    def test_rank_cap(self, files, capsys, monkeypatch):
        monkeypatch.setenv("SPHFAN_MAX_DIM", "1")
        code, _ = run(capsys, "validate", files("d.json", PLANE_DATUM),
                      files("f.json", QUAD_FAN))
        assert code == 2

    def test_default_cap_allows_rank_2(self, files, capsys, monkeypatch):
        monkeypatch.delenv("SPHFAN_MAX_DIM", raising=False)
        code, _ = run(capsys, "validate", files("d.json", PLANE_DATUM),
                      files("f.json", QUAD_FAN))
        assert code == 0


class TestDecodeLimits:
    def test_integer_past_the_digit_limit_exits_2(self, files, capsys):
        datum = DATUM.replace('"rank": 1', '"rank": 1' + "0" * 5000)
        code, out = run(capsys, "validate", files("d.json", datum),
                        files("f.json", P1_FAN))
        assert code == 2 and out == ""

    def test_deep_nesting_exits_2(self, files, capsys):
        deep = "[" * 100_000 + "]" * 100_000
        code, out = run(capsys, "validate", files("d.json", DATUM),
                        files("f.json", deep))
        assert code == 2 and out == ""

    @pytest.mark.parametrize("command", ["validate", "faces"])
    def test_result_past_the_digit_limit_exits_2(self, files, capsys, command):
        # each denominator is read (3,914 / 3,817 / 3,845 digits), but the
        # ray's primitive generator, which the CC2 witness is, has entries
        # of about 7,700 digits, past the limit for writing them
        ray = [f"1/{d}" for d in (2 ** 13000, 3 ** 8000, 5 ** 5500)]
        fan = json.dumps({"kind": "fan", "version": "1", "payload": {
            "cones": [{"generators": [ray], "colors": []}]}})
        code = main([command, files("d.json", SPACE_DATUM), files("f.json", fan)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("sphfan: error:")
        assert f"more than {sys.get_int_max_str_digits()} digits" in captured.err


COLORED_DATUM = """
{"kind": "datum", "version": "1",
 "payload": {"rank": 2,
             "valuation_cone": {"generators": [["1", "0"], ["-1", "0"],
                                               ["0", "1"], ["0", "-1"]]},
             "colors": [{"name": "a", "rho": ["1", "0"]},
                        {"name": "b", "rho": ["0", "1"]}]}}
"""


def _action(*elements):
    return json.dumps({"kind": "action", "version": "1",
                       "payload": {"elements": [
                           {"name": name, "matrix": matrix, "color_perm": perm}
                           for name, matrix, perm in elements]}})


ID_MATRIX = [[1, 0], [0, 1]]
ID_PERM = {"a": "a", "b": "b"}


@pytest.mark.parametrize("command, document", [
    ("invariant", _action(("id", [[1, 0], [0]], ID_PERM))),
    ("invariant", _action(("g", ID_MATRIX, ID_PERM),
                          ("g", [[0, 1], [1, 0]], {"a": "b", "b": "a"}))),
    ("invariant", _action(("id", ID_MATRIX, {"a": "a", "b": "a"}))),
    ("morphism", PROJECTION.replace('[["1", "0"]]', '[["1", "0"], ["0"]]')),
], ids=["ragged-action-matrix", "duplicate-element-name", "color-perm-not-a-permutation",
        "ragged-morphism-matrix"])
def test_malformed_action_or_morphism_exits_2(files, capsys, command, document):
    datum = files("d.json", COLORED_DATUM)
    fan = files("f.json", QUAD_FAN)
    if command == "invariant":
        argv = ["invariant", datum, fan, files("a.json", document)]
    else:
        argv = ["morphism", datum, datum, files("m.json", document), fan, fan]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("sphfan: error:")


class TestOracleOnBenchmarkDocuments:
    """The ``--oracle`` validate calls of the benchmark's ``cli_twisted``
    workload: every Fourier-Motzkin system they replay gets the reference
    eliminator's verdict, and the flag changes no byte of stdout."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seed(self, seed, tmp_path, capsys, monkeypatch):
        load_perfbench("inputs")
        workloads = load_perfbench("workloads")
        calls = workloads.cli_twisted(random.Random(seed), str(tmp_path))
        argvs = [c.argv for c in calls if c.argv[0] == "--oracle"]
        assert len(argvs) == 7
        systems = {}
        feasible = fourier_motzkin.feasible

        def record(equalities, rhs, nvars):
            verdict = feasible(equalities, rhs, nvars)
            systems[equalities, rhs, nvars] = verdict
            return verdict
        monkeypatch.setattr(fourier_motzkin, "feasible", record)
        for argv in argvs:
            with_oracle = run(capsys, *argv)
            assert with_oracle[0] == 1
            assert with_oracle == run(capsys, *argv[1:])
        assert {True, False} <= set(systems.values())
        for (equalities, rhs, nvars), verdict in systems.items():
            assert verdict == reference_feasible(as_inequalities(equalities, rhs, nvars), nvars)


def test_repeated_key_exits_2(files, capsys):
    datum = files("d.json", DATUM.replace('"rank": 1', '"rank": 3, "rank": 1'))
    code = main(["faces", datum, files("f.json", P1_FAN)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("sphfan: error: repeated key 'rank'")


def test_repeated_member_exits_2(files, capsys):
    # merged, member 3 would be reported as cone[2] and be out of range
    datum = files("d.json", DATUM.replace('["1"], ["-1"]', '["-1"]'))
    fan = files("f.json", json.dumps({"kind": "fan", "version": "1", "payload": {"cones": [
        {"generators": [[g]], "colors": []} for g in (0, 1, 2, -1)]}}))
    for argv in (["validate", datum, fan], ["faces", datum, fan, "--cone", "3"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("sphfan: error: repeated cone: an earlier member has the "
                                "same cone and colors (field $.payload.cones[2])\n")


P1_SQUARED_WITH_A_RAY = json.dumps({"kind": "fan", "version": "1", "payload": {"cones": [
    {"generators": gens, "colors": []}
    for gens in ([], [[1, 0]], [[-1, 0]], [[0, 1]], [[0, -1]],
                 [[1, 0], [0, 1]], [[1, 0], [0, -1]], [[-1, 0], [0, 1]], [[-1, 0], [0, -1]],
                 [[1, 1]])]}})


class TestOracleCoversThePresolve:
    """``--oracle`` replays the verdicts that the certificates settle (the
    infeasible-row presolve, the hyperplane index of the CF2 pass and the
    interior point), like every other verdict; only the replay builds
    their rows, and a disagreement names the verdict's source."""

    @pytest.fixture
    def argv(self, files):
        return ["--oracle", "validate", files("d.json", PLANE_DATUM),
                files("f.json", P1_SQUARED_WITH_A_RAY)]

    @pytest.fixture
    def solved(self, monkeypatch):
        systems = []
        solve = lp.FeasibilitySystem.solve

        def record(system):
            systems.append(system)
            return solve(system)
        monkeypatch.setattr(lp.FeasibilitySystem, "solve", record)
        return systems

    def test_every_solve_is_replayed(self, argv, solved, capsys, monkeypatch):
        replays = []
        feasible = fourier_motzkin.feasible

        def count(equalities, rhs, nvars):
            replays.append(nvars)
            return feasible(equalities, rhs, nvars)
        monkeypatch.setattr(fourier_motzkin, "feasible", count)
        code, out = run(capsys, *argv)
        assert code == 1
        failures = [c for c in json.loads(out)["checks"]
                    if c["axiom"] == "CF2" and c["result"] == "fail"]
        assert [c["subject"] for c in failures] == ["cone[5]∩cone[9]"]
        assert len(replays) == len(solved)
        # the presolve settles all C(10, 2) CF2 pairs but the one that meets,
        # so the hyperplane index has none left to settle
        assert sum(map(presolve_certifies, solved)) == 44

    def test_rows_are_built_only_when_read(self, argv, solved, capsys):
        # 82 solve() calls: 10 CC2 tests, 27 face occurrences (1 for {0},
        # 2 for each of the 5 rays, 4 for each of the 4 quadrants) and
        # C(10, 2) = 45 CF2 pairs.  V = Q^2 holds every generator sum, so
        # each CC2 and face system is certified by the interior point
        code, out = run(capsys, *argv[1:])
        assert (code, out) == run(capsys, *argv)
        without_oracle, with_oracle = solved[:len(solved) // 2], solved[len(solved) // 2:]
        certified = [s.certified_infeasible for s in without_oracle]
        interior = [s.interior_point for s in without_oracle]
        assert certified == [s.certified_infeasible for s in with_oracle]
        assert interior == [s.interior_point for s in with_oracle]
        assert (len(without_oracle), sum(certified), sum(interior)) == (82, 44, 37)
        # without the oracle a certified system builds no row and every
        # other one is built by the simplex; the replay reads them all
        assert [callable(s._rows) for s in without_oracle] == list(map(or_, certified, interior))
        assert not any(callable(s._rows) for s in with_oracle)
        assert certified == list(map(presolve_certifies, without_oracle))

    def test_a_certified_verdict_is_cross_checked(self, argv, solved, capsys, monkeypatch):
        monkeypatch.setattr(fourier_motzkin, "feasible", lambda equalities, rhs, nvars: True)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sphfan: oracle disagreement: certificate says infeasible")
        assert presolve_certifies(solved[-1])
        lp.set_oracle_cross_check(True)
        try:
            with pytest.raises(lp.OracleDisagreement):
                solved[-1].solve()
        finally:
            lp.set_oracle_cross_check(False)

    def test_an_interior_point_verdict_is_cross_checked(self, argv, solved, capsys,
                                                        monkeypatch):
        # --autocomplete closes the fan first, so the first solve() is the
        # face test of {0}, whose generator sum 0 lies in V: certified
        # feasible with no simplex run, and still replayed
        monkeypatch.setattr(fourier_motzkin, "feasible", lambda equalities, rhs, nvars: False)
        assert main(argv + ["--autocomplete"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sphfan: oracle disagreement: interior point says feasible")
        assert len(solved) == 1 and solved[0].interior_point
        assert lp._solve_eq_nonneg(solved[0].equalities, solved[0].rhs,
                                   solved[0].nvars) is not None
        lp.set_oracle_cross_check(True)
        try:
            with pytest.raises(lp.OracleDisagreement):
                solved[0].solve()
        finally:
            lp.set_oracle_cross_check(False)


# ------------------------------------------------------ exit-code fuzzing

FUZZ_DATUM = {"kind": "datum", "version": "1", "payload": {
    "rank": 2,
    "valuation_cone": {"generators": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]},
    "colors": [{"name": "a", "rho": ["1", "0"]}, {"name": "b", "rho": [0, "1/2"]}]}}

FUZZ_FAN = {"kind": "fan", "version": "1", "payload": {"cones": [
    {"generators": [], "colors": []},
    {"generators": [["1", "0"]], "colors": ["a"]},
    {"generators": [["1", "0"], ["0", "1"]], "colors": ["a", "b"]},
    {"generators": [["-2", "1"]], "colors": []}]}}

FUZZ_ACTION = {"kind": "action", "version": "1", "payload": {"elements": [
    {"name": "id", "matrix": [[1, 0], [0, 1]], "color_perm": {"a": "a", "b": "b"}},
    {"name": "s", "matrix": [[0, 1], [1, 0]], "color_perm": {"a": "b", "b": "a"}}]}}

FUZZ_LINE_DATUM = {"kind": "datum", "version": "1", "payload": {
    "rank": 1, "valuation_cone": {"generators": [["1"], ["-1"]]},
    "colors": [{"name": "c", "rho": ["1"]}]}}

FUZZ_LINE_FAN = {"kind": "fan", "version": "1", "payload": {"cones": [
    {"generators": [], "colors": []}, {"generators": [["1"]], "colors": ["c"]}]}}

FUZZ_MORPHISM = {"kind": "morphism", "version": "1", "payload": {
    "matrix": [["1", "0"]], "domain_colors": ["a"], "color_map": {"a": "c"}}}

# argv before the document paths, argv after them, and the base documents
FUZZ_COMMANDS = [
    (["validate"], [], [FUZZ_DATUM, FUZZ_FAN]),
    (["validate"], ["--strict", "--autocomplete"], [FUZZ_DATUM, FUZZ_FAN]),
    (["--oracle", "validate"], [], [FUZZ_DATUM, FUZZ_FAN]),
    (["faces"], [], [FUZZ_DATUM, FUZZ_FAN]),
    (["invariant"], [], [FUZZ_DATUM, FUZZ_FAN, FUZZ_ACTION]),
    (["invariant"], ["--closure"], [FUZZ_DATUM, FUZZ_FAN, FUZZ_ACTION]),
    (["morphism"], [], [FUZZ_DATUM, FUZZ_LINE_DATUM, FUZZ_MORPHISM, FUZZ_FAN, FUZZ_LINE_FAN]),
]

# replacement values: floats, huge ints, bad rationals and colors, wrong
# ranks, ragged, empty and nested vectors, wrong JSON types
ODD_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-3, 10),
    st.integers(min_value=10 ** 18, max_value=10 ** 60),
    st.sampled_from(["1/0", "1/2", "-3", "x", "", "0.5", "1e3", "a", "b", "c", "zz",
                     "99999999999999999999/7", "-0"]),
    st.sampled_from([None, True, False, [], {}, [[]], [["1"]], ["1"], ["1", "0", "0"],
                     [1, 2], [[1, 0], [0]], {"name": "a"}]),
    st.lists(st.integers(-2, 2), max_size=4),
)


def _paths(node, path=()):
    """Every (container path, key) in a JSON tree, root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for k, v in items:
        yield path, k
        yield from _paths(v, path + (k,))


def _mutate(doc, data):
    """One structural mutation of a deep copy of doc, drawn from data."""
    doc = json.loads(json.dumps(doc))
    spots = list(_paths(doc))
    path, key = data.draw(st.sampled_from(spots))
    parent = doc
    for k in path:
        parent = parent[k]
    kind = data.draw(st.sampled_from(["drop", "extra", "replace", "replace", "ragged"]))
    node = parent[key]
    if kind == "drop":
        del parent[key]
    elif kind == "extra" and isinstance(node, dict):
        node[data.draw(st.sampled_from(["extra", "rank", "x"]))] = data.draw(ODD_VALUES)
    elif kind == "ragged" and isinstance(node, list):
        if node and data.draw(st.booleans()):
            node.pop()
        else:
            node.append(data.draw(ODD_VALUES))
    else:
        parent[key] = data.draw(ODD_VALUES)
    return doc


# derandomized: the same 150 examples on every run, so tier-1 stays
# deterministic and adds about 1.5 s
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_documents_exit_0_1_or_2(tmp_path_factory, data):
    """Every mutated input ends with exit code 0, 1 or 2, never a
    traceback, and exit 2 writes nothing to stdout."""
    head, tail, docs = data.draw(st.sampled_from(FUZZ_COMMANDS))
    docs = list(docs)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(docs) - 1))
        docs[i] = _mutate(docs[i], data)
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = []
    for i, doc in enumerate(docs):
        p = tmp / f"doc{i}.json"
        p.write_text(json.dumps(doc))
        paths.append(str(p))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(head + paths + tail)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""


def _benchmark_cases(workdir: str) -> list[tuple[list[str], list, list[str]]]:
    """(argv before the paths, documents, argv after them) for README's
    datum and fan and for the first documents of each kind that the
    ``cli_twisted`` workload writes for seed 1: a P1^2 and a P1^3 fan
    with extra rays, the B2 action on P1^2 and a projection P1^3 -> P1^2.
    Ranks 1-3, so each run takes milliseconds."""
    readme = [json.loads(doc) for doc in fenced("json")]
    load_perfbench("inputs")
    argvs = [c.argv for c in load_perfbench("workloads").cli_twisted(random.Random(1), workdir)]

    def docs(argv):
        return [json.loads(Path(a).read_text(encoding="utf-8")) for a in argv
                if a.endswith(".json")]
    val2, val3 = (next(a for a in argvs if a[2].endswith(f"{tag}-0-datum.json"))
                  for tag in ("v2", "v3"))
    b2 = next(a for a in argvs if a[1].endswith("b2-datum.json"))
    mor = next(a for a in argvs if a[0] == "morphism")
    cases = []
    for fan in (readme, docs(val2), docs(val3)):
        cases += [(["validate"], fan, []), (["validate"], fan, ["--strict", "--autocomplete"]),
                  (["faces"], fan, [])]
    return cases + [(["invariant"], docs(b2), []), (["morphism"], docs(mor), [])]


# replacement values of the seeded mutations, by kind
SEEDED_VALUES = {
    "type": [None, True, False, "x", "1/2", 7, [], {}, [["1"]], {"name": "a"}],
    "float": [0.5, -1.0, 2.0, 1e300],
    "int": [-1, -3, 0, 10 ** 40, -(10 ** 40), 2 ** 64],
    "empty": [[]],
    "entry": ["-1", "0", "2", "1/2", -1, 3, 10 ** 40],
}
SEEDED_KINDS = ["drop", "extra", "type", "float", "int", "empty", "repeat", "length", "entry",
                "rename"]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _seeded_mutation(doc, rng: random.Random):
    """One mutation of a deep copy of doc, of a kind drawn by rng: a key
    dropped or added, a value replaced by another JSON type, a float, a
    huge or negative int or an empty list, a list item repeated, a vector
    or palette one entry short or long, an entry of one replaced by
    another rational (which keeps most documents parseable), or an
    element or color name, or a color map's image, repeated."""
    doc = json.loads(json.dumps(doc))
    nodes = [(path + (key,), _at(doc, path + (key,))) for path, key in _paths(doc)]
    kind = rng.choice(SEEDED_KINDS)
    named = [n for _, n in nodes if isinstance(n, list) and len(n) > 1
             and all(isinstance(e, dict) and "name" in e for e in n)]
    maps = [n for _, n in nodes if isinstance(n, dict) and len(n) > 1
            and all(isinstance(e, str) for e in n.values())]
    if kind == "rename" and (named or maps):
        node = rng.choice(named + maps)
        if isinstance(node, list):
            i, j = rng.sample(range(len(node)), 2)
            node[j]["name"] = node[i]["name"]
        else:
            i, j = rng.sample(list(node), 2)
            node[j] = node[i]
        return doc
    if kind in ("drop", "extra"):
        node = rng.choice([doc] + [n for _, n in nodes if isinstance(n, dict) and n])
        if kind == "drop":
            del node[rng.choice(list(node))]
        else:
            node[rng.choice(["extra", "rank", "name", "x"])] = rng.choice(SEEDED_VALUES["type"])
        return doc
    lists = [n for _, n in nodes if isinstance(n, list) and n]
    if kind == "repeat" and lists:
        node = rng.choice(lists)
        node.append(json.loads(json.dumps(rng.choice(node))))
        return doc
    flat = [n for n in lists if all(isinstance(e, (int, str)) for e in n)]
    if kind == "length" and flat:
        node = rng.choice(flat)
        if rng.random() < 0.5:
            node.append(node[0])
        else:
            node.pop()
        return doc
    if kind == "entry" and flat:
        node = rng.choice(flat)
        node[rng.randrange(len(node))] = rng.choice(SEEDED_VALUES["entry"])
        return doc
    path, node = rng.choice(nodes)
    values = [v for v in SEEDED_VALUES.get(kind, SEEDED_VALUES["type"])
              if type(v) is not type(node) or kind != "type" and v != node]
    _at(doc, path[:-1])[path[-1]] = rng.choice(values or [None])
    return doc


def test_seeded_mutations_of_readme_and_benchmark_documents_exit_0_1_or_2(tmp_path):
    """300 seeded mutations of README's documents and of the benchmark's,
    through ``validate``, ``faces``, ``invariant`` and ``morphism`` in
    process: each run returns 0, 1 or 2 with no exception, and exit 2
    writes nothing to stdout.  Enough mutations get past the parser that
    every exit code is met."""
    rng = random.Random(7)
    cases = _benchmark_cases(str(tmp_path))
    codes = {0: 0, 1: 0, 2: 0}
    for n in range(300):
        head, docs, tail = cases[n % len(cases)]
        docs = list(docs)
        i = rng.randrange(len(docs))
        docs[i] = _seeded_mutation(docs[i], rng)
        paths = []
        for k, doc in enumerate(docs):
            p = tmp_path / f"mutated{k}.json"
            p.write_text(json.dumps(doc))
            paths.append(str(p))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(head + paths + tail)
        assert code in codes, (n, head, i, docs[i])
        assert code != 2 or out.getvalue() == ""
        codes[code] += 1
    assert all(codes.values()), codes


def test_cli_import_skips_dataclasses_and_inspect():
    """Every verdict from the command line pays for a fresh interpreter, so
    ``import sphfan.cli`` must not pull in ``dataclasses`` and ``inspect``
    (with ``ast``, ``dis`` and ``tokenize`` behind them).  Compared with the
    modules the bare interpreter had already loaded, so a site hook that
    imports them cannot fail the test."""
    probe = ("import sys; before = set(sys.modules); import sphfan.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    assert run_probe(probe) == "[]"


# runs cli.main on argv, then prints its exit code and which of the two
# modules that only one subcommand each needs it loaded
COMMAND_PROBE = """
import contextlib, io, sys
from sphfan import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted({"sphfan.fourier_motzkin", "sphfan.galois", "sphfan.morphisms"}
                    & set(sys.modules)))
"""


def test_each_command_loads_only_the_modules_it_runs(files):
    """``validate`` on README's documents loads neither ``galois`` nor
    ``morphisms``; ``invariant`` loads ``galois`` alone and ``morphism``
    ``morphisms`` alone.  None of them loads ``fourier_motzkin``, which
    only ``--oracle`` runs, and ``--oracle validate`` loads it."""
    datum, fan = fenced("json")
    runs = {
        "0": ["validate", files("rd.json", datum), files("rf.json", fan), "--strict"],
        "0 sphfan.fourier_motzkin": ["--oracle", "validate", files("rd.json", datum),
                                     files("rf.json", fan), "--strict"],
        "0 sphfan.galois": ["invariant", files("d.json", DATUM), files("f.json", P1_FAN),
                            files("a.json", NEGATION), "--closure"],
        "0 sphfan.morphisms": ["morphism", files("sd.json", PLANE_DATUM),
                               files("td.json", DATUM), files("m.json", PROJECTION),
                               files("sf.json", QUAD_FAN), files("tf.json", P1_FAN)],
    }
    for want, argv in runs.items():
        assert run_probe(COMMAND_PROBE, *argv) == want, argv
