"""Tests of the benchmark's own code: input answers, span arithmetic, wrappers."""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import inputs as gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sphfan import galois, spherical  # noqa: E402


def _signs(cc):
    return tuple(sum(int(g[i]) for g in cc.cone.generators)
                 for i in range(cc.cone.ambient_rank))


def test_p1_squared_fan_has_nine_valid_cones():
    f = gen.p1_fan(random.Random(0), 2, 2, 1)
    report = spherical.validate_colored_fan(
        gen.build_p1_datum(f), spherical.ColoredFan(gen.build_p1_cones(f)))
    assert f.n_cones == 9
    assert report.ok and len(report.cone_reports) == 9


def test_pointed_cone_face_counts():
    rng = random.Random(0)
    cube = gen.cube_cone(rng, 3, 1)
    assert cube.n_faces == 10
    assert len(gen.build_pointed(cube)[1].cone.faces()) == 10
    d, cc = gen.build_pointed(cube)
    faces = spherical.colored_faces(d, cc)
    assert sum(len(f.palette) for f in faces) == cube.faces_per_colored_ray == 4
    cyclic = gen.cyclic_cone(rng, (-2, -1, 0, 1, 2, 3))
    assert cyclic.n_faces == 50
    assert len(gen.build_pointed(cyclic)[1].cone.faces()) == 50


def test_eight_element_closure_of_a_quadrant_is_the_p1_squared_fan():
    d, seeds, action = gen.build_twisted(gen.twisted_p1(random.Random(0), 2))
    assert len(action.elements) == 8
    fan = galois.invariant_closure(action, seeds)
    assert len(fan) == 9
    assert {_signs(cc) for cc in fan} == {(a, b) for a in (0, 1, -1) for b in (0, 1, -1)}


def test_extra_rays_give_one_cf2_failure_each_and_exit_code_1(tmp_path):
    for k in (1, 2, 3):
        f = gen.p1_fan(random.Random(k), 2, 2, 1, n_extra=k)
        report = spherical.validate_colored_fan(
            gen.build_p1_datum(f), spherical.ColoredFan(gen.build_p1_cones(f)))
        assert {(i, j) for i, j, _ in report.cf2_failures} == f.cf2_failures()
        assert len(f.cf2_failures()) == k
        call = workloads._validate_oracle(f, str(tmp_path), f"v{k}")
        code, stdout = run.cli_in_process(call.argv)
        assert code == 1 and call.check((code, stdout))


def test_cli_calls_pass_their_checks(tmp_path):
    rng = random.Random(0)
    calls = [workloads._invariant(gen.twisted_p1(rng, 2), str(tmp_path), "inv"),
             workloads._morphism(gen.projection(rng, 3, 1, 2), str(tmp_path), "mor")]
    for call in calls:
        assert call.check(run.cli_in_process(call.argv)), call.kind


def test_self_times_subtract_covered_child_time():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [None, 0, 1, 0]
    selfs = tracing.self_times(starts, ends, parents)
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    assert sum(selfs) == ends[0] - starts[0]
    # overlapping children count their union once
    assert tracing.self_times([0.0, 1.0, 2.0], [10.0, 4.0, 6.0], [None, 0, 0])[0] == 5.0


def test_uninstall_restores_the_original_functions():
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _, _ in tracing._patch_points()]
    f = gen.p1_fan(random.Random(0), 1, 1, 0)
    d, fan = gen.build_p1_datum(f), spherical.ColoredFan(gen.build_p1_cones(f))
    rec = tracing.Recorder()
    saved = tracing.install(rec)
    try:
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
        spherical.validate_colored_fan(d, fan)
    finally:
        tracing.uninstall(saved)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    assert rec.names.count("lp.solve") == f.validate_lp_calls == 11
    assert rec.names[0] == "spherical.validate_colored_fan"
    assert rec.parents.count(None) == 1
