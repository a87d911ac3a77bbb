"""The benchmark's workloads: one fixed round of calls each, with their answers.

Each round mixes call kinds of different cost in fixed counts, chosen
so that the median and the tail percentile (the eleventh largest time of
a run) each land well inside one cost class, whether a run has three
rounds or six; a run repeats the round.  Every call is checked against
the answer known from how its input was built.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import inputs as gen


@dataclass(frozen=True)
class Call:
    """One verdict: a library entry point, or one CLI process if ``argv`` is set.

    ``invoke`` builds fresh sphfan objects from plain data and calls the
    entry point, so no cached property survives from an earlier call.
    ``check`` receives its result, or for a CLI call the pair (exit code,
    stdout).  ``lp_calls`` is the exact number of LP solves, where the
    construction fixes it; the traced run holds every call to it.
    """

    kind: str
    check: Callable[[Any], bool]
    invoke: Optional[Callable[[], Any]] = None
    argv: tuple[str, ...] = ()
    lp_calls: Optional[int] = None


# ------------------------------------------------------------- p1_fans

def _validate_p1(f: gen.P1Fan) -> Call:
    from sphfan import spherical

    def invoke():
        fan = spherical.ColoredFan(gen.build_p1_cones(f))
        return spherical.validate_colored_fan(gen.build_p1_datum(f), fan)

    def check(report) -> bool:
        return report.ok and len(report.cone_reports) == f.n_cones

    return Call(f"validate P1^{f.n}/{f.n_cones}", check, invoke,
                lp_calls=f.validate_lp_calls)


def _closure_p1(f: gen.P1Fan) -> Call:
    from sphfan import spherical
    maximal = len(f.maximal_sign_vectors())

    def invoke():
        return spherical.faces_closure(gen.build_p1_datum(f),
                                       gen.build_p1_cones(f, maximal_only=True))

    def check(fan) -> bool:
        got = [f.signature(cc) for cc in fan]
        return len(got) == f.n_cones and set(got) == f.expected_signatures()

    return Call(f"faces_closure P1^{f.n}/{f.n_cones}", check, invoke,
                lp_calls=maximal * 2 ** f.n + f.n_cones * (f.n_cones - 1) // 2)


def p1_fans(rng: random.Random, workdir: str) -> list[Call]:
    """A complete colored P1^3 fan, and P1^4 subfans of two orthants (24 cones).

    The complete P1^4 fan (81 cones, about 10 s per validation) is too
    slow for a round; its figures are in the baseline record.
    """
    p3 = gen.p1_fan(rng, 3, 3, 2)
    p4 = [gen.p1_fan(rng, 4, 1, 2) for _ in range(7)]
    return [_validate_p1(p4[0]), _closure_p1(p3), _validate_p1(p4[1]),
            _validate_p1(p4[2]), _closure_p1(p4[0]), _validate_p1(p4[3]),
            _validate_p1(p4[4]), _validate_p1(p3), _validate_p1(p4[5]),
            _validate_p1(p4[6])]


# ---------------------------------------------------------- cube_faces

def _faces(p: gen.PointedCone, label: str) -> Call:
    def invoke():
        return gen.build_pointed(p)[1].cone.faces()

    def check(faces) -> bool:
        return len(faces) == p.n_faces

    return Call(f"faces {label}", check, invoke)


def _colored_faces(p: gen.PointedCone, label: str) -> Call:
    from sphfan import spherical

    def invoke():
        return spherical.colored_faces(*gen.build_pointed(p))

    def check(faces) -> bool:
        colors = sum(len(cc.palette) for cc in faces)
        return (len(faces) == p.n_faces
                and colors == len(p.colored) * p.faces_per_colored_ray)

    return Call(f"colored_faces {label}", check, invoke, lp_calls=p.n_faces)


def cube_faces(rng: random.Random, workdir: str) -> list[Call]:
    """Cones over the 3- and 4-cube, and over the cyclic 4-polytope on 7 points.

    The dearest kind, ``Cone.faces`` of the 4-cube cone, makes up four of
    the eleven calls, so the tail percentile falls inside that one kind.

    The 5-cube (7 s) and 6-cube cones are too slow for a round; they are
    in the baseline record.
    """
    c4 = [gen.cube_cone(rng, 4, 2) for _ in range(3)]
    cyc = [gen.cyclic_cone(rng, tuple(range(-3, 4))) for _ in range(4)]
    c5 = [gen.cube_cone(rng, 5) for _ in range(4)]
    return [_faces(c4[0], "cube r=4"), _faces(cyc[0], "cyclic k=7"),
            _faces(c5[0], "cube r=5"), _colored_faces(c4[1], "cube r=4"),
            _faces(cyc[1], "cyclic k=7"), _faces(c5[1], "cube r=5"),
            _faces(c5[2], "cube r=5"), _faces(cyc[2], "cyclic k=7"),
            _faces(c4[2], "cube r=4"), _faces(c5[3], "cube r=5"),
            _faces(cyc[3], "cyclic k=7")]


# --------------------------------------------------------- cli_twisted

def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _cones_doc(cones) -> str:
    from sphfan import docio, spherical
    return docio.serialize_fan(spherical.ColoredFan(cones))


def _report_checks(stdout: str) -> list[dict]:
    return json.loads(stdout)["checks"]


def _invariant(t: gen.TwistedP1, workdir: str, tag: str) -> Call:
    from sphfan import docio
    d, seeds, action = gen.build_twisted(t)
    argv = ("invariant",
            _write(workdir, f"{tag}-datum.json", docio.serialize_datum(d)),
            _write(workdir, f"{tag}-fan.json", _cones_doc(seeds)),
            _write(workdir, f"{tag}-action.json", docio.serialize_action(action)),
            "--closure")
    def check(result) -> bool:
        code, stdout = result
        if code != 0:
            return False
        cones = json.loads(stdout)["payload"]["cones"]
        got = set()
        for c in cones:
            signs = [0] * t.n
            for g in c["generators"]:
                (i,) = [k for k, x in enumerate(g) if x != "0"]
                signs[i] = -1 if g[i].startswith("-") else 1
            got.add((tuple(signs), frozenset(c["colors"])))
        return len(cones) == t.n_cones and got == t.expected_signatures()

    return Call(f"cli invariant |G|={len(t.elements)} P1^{t.n}", check, argv=argv)


def _validate_oracle(f: gen.P1Fan, workdir: str, tag: str) -> Call:
    from sphfan import docio
    argv = ("--oracle", "validate",
            _write(workdir, f"{tag}-datum.json",
                   docio.serialize_datum(gen.build_p1_datum(f))),
            _write(workdir, f"{tag}-fan.json", _cones_doc(gen.build_p1_cones(f))))
    expected = {f"cone[{i}]∩cone[{j}]" for i, j in f.cf2_failures()}

    def check(result) -> bool:
        code, stdout = result
        if code != 1:
            return False
        checks = _report_checks(stdout)
        failed = {c["subject"] for c in checks if c["result"] == "fail"}
        cf2 = {c["subject"] for c in checks if c["axiom"] == "CF2"}
        return failed == expected and cf2 == expected

    return Call(f"cli validate --oracle P1^{f.n}+{f.n_extra}", check, argv=argv,
                lp_calls=f.validate_lp_calls)


def _morphism(p: gen.Projection, workdir: str, tag: str) -> Call:
    from sphfan import docio
    m = gen.build_projection(p)
    argv = ("morphism",
            _write(workdir, f"{tag}-src.json", docio.serialize_datum(m.source)),
            _write(workdir, f"{tag}-tgt.json", docio.serialize_datum(m.target)),
            _write(workdir, f"{tag}-mor.json", docio.serialize_morphism(m)),
            _write(workdir, f"{tag}-srcfan.json", _cones_doc(gen.build_p1_cones(p.source))),
            _write(workdir, f"{tag}-tgtfan.json", _cones_doc(gen.build_p1_cones(p.target))))
    expected = p.matches()

    def check(result) -> bool:
        code, stdout = result
        if code != 0:
            return False
        checks = _report_checks(stdout)
        targets = [c.get("target") for c in checks if c["subject"].startswith("cone[")]
        return targets == expected and all(c["result"] == "pass" for c in checks)

    return Call(f"cli morphism P1^{p.source.n}->P1^{p.target.n}", check, argv=argv,
                lp_calls=0)


def cli_twisted(rng: random.Random, workdir: str) -> list[Call]:
    """One ``sphfan`` process per call, on documents written at set-up.

    The groups are B2 (8 elements) on P1^2 and its sign-change subgroup
    (Z/2)^3 of B3 (8 elements) on P1^3.  The full B3 (48 elements, about
    4 s per closure) is too slow for a round; it is in the baseline record.
    """
    b2 = _invariant(gen.twisted_p1(rng, 2), workdir, "b2")
    signs = _invariant(gen.sign_changes(rng, 3), workdir, "z2")
    val2 = [_validate_oracle(gen.p1_fan(rng, 2, 2, 1, n_extra=1), workdir, f"v2-{k}")
            for k in range(4)]
    val3 = [_validate_oracle(gen.p1_fan(rng, 3, 1, 1, n_extra=2), workdir, f"v3-{k}")
            for k in range(3)]
    mor = [_morphism(gen.projection(rng, 3, drop, 2), workdir, f"mor{drop}")
           for drop in range(2)]
    return [mor[0], val2[0], val3[0], b2, val2[1], signs, val3[1], val2[2],
            mor[1], val2[3], val3[2]]


WORKLOADS = {"p1_fans": p1_fans, "cube_faces": cube_faces, "cli_twisted": cli_twisted}
