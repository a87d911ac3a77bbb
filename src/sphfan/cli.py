"""Command-line front end.

Commands: validate, faces, invariant, morphism.  Stdout carries exactly
one JSON report; human-readable summaries go to stderr.  Exit status:
0 pass, 1 semantic failure, 2 input/parse failure (a file that is missing,
unreadable or not UTF-8 text included, and a result with an integer too
long to write).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import docio, lp, spherical
from .docio import ParseError, dump_json
from .rational import RankMismatchError, format_rat
from .spherical import ColoredFan, FanAxiomError, UnknownColorError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

DEFAULT_MAX_DIM = 8


class InputError(Exception):
    pass


def _max_dim() -> int:
    raw = os.environ.get("SPHFAN_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"SPHFAN_MAX_DIM must be an integer, got {raw!r}")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError:
        raise InputError(f"cannot read {path}: not UTF-8 text")


def _load_datum(path: str):
    d = docio.parse_datum(_read(path))
    cap = _max_dim()
    if d.rank > cap:
        raise InputError(f"datum rank {d.rank} exceeds SPHFAN_MAX_DIM={cap}")
    return d


def _fmt_vec(v) -> list[str]:
    return [format_rat(x) for x in v]


def _check(axiom: str, subject: str, ok: bool, witness=None) -> dict:
    entry = {"axiom": axiom, "subject": subject,
             "result": "pass" if ok else "fail"}
    if witness is not None:
        entry["witness"] = _fmt_vec(witness)
    return entry


def _cone_checks(subject: str, r: spherical.ColoredConeReport) -> list[dict]:
    """The CC1 and CC2 rows of one colored cone's report."""
    return [_check("CC1", subject, r.cc1), _check("CC2", subject, r.cc2, r.cc2_witness)]


def _fan_checks(d, fan: ColoredFan, report: spherical.ColoredFanReport,
                strict: bool) -> tuple[list[dict], bool]:
    checks = []
    for i, r in enumerate(report.cone_reports):
        checks += _cone_checks(f"cone[{i}]", r)
    for i, face in report.cf1_missing:
        checks.append(_check("CF1", f"cone[{i}]", False))
    if not report.cf1_missing:
        checks.append(_check("CF1", "fan", True))
    if report.cf2_failures:
        for i, j, w in report.cf2_failures:
            checks.append(_check("CF2", f"cone[{i}]∩cone[{j}]", False, w))
    else:
        checks.append(_check("CF2", "fan", True))
    ok = report.ok
    if strict:
        sc = spherical.is_strictly_convex_fan(d, fan)
        checks.append(_check("SC", "fan", sc))
        ok = ok and sc
    return checks, ok


def _emit(report: dict, ok: bool) -> int:
    report["overall"] = "pass" if ok else "fail"
    sys.stdout.write(dump_json(report))
    print(f"sphfan: {report['overall']}", file=sys.stderr)
    return EXIT_PASS if ok else EXIT_FAIL


def _dropped_checks(d, members, closed: ColoredFan) -> list[dict]:
    """The failing CC1 and CC2 checks, as ``input[i]``, of each input
    member i that the closure dropped: one whose relative interior misses
    V or whose palette holds a color outside it has no equal in the
    closure, and every other member has."""
    checks = []
    for i, cc in enumerate(members):
        if closed.index(cc) is None:
            r = spherical.validate_colored_cone(d, cc)
            checks += [c for c in _cone_checks(f"input[{i}]", r) if c["result"] == "fail"]
    return checks


def cmd_validate(args) -> int:
    d = _load_datum(args.datum)
    fan = docio.parse_fan(_read(args.fan), d)
    members = fan.cones
    if args.autocomplete:
        # closed with no CF2 pass of its own: the fan report runs the one pass
        fan = spherical._faces_fan(d, members)
    report = spherical.validate_colored_fan(d, fan)
    if args.autocomplete and report.cf2_failures:
        witness = report.cf2_failures[0][2]
        return _emit({"checks": [_check("CF2", "autocomplete", False, witness)]}, False)
    dropped = _dropped_checks(d, members, fan) if args.autocomplete else []
    checks, ok = _fan_checks(d, fan, report, args.strict)
    return _emit({"checks": dropped + checks}, ok and not dropped)


def cmd_faces(args) -> int:
    d = _load_datum(args.datum)
    fan = docio.parse_fan(_read(args.fan), d)
    if args.cone is not None:
        if not 0 <= args.cone < len(fan.cones):
            raise InputError(f"cone index {args.cone} out of range")
        targets = [(args.cone, fan.cones[args.cone])]
    else:
        targets = list(enumerate(fan.cones))

    checks = []
    ok = True
    faces_out = []
    # one face table over the listed cones gives each one's report and
    # colored faces, so each (cone, color) is located once and a face
    # shared by two cones is tested once; a face is listed straight from
    # the table, on the cone's generators in index order
    table = spherical._FaceTable(d, [cc for _, cc in targets])
    for k, (idx, cc) in enumerate(targets):
        r = table.report(k)
        checks += _cone_checks(f"cone[{idx}]", r)
        if not r.ok:
            ok = False
            continue
        gens = cc.cone._ints
        for dim, face, _, palette, _ in table.colored(k):
            faces_out.append({
                "of": idx,
                "dim": dim,
                "generators": [_fmt_vec(gens[k]) for k in face],
                "colors": sorted(palette),
            })
    faces_out.sort(key=lambda f: (f["dim"], f["of"]))
    return _emit({"checks": checks, "faces": faces_out}, ok)


def cmd_invariant(args) -> int:
    from . import galois
    d = _load_datum(args.datum)
    fan = docio.parse_fan(_read(args.fan), d)
    action = docio.parse_action(_read(args.action), d)

    checks = []
    act = galois.validate_action(action)
    for name, value in (("identity", act.has_identity), ("closed", act.closed),
                        ("inverses", act.has_inverses), ("unimodular", act.unimodular),
                        ("v-stable", act.v_stable), ("rho-equivariant", act.rho_equivariant)):
        checks.append(_check("ACT", name, value))
    ok = act.ok

    if ok:
        inv = galois.is_invariant_fan(action, fan)
        if inv.failures:
            for name, idx in inv.failures:
                checks.append(_check("INV", f"{name}·cone[{idx}]", False))
            ok = False
        else:
            checks.append(_check("INV", "fan", True))

    report = {"checks": checks}
    # an invalid action may have elements of infinite order, whose orbits
    # the closure would never finish enumerating
    if act.ok and args.closure:
        try:
            closed = galois.invariant_closure(action, list(fan.cones))
        except FanAxiomError as e:
            checks.append(_check("CF2", "closure", False, e.witness))
            return _emit(report, False)
        sys.stdout.write(docio.serialize_fan(closed))
        note = ("pass (closure fan emitted)" if ok
                else "closure fan emitted (input fan was not invariant)")
        print(f"sphfan: {note}", file=sys.stderr)
        return EXIT_PASS
    return _emit(report, ok)


def cmd_morphism(args) -> int:
    from . import morphisms
    src = _load_datum(args.src_datum)
    tgt = _load_datum(args.tgt_datum)
    m = docio.parse_morphism(_read(args.morphism), src, tgt)
    f1 = docio.parse_fan(_read(args.src_fan), src)
    f2 = docio.parse_fan(_read(args.tgt_fan), tgt)

    checks = []
    vr = morphisms.validate_morphism(m)
    checks.append(_check("MOR", "surjective", vr.surjective))
    checks.append(_check("MOR", "V-onto-V", vr.v_onto_v, vr.v_counterexample))
    ok = vr.ok
    if ok:
        fr = morphisms.is_morphism_of_fans(m, f1, f2)
        for i, match in enumerate(fr.matches):
            entry = _check("MOR", f"cone[{i}]", match is not None)
            if match is not None:
                entry["target"] = match
            checks.append(entry)
        ok = fr.ok
    return _emit({"checks": checks}, ok)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphfan",
        description="Validate colored cones, fans, Galois invariance, and fan morphisms "
                    "over exact rational data.")
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check every LP verdict with Fourier-Motzkin elimination")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check CC1/CC2/CF1/CF2 for a fan")
    p.add_argument("datum")
    p.add_argument("fan")
    p.add_argument("--strict", action="store_true",
                   help="additionally require strict convexity")
    p.add_argument("--autocomplete", action="store_true",
                   help="close the fan under faces before validating")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("faces", help="list colored faces")
    p.add_argument("datum")
    p.add_argument("fan")
    p.add_argument("--cone", type=int, default=None,
                   help="restrict to the fan member at this index")
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("invariant", help="check a Galois action and fan invariance")
    p.add_argument("datum")
    p.add_argument("fan")
    p.add_argument("action")
    p.add_argument("--closure", action="store_true",
                   help="emit the invariant closure fan document on stdout")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("morphism", help="check a morphism of colored fans")
    p.add_argument("src_datum")
    p.add_argument("tgt_datum")
    p.add_argument("morphism")
    p.add_argument("src_fan")
    p.add_argument("tgt_fan")
    p.set_defaults(func=cmd_morphism)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    lp.set_oracle_cross_check(args.oracle)
    try:
        return args.func(args)
    except (ParseError, InputError, UnknownColorError, RankMismatchError,
            OverflowError) as e:
        print(f"sphfan: error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except lp.OracleDisagreement as e:
        print(f"sphfan: oracle disagreement: {e}", file=sys.stderr)
        return EXIT_FAIL
    finally:
        lp.set_oracle_cross_check(False)


if __name__ == "__main__":
    sys.exit(main())
