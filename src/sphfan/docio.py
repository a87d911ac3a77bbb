"""Bit-exact JSON serialization of data, fans, actions, and morphisms.

Every document is an envelope {"kind", "version", "payload"}.  Rationals
travel as integers or "p/q" strings; float literals are a parse error.
Unknown fields, a key repeated in any object and a fan member equal to
an earlier one are rejected, structural errors carry the field path, and
serialization is deterministic (sorted keys, canonical rational strings).
Rational literals are decided by ``rational.rat`` and rank errors by
``rational.RankMismatchError``: this module attaches the field path to a
literal's error, and reports a vector of the wrong length or a ragged
matrix as a ParseError at its path before any value is built.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Iterable, Optional

from .cones import Cone
from .rational import Mat, format_rat, rat
from .spherical import ColoredCone, ColoredFan, SphericalDatum, UnknownColorError

if TYPE_CHECKING:  # imported when parsed: validate and faces load neither module
    from .galois import GaloisAction
    from .morphisms import FanMorphism

FORMAT_VERSION = "1"
KINDS = ("datum", "fan", "action", "morphism")


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None, path: Optional[str] = None):
        loc = ""
        if line is not None:
            loc = f" at line {line}, column {column}"
        if path:
            loc += f" (field {path})"
        super().__init__(message + loc)
        self.line = line
        self.column = column
        self.path = path


def _reject_float(value: str):
    raise ParseError(f"float literal {value!r} is not allowed; use 'p/q' strings")


def _reject_repeated_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(k for k, _ in pairs)
        key = next(k for k, _ in pairs if counts[k] > 1)
        raise ParseError(f"repeated key {key!r} in an object")
    return obj


def _load_json(text: str) -> Any:
    try:
        return json.loads(text, parse_float=_reject_float,
                          object_pairs_hook=_reject_repeated_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno, column=e.colno) from e
    except ParseError:
        raise
    except ValueError as e:
        # an integer literal past the interpreter's digit limit
        raise ParseError(f"invalid JSON: {e}") from e
    except RecursionError as e:
        raise ParseError("invalid JSON: nested too deeply") from e


def _expect_object(value, path: str, fields: tuple[str, ...]) -> dict:
    """Check dict shape: exactly the keys ``fields``, each required."""
    if not isinstance(value, dict):
        raise ParseError("expected an object", path=path)
    extra = set(value) - set(fields)
    if extra:
        raise ParseError(f"unknown fields {sorted(extra)}", path=path)
    missing = [k for k in fields if k not in value]
    if missing:
        raise ParseError(f"missing fields {missing}", path=path)
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError("expected a list", path=path)
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError("expected a string", path=path)
    return value


def _rat_at(value, path: str) -> Fraction:
    """``rational.rat`` of a JSON value, failing as a ParseError at path."""
    try:
        return rat(value)
    except TypeError as e:
        raise ParseError("expected a rational (int or 'p/q' string)", path=path) from e
    except ValueError as e:
        raise ParseError(str(e), path=path) from e


def _vector_at(value, path: str, rank: Optional[int] = None) -> tuple:
    items = _expect_list(value, path)
    if rank is not None and len(items) != rank:
        raise ParseError(f"expected a vector of length {rank}", path=path)
    return tuple(_rat_at(x, f"{path}[{i}]") for i, x in enumerate(items))


def _vectors_at(value, path: str, rank: Optional[int] = None) -> list:
    return [_vector_at(v, f"{path}[{i}]", rank)
            for i, v in enumerate(_expect_list(value, path))]


def _matrix_at(rows: list, path: str) -> Mat:
    for r, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ParseError(f"expected a row of length {len(rows[0])}",
                             path=f"{path}[{r}]")
    return Mat(rows)


def _colors_at(datum: SphericalDatum, names: Iterable[str], path: str) -> None:
    """``datum.check_colors(names)``, failing as a ParseError at path."""
    try:
        datum.check_colors(names)
    except UnknownColorError as e:
        raise ParseError(e.args[0], path=path) from e


def _int_at(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError("expected an integer", path=path)
    return value


def _envelope(text: str, kind: str) -> Any:
    doc = _load_json(text)
    _expect_object(doc, "$", ("kind", "version", "payload"))
    got = _expect_str(doc["kind"], "$.kind")
    if got not in KINDS:
        raise ParseError(f"unknown document kind {got!r}", path="$.kind")
    if got != kind:
        raise ParseError(f"expected a {kind!r} document, got {got!r}", path="$.kind")
    if doc["version"] != FORMAT_VERSION:
        raise ParseError(f"unsupported version {doc['version']!r}", path="$.version")
    return doc["payload"]


# ----------------------------------------------------------------- datum

def parse_datum(text: str) -> SphericalDatum:
    p = _envelope(text, "datum")
    _expect_object(p, "$.payload", ("rank", "valuation_cone", "colors"))
    rank = _int_at(p["rank"], "$.payload.rank")
    if rank < 0:
        raise ParseError("rank must be nonnegative", path="$.payload.rank")
    vc = _expect_object(p["valuation_cone"], "$.payload.valuation_cone", ("generators",))
    gens = _vectors_at(vc["generators"], "$.payload.valuation_cone.generators", rank)
    colors = []
    rho = {}
    for i, entry in enumerate(_expect_list(p["colors"], "$.payload.colors")):
        path = f"$.payload.colors[{i}]"
        _expect_object(entry, path, ("name", "rho"))
        name = _expect_str(entry["name"], f"{path}.name")
        if name in rho:
            raise ParseError(f"duplicate color {name!r}", path=path)
        colors.append(name)
        rho[name] = _vector_at(entry["rho"], f"{path}.rho", rank)
    return SphericalDatum(rank, Cone(rank, gens), colors, rho)


def serialize_datum(d: SphericalDatum) -> str:
    payload = {
        "rank": d.rank,
        "valuation_cone": {"generators": [[format_rat(x) for x in g]
                                          for g in d.valuation_cone._ints]},
        "colors": [{"name": c, "rho": [format_rat(x) for x in d.rho[c]]}
                   for c in d.colors],
    }
    return _dump("datum", payload)


# ------------------------------------------------------------------- fan

def parse_fan(text: str, datum: SphericalDatum) -> ColoredFan:
    p = _envelope(text, "fan")
    _expect_object(p, "$.payload", ("cones",))
    members = []
    for i, entry in enumerate(_expect_list(p["cones"], "$.payload.cones")):
        path = f"$.payload.cones[{i}]"
        _expect_object(entry, path, ("generators", "colors"))
        gens = _vectors_at(entry["generators"], f"{path}.generators", datum.rank)
        palette = [_expect_str(c, f"{path}.colors[{j}]")
                   for j, c in enumerate(_expect_list(entry["colors"], f"{path}.colors"))]
        _colors_at(datum, palette, f"{path}.colors")
        members.append(ColoredCone(Cone(datum.rank, gens), palette))
    if not members:
        raise ParseError("a fan document must list at least one cone",
                         path="$.payload.cones")
    fan = ColoredFan(members)
    if len(fan) < len(members):
        # merging a repeat would shift every later index in the reports;
        # the fan kept the first copy, so the path names the next one
        i = next(i for i, cc in enumerate(members) if fan.cones[fan.index(cc)] is not cc)
        raise ParseError("repeated cone: an earlier member has the same cone and colors",
                         path=f"$.payload.cones[{i}]")
    return fan


def serialize_fan(fan: ColoredFan) -> str:
    payload = {"cones": [
        {"generators": [[format_rat(x) for x in g] for g in cc.cone._ints],
         "colors": sorted(cc.palette)}
        for cc in fan.cones]}
    return _dump("fan", payload)


# ---------------------------------------------------------------- action

def parse_action(text: str, datum: SphericalDatum) -> GaloisAction:
    from .galois import GaloisAction, GroupElement
    p = _envelope(text, "action")
    _expect_object(p, "$.payload", ("elements",))
    elements = []
    names = set()
    for i, entry in enumerate(_expect_list(p["elements"], "$.payload.elements")):
        path = f"$.payload.elements[{i}]"
        _expect_object(entry, path, ("name", "matrix", "color_perm"))
        name = _expect_str(entry["name"], f"{path}.name")
        if name in names:
            raise ParseError(f"duplicate element name {name!r}", path=f"{path}.name")
        names.add(name)
        rows = _expect_list(entry["matrix"], f"{path}.matrix")
        matrix = _matrix_at([[_int_at(x, f"{path}.matrix[{r}][{c}]")
                              for c, x in enumerate(_expect_list(row, f"{path}.matrix[{r}]"))]
                             for r, row in enumerate(rows)], f"{path}.matrix")
        perm_raw = entry["color_perm"]
        if not isinstance(perm_raw, dict):
            raise ParseError("expected an object", path=f"{path}.color_perm")
        perm = {}
        for k, v in perm_raw.items():
            _colors_at(datum, [k], f"{path}.color_perm")
            perm[k] = _expect_str(v, f"{path}.color_perm.{k}")
            _colors_at(datum, [perm[k]], f"{path}.color_perm.{k}")
        if not datum.permutes_colors(perm):
            raise ParseError("not a permutation of the colors", path=f"{path}.color_perm")
        elements.append(GroupElement(name, matrix, perm))
    return GaloisAction(datum, elements)


def serialize_action(a: GaloisAction) -> str:
    if any(e.matrix.den != 1 for e in a.elements):
        raise ValueError("action matrices must be integral")
    payload = {"elements": [
        {"name": e.name,
         "matrix": [list(row) for row in e.matrix.ints],
         "color_perm": {c: e.color_perm[c] for c in sorted(e.color_perm)}}
        for e in a.elements]}
    return _dump("action", payload)


# -------------------------------------------------------------- morphism

def parse_morphism(text: str, source: SphericalDatum,
                   target: SphericalDatum) -> FanMorphism:
    from .morphisms import FanMorphism
    p = _envelope(text, "morphism")
    _expect_object(p, "$.payload", ("matrix", "domain_colors", "color_map"))
    rows = _expect_list(p["matrix"], "$.payload.matrix")
    matrix = _matrix_at([_vector_at(row, f"$.payload.matrix[{r}]")
                         for r, row in enumerate(rows)], "$.payload.matrix")
    domain = [_expect_str(c, f"$.payload.domain_colors[{i}]")
              for i, c in enumerate(_expect_list(p["domain_colors"],
                                                 "$.payload.domain_colors"))]
    cmap_raw = p["color_map"]
    if not isinstance(cmap_raw, dict):
        raise ParseError("expected an object", path="$.payload.color_map")
    cmap = {k: _expect_str(v, f"$.payload.color_map.{k}") for k, v in cmap_raw.items()}
    _colors_at(source, domain, "$.payload.domain_colors")
    _colors_at(target, cmap.values(), "$.payload.color_map")
    return FanMorphism(source, target, matrix, domain, cmap)


def serialize_morphism(m: FanMorphism) -> str:
    payload = {
        "matrix": [[format_rat(x) for x in row] for row in m.linear_map.rows],
        "domain_colors": sorted(m.domain_colors),
        "color_map": {c: m.color_map[c] for c in sorted(m.color_map)},
    }
    return _dump("morphism", payload)


def _dump(kind: str, payload: dict) -> str:
    return dump_json({"kind": kind, "version": FORMAT_VERSION, "payload": payload})


def dump_json(obj) -> str:
    """Canonical dump used for reports as well."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
