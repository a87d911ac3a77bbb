import json
import random

import pytest

from sphfan import docio
from sphfan.cones import Cone, cones_equal
from sphfan.docio import ParseError
from sphfan.galois import GaloisAction, GroupElement
from sphfan.morphisms import FanMorphism
from sphfan.rational import Mat
from sphfan.spherical import (ColoredCone, ColoredFan, SphericalDatum,
                              colored_cones_equal, fans_equal)

from helpers import random_datum, random_vec

MINIMAL_DATUM = """
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


class TestParseDatum:
    def test_minimal(self):
        d = docio.parse_datum(MINIMAL_DATUM)
        assert d.rank == 1 and d.colors == ()
        assert len(d.valuation_cone.lineality_basis) == 1

    def test_wrong_kind(self):
        with pytest.raises(ParseError):
            docio.parse_datum(P1_FAN)

    def test_unknown_field(self):
        doc = json.loads(MINIMAL_DATUM)
        doc["payload"]["extra"] = 1
        with pytest.raises(ParseError, match="unknown fields"):
            docio.parse_datum(json.dumps(doc))

    def test_bad_version(self):
        doc = json.loads(MINIMAL_DATUM)
        doc["version"] = "2"
        with pytest.raises(ParseError, match="version"):
            docio.parse_datum(json.dumps(doc))

    def test_float_rejected(self):
        doc = MINIMAL_DATUM.replace('"1"', "0.25", 1)
        with pytest.raises(ParseError, match="float"):
            docio.parse_datum(doc)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError, match="line"):
            docio.parse_datum("{not json")


class TestParseFan:
    def test_p1(self):
        d = docio.parse_datum(MINIMAL_DATUM)
        fan = docio.parse_fan(P1_FAN, d)
        assert len(fan) == 3

    def test_unknown_color(self):
        d = docio.parse_datum(MINIMAL_DATUM)
        doc = json.loads(P1_FAN)
        doc["payload"]["cones"][0]["colors"] = ["alpha"]
        with pytest.raises(ParseError, match="unknown color"):
            docio.parse_fan(json.dumps(doc), d)

    def test_empty_cone_list(self):
        d = docio.parse_datum(MINIMAL_DATUM)
        with pytest.raises(ParseError, match="at least one"):
            docio.parse_fan('{"kind": "fan", "version": "1", "payload": {"cones": []}}', d)

    @pytest.mark.parametrize("cones, index", [
        # the same generator set and palette
        ([[["1", "0"]], [["0", "1"]], [["2", "0"]]], 2),
        # the same cone on another generator set
        ([[["1", "0"], ["0", "1"]], [["0", "2"], ["1", "1"], ["3", "0"]]], 1),
        ([[], [["1", "0"], ["0", "1"]], [], [["1", "0"]]], 2),
    ])
    def test_repeated_member(self, cones, index):
        d = docio.parse_datum(PLANE_DATUM)
        doc = {"kind": "fan", "version": "1",
               "payload": {"cones": [{"generators": g, "colors": []} for g in cones]}}
        with pytest.raises(ParseError, match="repeated cone") as info:
            docio.parse_fan(json.dumps(doc), d)
        assert info.value.path == f"$.payload.cones[{index}]"
        # the library's ColoredFan still keeps the first of equal members
        members = [ColoredCone(Cone(2, [[int(x) for x in v] for v in g])) for g in cones]
        assert len(ColoredFan(members)) < len(members)

    def test_a_cone_with_another_palette_is_no_repeat(self):
        d = docio.parse_datum(COLORED_DATUM)
        doc = json.loads(COLORED_FAN)
        doc["payload"]["cones"].append({"generators": [["0", "1"], ["1", "0"]], "colors": []})
        assert len(docio.parse_fan(json.dumps(doc), d)) == 3


class TestCanonicalRationals:
    def test_four_halves(self):
        d = SphericalDatum(1, Cone(1, [(1,), (-1,)]), ["a"], {"a": ("4/2",)})
        doc = json.loads(docio.serialize_datum(d))
        assert doc["payload"]["colors"][0]["rho"] == ["2"]

    def test_sign_normalization(self):
        from sphfan.rational import format_rat, parse_rat
        assert format_rat(parse_rat("-6/4")) == "-3/2"


def _random_objects(rng, n=100):
    """(datum, fan, action, morphism) tuples with exactly-representable data."""
    out = []
    for _ in range(n):
        d = random_datum(rng)
        # fan: faces-closable single cones are not needed for round-trip;
        # any structurally valid colored cone list will do
        members = []
        for _ in range(rng.randint(1, 3)):
            gens = [random_vec(rng, d.rank) for _ in range(rng.randint(0, 3))]
            palette = [c for c in d.colors if rng.random() < 0.5]
            members.append(ColoredCone(Cone(d.rank, gens), palette))
        fan = ColoredFan(members)
        perm = {c: c for c in d.colors}
        action = GaloisAction(d, [GroupElement("id", Mat.identity(d.rank), perm)])
        target = d
        morphism = FanMorphism(d, target, Mat.identity(d.rank), [], {})
        out.append((d, fan, action, morphism))
    return out


class TestRoundTrip:
    def test_all_kinds(self):
        rng = random.Random(3001)
        for d, fan, action, morphism in _random_objects(rng, 25):
            d2 = docio.parse_datum(docio.serialize_datum(d))
            assert d2.rank == d.rank and d2.colors == d.colors
            assert d2.rho == d.rho
            assert cones_equal(d2.valuation_cone, d.valuation_cone)

            fan2 = docio.parse_fan(docio.serialize_fan(fan), d)
            assert fans_equal(fan, fan2)
            assert all(colored_cones_equal(a, b)
                       for a, b in zip(fan.cones, fan2.cones))

            a2 = docio.parse_action(docio.serialize_action(action), d)
            assert [e.name for e in a2.elements] == [e.name for e in action.elements]
            assert all(e1.matrix == e2.matrix and e1.color_perm == e2.color_perm
                       for e1, e2 in zip(action.elements, a2.elements))

            m2 = docio.parse_morphism(docio.serialize_morphism(morphism), d, d)
            assert m2.linear_map == morphism.linear_map
            assert m2.domain_colors == morphism.domain_colors
            assert m2.color_map == morphism.color_map

    def test_non_integral_action_is_not_serialized(self):
        d = docio.parse_datum(MINIMAL_DATUM)
        action = GaloisAction(d, [GroupElement("id", Mat([[1]]), {}),
                                  GroupElement("half", Mat([["1/2"]]), {})])
        with pytest.raises(ValueError, match="integral"):
            docio.serialize_action(action)

    def test_byte_determinism(self):
        rng = random.Random(3002)
        for d, fan, action, morphism in _random_objects(rng, 10):
            for obj, ser in ((d, docio.serialize_datum),
                             (fan, docio.serialize_fan),
                             (action, docio.serialize_action),
                             (morphism, docio.serialize_morphism)):
                assert ser(obj) == ser(obj)

    def test_serialize_parse_is_canonicalizing(self):
        d = docio.parse_datum(MINIMAL_DATUM)
        text = docio.serialize_datum(d)
        assert docio.serialize_datum(docio.parse_datum(text)) == text

PLANE_DATUM = """
{"kind": "datum", "version": "1",
 "payload": {"rank": 2,
             "valuation_cone": {"generators": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]},
             "colors": []}}
"""


def test_detect_kind():
    assert docio.detect_kind(MINIMAL_DATUM) == "datum"
    assert docio.detect_kind(P1_FAN) == "fan"


class TestFirstOccurrence:
    def test_fan_keeps_the_first_of_equal_members(self):
        quad = ColoredCone(Cone(2, [(1, 0), (0, 1)]))
        again = ColoredCone(Cone(2, [(0, 2), (1, 1), (3, 0)]))
        colored = ColoredCone(Cone(2, [(0, 1), (1, 0)]), ["a"])
        for first, gens in ((quad, [["1", "0"], ["0", "1"]]),
                            (again, [["0", "1"], ["1", "1"], ["1", "0"]])):
            second = again if first is quad else quad
            fan = ColoredFan([first, second, colored])
            cones = json.loads(docio.serialize_fan(fan))["payload"]["cones"]
            assert cones == [{"generators": gens, "colors": []},
                             {"generators": [["0", "1"], ["1", "0"]], "colors": ["a"]}]


COLORED_DATUM = """
{"kind": "datum", "version": "1",
 "payload": {"rank": 2,
             "valuation_cone": {"generators": [["1", "0"], ["-1", "0"], ["0", "1"]]},
             "colors": [{"name": "a", "rho": ["1", "0"]}, {"name": "b", "rho": ["0", "1"]}]}}
"""

COLORED_FAN = """
{"kind": "fan", "version": "1",
 "payload": {"cones": [{"generators": [], "colors": []},
                       {"generators": [["1", "0"], ["0", "1"]], "colors": ["a"]}]}}
"""

SWAP_ACTION = """
{"kind": "action", "version": "1",
 "payload": {"elements": [{"name": "id", "matrix": [[1, 0], [0, 1]],
                           "color_perm": {"a": "a", "b": "b"}},
                          {"name": "swap", "matrix": [[0, 1], [1, 0]],
                           "color_perm": {"a": "b", "b": "a"}}]}}
"""

IDENTITY_MORPHISM = """
{"kind": "morphism", "version": "1",
 "payload": {"matrix": [["1", "0"], ["0", "1"]], "domain_colors": ["a"],
             "color_map": {"a": "a"}}}
"""


DOCUMENTS = {"datum": COLORED_DATUM, "fan": COLORED_FAN, "action": SWAP_ACTION,
             "morphism": IDENTITY_MORPHISM}


def _parse(kind: str, text: str):
    if kind == "datum":
        return docio.parse_datum(text)
    d = docio.parse_datum(COLORED_DATUM)
    if kind == "fan":
        return docio.parse_fan(text, d)
    if kind == "action":
        return docio.parse_action(text, d)
    return docio.parse_morphism(text, d, d)


def _with_repeat(text: str, path: tuple, key: str, first=None) -> str:
    """``text`` with ``key`` written twice in the object at ``path``: first
    ``first`` (default: the key's own value), then the key's own value, the
    one a parser that lets the last value win would keep."""
    doc = json.loads(text)
    target = doc
    for step in path:
        target = target[step]

    def emit(v) -> str:
        if isinstance(v, dict):
            pairs = list(v.items())
            if v is target:
                pairs.insert(0, (key, v[key] if first is None else first))
            return "{" + ", ".join(f"{json.dumps(k)}: {emit(x)}" for k, x in pairs) + "}"
        if isinstance(v, list):
            return "[" + ", ".join(map(emit, v)) + "]"
        return json.dumps(v)
    return emit(doc)


class TestRepeatedKeys:
    """A key repeated in any object is a parse error, at the envelope and at
    every nested level, although the document with the last value kept is
    valid."""

    @pytest.mark.parametrize("kind, path, key", [
        ("datum", (), "payload"),
        ("datum", ("payload",), "rank"),
        ("datum", ("payload", "colors", 1), "rho"),
        ("fan", (), "kind"),
        ("fan", ("payload", "cones", 1), "generators"),
        ("action", (), "version"),
        ("action", ("payload", "elements", 1, "color_perm"), "b"),
        ("morphism", (), "payload"),
        ("morphism", ("payload", "color_map"), "a"),
    ], ids=lambda v: ".".join(map(str, v)) or "$" if isinstance(v, tuple) else v)
    def test_rejected(self, kind, path, key):
        text = DOCUMENTS[kind]
        _parse(kind, text)
        with pytest.raises(ParseError, match=f"repeated key '{key}'"):
            _parse(kind, _with_repeat(text, path, key))

    def test_the_last_value_does_not_win(self):
        # with the last value kept these would be a rank-2 datum and the
        # 2-cone, both valid
        with pytest.raises(ParseError, match="repeated key 'rank'"):
            docio.parse_datum(_with_repeat(COLORED_DATUM, ("payload",), "rank", 3))
        with pytest.raises(ParseError, match="repeated key 'generators'"):
            _parse("fan", _with_repeat(COLORED_FAN, ("payload", "cones", 1), "generators",
                                       [["1", "0"]]))
