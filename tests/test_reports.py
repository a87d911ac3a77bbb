"""The verdict records: field names and order, defaults, keyword
construction, field-wise equality, immutability and ``ok``."""

from fractions import Fraction

import pytest

from sphfan.galois import ActionReport, InvarianceReport
from sphfan.morphisms import FanMorphismReport, MorphismReport
from sphfan.spherical import ColoredConeReport, ColoredFanReport

GOOD_CONE = ColoredConeReport(cc1=True, cc2=True, cc2_witness=(Fraction(1, 2),))
BAD_CONE = ColoredConeReport(cc1=False, cc2=True, cc2_witness=None, cc1_detail="why")

# (record, its fields in order, defaults, passing field values,
#  single-field changes that each make ``ok`` false)
CASES = [
    (ColoredConeReport, ("cc1", "cc2", "cc2_witness", "cc1_detail"), {"cc1_detail": ""},
     {"cc1": True, "cc2": True, "cc2_witness": (Fraction(1, 2), Fraction(0))},
     {"cc1": False, "cc2": False}),
    (ColoredFanReport, ("cone_reports", "cf1", "cf1_missing", "cf2", "cf2_failures"), {},
     {"cone_reports": (GOOD_CONE,), "cf1": True, "cf1_missing": (), "cf2": True,
      "cf2_failures": ()},
     {"cone_reports": (GOOD_CONE, BAD_CONE), "cf1": False, "cf2": False}),
    (ActionReport, ("has_identity", "closed", "has_inverses", "unimodular", "v_stable",
                    "rho_equivariant", "failures"), {},
     {"has_identity": True, "closed": True, "has_inverses": True, "unimodular": True,
      "v_stable": True, "rho_equivariant": True, "failures": ()},
     {"has_identity": False, "closed": False, "has_inverses": False, "unimodular": False,
      "v_stable": False, "rho_equivariant": False}),
    (InvarianceReport, ("failures",), {},
     {"failures": ()},
     {"failures": (("sigma", 1),)}),
    (MorphismReport, ("surjective", "v_onto_v", "v_counterexample", "rho_warnings"),
     {"rho_warnings": ()},
     {"surjective": True, "v_onto_v": True, "v_counterexample": None},
     {"surjective": False, "v_onto_v": False}),
    (FanMorphismReport, ("matches",), {},
     {"matches": (0, 2, 1)},
     {"matches": (0, None, 1)}),
]


@pytest.mark.parametrize("record, fields, defaults, passing, failing", CASES,
                         ids=[case[0].__name__ for case in CASES])
class TestReports:
    def test_fields_and_defaults(self, record, fields, defaults, passing, failing):
        assert record._fields == fields
        assert record._field_defaults == defaults
        report = record(**passing)
        for name in fields:
            assert getattr(report, name) == passing.get(name, defaults.get(name))

    def test_keyword_and_positional_construction_agree(self, record, fields, defaults,
                                                       passing, failing):
        values = {**defaults, **passing}
        by_keyword = record(**dict(reversed(values.items())))
        by_position = record(*(values[name] for name in fields))
        assert by_keyword == by_position
        assert hash(by_keyword) == hash(by_position)
        assert repr(by_keyword) == record.__name__ + "(" + ", ".join(
            f"{name}={values[name]!r}" for name in fields) + ")"

    def test_equality_is_field_wise(self, record, fields, defaults, passing, failing):
        report = record(**passing)
        assert report == record(**passing)
        for name, value in failing.items():
            assert report != record(**{**passing, name: value})

    def test_immutable(self, record, fields, defaults, passing, failing):
        report = record(**passing)
        for name in fields + ("ok", "other"):
            with pytest.raises(AttributeError):
                setattr(report, name, None)
        assert report == record(**passing)

    def test_ok(self, record, fields, defaults, passing, failing):
        assert record(**passing).ok is True
        for name, value in failing.items():
            assert record(**{**passing, name: value}).ok is False


def test_failure_detail_does_not_decide_ok():
    assert ColoredConeReport(True, True, None, cc1_detail="note").ok
    assert MorphismReport(True, True, None, rho_warnings=("w",)).ok
