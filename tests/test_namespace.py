"""The package namespace: ``import sphfan`` loads no submodule, and each
public name is loaded from its defining module when first read."""

import pytest

import sphfan

from helpers import run_probe

# prints the names of __all__ that are not their defining module's object,
# read in a fresh interpreter by getattr and by ``from sphfan import *``
# (argv[1] says which reads first, and so loads the modules), and bound
# in the package after the first read
NAMES_PROBE = """
import sys, sphfan
star = {}
if sys.argv[1] == "star":
    exec("from sphfan import *", star)
got = {name: getattr(sphfan, name) for name in sphfan.__all__}
exec("from sphfan import *", star)
bad = []
for name in sphfan.__all__:
    home = "sphfan." + sphfan._HOME[name]
    obj = vars(sys.modules[home])[name]
    defined_in = getattr(obj, "__module__", home)  # Vec, an alias, has none of sphfan's
    if not got[name] is star[name] is obj is vars(sphfan).get(name):
        bad.append(name)
    elif defined_in.startswith("sphfan.") and defined_in != home:
        bad.append(name)
print(bad)
"""


def test_import_loads_no_submodule():
    probe = "import sys, sphfan; print(sorted(m for m in sys.modules if m.startswith('sphfan.')))"
    assert run_probe(probe) == "[]"


@pytest.mark.parametrize("first", ["star", "getattr"])
def test_each_public_name_is_its_defining_modules_object(first):
    assert run_probe(NAMES_PROBE, first) == "[]"


def test_the_name_table_covers_all_exactly():
    assert len(set(sphfan.__all__)) == len(sphfan.__all__)
    assert set(sphfan._HOME) == set(sphfan.__all__)
    assert set(sphfan.__all__) <= set(dir(sphfan))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        sphfan.no_such_name
    assert not hasattr(sphfan, "no_such_name")
    with pytest.raises(ImportError):
        from sphfan import no_such_name  # noqa: F401
