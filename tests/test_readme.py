"""The examples in README.md run as written."""

import json
import re
from pathlib import Path

from sphfan.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced(language: str) -> list[str]:
    """The bodies of README's ```language blocks, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_library_example_runs():
    (example,) = fenced("python")
    exec(compile(example, str(README), "exec"), {})


def test_documents_validate_strictly(tmp_path, capsys):
    datum, fan = fenced("json")
    assert json.loads(datum)["kind"] == "datum" and json.loads(fan)["kind"] == "fan"
    (tmp_path / "datum.json").write_text(datum)
    (tmp_path / "fan.json").write_text(fan)
    files = [str(tmp_path / "datum.json"), str(tmp_path / "fan.json")]
    for argv in (["validate", *files, "--strict"],
                 ["--oracle", "validate", *files, "--strict", "--autocomplete"]):
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "pass"
