"""The README's library example imports only names the package exports,
and the CLI flags it names exist."""

import ast
import pathlib
import re

from click.testing import CliRunner

import utmqp
from utmqp.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_surface_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def test_library_surface_names_resolve():
    tree = ast.parse(library_surface_block())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "utmqp"
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(utmqp, n)] == []


def test_numerical_knob_flags_exist():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("Numerical knobs", 1)[1].split("\n\n", 1)[0]
    flags = re.findall(r"`(--[a-z-]+)`", paragraph)
    assert flags
    result = CliRunner().invoke(main, ["solve", "--help"])
    assert result.exit_code == 0
    assert [f for f in flags if f not in result.output] == []
