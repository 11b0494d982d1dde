"""The README's library example imports only names the package exports,
the CLI flags it names exist, and its profile lists match the built-ins."""

import ast
import pathlib
import re

from click.testing import CliRunner

import utmqp
from utmqp.cli import main
from utmqp.profiles import _BUILTINS, builtin_profile

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


def readme_profile_list(kind: str) -> set:
    text = README.read_text(encoding="utf-8")
    entry = text.split(f"* {kind} profiles:", 1)[1]
    entry = entry.split("\n*", 1)[0].split("\n\n", 1)[0]
    return set(re.findall(r"`([a-z_]+)(?:\(|`)", entry))


def test_profile_lists_split_as_the_builtins():
    # a spatial profile is one with a half-line transform
    spatial, time_only = set(), set()
    for name, (_, keys) in _BUILTINS.items():
        params = {key: float(i + 1) for i, key in enumerate(keys)}
        has_transform = builtin_profile(name, **params).transform is not None
        (spatial if has_transform else time_only).add(name)
    assert readme_profile_list("Spatial") == spatial
    assert readme_profile_list("Time-only") == time_only
