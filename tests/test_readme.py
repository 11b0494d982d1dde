"""The README's library example imports only names the package exports."""

import ast
import pathlib

import utmqp

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
