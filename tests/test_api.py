"""The package's public surface: ``__all__`` lists exactly what ``__init__`` imports."""

import ast
from pathlib import Path

import biot_ddp as bd


def imported_public_names() -> set[str]:
    tree = ast.parse(Path(bd.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names if not (alias.asname or alias.name).startswith("_")
    }


def test_every_export_resolves():
    missing = [name for name in bd.__all__ if not hasattr(bd, name)]
    assert missing == []


def test_exports_are_the_imported_names():
    assert len(bd.__all__) == len(set(bd.__all__))
    assert set(bd.__all__) == imported_public_names()
