"""The package's public surface: ``__all__`` lists exactly what ``__init__``
imports, and every other function and class of the package has a reader in
the package or the benchmark."""

import ast
import re
from collections import Counter
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


def test_every_definition_is_named_elsewhere():
    # a word match: a name counts as read when it occurs more often in
    # src/ and bench/ than it is defined in the package; what only the
    # tests read belongs in the tests
    package = Path(bd.__file__).parent
    root = package.parent.parent
    text = {f: f.read_text(encoding="utf-8") for d in ("src", "bench") for f in (root / d).rglob("*.py")}
    defined = Counter(node.name for f in package.glob("*.py") for node in ast.walk(ast.parse(text[f]))
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    words = Counter(w for t in text.values() for w in re.findall(r"\w+", t))
    unread = [name for name, k in sorted(defined.items()) if words[name] <= k
              and not (name.startswith("__") and name.endswith("__")) and name not in bd.__all__]
    assert unread == []


def test_every_import_is_read():
    # no linter runs on the package: a name that a module imports and never
    # reads is a leftover of an edit
    unread = []
    for path in sorted(Path(bd.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.name}: {name}" for name in imported if name not in read]
    assert unread == []
