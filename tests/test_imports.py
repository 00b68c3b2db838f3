"""No library module imports a name it never uses, and no private
module-level name of the library goes unread.

``__init__.py`` is skipped by the import scan: it imports names to
re-export them.  The scans use the standard library's ``ast`` only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "teachdim"


def _string_names(value: str) -> set[str]:
    """The names read by a string annotation; none if it is not one."""
    try:
        return {n.id for n in ast.walk(ast.parse(value, mode="eval"))
                if isinstance(n, ast.Name)}
    except SyntaxError:
        return set()


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by import and never reads, a name in a
    string annotation counting as read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":  # from __future__ import annotations
                    imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used |= _string_names(node.value)
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private names (one leading underscore, not dunder) that a
    module of ``sources`` defines at module level and that no module
    reads, as a name, an attribute or inside a string annotation."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                          else [node.target])
                           if isinstance(t, ast.Name)]
            else:
                continue
            for name in targets:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((name, f"{name} ({module}:{node.lineno})"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _string_names(node.value)
    return [where for name, where in defined if name not in read]


def test_unused_imports_are_caught():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["os (line 1)", "b (line 2)"]
    assert unused_imports('from a import T\ndef f() -> "T": pass\n') == []


def test_no_module_imports_an_unused_name():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_unread_private_names_are_caught():
    sources = {"a.py": "_kept = 1\n_orphan = 2\ndef _helper(): pass\n"
                       "__dunder__ = 3\ndef f() -> '_Hint': return _kept\n",
               "b.py": "from a import _helper\nclass _Hint: pass\n"
                       "_x: int = 0\n_helper()\n"}
    assert unread_private_names(sources) == ["_orphan (a.py:2)", "_x (b.py:3)"]


def test_no_private_name_is_left_unread():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []
