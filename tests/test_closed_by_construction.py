"""Only the builders that close their order call the raw
``PreferenceRelation(...)`` constructor, and only ``PreferenceRelation``
itself raises ``PreferenceCycleError``.

The constructor trusts ``below`` to be transitively closed.  The
library's callers of it are the containment orders (``_containment``),
the peeling plan's level order (``plan_to_teacher``), the star special
teacher (``star_special_teacher``), the matching teacher's order
(``_matching_preference``) and ``from_direct``, which closes what it is
given; ``test_teaching.py`` checks each of them against the pair-list
closure, and ``test_closed_teachers.py`` checks the two teachers against
their ``from_direct`` construction.  A new builder goes through
``from_direct``, or joins the list here and those tests.

Each builder closes its order as it builds it, so none has a cycle to
refuse: the constructor's self-loop check and ``from_direct`` are the
only places that raise ``PreferenceCycleError``.  A builder that runs
a closure pass with a cycle refusal of its own shows here as a new
raiser.

The containment orders and the two teachers' orders read what a
labelled sample leaves in the version space through ``concepts``
(``agreeing`` and ``version_space_mask``), as the peeling kernel and the
verifier do, so none of them reads a class's instance or absent columns
itself.  The scans use the standard library's ``ast`` only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "teachdim"

CLOSED_BUILDERS = {"teaching._containment", "teaching.plan_to_teacher",
                   "teaching.PreferenceRelation.from_direct",
                   "stars.star_special_teacher", "connected._matching_preference"}


def raw_constructor_calls(source: str) -> set[str]:
    """Qualified names of the functions in ``source`` that call
    ``PreferenceRelation(...)``, by name or by attribute, or ``cls(...)``
    inside that class."""
    found = set()

    def is_raw(func, in_class):
        if isinstance(func, ast.Name):
            return func.id == "PreferenceRelation" or (in_class and func.id == "cls")
        return isinstance(func, ast.Attribute) and func.attr == "PreferenceRelation"

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], child.name == "PreferenceRelation")
            elif isinstance(child, ast.FunctionDef):
                visit(child, scope + [child.name], in_class)
            else:
                if isinstance(child, ast.Call) and is_raw(child.func, in_class):
                    found.add(".".join(scope) or "<module>")
                visit(child, scope, in_class)

    visit(ast.parse(source), [], False)
    return found


def test_raw_constructor_calls_are_caught():
    source = (
        "def a(): return PreferenceRelation(1, (0,))\n"
        "def b(): return teaching.PreferenceRelation(1, (0,))\n"
        "def c(): return PreferenceRelation.from_direct([0])\n"
        "class PreferenceRelation:\n"
        "    @classmethod\n"
        "    def d(cls): return cls(1, (0,))\n"
        "class Other:\n"
        "    @classmethod\n"
        "    def e(cls): return cls()\n"
        "f = lambda: PreferenceRelation(1, (0,))\n"
    )
    assert raw_constructor_calls(source) == {"a", "b", "PreferenceRelation.d", "<module>"}


def test_only_closed_builders_call_the_raw_constructor():
    found = {f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in raw_constructor_calls(path.read_text())}
    assert found == CLOSED_BUILDERS


CYCLE_RAISERS = {"teaching.PreferenceRelation.__post_init__",
                 "teaching.PreferenceRelation.from_direct"}


def cycle_error_raises(source: str) -> set[str]:
    """Qualified names of the functions in ``source`` that raise
    ``PreferenceCycleError``, by name or by attribute, called or not."""
    found = set()

    def is_cycle_error(exc):
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name):
            return exc.id == "PreferenceCycleError"
        return isinstance(exc, ast.Attribute) and exc.attr == "PreferenceCycleError"

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
            else:
                if isinstance(child, ast.Raise) and child.exc is not None \
                        and is_cycle_error(child.exc):
                    found.add(".".join(scope) or "<module>")
                visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_cycle_error_raises_are_caught():
    source = (
        "def a(): raise PreferenceCycleError('cycle')\n"
        "def b(): raise errors.PreferenceCycleError('cycle') from None\n"
        "def c():\n"
        "    def inner():\n"
        "        if True:\n"
        "            raise PreferenceCycleError\n"
        "def d():\n"
        "    try:\n"
        "        pass\n"
        "    except PreferenceCycleError as exc:\n"
        "        raise ValueError('closed') from exc\n"
        "def e(): raise\n"
        "class PreferenceRelation:\n"
        "    def f(self): raise PreferenceCycleError('x')\n"
        "if True:\n"
        "    raise PreferenceCycleError('at import')\n"
    )
    assert cycle_error_raises(source) == {"a", "b", "c.inner", "PreferenceRelation.f",
                                          "<module>"}


def test_only_the_relation_raises_a_cycle_error():
    found = {f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in cycle_error_raises(path.read_text())}
    assert found == CYCLE_RAISERS


# the public containment builders too: they choose what ``_containment``
# is given to read
VERSION_SPACE_READERS = {"teaching.subset_preferences", "teaching.superset_preferences",
                         "teaching._containment", "stars.star_special_teacher",
                         "connected._matching_preference"}
COLUMNS = {"instance_columns", "absent_columns"}


def column_reads(source: str) -> dict[str, bool]:
    """For each function and class in ``source``, by qualified name,
    whether it reads ``instance_columns`` or ``absent_columns``, by
    attribute or by name, in its own body or in a nested one."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = prefix + child.name
                found[name] = any(
                    isinstance(n, ast.Attribute) and n.attr in COLUMNS
                    or isinstance(n, ast.Name) and n.id in COLUMNS
                    for n in ast.walk(child))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_column_reads_are_caught():
    source = (
        "def a(cc): return cc.instance_columns[0]\n"
        "def b(cc):\n"
        "    def inner(): return cc.absent_columns\n"
        "    return inner\n"
        "def c(cc): return agreeing(cc.sample_tables, 0, 0, 1)\n"
        "class K:\n"
        "    def d(self): return instance_columns\n"
    )
    assert column_reads(source) == {"a": True, "b": True, "b.inner": True, "c": False,
                                    "K": True, "K.d": True}


def test_version_space_readers_read_no_columns():
    found = {f"{path.stem}.{name}": reads for path in sorted(SRC.glob("*.py"))
             for name, reads in column_reads(path.read_text()).items()}
    assert {name: found.get(name) for name in VERSION_SPACE_READERS} \
        == dict.fromkeys(VERSION_SPACE_READERS, False)
