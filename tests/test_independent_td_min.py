"""TD_min is decided by code that shares nothing with the teaching-set
kernel.

eq6's lower side, ``td_min`` and the subclass bound all ask
``dimensions._isolates``, which answers from the one-inclusion degree
bound (``_degrees_above``) or from its own walk.  The peeling
certificate comes from the kernel (``_teaching_sets_at``,
``_smallest_teaching_mask``, the ``agreeing`` version spaces read from
the class's ``sample_tables``, and the ``neighbour_masks`` that peeling
keeps current), so a TD_min read through any of them would check the
kernel against itself.  The scan follows every function of
``dimensions`` that ``_isolates`` reaches by name and fails on any
reference to those names, as a name or as an attribute.  It uses the
standard library's ``ast`` only.
"""

import ast
from pathlib import Path

DIMENSIONS = Path(__file__).resolve().parents[1] / "src" / "teachdim" / "dimensions.py"

KERNEL = {"_teaching_sets_at", "_smallest_teaching_mask", "agreeing",
          "neighbour_masks", "sample_tables"}


def reached(source: str, root: str) -> tuple[set[str], set[str]]:
    """The module-level functions of ``source`` that ``root`` reaches by
    name, itself included, and every name and attribute they read."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    seen, names, todo = set(), set(), [root]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        todo += names & functions.keys()
    return seen, names


def test_kernel_references_are_caught():
    source = (
        "def _isolates(cc, sub, k):\n"
        "    def walk():\n"
        "        return helper(cc)\n"
        "    return _degrees_above(cc, sub, k) or walk()\n"
        "def _degrees_above(cc, sub, k):\n"
        "    return cc.neighbour_masks\n"
        "def helper(cc):\n"
        "    return dimensions.agreeing(cc.sample_tables, 0, 0, 1)\n"
        "def unreached(cc):\n"
        "    return _teaching_sets_at(cc)\n"
    )
    seen, names = reached(source, "_isolates")
    assert seen == {"_isolates", "_degrees_above", "helper"}
    assert names & KERNEL == {"neighbour_masks", "agreeing", "sample_tables"}


def test_isolates_shares_no_code_with_the_kernel():
    seen, names = reached(DIMENSIONS.read_text(), "_isolates")
    assert "_degrees_above" in seen
    assert names & KERNEL == set()
