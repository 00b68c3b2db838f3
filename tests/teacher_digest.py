"""One SHA-256 over what the library's teachers and checks answer.

For each of 68 graphs (fig2, fig1 left and right, C_3..C_9, P_2..P_8,
K_2..K_6 and 46 ``random_graph(n, p, 99, i)``) it hashes all seven CLI
teachers, each as its class, the sorted instances of every teaching
set and the ``below`` masks of its preference, or the refusal's type
and text, and then ``check_graph`` for star, con and con with the empty
set.  Teaching sets are read as instance lists whether a teacher holds
them as masks or as frozensets, so trees with either representation
give the same digest for the same answers.

Run it with ``PYTHONPATH=src python tests/teacher_digest.py``; it prints
the digest.  ``test_teaching.py`` pins it.
"""

from __future__ import annotations

import hashlib

from teachdim.checks import check_graph
from teachdim.cli import TEACHERS
from teachdim.context import GraphContext
from teachdim.errors import TeacherPreconditionError
from teachdim.families import (
    complete_graph,
    cycle_graph,
    fig1_left,
    fig1_right,
    fig2,
    path_graph,
    random_graph,
)

RANDOM_COUNT = 46
RANDOM_SEED = 99


def digest_graphs():
    """The 68 named graphs, in hashing order; the i-th random graph has
    5 + i % 4 vertices and edge probability (0.3, 0.5, 0.7)[i % 3]."""
    graphs = [("fig2", fig2()), ("fig1-left", fig1_left()),
              ("fig1-right", fig1_right())]
    graphs += [(f"C_{n}", cycle_graph(n)) for n in range(3, 10)]
    graphs += [(f"P_{n}", path_graph(n)) for n in range(2, 9)]
    graphs += [(f"K_{n}", complete_graph(n)) for n in range(2, 7)]
    for i in range(RANDOM_COUNT):
        n, p = 5 + i % 4, (0.3, 0.5, 0.7)[i % 3]
        graphs.append((f"G({n},{p},{i})",
                       random_graph(n, p, RANDOM_SEED, index=i)))
    return graphs


def _instances(ts) -> list[int]:
    """A teaching set as its sorted instances, from a mask or a set."""
    if isinstance(ts, int):
        return [x for x in range(ts.bit_length()) if ts >> x & 1]
    return sorted(ts)


def teacher_record(builder, ctx: GraphContext):
    try:
        teacher = builder(ctx)
    except (TeacherPreconditionError, ValueError) as exc:
        return ["refused", type(exc).__name__, str(exc)]
    cc = teacher.concept_class
    sets = getattr(teacher, "teaching_masks", None) or teacher.teaching_sets
    return [cc.domain_size, list(cc.concepts), [_instances(ts) for ts in sets],
            list(teacher.preference.below)]


def digest() -> str:
    h = hashlib.sha256()
    for name, g in digest_graphs():
        ctx = GraphContext(g)
        for teacher in TEACHERS:
            h.update(repr((name, teacher,
                           teacher_record(TEACHERS[teacher][0], ctx))).encode())
        for kind, include_empty in (("star", False), ("con", False), ("con", True)):
            results = [(r.name, r.status, r.detail)
                       for r in check_graph(g, kind, include_empty)]
            h.update(repr((name, kind, include_empty, results)).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
