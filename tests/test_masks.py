"""Vertex sets leave the library as int masks: components, vmax groups
and the leaf-tree witness hand out ints, and no sample type is
exported (a teaching set is a concept plus an instance mask)."""

import dataclasses

import teachdim
from teachdim.connected import leaf_tree_condition
from teachdim.context import GraphContext
from teachdim.families import fig1_right, fig2
from teachdim.graphs import components
from teachdim.stars import vmax_partition


def test_vertex_sets_are_masks():
    assert all(type(c) is int for c in components(fig2()))
    group = vmax_partition(fig1_right()).groups[0]
    assert [type(getattr(group, f.name)) for f in dataclasses.fields(group)] \
        == [int, int, int]
    tree, _ = leaf_tree_condition(GraphContext(fig2()))
    assert type(tree.vertices) is int and type(tree.leaves()) is int


def test_samples_are_not_exported():
    assert not hasattr(teachdim, "Sample")
    assert not hasattr(teachdim, "sample_of")
