"""Session fixtures: the exhaustive n <= 6 sweep shared by several
acceptance criteria, the seeded random-graph corpus, and small family
collections."""

from __future__ import annotations

import itertools

import pytest

from teachdim.connected import leaf_tree_condition
from teachdim.context import GraphContext
from teachdim.dimensions import rtd_value, vcd
from teachdim.errors import BudgetExceededError
from teachdim.families import (
    complete_graph,
    cycle_graph,
    fig1_left,
    fig1_right,
    fig2,
    path_graph,
    random_graph,
)
from teachdim.graphs import (
    graph_from_edges,
    is_connected,
    max_leaf_number,
    max_open_neighborhood,
)
from teachdim.stars import build_star_class, star_vcd_characterization

RANDOM_SEED = 20240


def _one_strict(lo, mid, hi):
    return lo <= mid <= hi <= lo + 1 and (lo < mid) + (mid < hi) + (hi < lo + 1) == 1


@pytest.fixture(scope="session")
def sweep6():
    """Every connected labeled graph with at most 6 vertices, with the
    star characterization, brute VC-dimensions, peeling values under both
    empty-set policies, ell read from each connected-set class against
    max_leaf_number, and the leaf-tree witness outcome."""
    data = {
        "count": 0,
        "char_mismatch": [],
        "ltc_mismatch": [],
        "ltc_budget": [],
        "star_chain": [],
        "con_chain": [],
        "policy_diff": [],
        "ell_from_class": [],
        "ell_by_key": {},
    }
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = graph_from_edges(n, edges)
            if n > 1 and not is_connected(g, g.full_mask):
                continue
            key = (n, mask)
            data["count"] += 1
            scc = build_star_class(g)
            pred, _ = star_vcd_characterization(g)
            sv, _ = vcd(scc)
            if pred != sv:
                data["char_mismatch"].append((key, pred, sv))
            sr = rtd_value(scc)
            if not _one_strict(g.max_degree(), sr, sv):
                data["star_chain"].append((key, g.max_degree(), sr, sv))
            ell = max_leaf_number(g)
            data["ell_by_key"][key] = ell
            ctx = GraphContext(g)
            ccf, ccb = ctx.con(True), ctx.con(False)
            for cc in (ccf, ccb):
                if max_open_neighborhood(g, cc.concepts) != ell:
                    data["ell_from_class"].append((key, len(cc), ell))
            vf, _ = vcd(ccf)
            vb, _ = vcd(ccb)
            rf = rtd_value(ccf)
            rb = rtd_value(ccb)
            if not _one_strict(ell, rf, vf):
                data["con_chain"].append((key, "with-empty", ell, rf, vf))
            if not _one_strict(ell, rb, vb):
                data["con_chain"].append((key, "no-empty", ell, rb, vb))
            if (rf, vf) != (rb, vb):
                data["policy_diff"].append((key, (rb, vb), (rf, vf)))
            try:
                wit = leaf_tree_condition(ctx)
            except BudgetExceededError:
                data["ltc_budget"].append(key)
                continue
            if (wit is not None) != (vf == ell + 1):
                data["ltc_mismatch"].append((key, wit is not None, vf, ell))
    return data


@pytest.fixture(scope="session")
def random200():
    """200 reproducible random graphs with 4..9 vertices and edge
    probability cycling through 0.3, 0.5, 0.7."""
    sizes = (4, 5, 6, 7, 8, 9)
    probs = (0.3, 0.5, 0.7)
    out = []
    for i in range(200):
        n = sizes[i % len(sizes)]
        p = probs[(i // len(sizes)) % len(probs)]
        out.append((f"G(n={n},p={p},i={i})", random_graph(n, p, RANDOM_SEED, index=i)))
    return out


@pytest.fixture(scope="session")
def family_graphs():
    graphs = []
    for n in range(2, 7):
        graphs.append((f"K_{n}", complete_graph(n)))
    for n in range(2, 9):
        graphs.append((f"P_{n}", path_graph(n)))
    for n in range(3, 9):
        graphs.append((f"C_{n}", cycle_graph(n)))
    graphs.append(("fig1-left", fig1_left()))
    graphs.append(("fig1-right", fig1_right()))
    graphs.append(("fig2", fig2()))
    return graphs
