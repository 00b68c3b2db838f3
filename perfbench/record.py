#!/usr/bin/env python3
"""Record the expected outputs the benchmark checks every op against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record.py            # all three workloads
    python3 perfbench/record.py peel       # one of them

Writes ``perfbench/expected/``.  Outputs are recorded in the base
labeling; the checks map them through each op's relabeling.  Where this
commit refuses a peel input (a size-cap ``BudgetExceededError``), the
values are recomputed with the cap lifted to the domain size and the
input is marked ``refused_at_record``: the benchmark then counts a
refusal there as a known refusal, and an answer as correct only if it
matches the uncapped values.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from teachdim.errors import BudgetExceededError  # noqa: E402


def record_sweep() -> None:
    sweep = W.Sweep(0)
    rows = {}
    for n in sweep.SIZES:
        pairs = W.vertex_pairs(n)
        cells = []
        for mask in range(1 << len(pairs)):
            g = W.graphs.graph_from_edges(
                n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            if not W.graphs.is_connected(g, g.full_mask):
                cells.append("-" * 9)
                continue
            out = sweep.run(W.Op((n, mask), "", g))
            cells.append("".join(str(x) for t in out for x in t))
        rows[str(n)] = "".join(cells)
    with gzip.open(W.EXPECTED_DIR / "sweep.json.gz", "wt") as f:
        json.dump(rows, f)


def record_verify() -> None:
    verify = W.Verify(0)
    out = {}
    for idx, g in enumerate(verify.base):
        for kind in verify.KINDS:
            results = verify.run(W.Op((idx, kind), "", g))
            out[f"{idx}:{kind}"] = [W.label_free(c) for c in results]
    (W.EXPECTED_DIR / "verify.json").write_text(json.dumps(out, indent=1) + "\n")


def record_peel() -> None:
    peel = W.Peel(0)
    out = []
    for idx, g in enumerate(peel.base):
        label, _, kind, include_empty = W.PEEL_INPUTS[idx]
        cc = W.build_class(g, kind, include_empty)
        try:
            result = peel.run(W.Op(idx, label, g))
            cert, tds, v = result.cert, result.tds, result.vcd
            refused = False
        except BudgetExceededError:
            cap = cc.domain_size
            v, _ = W.dimensions.vcd(cc)
            cert = W.dimensions.rtd(cc, size_cap=cap)
            tds = [W.dimensions.td_of(cc, i, size_cap=cap)[0] for i in range(len(cc))]
            refused = True
        levels = W.peel_levels(cert, len(cc))
        out.append({
            "input": label,
            "refused_at_record": refused,
            "vcd": v,
            "rtd": cert.rtd,
            "level_values": [value for _, value in cert.levels],
            "concepts": [[c, levels[i], tds[i]] for i, c in enumerate(cc.concepts)],
        })
        print(f"{label}: vcd {v} rtd {cert.rtd} refused_at_record {refused}", flush=True)
    (W.EXPECTED_DIR / "peel.json").write_text(json.dumps(out) + "\n")


RECORDERS = {"sweep": record_sweep, "verify": record_verify, "peel": record_peel}


def main(argv: list[str]) -> int:
    W.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in argv or list(RECORDERS):
        RECORDERS[name]()
        print(f"recorded {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
