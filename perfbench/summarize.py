#!/usr/bin/env python3
"""Median, quartiles and spread of benchmark results over seeds.

    python3 perfbench/summarize.py perfbench/results/*-trace0.json
    python3 perfbench/summarize.py --write perfbench/baseline.json perfbench/results/*-trace0.json

Reads the result files ``run.py`` writes and prints, per workload and
end-to-end metric, the median over the files, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  Traced results summarize the
per-layer table the same way.  ``--write`` also stores the summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(results: list[dict], spec: dict) -> dict:
    grouped = defaultdict(list)
    for r in results:
        grouped[(r["workload"], r["trace"])].append(r)
    out = {}
    for (workload, trace), runs in sorted(grouped.items()):
        specs = spec["per_layer"] if trace else spec["end_to_end"]
        key = "per_layer" if trace else "end_to_end"
        metrics = {}
        for m in specs:
            values = [r[key][m["name"]] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "bound": m.get("bound"),
            }
        out[f"{workload}/trace{trace}"] = {
            "runs": len(runs),
            "seeds": sorted(r["seed"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "meta": runs[0]["meta"],
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", type=Path)
    ap.add_argument("--write", type=Path, help="also store the summary as JSON here")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = summarize([json.loads(f.read_text()) for f in args.files], spec)
    for group, s in summary.items():
        print(f"{group}: {s['runs']} runs, {s['failed']} failed ops, seeds {s['seeds']}")
        for name, m in s["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            bound = "" if m["bound"] is None else f" (bound {m['bound']})"
            print(f"  {name:<44} median {m['median']:<14.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {spread}{bound} {m['unit']}")
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
