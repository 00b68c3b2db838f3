"""Tests for the benchmark itself: output checks, seeding, metrics and
tracing.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402
from teachdim import dimensions  # noqa: E402
from teachdim.errors import BudgetExceededError  # noqa: E402

CYCLE_13, RANDOM_14 = 5, 3  # indices into PEEL_INPUTS


def peel_op(idx: int, seed: int = 1) -> W.Op:
    return W.Peel(seed).round(0)[idx]


def test_sweep_check_flags_corrupted_rtd():
    wl = W.Sweep(3)
    op = wl.round(0)[0]
    out = wl.run(op)
    assert wl.verdict(op, out, None) == (W.OK, "")
    (delta, r, v), with_empty, without_empty = out
    outcome, reason = wl.verdict(op, ((delta, r + 1, v), with_empty, without_empty), None)
    assert outcome == W.FAILED and "wrong output" in reason


def test_peel_check_flags_corrupted_outputs():
    wl = W.Peel(2)
    op = wl.round(0)[RANDOM_14]
    out = wl.run(op)
    assert wl.verdict(op, out, None) == (W.OK, "")
    tds = list(out.tds)
    tds[0] += 1
    for bad in (dataclasses.replace(out, vcd=out.vcd + 1),
                dataclasses.replace(out, tds=tds),
                dataclasses.replace(out, teacher_ok=False)):
        assert wl.verdict(op, bad, None)[0] == W.FAILED


def test_verify_check_flags_fail_status_and_changed_status():
    wl = W.Verify(4)
    op = wl.round(0)[0]
    out = wl.run(op)
    assert wl.verdict(op, out, None) == (W.OK, "")
    failing = [dataclasses.replace(out[0], status="fail")] + list(out[1:])
    assert wl.verdict(op, failing, None)[0] == W.FAILED
    assert wl.verdict(op, out[:-1], None)[0] == W.FAILED
    # a wrong chain that still has exactly one strict step
    assert out[0].name == "star-chain" and out[0].detail.startswith("(3,3,3)")
    shifted = [dataclasses.replace(out[0], detail="(3,3,4) strict at 1")] + list(out[1:])
    assert wl.verdict(op, shifted, None)[0] == W.FAILED


def test_verify_details_ignore_vertex_labels():
    check = W.checks.CheckResult("star-witness-in-closed-neighborhood", "pass",
                                 "witness [2, 4, 6]")
    assert W.label_free(check)[2] == "witness <3 vertices>"
    na = W.checks.CheckResult("star-special-teacher", "na", "fails (witness (0, 4))")
    assert W.label_free(na)[2] == "fails (witness (#, #))"
    chain = W.checks.CheckResult("star-chain", "pass", "(3,4,4) strict at 0")
    assert W.label_free(chain)[2] == "(3,4,4) strict at 0"


def test_refusal_is_failed_unless_recorded_as_refused():
    refusal = BudgetExceededError("teaching-set search (size cap)", 12)
    sweep = W.Sweep(1)
    assert sweep.verdict(sweep.round(0)[0], None, refusal)[0] == W.FAILED
    peel = W.Peel(1)
    assert peel.verdict(peel_op(RANDOM_14), None, refusal)[0] == W.FAILED
    # a real run: this commit's size cap refuses the 13-cycle
    op = peel_op(CYCLE_13)
    out, exc, _ = run.run_op(peel, op)
    if exc is None:
        assert peel.verdict(op, out, None) == (W.OK, "")
    else:
        assert isinstance(exc, BudgetExceededError)
        assert peel.verdict(op, out, exc)[0] == W.REFUSED
    assert peel.verdict(op, None, ValueError("boom"))[0] == W.FAILED


def test_end_to_end_charges_unanswered_ops_the_limit():
    records = [run.Record("a", "ok", "", 0.01, 10.0, 10.01),
               run.Record("b", "refused", "r", 0.002, 20.0, 20.002),
               run.Record("c", "failed", "f", 0.003, 30.0, 30.003)]
    m = run.end_to_end(records, 1.0, [9.8, 10.2, 20.1], [0.001, 0.004, 0.003])
    assert m["ops_per_s"] == 1 / 0.015
    assert m["op_ms_p50"] == 1000.0
    assert abs(m["op_ms_geomean"] - 1e3 * 0.01 ** (1 / 3)) < 1e-9
    assert abs(m["ref_ms"] / (1e3 * 1.2e-8 ** (1 / 3)) - 1) < 1e-12
    limit_ref = 1.0 / (run.BASELINE_REF_MS / 1e3)
    # "a" is scaled by the two samples around it, the others by the nearest
    assert abs(m["op_geomean_ref"] / (5.0 * limit_ref ** 2) ** (1 / 3) - 1) < 1e-12
    assert abs(m["ops_per_kref"] / (1e3 / (5.0 + 2 / 3 + 1)) - 1) < 1e-12
    assert m["ok_frac"] == 1 / 3 and m["failed_frac"] == 2 / 3
    assert "op_ms_p90" not in m
    # a charged op reads the same on a fast and on a slow machine
    for sample in (0.0001, 0.001):
        m = run.end_to_end(records[1:2], 1.0, [20.0], [sample])
        assert abs(m["op_geomean_ref"] / limit_ref - 1) < 1e-12


def test_same_seed_same_ops_and_identical_outputs():
    for cls in (W.Sweep, W.Verify, W.Peel):
        a, b, c = cls(7).round(0), cls(7).round(0), cls(8).round(0)
        assert [(o.key, o.perm, o.graph) for o in a] == [(o.key, o.perm, o.graph) for o in b]
        assert [(o.key, o.perm, o.graph) for o in a] != [(o.key, o.perm, o.graph) for o in c]
    for cls, ops in ((W.Sweep, slice(0, 40)), (W.Verify, slice(0, 4))):
        wl = cls(7)
        first = [wl.summary(op, wl.run(op)) for op in cls(7).round(0)[ops]]
        again = [wl.summary(op, wl.run(op)) for op in cls(7).round(0)[ops]]
        assert first == again


def test_tracer_counts_calls_and_restores_bindings():
    import teachdim.stars as stars

    original = stars.rtd_value
    wl = W.Sweep(5)
    ops = wl.round(0)[:3]
    tracer = Tracer()
    tracer.install()
    assert stars.rtd_value is not original and dimensions.rtd_value is stars.rtd_value
    with tracer.span("bench.op"):
        for op in ops:
            wl.run(op)
    tracer.uninstall()
    assert stars.rtd_value is original
    table = tracer.table()
    assert table["dimensions.rtd_value.calls"] == 9
    assert table["stars.build_star_class.calls"] == 3
    assert table["stars.build_star_class.concepts"] > 0
    assert table["dimensions.refusals"] == 0
    total = sum(v for k, v in table.items() if k.endswith(".s"))
    assert abs(total - (tracer.end[0] - tracer.start[0])) < 1e-6


def test_benchmark_lists_only_metrics_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [run.Record("a", "ok", "", 0.01)]
    e2e = run.end_to_end(records, 1.0, [0.0], [0.001]) | {"setup_s": 0.1}
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)
    tracer = Tracer()
    per_layer = tracer.table() | dict.fromkeys(
        ("trace.overhead_s", "trace.overhead_pct", "trace.spans"), 0)
    assert {m["name"] for m in spec["per_layer"]} <= set(per_layer)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_samples_during_work_and_restores_the_handler():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as probe:
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
    assert len(probe.samples) >= 3 and len(probe.times) == len(probe.samples)
    assert probe.times == sorted(probe.times)
    assert probe.busy == sum(probe.samples)
    assert signal.getsignal(signal.SIGALRM) is before
