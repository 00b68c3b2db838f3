#!/usr/bin/env python3
"""teachdim benchmark: run one workload in this fresh process and check
every output.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it loads the library from the
checkout's ``src/``.  ``--trace 0`` times whole rounds of seeded ops
for about ``--seconds`` and reports the end-to-end metrics
listed in ``BENCHMARK.json``.  ``--trace 1`` runs a fixed list of ops
(the first ``trace_rounds`` rounds) twice each, once untraced and once
with every public library function wrapped, and reports the per-layer
metrics and the tracing overhead (traced minus untraced wall time of the
same ops).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A readable report goes to
stderr.  The full result, with the machine and version metadata, goes to
``perfbench/results/<workload>-seed<seed>-trace<0|1>.json``, and the
traced run's spans to ``perfbench/results/<workload>-seed<seed>.spans.npz``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
#: Latency percentiles are reported only from this many ops on.
P90_MIN_OPS = 100
#: Wall-clock period of the reference-loop samples taken during a run.
PROBE_INTERVAL_S = 0.05
#: Each op is scaled by the samples taken from this long before it
#: started until this long after it ended.
SCALE_WINDOW_S = 0.5
#: The reference loop's time on the machine the baseline was measured
#: on; it turns each workload's per-op limit into reference units.
BASELINE_REF_MS = 0.27


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "verify", "peel"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: import, generate the inputs, print 'ready', exit")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

@dataclass
class Record:
    """One executed op; ``start`` and ``end`` are its ``perf_counter``
    bounds (untraced runs only)."""

    label: str
    outcome: str
    reason: str
    seconds: float
    start: float = 0.0
    end: float = 0.0


def reference_loop() -> int:
    """Fixed pure-Python work shaped like the library's inner loops
    (small-int arithmetic, 1024-bit shifts and masks, set inserts) but
    independent of it: its time tracks how fast the machine currently
    runs this kind of code."""
    full = (1 << 1024) - 1
    x, acc, seen = full, 0, set()
    for i in range(400):
        x = (x >> 3) ^ (x << 2 & full) | i
        acc += (x & 0xFFFF).bit_count()
        seen.add(acc & 1023)
    return acc + len(seen)


class SpeedProbe:
    """Times ``reference_loop`` every ``PROBE_INTERVAL_S`` of wall time,
    from a SIGALRM handler, so samples fall inside long ops too.

    A shared machine can change speed by tens of percent within minutes;
    dividing op times by the reference time measured around them cancels
    most of that.  ``times`` holds when each sample started and
    ``samples`` how long it took; ``busy`` accumulates the time spent in
    the handler, which callers subtract from the ops it interrupted.
    """

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.busy = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference_loop()
        dt = perf_counter() - t0
        self.times.append(t0)
        self.samples.append(dt)
        self.busy += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_op(wl, op):
    """(output, exception, seconds) of one op; only library calls are timed."""
    t0 = perf_counter()
    try:
        out, exc = wl.run(op), None
    except Exception as e:  # judged by the workload's verdict
        out, exc = None, e
    return out, exc, perf_counter() - t0


def timed_run(wl, seconds: float, probe: SpeedProbe) -> list[Record]:
    """Whole rounds of ops, stopping at the round boundary nearest to
    ``seconds``; op times exclude the probe's samples."""
    records = []
    start = perf_counter()
    r = 0
    while True:
        for op in wl.round(r):
            busy, t0 = probe.busy, perf_counter()
            out, exc, dt = run_op(wl, op)
            t1 = perf_counter()
            dt -= probe.busy - busy
            records.append(Record(op.label, *wl.verdict(op, out, exc), dt, t0, t1))
        r += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / r / 2 >= seconds:
            return records


def traced_run(workload_cls, seed: int):
    """Each op of the first ``trace_rounds`` rounds untraced and traced,
    alternating which goes first so that warm caches favour neither."""
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.span("bench.setup"):
        wl = workload_cls(seed)
        ops = [op for r in range(wl.trace_rounds) for op in wl.round(r)]
    tracer.uninstall()
    records = []
    wall = {False: 0.0, True: 0.0}
    digest = hashlib.sha256()
    for k, op in enumerate(ops):
        runs = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            with tracer.span("bench.op") if traced else nullcontext():
                runs[traced] = run_op(wl, op)
            if traced:
                tracer.uninstall()
            wall[traced] += runs[traced][2]
        summaries = [wl.summary(op, out) if exc is None else f"{type(exc).__name__}: {exc}"
                     for out, exc, _ in runs.values()]
        out, exc, dt = runs[False]
        outcome, reason = wl.verdict(op, out, exc)
        if summaries[0] != summaries[1]:
            outcome, reason = "failed", "traced and untraced outputs differ"
        digest.update(summaries[0].encode() + b"\0")
        records.append(Record(op.label, outcome, reason, dt))
    table = tracer.table()
    overhead = wall[True] - wall[False]
    table.update({
        "trace.ops": len(ops),
        "trace.spans": len(tracer.start),
        "trace.untraced_s": wall[False],
        "trace.traced_s": wall[True],
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / wall[False],
    })
    return records, tracer, table, digest.hexdigest()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(records: list[Record], limit_s: float, probe_times: list[float],
               probe_samples: list[float]) -> dict[str, float]:
    """Latency statistics charge every op that did not answer correctly
    with at least the per-op limit; ops_per_s counts only correct answers
    over the wall time of every attempted op.

    The ``_ref`` metrics state each op's time in units of the reference
    loop's time around it: the geometric mean of the probe samples from
    ``SCALE_WINDOW_S`` before the op to ``SCALE_WINDOW_S`` after it (at
    least the nearest one).  There the limit is a constant, ``limit_s``
    in units of ``BASELINE_REF_MS``, so a charged op reads the same on a
    fast and a slow machine."""
    def scale(r: Record) -> float:
        i = bisect.bisect_left(probe_times, r.start - SCALE_WINDOW_S)
        j = bisect.bisect_right(probe_times, r.end + SCALE_WINDOW_S)
        i = min(i, len(probe_samples) - 1)
        return geomean(probe_samples[i:max(i + 1, j)])

    in_ref = [r.seconds / scale(r) for r in records]
    limit_ref = limit_s / (BASELINE_REF_MS / 1e3)
    charged = [r.seconds if r.outcome == "ok" else max(r.seconds, limit_s)
               for r in records]
    charged_ref = [t if r.outcome == "ok" else max(t, limit_ref)
                   for r, t in zip(records, in_ref)]
    ok = sum(1 for r in records if r.outcome == "ok")
    attempted = len(records)
    out = {
        "op_geomean_ref": geomean(charged_ref),
        "ops_per_kref": 1e3 * ok / sum(in_ref),
        "ops_per_s": ok / sum(r.seconds for r in records),
        "op_ms_p50": 1e3 * statistics.median(charged),
        "op_ms_geomean": 1e3 * geomean(charged),
        "ref_ms": 1e3 * geomean(probe_samples),
        "ref_samples": len(probe_samples),
        "ok_frac": ok / attempted,
        "failed_frac": (attempted - ok) / attempted,
        "ops": attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if attempted >= P90_MIN_OPS:
        out["op_ms_p90"] = 1e3 * statistics.quantiles(charged, n=10)[8]
    return out


def measure_setup(workload: str, seed: int) -> tuple[float, list[float]]:
    """Median wall time from spawning a fresh interpreter to its 'ready'
    line: the library imported as the CLI imports it, inputs generated."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = ""
            try:
                if select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)[0]:
                    line = proc.stdout.readline()
                t1 = perf_counter()
            finally:
                if line.strip() != "ready":
                    proc.kill()
                proc.wait(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        times.append(t1 - t0)
    return statistics.median(times), times


def machine_meta() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "teachdim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def report(args, meta, records, values, metric_specs, extra_lines):
    n_ok = sum(1 for r in records if r.outcome == "ok")
    n_refused = sum(1 for r in records if r.outcome == "refused")
    n_failed = len(records) - n_ok - n_refused
    err = sys.stderr
    print(f"teachdim benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}: {len(records)} ops, {n_ok} correct, "
          f"{n_refused} known refusals, {n_failed} failed", file=err)
    print(f"  commit {meta['git_commit']} src {meta['src_sha256'][:12]}, "
          f"python {meta['python']}, numpy {meta['numpy']}, nproc {meta['nproc']}, "
          f"{meta['cpu_model']}", file=err)
    for spec in metric_specs:
        print(f"  {spec['name']:<44} {values[spec['name']]:>14.6g} {spec['unit']}", file=err)
    for line in extra_lines:
        print(f"  {line}", file=err)
    for r in [r for r in records if r.outcome != "ok"][:20]:
        print(f"  {r.outcome}: {r.label}: {r.reason}", file=err)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "teachdim" / "__init__.py").is_file():
        print(f"perfbench: no teachdim sources under {SRC}; run inside a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import teachdim.cli  # noqa: F401  (the CLI's import cost is part of set-up)
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload_cls(args.seed).round(0)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = machine_meta()
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta}
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        records, tracer, values, digest = traced_run(workload_cls, args.seed)
        metric_specs = spec["per_layer"]
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.npz"
        tracer.save(spans_path)
        result.update(per_layer=values, outputs_sha256=digest, spans=spans_path.name)
        extra = [f"tracing overhead {values['trace.overhead_s']:.4f} s "
                 f"({values['trace.overhead_pct']:.2f} %) over "
                 f"{values['trace.untraced_s']:.3f} s untraced",
                 f"outputs sha256 {digest}", f"spans written to {spans_path}"]
    else:
        setup_s, setup_runs = measure_setup(args.workload, args.seed)
        wl = workload_cls(args.seed)
        with SpeedProbe() as probe:
            records = timed_run(wl, args.seconds, probe)
        values = end_to_end(records, wl.limit_s, probe.times, probe.samples)
        values["setup_s"] = setup_s
        metric_specs = spec["end_to_end"]
        result.update(end_to_end=values, setup_runs_s=setup_runs, limit_s=wl.limit_s)
        p90 = (f"op_ms_p90 {values['op_ms_p90']:.6g} ms" if "op_ms_p90" in values
               else f"no op_ms_p90 below {P90_MIN_OPS} ops")
        extra = [f"ops_per_s {values['ops_per_s']:.6g} 1/s, op_ms_geomean "
                 f"{values['op_ms_geomean']:.6g} ms, reference loop {values['ref_ms']:.6g} ms",
                 f"op_ms_p50 {values['op_ms_p50']:.6g} ms, {p90}, over {values['ops']} ops",
                 f"failed_frac {values['failed_frac']:.6g} "
                 "(refusals, exceptions and wrong outputs over ops attempted)"]

    failed = sum(1 for r in records if r.outcome == "failed")
    result.update(attempted=len(records), failed=failed,
                  refused=sum(1 for r in records if r.outcome == "refused"),
                  ops=[[r.label, r.outcome, 1e3 * r.seconds] for r in records],
                  failures=[[r.label, r.outcome, r.reason]
                            for r in records if r.outcome != "ok"][:50])
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    report(args, meta, records, values, metric_specs, extra)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
