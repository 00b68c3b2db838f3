"""Span tracer for the traced benchmark run, attached from outside the
library.

``Tracer`` wraps the public functions listed in ``LAYERS`` and rebinds
every attribute of a loaded ``teachdim`` module that refers to one of
them: ``checks``, ``stars``, ``connected`` and ``teaching`` bind names
such as ``rtd`` with ``from .dimensions import rtd``, so rebinding only
``teachdim.dimensions.rtd`` would miss their calls.  Hot helpers such as
``graphs.bits`` or ``concepts.version_space_mask`` are deliberately not
wrapped; their time counts toward their callers.

Each wrapped call records (name, start, end, parent span id) in memory.
A span's self time is its duration minus the durations of its direct
child spans.  Generators (``connected_set_masks``) return before their
work is done, so only their call count is meaningful; the iteration
time is charged to the caller.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from teachdim.errors import BudgetExceededError, TeacherPreconditionError

LAYERS = {
    "dimensions": ("vcd", "rtd", "rtd_value", "td_of", "td_min", "td_max",
                   "rtd_subclass_lower_bound", "sauer_rtd_implication"),
    "teaching": ("plan_to_teacher", "verify_pb_teacher", "lex_refine",
                 "subset_preferences", "superset_preferences"),
    "stars": ("build_star_class", "vmax_partition", "star_vcd_characterization",
              "star_subset_teacher", "star_special_teacher", "star_triple"),
    "connected": ("build_con_class", "maximal_opponents", "leaf_tree_condition",
                  "con_tree_teacher", "con_superset_teacher",
                  "con_vcd_matching_teacher", "con_triple"),
    "graphs": ("connected_set_masks", "max_leaf_number", "max_leaf_number_exhaustive"),
    "checks": ("check_graph", "check_star_graph", "check_con_graph"),
    "families": ("random_graph", "complete_graph", "path_graph", "cycle_graph"),
    "concepts": ("is_shattered",),
}


def _status_counts(results) -> tuple[int, int]:
    statuses = Counter(r.status for r in results)
    return statuses["fail"], statuses["na"]


#: Counts taken from a call's return value, outside its span:
#: name -> (count keys, function of the return value giving their values).
COUNTERS = {
    "dimensions.rtd": (("levels",), lambda cert: (len(cert.levels),)),
    "stars.build_star_class": (("concepts",), lambda cc: (len(cc),)),
    "connected.build_con_class": (("concepts",), lambda cc: (len(cc),)),
    "teaching.plan_to_teacher": (("pairs",), lambda t: (t.preference.pair_count(),)),
    "checks.check_star_graph": (("fail", "na"), _status_counts),
    "checks.check_con_graph": (("fail", "na"), _status_counts),
}


class Tracer:
    """In-memory spans and counts for the wrapped functions.

    ``install()`` rebinds the wrappers, ``uninstall()`` restores the
    originals, so untraced executions in the same process run the
    library exactly as it is.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        wrappers = {}
        for mod, fns in LAYERS.items():
            module = sys.modules[f"teachdim.{mod}"]
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        self.bindings = []
        for name, module in list(sys.modules.items()):
            if name != "teachdim" and not name.startswith("teachdim."):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self.bindings.append((module, attr) + wrappers[id(value)])

    def install(self) -> None:
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, e.g. one op."""
        sid = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, qual: str, fn):
        nid = self._intern(qual)
        counter = COUNTERS.get(qual)
        refusal_key = qual.split(".")[0] + ".refusals"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except (BudgetExceededError, TeacherPreconditionError) as exc:
                self._close(sid)
                if not getattr(exc, "_perfbench_counted", False):
                    # counted once, at the innermost wrapped function it leaves
                    exc._perfbench_counted = True
                    self.counts[refusal_key if isinstance(exc, BudgetExceededError)
                                else qual + ".refused"] += 1
                raise
            except BaseException:
                self._close(sid)
                raise
            self._close(sid)
            if counter is not None:
                keys, count = counter
                for key, value in zip(keys, count(out)):
                    self.counts[f"{qual}.{key}"] += value
            return out

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def table(self) -> dict[str, float | int]:
        """``<name>.s`` (self seconds) and ``<name>.calls`` for every span
        name, plus every count: ``<qual>.<key>`` from ``COUNTERS``,
        ``<module>.refusals`` (``BudgetExceededError``) and
        ``<qual>.refused`` (``TeacherPreconditionError``), zero when
        nothing was counted."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        self_time = duration.copy()
        child = a["parent"] >= 0
        np.subtract.at(self_time, a["parent"][child], duration[child])
        size = len(self.names)
        seconds = np.bincount(a["name_id"], weights=self_time, minlength=size)
        calls = np.bincount(a["name_id"], minlength=size)
        out: dict[str, float | int] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.s"] = float(seconds[nid])
            out[f"{name}.calls"] = int(calls[nid])
        for mod, fns in LAYERS.items():
            out[f"{mod}.refusals"] = 0
            for fn in fns:
                out[f"{mod}.{fn}.refused"] = 0
        for qual, (keys, _) in COUNTERS.items():
            for key in keys:
                out[f"{qual}.{key}"] = 0
        out.update(self.counts)
        return out
