"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: a
wrapper replaces a funcevt public function at the attribute its caller
looks it up by (for example ``funcevt.harness.simulate_moving_max``),
so nothing inside ``src/funcevt`` changes.  A span holds its name,
layer, start, end, parent span, run id, process id and a few counts.

Spans stay in memory.  Pool workers forked while the wrappers are
installed inherit them; each worker keeps its own spans and writes them
to ``<worker_dir>/worker-<pid>.json`` when it exits, and the benchmark
process reads those files back after the pool has shut down.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import resource
import time
import warnings
from multiprocessing import util as mp_util
from pathlib import Path

_CLAMP = re.compile(r"clamped (\d+) tail values")


class Recorder:
    """In-memory span store; one per benchmark process."""

    def __init__(self, worker_dir):
        self.owner = os.getpid()
        self.worker_dir = Path(worker_dir)
        self.spans = []
        self.stack = []
        self.notes = set()  # what the trace could not record
        self.run = None
        self._serial = 0
        self._worker_pid = None

    def _enter_process(self):
        pid = os.getpid()
        if pid != self.owner and pid != self._worker_pid:
            # first span in a freshly forked worker: drop the parent's
            # finished spans copied by fork, keep the open stack so that
            # worker spans hang under the parent's open span
            self._worker_pid = pid
            self.spans = []
            mp_util.Finalize(None, self._flush_worker, exitpriority=10)
        return pid

    def open(self, name, layer):
        pid = self._enter_process()
        self._serial += 1
        span = {
            "id": f"{pid}:{self._serial}",
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "layer": layer,
            "run": self.run,
            "pid": pid,
            "counts": {},
            "start": time.perf_counter(),
            "end": None,
        }
        self.stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    def _flush_worker(self):
        doc = {
            "pid": os.getpid(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "notes": sorted(self.notes),
            "spans": self.spans,
        }
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def collect_workers(self):
        """Merge spans flushed by exited workers; returns their peak RSS in kB."""
        rss = []
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            with open(path) as fh:
                doc = json.load(fh)
            path.unlink()
            self.spans.extend(doc["spans"])
            self.notes.update(doc["notes"])
            rss.append(doc["maxrss_kb"])
        return rss

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# --- counts taken from the result at a boundary ------------------------

def _count_columns(result):
    return {"columns": int(result.flag.size), "flagged": int(result.flag.sum())}


def _count_clipped(result):
    return {"clipped": int(result.clipped)}


def _count_report(result):
    return {"reps": int(result.reps), "flagged": int(result.flagged)}


# (module, attribute owner, attribute, layer, counter).  The owner is the
# name the caller resolves at call time: a module global of the calling
# module, or a class for methods.  Calls inside one module are not
# boundaries and are not wrapped (build_tail_field's own calls to
# tail_empirical_process stay inside its span).
TARGETS = (
    ("funcevt.cli", None, "main", "cli", None),
    ("funcevt.cli", None, "load_config", "harness", None),
    ("funcevt.cli", None, "run_experiment", "harness", _count_report),
    ("funcevt.cli", None, "export_report", "harness", None),
    ("funcevt.cli", None, "check_report", "harness", None),
    ("funcevt.cli", None, "simulate_limit_field", "limit_theory", _count_clipped),
    ("funcevt.cli", None, "limit_functionals", "limit_theory", None),
    ("funcevt.harness", None, "simulate_moving_max", "process_sim", None),
    ("funcevt.harness", None, "simulate_pareto_gbm", "process_sim", None),
    ("funcevt.harness", None, "pareto_transform", "path_model", None),
    ("funcevt.harness", None, "estimate_curves", "estimators", _count_columns),
    ("funcevt.harness", None, "tail_empirical_process", "tail_process", None),
    ("funcevt.harness", None, "tail_quantile_stat", "tail_process", None),
    ("funcevt.limit_theory", None, "covariance_matrix", "exponent_measure", None),
    ("funcevt.exponent_measure", "MeasureOracle", "intersection_mass",
     "exponent_measure", None),
    # called by the benchmark itself on the sample-analysis workload
    ("funcevt.path_model", None, "pareto_transform", "path_model", None),
    ("funcevt.estimators", None, "estimate_curves", "estimators", _count_columns),
    ("funcevt.tail_process", None, "tail_quantile_stat", "tail_process", None),
    ("funcevt.tail_process", None, "build_tail_field", "tail_process", None),
)


def _traced(rec, fn, name, layer, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name, layer)
        try:
            if layer == "path_model":
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", RuntimeWarning)
                    result = fn(*args, **kwargs)
            else:
                caught = ()
                result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        clamps = 0
        for w in caught:
            match = _CLAMP.search(str(w.message))
            clamps += int(match.group(1)) if match else 0
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        if layer == "path_model":
            span["counts"]["clamps"] = clamps
        if counter is not None:
            try:
                span["counts"].update(counter(result))
            except Exception as exc:  # the result changed shape: its counts read 0
                rec.notes.add(f"{name}: counts not read ({exc!r})")
        return result

    return wrapper


class Tracer:
    """Installs and removes the boundary wrappers around funcevt.

    A target that funcevt no longer has is skipped and named in the
    recorder's notes; the metrics of its layer then read 0.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def install(self):
        for module, owner_name, attr, layer, counter in TARGETS:
            where = f"{module}.{owner_name + '.' if owner_name else ''}{attr}"
            try:
                mod = importlib.import_module(module)
                owner = getattr(mod, owner_name) if owner_name else mod
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.recorder.notes.add(f"{where}: not found, not traced")
                continue
            name = f"{layer}.{attr}"
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, _traced(self.recorder, fn, name, layer, counter))

    def remove(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


# --- self-time arithmetic ----------------------------------------------

def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    hi = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if hi is None or a > hi:
            total += b - a
            hi = b
        elif b > hi:
            total += b - hi
            hi = b
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that its children cover.

    Children running in parallel (pool workers) are merged first, so a
    parent's self time is the part of its interval where no child ran.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s["id"], ())
        inside = covered(
            (max(c["start"], s["start"]), min(c["end"], s["end"])) for c in kids
        )
        out[s["id"]] = (s["end"] - s["start"]) - inside
    return out


def layer_metrics(spans, owner, workers):
    """Per-layer metrics of one run from its spans.

    owner is the benchmark's process id; workers the configured pool
    size (1 when the run has no pool).
    """
    own = self_times(spans)

    def total(pred, key=None):
        return sum(
            own[s["id"]] if key is None else s["counts"].get(key, 0)
            for s in spans
            if pred(s)
        )

    def named(*names):
        return lambda s: s["name"] in names

    def count(pred):
        return sum(1 for s in spans if pred(s))

    columns = total(named("estimators.estimate_curves"), "columns")
    reps = total(named("harness.run_experiment"), "reps")
    pid_of = {s["id"]: s["pid"] for s in spans}
    roots = [s for s in spans if s["pid"] == owner and s["parent"] not in pid_of]
    worker_roots = [
        s for s in spans if s["pid"] != owner and pid_of.get(s["parent"]) == owner
    ]
    harness_wall = sum(
        s["end"] - s["start"] for s in spans if s["name"] == "harness.run_experiment"
    )
    busy = sum(s["end"] - s["start"] for s in worker_roots)
    pointwise = named(
        "tail_process.tail_empirical_process", "tail_process.tail_quantile_stat"
    )
    return {
        "path_model.pareto_transform_s": total(named("path_model.pareto_transform")),
        "path_model.tail_clamps": total(named("path_model.pareto_transform"), "clamps"),
        "process_sim.simulate_s": total(lambda s: s["layer"] == "process_sim"),
        "process_sim.calls": count(lambda s: s["layer"] == "process_sim"),
        "estimators.estimate_curves_s": total(named("estimators.estimate_curves")),
        "estimators.columns": columns,
        "estimators.flagged_share": (
            total(named("estimators.estimate_curves"), "flagged") / columns
            if columns else 0.0
        ),
        "tail_process.field_s": total(named("tail_process.build_tail_field")),
        "tail_process.pointwise_s": total(pointwise),
        "tail_process.calls": count(pointwise),
        "exponent_measure.intersection_mass_s": total(
            named("exponent_measure.intersection_mass")
        ),
        "exponent_measure.intersection_mass_calls": count(
            named("exponent_measure.intersection_mass")
        ),
        "exponent_measure.covariance_self_s": total(
            named("exponent_measure.covariance_matrix")
        ),
        "limit_theory.field_self_s": total(named("limit_theory.simulate_limit_field")),
        "limit_theory.functionals_s": total(named("limit_theory.limit_functionals")),
        "limit_theory.clipped": total(named("limit_theory.simulate_limit_field"), "clipped"),
        "harness.self_s": total(lambda s: s["layer"] == "harness"),
        "harness.flagged_share": (
            total(named("harness.run_experiment"), "flagged") / reps if reps else 0.0
        ),
        "harness.worker_busy_share": (
            busy / (workers * harness_wall) if workers > 1 and harness_wall else 0.0
        ),
        "cli.self_s": total(lambda s: s["layer"] == "cli"),
        "trace.accounted_s": covered((s["start"], s["end"]) for s in roots),
    }
