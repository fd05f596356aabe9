"""Benchmark of funcevt: one workload per call, or every workload.

    python3 perfbench/run.py --workload tailcov-mm --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26 --trace 0

Run from the repository root.  The program is imported from ``src/``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Result records (environment, every sample) and span traces are written
under ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import spans  # noqa: E402
from perfbench.workloads import WORKLOADS, timed_setup  # noqa: E402

# set-ups per run (the benchmark's own, the rest in fresh interpreters)
SETUP_SAMPLES = 7
# fewest timed runs of each kind (untraced, traced) whatever --seconds says
MIN_RUNS = 3
# a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10


def declared_units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def tail(values):
    """(level, value) of the highest percentile with TAIL_BEYOND samples
    beyond it, or None when that percentile would not lie above the median."""
    n = len(values)
    if n <= 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(values)[n - TAIL_BEYOND - 1]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        timeout=30,
    )
    return done.stdout.strip() or "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed, load_start):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "load_1min_start": load_start,
        "load_1min_end": os.getloadavg()[0],
        "git_commit": git_commit(),
        "seed": seed,
    }


def probe_setup(name, seed):
    """Set-up time of the workload in a fresh interpreter."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    done = subprocess.run(
        [sys.executable, str(probe), name, str(seed), str(OUT / f"{name}-seed{seed}-probe")],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Bench:
    """Timed runs of one set-up workload, with the correctness gate.

    probe, when given, returns one more set-up time; its calls are spread
    over the measured seconds so that set-up and run samples see the same
    machine.
    """

    def __init__(self, workload, workdir, trace, probe=None, setup_s=()):
        self.workload = workload
        self.recorder = spans.Recorder(workdir / "workers")
        self.recorder.worker_dir.mkdir(parents=True, exist_ok=True)
        self.tracer = spans.Tracer(self.recorder) if trace else None
        self.probe = probe
        self.setup_s = list(setup_s)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.run_s = []
        self.traced = []  # (wall, layer metrics) per traced run
        self.worker_rss_kb = []

    def once(self, timed=True, traced=False):
        wl = self.workload
        self.attempted += 1
        run_id = self.attempted
        wl.prepare()
        if traced:
            self.tracer.install()
            self.recorder.run = run_id
        start = time.perf_counter()
        try:
            raw = wl.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            raw = None
        finally:
            wall = time.perf_counter() - start
            if traced:
                self.tracer.remove()
        try:
            problems = ["exception"] if raw is None else self.gate(wl.collect(raw))
        except Exception as exc:  # a malformed output is a failed run
            problems = [f"output check raised {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.append({"run": run_id, "traced": traced, "problems": problems})
            return
        if traced:
            self.worker_rss_kb += self.recorder.collect_workers()
            run_spans = [s for s in self.recorder.spans if s["run"] == run_id]
            self.traced.append((wall, spans.layer_metrics(
                run_spans, self.recorder.owner, wl.workers)))
        elif timed:
            self.run_s.append(wall)

    def gate(self, output):
        """Problems of one run's output; the first good output is the reference."""
        wl = self.workload
        fp = wl.fingerprint(output)
        if self.reference is None:
            problems = wl.check(output)
            if not problems:
                self.reference = fp
            return problems
        if fp != self.reference:
            return ["output differs from the first run of this seed"] + wl.check(output)
        return []

    def enough(self):
        return (
            len(self.run_s) >= MIN_RUNS
            and (self.tracer is None or len(self.traced) >= MIN_RUNS)
            and (self.probe is None or len(self.setup_s) >= SETUP_SAMPLES)
        )

    def measure(self, seconds):
        """Timed runs until seconds have passed and there are enough samples.

        A failed run makes the result incorrect whatever follows, so once
        one has failed the measurement ends at the deadline, samples or
        not; a kind of run that always fails cannot keep it going.
        """
        start = time.perf_counter()
        self.once(timed=False)  # warm-up; its output is the reference
        while True:
            self.once()
            if self.tracer is not None:
                self.once(traced=True)
            elapsed = time.perf_counter() - start
            if self.probe is not None:
                # set-up i is due once i / SETUP_SAMPLES of the time has
                # passed; the last ones do not wait for more timed runs
                due = SETUP_SAMPLES if elapsed >= seconds else min(
                    SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * elapsed / seconds))
                while len(self.setup_s) < due:
                    self.setup_s.append(self.probe())
            if elapsed >= seconds and (self.failed or self.enough()):
                return


def per_layer(bench):
    layers = [m for _, m in bench.traced]
    out = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    base = statistics.fmean(bench.run_s)
    out["trace.overhead_share"] = statistics.fmean(w for w, _ in bench.traced) / base - 1.0
    out["trace.accounted_share"] = out.pop("trace.accounted_s") / base
    out["harness.worker_peak_rss_mb"] = max(bench.worker_rss_kb, default=0) / 1024.0
    return out


def run_one(name, seed, seconds, trace):
    load_start = os.getloadavg()[0]
    workdir = OUT / f"{name}-seed{seed}"
    workload, own_setup = timed_setup(name, seed, workdir)
    import funcevt

    if Path(funcevt.__file__).resolve().parent != SRC / "funcevt":
        raise SystemExit(f"funcevt imported from {funcevt.__file__}, not {SRC}")
    probe = None if trace else (lambda: probe_setup(name, seed))
    bench = Bench(workload, workdir, trace, probe, [own_setup])
    bench.measure(seconds)
    ok = bench.failed == 0 and bench.enough()

    record = {
        "workload": name,
        "env": environment(seed, load_start),
        "setup_s_samples": bench.setup_s,
        "run_s_samples": bench.run_s,
        "problems": bench.problems,
    }
    run_tail = tail(bench.run_s)
    print(f"{name} seed {seed}: {bench.attempted} runs attempted, {bench.failed} failed"
          f" (one warm-up, {len(bench.run_s)} timed untraced, {len(bench.traced)} traced)")
    for item in bench.problems:
        print(f"  run {item['run']} FAILED: {'; '.join(item['problems'])}")
    if bench.run_s:
        print(f"  run_s median = {statistics.median(bench.run_s):.4f} s"
              f" over {len(bench.run_s)} samples")
    if run_tail:
        print(f"  run_s p{run_tail[0]:.1f} = {run_tail[1]:.4f} s"
              f" (highest percentile with {TAIL_BEYOND} samples beyond it)")
    else:
        print(f"  run_s: {len(bench.run_s)} samples, too few for a percentile above"
              f" the median with {TAIL_BEYOND} samples beyond it")
    record["run_s_tail"] = run_tail
    print("  env " + json.dumps(record["env"], sort_keys=True))

    metrics = {}
    if trace:
        record["trace_notes"] = sorted(bench.recorder.notes)
        for note in record["trace_notes"]:
            print(f"  trace: {note}")
        if bench.traced and bench.run_s:
            metrics = per_layer(bench)
        bench.recorder.write(OUT / f"trace-{name}-seed{seed}.jsonl")
        record["traced_walls"] = [w for w, _ in bench.traced]
    elif bench.run_s:
        metrics = {
            # the mean, not the median: see README "Noise"
            "run_s": statistics.fmean(bench.run_s),
            "setup_s": statistics.median(bench.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = declared_units()
    for key, value in metrics.items():
        print(f"  {key:42s} {value:14.6g} {units[key]}")
    record["metrics"] = metrics
    with open(OUT / f"result-{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    return {
        "correct": ok,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed, seconds, trace):
    """Every workload in its own process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        try:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within 900 s")
            combined["correct"] = False
            continue
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "funcevt" / "__init__.py").is_file():
        print(f"error: no funcevt sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
