"""The four benchmark workloads: inputs, one timed run, correctness gate.

Each workload has three steps:

* ``setup(seed, workdir)`` imports funcevt and makes the workload's
  inputs from the seed (config JSON, argument lists, a path sample).
  Its wall time is ``setup_s``.
* ``run()`` is one timed run.  The experiment and limit workloads call
  ``funcevt.cli.main`` in process, as a user's command would run; the
  sample-analysis workload calls the library directly.
* ``collect(raw)`` gathers everything the run produced (exit code,
  stdout, output files, arrays) untimed, and ``check(output)`` returns
  the list of problems found in it; an empty list means correct.

Byte identity across runs of one seed is checked by the caller through
``fingerprint(output)``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from pathlib import Path

TAILCOV_PAIRS = ((0.0, 0.5), (0.25, 0.75), (0.0, 0.25))
# |cov - nu| may exceed 0.1 by this many of the report's own standard
# errors before the run counts as wrong; see README "Correctness gates"
TAILCOV_SE_WINDOW = 5.0
# 12 geometric k in [20, 2000] that include k = 200
SWEEP_K = tuple(int(round(20 * 10 ** (j / 6))) for j in range(12))
HILL_WINDOW = (0.7, 1.3)
# closed-form variances of the limit functionals at gamma = 0
LIMIT_VARIANCES = {
    "moment1": 1.0, "moment2": 20.0, "index": 2.0, "location": 1.0, "scale": 3.0,
}
LIMIT_TOL = 0.1


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _norm_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def tailcov_closed_form(family, gap):
    """nu(C_{t,1} n C_{s,1}) at gap |t - s| for the default kernels."""
    if family == "moving-max":
        return math.exp(-gap / 2.0)  # double-exponential kernel, rate 1
    return 2.0 * _norm_cdf(-math.sqrt(gap) / 2.0)


class _CliWorkload:
    """A workload that is one ``funcevt`` command run in process."""

    out_name = ""

    def _prepare_out(self, workdir):
        self.out = Path(workdir) / self.out_name
        self.prepare()

    def prepare(self):
        """Remove the previous run's output so a run that writes nothing shows."""
        self.out.unlink(missing_ok=True)

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(self.argv)
        return code, buf.getvalue()

    def collect(self, raw):
        code, stdout = raw
        data = self.out.read_bytes() if self.out.exists() else b""
        return {"exit": code, "stdout": stdout, "file": data}

    def fingerprint(self, output):
        return _digest((output["exit"], output["stdout"], output["file"]))


class TailcovWorkload(_CliWorkload):
    """``funcevt experiment --check`` on a tailcov config."""

    out_name = "report.csv"

    def __init__(self, name, family, workers, reps):
        self.name = name
        self.family = family
        self.workers = workers
        self.reps = reps

    def setup(self, seed, workdir):
        import funcevt.cli
        from funcevt.harness import ExperimentConfig, save_config

        self.cli = funcevt.cli
        self._prepare_out(workdir)
        cfg = ExperimentConfig(
            kind="tailcov", family=self.family, n=5000, k=200, reps=self.reps,
            seed=seed, pairs=TAILCOV_PAIRS, out=str(self.out),
        )
        config = Path(workdir) / "config.json"
        save_config(cfg, config)
        self.argv = [
            "experiment", "--config", str(config),
            "--workers", str(self.workers), "--check",
        ]

    def check(self, output):
        code, text = output["exit"], output["file"].decode()
        if code not in (0, 2):
            return [f"exit code {code}"]
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["t", "mean", "var", "var_limit", "ks"]:
            return ["report CSV header missing"]
        body = [[float(v) for v in row] for row in rows[1:]]
        if len(body) != len(TAILCOV_PAIRS):
            return [f"report has {len(body)} rows, want {len(TAILCOV_PAIRS)}"]
        problems = []
        over = False
        for (t, s), (gap, cov, se2, nu, _) in zip(TAILCOV_PAIRS, body):
            if gap != abs(t - s):
                problems.append(f"pair ({t}, {s}): gap {gap}")
            want = tailcov_closed_form(self.family, gap)
            if not abs(nu - want) <= 1e-9:
                problems.append(f"gap {gap}: oracle {nu!r}, closed form {want!r}")
            if not (math.isfinite(cov) and se2 > 0.0):
                problems.append(f"gap {gap}: cov {cov!r}, se^2 {se2!r}")
                continue
            err = abs(cov - nu)
            over = over or err > 0.1
            if err > 0.1 + TAILCOV_SE_WINDOW * math.sqrt(se2):
                problems.append(f"gap {gap}: |cov - nu| = {err:.4f} beyond the window")
        verdict = "FAIL" if over else "PASS"
        if code != (2 if over else 0) or verdict + " " not in output["stdout"]:
            problems.append(f"--check verdict disagrees with the report (exit {code})")
        return problems


class LimitWorkload(_CliWorkload):
    """``funcevt limit`` for the moving-max family."""

    name = "limit-mm"
    workers = 1
    out_name = "limit.json"

    def setup(self, seed, workdir):
        import funcevt.cli

        self.cli = funcevt.cli
        self._prepare_out(workdir)
        self.argv = [
            "limit", "--family", "moving-max", "--tgrid", "3", "--xgrid", "128",
            "--xmax", "1e4", "--draws", "10000", "--seed", str(seed),
            "--out", str(self.out),
        ]

    def check(self, output):
        if output["exit"] != 0:
            return [f"exit code {output['exit']}"]
        doc = json.loads(output["file"])
        problems = []
        for name, want in LIMIT_VARIANCES.items():
            got = doc["variance"][name]
            if len(got) != 3:
                problems.append(f"{name}: {len(got)} times, want 3")
            for t, v in zip(doc["t"], got):
                if not abs(v / want - 1.0) <= LIMIT_TOL:
                    problems.append(f"{name} at t={t}: variance {v:.4f}, want {want}")
        return problems


class SampleWorkload:
    """One pareto-gbm sample: transform, k sweep, quantile stats, tail field."""

    name = "sample-analysis"
    workers = 1

    def setup(self, seed, workdir):
        import funcevt.estimators
        import funcevt.path_model
        import funcevt.tail_process
        from funcevt.process_sim import SimConfig, simulate_pareto_gbm

        self.pm = funcevt.path_model
        self.est = funcevt.estimators
        self.tp = funcevt.tail_process
        grid = self.pm.make_grid(m=101)
        self.sample = simulate_pareto_gbm(grid, SimConfig(n=20000, seed=seed))

    def prepare(self):
        pass

    def run(self):
        model = self.pm.marginal_model_for(self.sample)
        zeta = self.pm.pareto_transform(self.sample, model)
        curves = [self.est.estimate_curves(self.sample, k) for k in SWEEP_K]
        quantiles = [self.tp.tail_quantile_stat(zeta, k, -1.0) for k in SWEEP_K]
        field = self.tp.build_tail_field(zeta, 200, n_x=64)
        return zeta, curves, quantiles, field

    def collect(self, raw):
        import numpy as np

        zeta, curves, quantiles, field = raw
        parts = [zeta.values.tobytes(), field.x_grid.tobytes(), field.values.tobytes()]
        for c in curves:
            parts += [getattr(c, a).tobytes() for a in (
                "gamma_plus", "gamma_minus", "gamma", "u_hat", "a_hat", "flag")]
        parts += [q.tobytes() for q in quantiles]
        finite = np.isfinite(field.values).all() and all(
            np.isfinite(c.gamma_plus).all() for c in curves)
        return {
            "digest": _digest(parts),
            "hill_median": float(np.median(curves[SWEEP_K.index(200)].gamma_plus)),
            "finite": bool(finite),
        }

    def fingerprint(self, output):
        return output["digest"]

    def check(self, output):
        problems = []
        lo, hi = HILL_WINDOW
        if not lo <= output["hill_median"] <= hi:
            problems.append(
                f"median Hill at k=200 is {output['hill_median']:.4f}, "
                f"outside [{lo}, {hi}]"
            )
        if not output["finite"]:
            problems.append("non-finite Hill curve or tail field value")
        return problems


WORKLOADS = {
    "tailcov-mm": lambda: TailcovWorkload("tailcov-mm", "moving-max", 1, 64),
    "tailcov-gbm-w2": lambda: TailcovWorkload("tailcov-gbm-w2", "pareto-gbm", 2, 200),
    "sample-analysis": SampleWorkload,
    "limit-mm": LimitWorkload,
}


def timed_setup(name, seed, workdir):
    """A fresh workload set up in workdir; returns it with the set-up wall time."""
    workload = WORKLOADS[name]()
    Path(workdir).mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    workload.setup(seed, workdir)
    return workload, time.perf_counter() - start
