"""Reproducible Monte Carlo experiments over the whole pipeline.

An ExperimentConfig fully determines an experiment: family, sizes,
replication count and master seed.  Replication r draws its RNG stream
from child r of numpy's SeedSequence spawned off the master seed, so
results are identical no matter how replications are scheduled across
workers.  Reports serialize to CSV (fixed per-row schema
t, mean, var, var_limit, ks) or JSON (full config echo plus the same
rows and kind-specific extras).

Experiment kinds are a closed set:

  normality    distribution of one sqrt(k)-standardized estimator error
               at every grid time, against its limit variance.  CSV
               rows are per time.
  consistency  sup-over-time absolute errors of the four estimator
               statistics on a schedule of (n, k) pairs.  CSV rows are
               per schedule entry and the t column holds n.
  tailcov      empirical covariance of the tail empirical process at
               level 1 between pairs of times, against the exponent
               measure oracle.  CSV rows are per pair; t holds the time
               gap, mean the empirical covariance, var its squared
               standard error and var_limit the oracle value.
  quantile     per-time variance of the tail quantile statistic against
               its limit alpha**2.
  oscillation  pooled conditional frequency of leaving the
               small-oscillation set; a single CSV row with t = s,
               mean the estimate and var_limit the pass threshold.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from funcevt.estimators import estimate_curves
from funcevt.exponent_measure import MeasureOracle
from funcevt.limit_theory import limit_variances_gm0, true_functions
from funcevt.path_model import (
    MOVING_MAX,
    PARETO_GBM,
    DataError,
    make_grid,
    marginal_model_for,
    pareto_transform,
)
from funcevt.process_sim import (
    KernelSpec,
    SimConfig,
    simulate_moving_max,
    simulate_pareto_gbm,
)
from funcevt.tail_process import (
    OscillationConfig,
    oscillation_diagnostic,
    tail_empirical_process,
    tail_quantile_stat,
)

KINDS = ("normality", "consistency", "tailcov", "quantile", "oscillation")
STATISTICS = ("hill", "index", "location", "scale")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, hashable description of one experiment."""

    kind: str
    family: str
    statistic: str = "hill"
    n: int = 0
    k: int = 0
    reps: int = 1
    seed: int = 0
    m: int = 1
    times: tuple = ()
    schedule: tuple = ()  # consistency: ((n, k), ...)
    pairs: tuple = ()  # tailcov: ((t, s), ...)
    alpha: float = -1.0  # quantile exponent
    beta: float = 0.25
    c: float = 1.0
    kernel_shape: str = "double-exp"
    kernel_rate: float = 1.0
    kernel_df: float = 3.0
    trunc_tol: float = 1e-6
    value_floor: float = 0.0  # 0 means per-kind default
    bound_exponent: float = 1.5
    s: float = 0.5  # oscillation window start
    delta: float = 0.018315638888734179  # e**-4
    v: float = 50.0
    K: float = 16.0
    variant: str = "log"
    out: str = ""
    fmt: str = "csv"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown experiment kind {self.kind!r}")
        if self.family not in (MOVING_MAX, PARETO_GBM):
            raise DataError(f"unknown family {self.family!r}")
        if self.statistic not in STATISTICS:
            raise DataError(f"unknown statistic {self.statistic!r}")
        if self.fmt not in ("csv", "json"):
            raise DataError("fmt must be 'csv' or 'json'")
        if int(self.reps) < 1:
            raise DataError("reps must be >= 1")
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(
            self, "schedule", tuple((int(n), int(k)) for n, k in self.schedule)
        )
        object.__setattr__(
            self, "pairs", tuple((float(t), float(s)) for t, s in self.pairs)
        )
        if self.kind == "consistency":
            if not self.schedule:
                raise DataError("consistency kind needs a (n, k) schedule")
            ns = [n for n, _ in self.schedule]
            ks = [k for _, k in self.schedule]
            for n, k in self.schedule:
                if not 1 <= k < n:
                    raise DataError("schedule entries need 1 <= k < n")
            if any(b <= a for a, b in zip(ns, ns[1:])):
                raise DataError("schedule n must be strictly increasing")
            if any(b < a for a, b in zip(ks, ks[1:])):
                raise DataError("schedule k must be nondecreasing")
            ratios = [k / n for n, k in self.schedule]
            if any(b >= a for a, b in zip(ratios, ratios[1:])):
                raise DataError("schedule k/n must be decreasing")
        else:
            if not 1 <= int(self.k) < int(self.n):
                raise DataError("need 1 <= k < n")
        if self.kind == "tailcov" and not self.pairs:
            raise DataError("tailcov kind needs (t, s) pairs")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["times"] = list(d["times"])
        d["schedule"] = [list(row) for row in d["schedule"]]
        d["pairs"] = [list(row) for row in d["pairs"]]
        return d

    @classmethod
    def from_dict(cls, d) -> "ExperimentConfig":
        d = dict(d)
        for key in ("times", "schedule", "pairs"):
            if key in d:
                rows = d[key]
                d[key] = tuple(
                    tuple(r) if isinstance(r, (list, tuple)) else r for r in rows
                )
        return cls(**d)


def config_hash(cfg) -> str:
    """sha256 of the canonical JSON form of a config."""
    text = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def save_config(cfg, path):
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def grid_for(cfg):
    if cfg.kind == "tailcov":
        pts = sorted({t for pair in cfg.pairs for t in pair})
        return make_grid(points=pts)
    if cfg.times:
        return make_grid(points=cfg.times)
    return make_grid(m=cfg.m)


def kernel_for(cfg) -> KernelSpec:
    return KernelSpec(cfg.kernel_shape, cfg.kernel_rate, cfg.kernel_df)


def _floor_for(cfg, n, k):
    """Moving-max speed floor: upper-tail statistics only read values
    well above n/k, so points below a quarter of that never matter."""
    if cfg.value_floor > 0.0:
        return cfg.value_floor
    if cfg.kind == "oscillation":
        return max(1.0, cfg.v / 8.0)
    return max(1.0, (n / k) / 4.0)


def _simulate(cfg, grid, n, k, seed):
    if cfg.family == MOVING_MAX:
        sim = SimConfig(
            n=n,
            seed=seed,
            trunc_tol=cfg.trunc_tol,
            value_floor=_floor_for(cfg, n, max(k, 1)),
        )
        return simulate_moving_max(kernel_for(cfg), grid, sim)
    return simulate_pareto_gbm(grid, SimConfig(n=n, seed=seed))


def _curve_stat(curves, name):
    if name == "hill":
        return curves.gamma_plus
    if name == "index":
        return curves.gamma
    if name == "location":
        return curves.u_hat
    return curves.a_hat


def _replicate(cfg, grid, truth_data, rep, child):
    """One replication; a pure function of its arguments."""
    if cfg.kind == "normality":
        sample = _simulate(cfg, grid, cfg.n, cfg.k, child)
        curves = estimate_curves(sample, cfg.k)
        payload = {
            "hill": curves.gamma_plus,
            "index": curves.gamma,
            "location": curves.u_hat,
            "scale": curves.a_hat,
        }
        flagged = bool(curves.flag.any())
        return rep, payload, flagged

    if cfg.kind == "consistency":
        sub = child.spawn(len(cfg.schedule))
        sups = np.empty((len(cfg.schedule), 4))
        flagged = False
        for i, (n, k) in enumerate(cfg.schedule):
            sample = _simulate(cfg, grid, n, k, sub[i])
            curves = estimate_curves(sample, k)
            flagged = flagged or bool(curves.flag.any())
            u, a = truth_data["u"][i], truth_data["a"][i]
            sups[i, 0] = np.abs(curves.gamma_plus - 1.0).max()
            sups[i, 1] = np.abs(curves.gamma - 1.0).max()
            sups[i, 2] = np.abs((curves.u_hat - u) / a).max()
            sups[i, 3] = np.abs(curves.a_hat / a - 1.0).max()
        return rep, {"sup_errors": sups}, flagged

    sample = _simulate(cfg, grid, cfg.n, cfg.k, child)
    model = marginal_model_for(sample, bound_exponent=cfg.bound_exponent)
    zeta = pareto_transform(sample, model)

    if cfg.kind == "tailcov":
        w = np.array(
            [
                tail_empirical_process(zeta, j, 1.0, cfg.k)
                for j in range(grid.m)
            ]
        )
        return rep, {"w_at_one": w}, False
    if cfg.kind == "quantile":
        q = tail_quantile_stat(zeta, cfg.k, cfg.alpha)
        return rep, {"quantile_stat": q}, not np.all(np.isfinite(q))
    # oscillation
    osc = OscillationConfig(cfg.s, cfg.delta, cfg.v, cfg.K, cfg.beta, cfg.variant)
    report = oscillation_diagnostic(zeta, osc)
    counts = np.array([report.n_conditioning, report.n_exceed], dtype=np.int64)
    return rep, {"counts": counts}, False


@dataclass(frozen=True)
class ReplicationSet:
    """Stacked per-replication results, ordered by replication id."""

    config: ExperimentConfig
    arrays: dict
    flagged: np.ndarray
    rep_ids: tuple

    @property
    def reps(self) -> int:
        return self.flagged.size


def _truth_data(cfg, grid):
    if cfg.kind != "consistency":
        return {}
    truth = true_functions(cfg.family, bound_exponent=cfg.bound_exponent)
    u = np.empty((len(cfg.schedule), grid.m))
    for i, (n, k) in enumerate(cfg.schedule):
        u[i] = [truth.location(t, n / k) for t in grid.points]
    return {"u": u, "a": u.copy()}  # a = gamma_plus * U with gamma_plus = 1


def worker_count(workers=None, reps=None) -> int:
    """Explicit argument, else FUNCEVT_WORKERS, else 1.

    Given the replication count, the result is the pool size: also
    capped at reps and at os.cpu_count(), beyond which workers idle.
    """
    if workers is None:
        env = os.environ.get("FUNCEVT_WORKERS", "").strip()
        try:
            workers = int(env) if env else 1
        except ValueError:
            raise DataError(f"FUNCEVT_WORKERS must be an integer, got {env!r}") from None
    workers = int(workers)
    if workers < 1:
        raise DataError(f"worker count must be at least 1, got {workers}")
    if reps is None:
        return workers
    return min(workers, int(reps), os.cpu_count() or 1)


def run_replications(cfg, workers=None) -> ReplicationSet:
    """Run all replications; identical output for any worker count."""
    grid = grid_for(cfg)
    truth_data = _truth_data(cfg, grid)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.reps)
    nw = worker_count(workers, cfg.reps)
    if nw == 1:
        results = [
            _replicate(cfg, grid, truth_data, r, children[r])
            for r in range(cfg.reps)
        ]
    else:
        with ProcessPoolExecutor(max_workers=nw) as pool:
            futures = [
                pool.submit(_replicate, cfg, grid, truth_data, r, children[r])
                for r in range(cfg.reps)
            ]
            results = [f.result() for f in futures]
    results.sort(key=lambda item: item[0])
    keys = results[0][1].keys()
    arrays = {
        key: np.stack([payload[key] for _, payload, _ in results])
        for key in keys
    }
    flagged = np.array([flag for _, _, flag in results], dtype=bool)
    return ReplicationSet(cfg, arrays, flagged, tuple(range(cfg.reps)))


@dataclass(frozen=True)
class StandardizedErrors:
    """sqrt(k)-standardized estimator errors, one row per used replication."""

    t: np.ndarray
    hill: np.ndarray
    index: np.ndarray
    location: np.ndarray
    scale: np.ndarray
    n: int
    k: int
    used: int
    flagged: int

    def by_name(self, name) -> np.ndarray:
        if name not in STATISTICS:
            raise DataError(f"unknown statistic {name!r}")
        return getattr(self, name)


def standardize(repset, truth) -> StandardizedErrors:
    """Turn raw estimator curves into sqrt(k)-standardized errors.

    Uses the exact limit location U_t(n/k) and scale a_t(n/k) of the
    family; replications with any flagged grid point are dropped (their
    count is reported).
    """
    cfg = repset.config
    if cfg.kind != "normality":
        raise DataError("standardize applies to normality replication sets")
    grid = grid_for(cfg)
    keep = ~repset.flagged
    v = cfg.n / cfg.k
    u = np.array([truth.location(t, v) for t in grid.points])
    a = u * truth.gamma_plus()
    rk = math.sqrt(cfg.k)
    return StandardizedErrors(
        grid.points,
        rk * (repset.arrays["hill"][keep] - truth.gamma_plus()),
        rk * (repset.arrays["index"][keep] - truth.gamma()),
        rk * (repset.arrays["location"][keep] - u[None, :]) / a[None, :],
        rk * (repset.arrays["scale"][keep] / a[None, :] - 1.0),
        cfg.n,
        cfg.k,
        int(keep.sum()),
        int(repset.flagged.sum()),
    )


@dataclass(frozen=True)
class StatsReport:
    """Per-row summary statistics plus config echo and extras."""

    kind: str
    statistic: str
    t: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    var_limit: np.ndarray
    ks: np.ndarray
    reps: int
    used: int
    flagged: int
    config: dict
    config_hash: str
    extra: dict = field(default_factory=dict)
    schema: int = 1


def ks_critical(count, alpha=0.01) -> float:
    """Asymptotic two-sided Kolmogorov-Smirnov critical value."""
    from scipy import stats  # here, not at module level: it is slow to import

    return float(stats.kstwobign.isf(alpha)) / math.sqrt(count)


def summarize(t, errors, var_limit, cfg, statistic, used, flagged, extra=None):
    """Per-column mean/variance and KS distance to N(0, var_limit).

    The ks column holds the KS statistic itself; compare against
    ks_critical(used) at the chosen level.
    """
    from scipy import stats

    t = np.asarray(t, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mean = errors.mean(axis=0)
    var = errors.var(axis=0, ddof=1) if errors.shape[0] > 1 else np.full(t.size, np.nan)
    vl = np.broadcast_to(np.asarray(var_limit, dtype=float), t.shape)
    ks = np.full(t.size, np.nan)
    for j in range(t.size):
        if vl[j] > 0.0 and errors.shape[0] > 1:
            sigma = math.sqrt(vl[j])
            ks[j] = stats.kstest(errors[:, j], "norm", args=(0.0, sigma)).statistic
    return StatsReport(
        cfg.kind,
        statistic,
        t,
        mean,
        var,
        vl.copy(),
        ks,
        cfg.reps,
        used,
        flagged,
        cfg.to_dict(),
        config_hash(cfg),
        extra or {},
    )


def _oracle_for(cfg) -> MeasureOracle:
    if cfg.family == MOVING_MAX:
        return MeasureOracle.moving_max(kernel_for(cfg))
    return MeasureOracle.pareto_gbm()


_VAR_LIMIT_BY_STAT = {
    "hill": lambda lim: lim.var_hill,
    "index": lambda lim: lim.var_index,
    "location": lambda lim: lim.var_location,
    "scale": lambda lim: lim.var_scale,
}


def run_experiment(cfg, workers=None) -> StatsReport:
    """Run one experiment end to end and summarize it."""
    repset = run_replications(cfg, workers)
    grid = grid_for(cfg)

    if cfg.kind == "normality":
        truth = true_functions(cfg.family, bound_exponent=cfg.bound_exponent)
        limits = limit_variances_gm0(truth.gamma())
        std = standardize(repset, truth)
        errors = std.by_name(cfg.statistic)
        var_limit = _VAR_LIMIT_BY_STAT[cfg.statistic](limits)
        return summarize(
            std.t, errors, var_limit, cfg, cfg.statistic, std.used, std.flagged
        )

    if cfg.kind == "consistency":
        idx = STATISTICS.index(cfg.statistic)
        keep = ~repset.flagged
        sups = repset.arrays["sup_errors"][keep][:, :, idx]
        ns = np.array([n for n, _ in cfg.schedule], dtype=float)
        medians = np.median(sups, axis=0)
        return StatsReport(
            cfg.kind,
            cfg.statistic,
            ns,
            sups.mean(axis=0),
            sups.var(axis=0, ddof=1) if keep.sum() > 1 else np.full(ns.size, np.nan),
            np.full(ns.size, np.nan),
            np.full(ns.size, np.nan),
            cfg.reps,
            int(keep.sum()),
            int(repset.flagged.sum()),
            cfg.to_dict(),
            config_hash(cfg),
            {
                "n": [int(n) for n, _ in cfg.schedule],
                "k": [int(k) for _, k in cfg.schedule],
                "median_sup": medians.tolist(),
            },
        )

    if cfg.kind == "tailcov":
        oracle = _oracle_for(cfg)
        w = repset.arrays["w_at_one"]
        gaps, emp, se2, nu = [], [], [], []
        for t, s in cfg.pairs:
            it, js = grid.index_of(t), grid.index_of(s)
            a, b = w[:, it], w[:, js]
            cov = float(np.cov(a, b, ddof=1)[0, 1])
            prod = (a - a.mean()) * (b - b.mean())
            gaps.append(abs(t - s))
            emp.append(cov)
            se2.append(float(prod.var(ddof=1)) / w.shape[0])
            nu.append(oracle.intersection_mass(t, 1.0, s, 1.0))
        return StatsReport(
            cfg.kind,
            cfg.statistic,
            np.array(gaps),
            np.array(emp),
            np.array(se2),
            np.array(nu),
            np.full(len(gaps), np.nan),
            cfg.reps,
            cfg.reps,
            0,
            cfg.to_dict(),
            config_hash(cfg),
            {"pairs": [list(p) for p in cfg.pairs]},
        )

    if cfg.kind == "quantile":
        keep = ~repset.flagged
        q = repset.arrays["quantile_stat"][keep]
        var_limit = cfg.alpha ** 2  # alpha**2 Var W(C_{t,1}) with Var = 1
        return summarize(
            grid.points,
            q,
            var_limit,
            cfg,
            cfg.statistic,
            int(keep.sum()),
            int(repset.flagged.sum()),
        )

    # oscillation: pool counts over replications
    counts = repset.arrays["counts"].sum(axis=0)
    n_cond, n_exc = int(counts[0]), int(counts[1])
    estimate = n_exc / n_cond if n_cond else math.nan
    se2 = (
        max(estimate * (1.0 - estimate), 1.0 / n_cond) / n_cond
        if n_cond
        else math.nan
    )
    bound = 0.0 if cfg.family == MOVING_MAX else 5.0 * math.sqrt(cfg.delta)
    osc = OscillationConfig(cfg.s, cfg.delta, cfg.v, cfg.K, cfg.beta, cfg.variant)
    return StatsReport(
        cfg.kind,
        cfg.statistic,
        np.array([cfg.s]),
        np.array([estimate]),
        np.array([se2]),
        np.array([bound]),
        np.array([np.nan]),
        cfg.reps,
        cfg.reps,
        0,
        cfg.to_dict(),
        config_hash(cfg),
        {
            "n_conditioning": n_cond,
            "n_exceed": n_exc,
            "threshold": osc.threshold,
            "reference_bound": osc.reference_bound,
        },
    )


CSV_HEADER = "t,mean,var,var_limit,ks"


def export_report(report, path, fmt=None):
    """Write a report as CSV (fixed 5-column schema) or JSON."""
    fmt = fmt or ("json" if str(path).endswith(".json") else "csv")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for j in range(report.t.size):
            lines.append(
                ",".join(
                    "%.17g" % v
                    for v in (
                        report.t[j],
                        report.mean[j],
                        report.var[j],
                        report.var_limit[j],
                        report.ks[j],
                    )
                )
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return
    if fmt != "json":
        raise DataError("format must be 'csv' or 'json'")
    doc = {
        "schema": report.schema,
        "kind": report.kind,
        "statistic": report.statistic,
        "reps": report.reps,
        "used": report.used,
        "flagged": report.flagged,
        "config": report.config,
        "config_hash": report.config_hash,
        "seed_derivation": "numpy SeedSequence(master).spawn(reps), child r for replication r",
        "rows": {
            "t": report.t.tolist(),
            "mean": report.mean.tolist(),
            "var": report.var.tolist(),
            "var_limit": report.var_limit.tolist(),
            "ks": report.ks.tolist(),
        },
        "extra": report.extra,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path, fmt=None) -> StatsReport:
    """Read back an exported report (CSV loses config context)."""
    fmt = fmt or ("json" if str(path).endswith(".json") else "csv")
    if fmt == "csv":
        with warnings.catch_warnings():
            # a header-only file is a valid empty report
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.size == 0:
            data = data.reshape(0, 5)
        return StatsReport(
            "", "", data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4],
            0, 0, 0, {}, "",
        )
    with open(path) as fh:
        doc = json.load(fh)
    rows = doc["rows"]
    return StatsReport(
        doc["kind"],
        doc["statistic"],
        np.array(rows["t"], dtype=float),
        np.array(rows["mean"], dtype=float),
        np.array(rows["var"], dtype=float),
        np.array(rows["var_limit"], dtype=float),
        np.array(rows["ks"], dtype=float),
        doc["reps"],
        doc["used"],
        doc["flagged"],
        doc["config"],
        doc["config_hash"],
        doc.get("extra", {}),
        doc.get("schema", 1),
    )


# Acceptance windows for the empirical variance of each standardized
# statistic (families here have index 1, so the windows are absolute).
VARIANCE_WINDOWS = {
    "hill": (0.8, 1.25),
    "index": (1.5, 2.5),
    "location": (0.75, 1.25),
    "scale": (2.2, 3.8),
}


def _preregistered(size):
    # 3 grid points to control KS multiplicity: ends and middle
    if size <= 3:
        return list(range(size))
    return [0, size // 2, size - 1]


def check_report(report):
    """Pass/fail rules per kind; returns (ok, list of messages)."""
    msgs = []
    ok = True
    if report.kind == "normality":
        # variance windows for every statistic; the KS gate only for the
        # unbiased hill statistic (the others carry a finite-sample
        # center shift of order sqrt(k)/k that KS would flag long before
        # the variance drifts)
        lo, hi = VARIANCE_WINDOWS[report.statistic]
        crit = ks_critical(report.used)
        for j in _preregistered(report.t.size):
            if not lo <= report.var[j] <= hi:
                ok = False
                msgs.append(
                    f"t={report.t[j]:g}: var {report.var[j]:.4f} outside [{lo}, {hi}]"
                )
            if report.statistic == "hill" and report.ks[j] >= crit:
                ok = False
                msgs.append(
                    f"t={report.t[j]:g}: KS {report.ks[j]:.4f} >= {crit:.4f}"
                )
    elif report.kind == "consistency":
        med = report.extra["median_sup"]
        if any(b >= a for a, b in zip(med, med[1:])):
            ok = False
            msgs.append(f"median sup errors not strictly decreasing: {med}")
    elif report.kind == "tailcov":
        for j in range(report.t.size):
            err = abs(report.mean[j] - report.var_limit[j])
            if err > 0.1:
                ok = False
                msgs.append(
                    f"gap={report.t[j]:g}: |cov - nu| = {err:.4f} > 0.1"
                )
    elif report.kind == "quantile":
        for j in _preregistered(report.t.size):
            ratio = report.var[j] / report.var_limit[j]
            if not 0.75 <= ratio <= 1.25:
                ok = False
                msgs.append(
                    f"t={report.t[j]:g}: var ratio {ratio:.4f} outside [0.75, 1.25]"
                )
    else:  # oscillation
        if not report.mean[0] <= report.var_limit[0] + 1e-12:
            ok = False
            msgs.append(
                f"estimate {report.mean[0]:.5f} above bound {report.var_limit[0]:.5f}"
            )
    if ok:
        msgs.append("all checks passed")
    return ok, msgs
