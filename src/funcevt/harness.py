"""Reproducible Monte Carlo experiments over the whole pipeline.

An ExperimentConfig fully determines an experiment: family, sizes,
replication count and master seed.  Replication r draws its RNG stream
from child r of numpy's SeedSequence spawned off the master seed, so
results are identical no matter how replications are scheduled across
workers.  Reports serialize to CSV (fixed per-row schema
t, mean, var, var_limit, ks) or JSON (full config echo plus the same
rows and kind-specific extras), JSON when the path ends in ".json".
Moving-max paths are simulated at a floor of max(1, (n/k)/4), or
max(1, v/8) for oscillation; a normality, consistency or quantile
replication whose (k+1)-th largest value of a column is that floor is
flagged, as its statistic reads the floor, not the process.

Experiment kinds are a closed set, one `KindSpec` entry each in
`KIND_SPECS`:

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
import numbers
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import repeat
from typing import Callable

import numpy as np
from scipy.special import kolmogi, ndtr

from funcevt.estimators import estimate_curves
from funcevt.exponent_measure import MeasureOracle
from funcevt.limit_theory import TrueFunctions, limit_variances_gm0
from funcevt.path_model import (
    FAMILIES,
    MOVING_MAX,
    DataError,
    check_int,
    check_k,
    make_grid,
    marginal_model_for,
    pareto_top,
    pareto_transform,
    top_block,
)
from funcevt.process_sim import (
    KernelSpec,
    SimConfig,
    SimulationError,
    simulate_moving_max,
    simulate_pareto_gbm,
)
from funcevt.tail_process import (
    OscillationConfig,
    oscillation_diagnostic,
    quantile_stat_from_order_stats,
    tail_process_from_counts,
)

STATISTICS = ("hill", "index", "location", "scale")

# type of each scalar config field by its annotation; bool, an int
# subclass, is rejected separately
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "str": str}


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, hashable description of one experiment.

    Field values are checked, never coerced: int fields take integers,
    float fields finite integers or floats (neither takes a bool), times
    is a list of numbers and pairs/schedule are lists of number pairs
    (integer pairs for schedule).  The kind's own rules come last.
    """

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
    kernel_shape: str = "double-exp"
    kernel_rate: float = 1.0
    kernel_df: float = 3.0
    s: float = 0.5  # oscillation window start
    delta: float = 0.018315638888734179  # e**-4
    v: float = 50.0
    K: float = 16.0
    variant: str = "log"
    out: str = ""  # report path: JSON if it ends in .json, else CSV

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in _FIELD_TYPES and (
                isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type])
            ):
                raise DataError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise DataError(f"{f.name} must be finite, got {value!r}")
        spec = _spec(self.kind)
        if self.family not in FAMILIES:
            raise DataError(f"unknown family {self.family!r}")
        if self.statistic not in STATISTICS:
            raise DataError(f"unknown statistic {self.statistic!r}")
        if self.reps < 1:
            raise DataError("reps must be >= 1")
        if self.seed < 0:
            raise DataError("seed must be >= 0")
        try:
            kernel_for(self)  # a bad kernel fails here, not after the replications
        except SimulationError as exc:
            raise DataError(str(exc)) from None
        object.__setattr__(self, "times", _numbers(self.times, "times"))
        object.__setattr__(
            self, "schedule", _pairs(self.schedule, "schedule", integer=True)
        )
        object.__setattr__(self, "pairs", _pairs(self.pairs, "pairs"))
        spec.validate(self)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["times"] = list(d["times"])
        d["schedule"] = [list(row) for row in d["schedule"]]
        d["pairs"] = [list(row) for row in d["pairs"]]
        return d

    @classmethod
    def from_dict(cls, d) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise DataError("config must be a JSON object")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise DataError(f"unknown config keys: {', '.join(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if missing:
            raise DataError(f"config needs keys: {', '.join(missing)}")
        return cls(**d)


def _numbers(values, what, integer=False):
    """values as a tuple of floats (ints if integer); DataError unless a
    list or tuple of numbers."""
    want = numbers.Integral if integer else numbers.Real
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(v, want) and not isinstance(v, bool) for v in values
    ):
        noun = "integers" if integer else "numbers"
        raise DataError(f"{what} must be a list of {noun}")
    return tuple(int(v) if integer else float(v) for v in values)


def _pairs(rows, what, integer=False):
    if not isinstance(rows, (list, tuple)):
        raise DataError(f"{what} must be a list of pairs")
    out = tuple(_numbers(row, f"{what} rows", integer) for row in rows)
    if any(len(row) != 2 for row in out):
        raise DataError(f"{what} rows must be pairs")
    return out


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
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise DataError(f"config {path} is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(doc)


def _spec(kind) -> "KindSpec":
    try:
        return KIND_SPECS[kind]
    except KeyError:
        raise DataError(f"unknown experiment kind {kind!r}") from None


def grid_for(cfg):
    return _spec(cfg.kind).grid(cfg)


def kernel_for(cfg) -> KernelSpec:
    return KernelSpec(cfg.kernel_shape, cfg.kernel_rate, cfg.kernel_df)


@dataclass(frozen=True)
class ReplicationSet:
    """Stacked per-replication results, ordered by replication id."""

    config: ExperimentConfig
    arrays: dict
    flagged: np.ndarray

    def kept(self, key) -> np.ndarray:
        """arrays[key] without the flagged replications."""
        return self.arrays[key][~self.flagged]


def worker_count(workers, reps) -> int:
    """The pool size for reps replications: workers (None means 1),
    capped at reps and at os.cpu_count(), beyond which workers idle."""
    workers = 1 if workers is None else check_int(workers, "worker count")
    if workers < 1:
        raise DataError(f"worker count must be at least 1, got {workers}")
    return min(workers, int(reps), os.cpu_count() or 1)


def run_replications(cfg, workers=None) -> ReplicationSet:
    """Run all replications; identical output for any worker count."""
    spec = _spec(cfg.kind)
    grid = spec.grid(cfg)
    args = (
        repeat(cfg),
        repeat(grid),
        repeat(spec.context(cfg, grid)),
        np.random.SeedSequence(cfg.seed).spawn(cfg.reps),
    )
    nw = worker_count(workers, cfg.reps)
    if nw == 1:
        results = list(map(spec.replicate, *args))
    else:
        with ProcessPoolExecutor(max_workers=nw) as pool:
            # about 4 tasks per worker: fewer round trips, still balanced
            chunk = max(1, cfg.reps // (4 * nw))
            results = list(pool.map(spec.replicate, *args, chunksize=chunk))
    arrays = {
        key: np.stack([payload[key] for payload, _ in results])
        for key in results[0][0]
    }
    flagged = np.array([flag for _, flag in results], dtype=bool)
    return ReplicationSet(cfg, arrays, flagged)


@dataclass(frozen=True)
class StandardizedErrors:
    """sqrt(k)-standardized estimator errors, one row per used replication."""

    t: np.ndarray
    hill: np.ndarray
    index: np.ndarray
    location: np.ndarray
    scale: np.ndarray
    used: int
    flagged: int


def standardize(repset, truth) -> StandardizedErrors:
    """Turn raw estimator curves into sqrt(k)-standardized errors.

    Uses the exact limit location U_t(n/k) and scale a_t(n/k) of the
    family; replications with any flagged grid point are dropped (their
    count is reported).
    """
    if "hill" not in repset.arrays:
        raise DataError("standardize applies to normality replication sets")
    cfg = repset.config
    grid = grid_for(cfg)
    hill, index, location, scale = map(repset.kept, STATISTICS)
    v = cfg.n / cfg.k
    u = np.array([truth.location(t, v) for t in grid.points])
    a = u * truth.gamma_plus()
    rk = math.sqrt(cfg.k)
    return StandardizedErrors(
        grid.points,
        rk * (hill - truth.gamma_plus()),
        rk * (index - truth.gamma()),
        rk * (location - u[None, :]) / a[None, :],
        rk * (scale / a[None, :] - 1.0),
        len(hill),
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
    schema: int = 4


def _report(repset, t, mean, var, var_limit, ks=None, extra=None):
    """The StatsReport of a replication set; the ks column is NaN unless
    given."""
    cfg = repset.config
    flagged = int(repset.flagged.sum())
    t = np.asarray(t, dtype=float)
    cols = [np.asarray(c, dtype=float) for c in (mean, var, var_limit)]
    ks = np.full(t.size, np.nan) if ks is None else ks
    return StatsReport(
        cfg.kind, cfg.statistic, t, *cols, ks, cfg.reps, cfg.reps - flagged, flagged,
        cfg.to_dict(), config_hash(cfg), extra or {},
    )


def ks_critical(count, alpha=0.01) -> float:
    """Asymptotic two-sided Kolmogorov-Smirnov critical value."""
    return float(kolmogi(alpha)) / math.sqrt(count)


def summarize(repset, t, errors, var_limit, extra=None):
    """Per-column mean/variance and KS distance to N(0, var_limit) of the
    errors of repset's unflagged replications, one row each.

    The ks column holds the KS statistic itself (NaN where var_limit is
    not positive); compare against ks_critical(used) at the chosen level.
    Columns a statistic needs more rows for are NaN.
    """
    t = np.asarray(t, dtype=float)
    errors = np.asarray(errors, dtype=float)
    n = errors.shape[0]
    mean = errors.mean(axis=0) if n else np.full(t.size, np.nan)
    var = errors.var(axis=0, ddof=1) if n > 1 else np.full(t.size, np.nan)
    vl = np.broadcast_to(np.asarray(var_limit, dtype=float), t.shape).copy()
    ks = np.full(t.size, np.nan)
    cols = vl > 0.0
    if n > 1 and cols.any():
        # the larger one-sided distance of the empirical cdf from the
        # N(0, var_limit) cdf at the sorted errors
        cdf = ndtr(np.sort(errors[:, cols], axis=0) / np.sqrt(vl[cols]))
        above = (np.arange(1.0, n + 1)[:, None] / n - cdf).max(axis=0)
        below = (cdf - np.arange(0.0, n)[:, None] / n).max(axis=0)
        ks[cols] = np.where(above > below, above, below)
    return _report(repset, t, mean, var, vl, ks, extra)


def run_experiment(cfg, workers=None) -> StatsReport:
    """Run one experiment end to end and summarize it."""
    repset = run_replications(cfg, workers)
    return _spec(cfg.kind).summarize(cfg, grid_for(cfg), repset)


def check_report(report):
    """Pass/fail rules per kind; returns (ok, list of messages).

    A run whose every replication was flagged has nothing to check and
    fails.
    """
    if report.used == 0 and report.flagged:
        return False, [f"all {report.flagged} replications flagged, none to check"]
    msgs = _spec(report.kind).check(report)
    return (False, msgs) if msgs else (True, ["all checks passed"])


CSV_HEADER = "t,mean,var,var_limit,ks"
_COLUMNS = CSV_HEADER.split(",")  # the per-row StatsReport fields, in order


def report_csv(report) -> str:
    """The report as CSV text: header plus one row per t, 17 significant digits."""
    cols = [getattr(report, name) for name in _COLUMNS]
    lines = [CSV_HEADER] + [",".join("%.17g" % v for v in row) for row in zip(*cols)]
    return "\n".join(lines) + "\n"


def export_report(report, path):
    """Write a report as JSON if path ends in .json, else as CSV (fixed
    5-column schema)."""
    if not str(path).endswith(".json"):
        with open(path, "w") as fh:
            fh.write(report_csv(report))
        return
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
        "rows": {name: getattr(report, name).tolist() for name in _COLUMNS},
        "extra": report.extra,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


_JSON_KEYS = ("schema", "kind", "statistic", "rows", "reps", "used", "flagged", "config",
              "config_hash")


def load_report(path) -> StatsReport:
    """Read back an exported report, JSON if path ends in .json, else CSV
    (which loses config context); DataError unless the CSV has the
    5-column header and rows, or the JSON is an object with every key
    `export_report` writes."""
    with open(path) as fh:
        if not str(path).endswith(".json"):
            if fh.readline().rstrip("\n") != CSV_HEADER:
                raise DataError(f"report {path} does not start with the header {CSV_HEADER}")
            with warnings.catch_warnings():
                # a header-only file is a valid empty report
                warnings.simplefilter("ignore", UserWarning)
                try:
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
                except ValueError as exc:
                    raise DataError(f"report {path}: {exc}") from None
            if data.size == 0:
                data = data.reshape(0, 5)
            if data.shape[1] != 5:
                raise DataError(f"report {path} rows must have 5 columns, not {data.shape[1]}")
            return StatsReport("", "", *data.T, 0, 0, 0, {}, "")
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise DataError(f"report {path} is not valid JSON: {exc}") from None
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, dict):
        raise DataError(f"report {path} is not a JSON object with rows")
    missing = [key for key in _JSON_KEYS if key not in doc]
    missing += [f"rows.{name}" for name in _COLUMNS if name not in rows]
    if missing:
        raise DataError(f"report {path} lacks {', '.join(missing)}")
    return StatsReport(
        doc["kind"],
        doc["statistic"],
        *(np.array(rows[name], dtype=float) for name in _COLUMNS),
        doc["reps"],
        doc["used"],
        doc["flagged"],
        doc["config"],
        doc["config_hash"],
        doc.get("extra", {}),
        doc["schema"],
    )


def _need_k_below_n(cfg):
    check_k(cfg.k, cfg.n)


def _listed_grid(cfg):
    if cfg.times:
        return make_grid(points=cfg.times)
    return make_grid(m=cfg.m)


def _no_context(cfg, grid):
    return None


def _tail_floor(n, k):
    """Moving-max value floor: upper-tail statistics only read values
    well above n/k, so points below a quarter of that never matter."""
    return max(1.0, (n / k) / 4.0)


def _simulate(cfg, grid, n, seed, floor):
    """n paths of cfg's family; moving-max paths are simulated at value
    floor `floor` and at `SimConfig`'s default truncation tolerance."""
    if cfg.family == MOVING_MAX:
        sim = SimConfig(n=n, seed=seed, value_floor=floor)
        return simulate_moving_max(kernel_for(cfg), grid, sim)
    return simulate_pareto_gbm(grid, SimConfig(n=n, seed=seed))


def _floor_tied(sample, k) -> bool:
    """Whether some column's (k+1)-th largest value is the floor
    `_tail_floor(n, k)` a moving-max sample of n paths was simulated at:
    that column has at most k values above the floor, so its upper order
    statistics read the floor, not the process."""
    floor = _tail_floor(sample.n, k)
    return sample.family == MOVING_MAX and bool(np.any(top_block(sample, k)[:, 0] == floor))


def _preregistered(size):
    # 3 grid points to control KS multiplicity: ends and middle
    if size <= 3:
        return list(range(size))
    return [0, size // 2, size - 1]


# Acceptance windows for the empirical variance of each standardized
# statistic (families here have index 1, so the windows are absolute).
VARIANCE_WINDOWS = {
    "hill": (0.8, 1.25),
    "index": (1.5, 2.5),
    "location": (0.75, 1.25),
    "scale": (2.2, 3.8),
}


def _normality_replicate(cfg, grid, context, seed):
    sample = _simulate(cfg, grid, cfg.n, seed, _tail_floor(cfg.n, cfg.k))
    curves = estimate_curves(sample, cfg.k)
    payload = {
        "hill": curves.gamma_plus,
        "index": curves.gamma,
        "location": curves.u_hat,
        "scale": curves.a_hat,
    }
    return payload, bool(curves.flag.any()) or _floor_tied(sample, cfg.k)


def _normality_summary(cfg, grid, repset):
    truth = TrueFunctions(cfg.family)
    limits = limit_variances_gm0(truth.gamma())
    std = standardize(repset, truth)
    return summarize(
        repset, std.t, getattr(std, cfg.statistic), getattr(limits, "var_" + cfg.statistic)
    )


def _normality_check(report):
    # variance windows for every statistic; the KS gate only for the
    # unbiased hill statistic (the others carry a finite-sample center
    # shift of order sqrt(k)/k that KS would flag long before the
    # variance drifts)
    lo, hi = VARIANCE_WINDOWS[report.statistic]
    crit = ks_critical(report.used)
    msgs = []
    for j in _preregistered(report.t.size):
        if not lo <= report.var[j] <= hi:
            msgs.append(f"t={report.t[j]:g}: var {report.var[j]:.4f} outside [{lo}, {hi}]")
        if report.statistic == "hill" and report.ks[j] >= crit:
            msgs.append(f"t={report.t[j]:g}: KS {report.ks[j]:.4f} >= {crit:.4f}")
    return msgs


def _consistency_validate(cfg):
    if not cfg.schedule:
        raise DataError("consistency kind needs a (n, k) schedule")
    ns = [n for n, _ in cfg.schedule]
    ks = [k for _, k in cfg.schedule]
    for n, k in cfg.schedule:
        check_k(k, n)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DataError("schedule n must be strictly increasing")
    if any(b < a for a, b in zip(ks, ks[1:])):
        raise DataError("schedule k must be nondecreasing")
    ratios = [k / n for n, k in cfg.schedule]
    if any(b >= a for a, b in zip(ratios, ratios[1:])):
        raise DataError("schedule k/n must be decreasing")


def _consistency_context(cfg, grid):
    """True locations U_t(n/k), one row per schedule entry."""
    truth = TrueFunctions(cfg.family)
    u = np.empty((len(cfg.schedule), grid.m))
    for i, (n, k) in enumerate(cfg.schedule):
        u[i] = [truth.location(t, n / k) for t in grid.points]
    return u


def _consistency_replicate(cfg, grid, u, seed):
    sub = seed.spawn(len(cfg.schedule))
    sups = np.empty((len(cfg.schedule), len(STATISTICS)))
    flagged = False
    for i, (n, k) in enumerate(cfg.schedule):
        sample = _simulate(cfg, grid, n, sub[i], _tail_floor(n, k))
        curves = estimate_curves(sample, k)
        flagged = flagged or bool(curves.flag.any()) or _floor_tied(sample, k)
        a = u[i]  # true scale gamma_plus * U equals U, as gamma_plus = 1
        sups[i, 0] = np.abs(curves.gamma_plus - 1.0).max()
        sups[i, 1] = np.abs(curves.gamma - 1.0).max()
        sups[i, 2] = np.abs((curves.u_hat - u[i]) / a).max()
        sups[i, 3] = np.abs(curves.a_hat / a - 1.0).max()
    return {"sup_errors": sups}, flagged


def _consistency_summary(cfg, grid, repset):
    sups = repset.kept("sup_errors")[:, :, STATISTICS.index(cfg.statistic)]
    ns = [n for n, _ in cfg.schedule]
    median = np.median(sups, axis=0) if len(sups) else np.full(len(ns), np.nan)
    extra = {"n": ns, "k": [k for _, k in cfg.schedule], "median_sup": median.tolist()}
    return summarize(repset, ns, sups, math.nan, extra)


def _consistency_check(report):
    med = report.extra["median_sup"]
    if any(b >= a for a, b in zip(med, med[1:])):
        return [f"median sup errors not strictly decreasing: {med}"]
    return []


def _tailcov_validate(cfg):
    _need_k_below_n(cfg)
    if not cfg.pairs:
        raise DataError("tailcov kind needs (t, s) pairs")


def _pair_grid(cfg):
    return make_grid(points=sorted({t for pair in cfg.pairs for t in pair}))


def _tailcov_replicate(cfg, grid, context, seed):
    sample = _simulate(cfg, grid, cfg.n, seed, _tail_floor(cfg.n, cfg.k))
    counts = np.count_nonzero(pareto_top(sample, cfg.k) >= cfg.n / cfg.k, axis=1)
    return {"w_at_one": tail_process_from_counts(counts, 1.0, cfg.n, cfg.k)}, False


def _tailcov_summary(cfg, grid, repset):
    oracle = MeasureOracle(cfg.family, kernel_for(cfg))
    w = repset.arrays["w_at_one"]
    gaps, emp, se2, nu = [], [], [], []
    for t, s in cfg.pairs:
        a, b = w[:, grid.index_of(t)], w[:, grid.index_of(s)]
        prod = (a - a.mean()) * (b - b.mean())
        gaps.append(abs(t - s))
        emp.append(float(np.cov(a, b, ddof=1)[0, 1]))
        se2.append(float(prod.var(ddof=1)) / w.shape[0])
        nu.append(oracle.intersection_mass(t, 1.0, s, 1.0))
    return _report(repset, gaps, emp, se2, nu, extra={"pairs": [list(p) for p in cfg.pairs]})


def _tailcov_check(report):
    msgs = []
    for j in range(report.t.size):
        err = abs(report.mean[j] - report.var_limit[j])
        if err > 0.1:
            msgs.append(f"gap={report.t[j]:g}: |cov - nu| = {err:.4f} > 0.1")
    return msgs


def _quantile_validate(cfg):
    _need_k_below_n(cfg)
    if cfg.alpha == 0.0:
        raise DataError("quantile kind needs a nonzero alpha")


def _quantile_replicate(cfg, grid, context, seed):
    sample = _simulate(cfg, grid, cfg.n, seed, _tail_floor(cfg.n, cfg.k))
    top = pareto_top(sample, cfg.k)[:, -cfg.k - 1]
    q = quantile_stat_from_order_stats(top, cfg.n, cfg.k, cfg.alpha)
    return {"quantile_stat": q}, _floor_tied(sample, cfg.k) or not np.all(np.isfinite(q))


def _quantile_summary(cfg, grid, repset):
    # the limit variance alpha**2 Var W(C_{t,1}), with Var = 1
    return summarize(repset, grid.points, repset.kept("quantile_stat"), cfg.alpha ** 2)


def _quantile_check(report):
    msgs = []
    for j in _preregistered(report.t.size):
        ratio = report.var[j] / report.var_limit[j]
        if not 0.75 <= ratio <= 1.25:
            msgs.append(f"t={report.t[j]:g}: var ratio {ratio:.4f} outside [0.75, 1.25]")
    return msgs


def _oscillation_config(cfg):
    return OscillationConfig(cfg.s, cfg.delta, cfg.v, cfg.K, cfg.beta, cfg.variant)


def _oscillation_validate(cfg):
    _need_k_below_n(cfg)
    _oscillation_config(cfg)


def _oscillation_replicate(cfg, grid, context, seed):
    sample = _simulate(cfg, grid, cfg.n, seed, max(1.0, cfg.v / 8.0))
    zeta = pareto_transform(sample, marginal_model_for(sample))
    report = oscillation_diagnostic(zeta, _oscillation_config(cfg))
    counts = np.array([report.n_conditioning, report.n_exceed], dtype=np.int64)
    return {"counts": counts}, False


def _oscillation_summary(cfg, grid, repset):
    # pool counts over replications
    counts = repset.arrays["counts"].sum(axis=0)
    n_cond, n_exc = int(counts[0]), int(counts[1])
    estimate = n_exc / n_cond if n_cond else math.nan
    se2 = max(estimate * (1.0 - estimate), 1.0 / n_cond) / n_cond if n_cond else math.nan
    bound = 0.0 if cfg.family == MOVING_MAX else 5.0 * math.sqrt(cfg.delta)
    osc = _oscillation_config(cfg)
    extra = {"n_conditioning": n_cond, "n_exceed": n_exc,
             "threshold": osc.threshold, "reference_bound": osc.reference_bound}
    return _report(repset, [cfg.s], [estimate], [se2], [bound], extra=extra)


def _oscillation_check(report):
    if not report.mean[0] <= report.var_limit[0] + 1e-12:
        return [f"estimate {report.mean[0]:.5f} above bound {report.var_limit[0]:.5f}"]
    return []


@dataclass(frozen=True)
class KindSpec:
    """What one experiment kind does at each stage of a run.

    Every entry is a module-level function, so the process pool pickles
    `replicate` by name.
    """

    replicate: Callable  # (cfg, grid, context, seed) -> (payload arrays, flagged)
    summarize: Callable  # (cfg, grid, repset) -> StatsReport
    check: Callable  # (report) -> failure messages, empty when it passes
    validate: Callable = _need_k_below_n  # (cfg) -> None; raises DataError
    grid: Callable = _listed_grid  # (cfg) -> TimeGrid
    context: Callable = _no_context  # (cfg, grid) -> shared input, built once


KIND_SPECS = {
    "normality": KindSpec(_normality_replicate, _normality_summary, _normality_check),
    "consistency": KindSpec(
        _consistency_replicate, _consistency_summary, _consistency_check,
        validate=_consistency_validate, context=_consistency_context,
    ),
    "tailcov": KindSpec(
        _tailcov_replicate, _tailcov_summary, _tailcov_check,
        validate=_tailcov_validate, grid=_pair_grid,
    ),
    "quantile": KindSpec(
        _quantile_replicate, _quantile_summary, _quantile_check,
        validate=_quantile_validate,
    ),
    "oscillation": KindSpec(
        _oscillation_replicate, _oscillation_summary, _oscillation_check,
        validate=_oscillation_validate,
    ),
}
