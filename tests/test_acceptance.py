"""Acceptance checks, one test per numbered criterion.

Every test prints one ACCEPTANCE NN line through the shared recorder in
conftest and fails if its criterion fails.  The tail covariance runs
(07) dominate the runtime at around ten seconds; everything else is
near-instant.  All seeds are pinned.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import record
from funcevt.estimators import estimate_curves
from funcevt.exponent_measure import MeasureOracle
from funcevt.harness import (
    STATISTICS,
    ExperimentConfig,
    export_report,
    ks_critical,
    run_experiment,
    run_replications,
    standardize,
)
from funcevt.limit_theory import (
    LimitParams,
    TrueFunctions,
    functional_x_grid,
    limit_functionals,
    limit_variances_gm0,
    second_order_bias,
    second_order_check,
    simulate_limit_field,
)
from funcevt.path_model import MOVING_MAX, PARETO_GBM, PathSample, make_grid
from funcevt.process_sim import KernelSpec

DELTA = math.exp(-4.0)


def test_01_hand_sample_exact():
    sample = PathSample(
        make_grid(m=1), np.array([[1.0], [math.e], [math.e ** 2], [math.e ** 3]])
    )
    est = estimate_curves(sample, 2)
    expected = {
        "gamma_plus": 1.5,
        "gamma_minus": -4.0,
        "gamma": -2.5,
        "u_hat": math.e,
        "a_hat": 7.5 * math.e,
    }
    worst = max(
        abs(float(getattr(est, name)[0]) / want - 1.0)
        for name, want in expected.items()
    )
    ok = worst < 1e-12
    assert record(1, ok, f"4-point hand sample, max rel err {worst:.2e} < 1e-12")


@pytest.fixture(scope="module")
def gbm_errors():
    # shared by 02-05: 500 replications of the exact-Pareto margin at t=0
    cfg = ExperimentConfig(
        kind="normality",
        family="pareto-gbm",
        n=10_000,
        k=100,
        reps=500,
        seed=20,
        m=1,
    )
    repset = run_replications(cfg)
    return standardize(repset, TrueFunctions("pareto-gbm"))


def test_02_hill_normality(gbm_errors):
    errs = gbm_errors.hill[:, 0]
    var = float(errs.var(ddof=1))
    ks = float(stats.kstest(errs, "norm").statistic)
    crit = ks_critical(gbm_errors.used)
    ok = 0.8 <= var <= 1.25 and ks < crit
    assert record(
        2, ok, f"hill var {var:.4f} in [0.8, 1.25], KS {ks:.4f} < {crit:.4f}"
    )


def test_03_index_normality(gbm_errors):
    var = float(gbm_errors.index[:, 0].var(ddof=1))
    ok = 1.5 <= var <= 2.5
    assert record(3, ok, f"index var {var:.4f} in [1.5, 2.5]")


def test_04_location_normality(gbm_errors):
    var = float(gbm_errors.location[:, 0].var(ddof=1))
    ok = 0.75 <= var <= 1.25
    assert record(4, ok, f"location var {var:.4f} in [0.75, 1.25]")


def test_05_scale_normality(gbm_errors):
    var = float(gbm_errors.scale[:, 0].var(ddof=1))
    ok = 2.2 <= var <= 3.8
    assert record(5, ok, f"scale var {var:.4f} in [2.2, 3.8]")


def test_06_uniform_consistency():
    cfg = ExperimentConfig(
        kind="consistency",
        family="moving-max",
        reps=50,
        seed=30,
        m=51,
        schedule=((500, 22), (2000, 44), (8000, 89)),
    )
    repset = run_replications(cfg)
    sups = repset.arrays["sup_errors"][~repset.flagged]
    parts = []
    ok = True
    for idx, name in enumerate(STATISTICS):
        med = np.median(sups[:, :, idx], axis=0)
        down = bool(np.all(np.diff(med) < 0.0))
        ok = ok and down
        parts.append(name + " " + "/".join(f"{v:.3f}" for v in med))
    assert record(
        6, ok, ("median sup falls" if ok else "NOT falling") + ": " + "; ".join(parts)
    )


def test_07_tail_covariance_vs_oracle():
    pairs = ((0.0, 0.5), (0.25, 0.75), (0.0, 0.25))
    worst = {}
    analytic_ok = True
    for family, seed in (("moving-max", 8), ("pareto-gbm", 9)):
        cfg = ExperimentConfig(
            kind="tailcov",
            family=family,
            n=5000,
            k=200,
            reps=2000,
            seed=seed,
            pairs=pairs,
        )
        rep = run_experiment(cfg)
        worst[family] = float(np.abs(rep.mean - rep.var_limit).max())
        if family == "moving-max":
            gap_half = rep.t == 0.5
            analytic_ok = bool(
                np.all(np.abs(rep.var_limit[gap_half] - math.exp(-0.25)) < 1e-9)
            )
    ok = analytic_ok and all(v <= 0.1 for v in worst.values())
    assert record(
        7,
        ok,
        "max |cov - nu|: moving-max {0:.4f}, pareto-gbm {1:.4f} (tol 0.1); "
        "exp(-1/4) row {2}".format(
            worst["moving-max"], worst["pareto-gbm"], "ok" if analytic_ok else "BAD"
        ),
    )


def test_08_limit_field_matches_oracle():
    grid = make_grid(m=3)
    levels = np.array([1.0, 2.0, 4.0, 8.0])
    fro = {}
    for family, oracle, seed in (
        ("moving-max", MeasureOracle(MOVING_MAX, KernelSpec()), 40),
        ("pareto-gbm", MeasureOracle(PARETO_GBM), 41),
    ):
        field = simulate_limit_field(oracle, grid, levels, 10_000, seed)
        flat = field.values.reshape(field.values.shape[0], -1)
        emp = np.cov(flat, rowvar=False, ddof=1)
        fro[family] = float(
            np.linalg.norm(emp - field.cov) / np.linalg.norm(field.cov)
        )

    # functional variances at a single time against the closed forms
    lim = limit_variances_gm0(1.0)
    field = simulate_limit_field(
        MeasureOracle(MOVING_MAX, KernelSpec()),
        make_grid(m=1),
        functional_x_grid(1e4, 512),
        10_000,
        40,
    )
    fn = limit_functionals(field, LimitParams.constant(1, 1.0, 0.0))
    m1, m2 = fn.moment1[:, 0], fn.moment2[:, 0]
    checks = (
        (float(m1.var(ddof=1)), lim.var_moment1),
        (float(m2.var(ddof=1)), lim.var_moment2),
        (float(np.cov(m1, m2, ddof=1)[0, 1]), lim.cov_moments),
        (float(fn.index[:, 0].var(ddof=1)), lim.var_index),
        (float(fn.scale[:, 0].var(ddof=1)), lim.var_scale),
    )
    fn_rel = max(abs(got - want) / abs(want) for got, want in checks)
    ok = all(v < 0.05 for v in fro.values()) and fn_rel < 0.1
    assert record(
        8,
        ok,
        f"cov frobenius rel: moving-max {fro['moving-max']:.4f}, "
        f"pareto-gbm {fro['pareto-gbm']:.4f} (<0.05); "
        f"functional var max rel {fn_rel:.4f} (<0.1)",
    )


def _quad_bias(g, rho, x):
    # independent double quadrature of the nested power integrals
    def inner(y):
        val, _ = integrate.quad(lambda u: u ** (rho - 1.0), 1.0, y)
        return val * y ** (g - 1.0)

    val, _ = integrate.quad(inner, 1.0, x, epsabs=1e-11, epsrel=1e-11, limit=200)
    return val


def test_09_bias_function_vs_quadrature():
    worst = 0.0
    for g in (0.0, -0.5, -1.0):
        for rho in (0.0, -0.5, -1.0):
            for x in (0.5, 1.0, 2.0, 10.0):
                dev = abs(second_order_bias(g, rho, x) - _quad_bias(g, rho, x))
                worst = max(worst, dev)
    ok = worst < 1e-8
    assert record(
        9, ok, f"bias function vs double quadrature, max abs dev {worst:.2e} < 1e-8"
    )


def test_10_location_bracket_and_log_bound():
    truth = TrueFunctions("pareto-gbm")
    rep = second_order_check(
        truth,
        v_grid=np.array([1e2, 1e3, 1e4]),
        x_grid=np.array([1.0, 2.0, 5.0, 10.0]),
    )
    ok = bool(rep.bracket_ok) and bool(rep.log_bound_ok)
    devs = "/".join(f"{v:.1e}" for v in rep.max_deviation)
    assert record(
        10,
        ok,
        f"bracket {'holds' if rep.bracket_ok else 'FAILS'}, "
        f"log bound {'holds' if rep.log_bound_ok else 'FAILS'} "
        f"at v=1e2/1e3/1e4 (remainder dev {devs})",
    )


def test_11_oscillation_diagnostic():
    kernel = KernelSpec()
    mm = run_experiment(
        ExperimentConfig(
            kind="oscillation",
            family="moving-max",
            n=4000,
            k=1,
            reps=1,
            seed=7,
            m=201,
            v=20.0,
            K=kernel.oscillation_constant(DELTA),
            variant="ratio",
        )
    )
    gbm = run_experiment(
        ExperimentConfig(
            kind="oscillation",
            family="pareto-gbm",
            n=20_000,
            k=1,
            reps=1,
            seed=5,
            m=201,
            v=50.0,
            K=16.0,
            variant="log",
        )
    )
    bound = 5.0 * math.sqrt(DELTA)
    ok = mm.mean[0] <= 1e-6 and gbm.mean[0] <= bound
    assert record(
        11,
        ok,
        f"moving-max estimate {mm.mean[0]:g} (want 0), "
        f"pareto-gbm {gbm.mean[0]:.4f} <= 5 sqrt(delta) = {bound:.4f}",
    )


def test_12_reproducibility_bitwise(tmp_path):
    cfg = ExperimentConfig(
        kind="normality",
        family="pareto-gbm",
        n=200,
        k=20,
        reps=6,
        seed=42,
        m=3,
    )
    outs = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    export_report(run_experiment(cfg, workers=1), outs[0])
    export_report(run_experiment(cfg, workers=1), outs[1])
    export_report(run_experiment(cfg, workers=3), outs[2])
    raw = [p.read_bytes() for p in outs]
    rerun_ok = raw[0] == raw[1]
    workers_ok = raw[0] == raw[2]
    ok = rerun_ok and workers_ok
    assert record(
        12,
        ok,
        f"bitwise CSV equality: rerun {'ok' if rerun_ok else 'BAD'}, "
        f"1 vs 3 workers {'ok' if workers_ok else 'BAD'}",
    )
