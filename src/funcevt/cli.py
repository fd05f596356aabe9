"""Batch command line interface.

Subcommands: simulate, transform, estimate, tailproc, diagnose, nu,
limit, experiment.  Everything is seeded and file-based; see README for the
CSV schemas.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from funcevt.estimators import estimate_curves
from funcevt.exponent_measure import MeasureOracle
from funcevt.harness import (
    check_report,
    export_report,
    load_config,
    report_csv,
    run_experiment,
)
from funcevt.limit_theory import (
    DegenerateCovarianceError,
    LimitParams,
    functional_x_grid,
    simulate_limit_functionals,
)
from funcevt.path_model import (
    MOVING_MAX,
    PARETO_GBM,
    DataError,
    MarginalModel,
    ParetoPaths,
    PathSample,
    make_grid,
    pareto_transform,
)
from funcevt.process_sim import (
    DOUBLE_EXP,
    STUDENT_T,
    KernelSpec,
    SimConfig,
    SimulationError,
    simulate_moving_max,
    simulate_pareto_gbm,
)
from funcevt.tail_process import OscillationConfig, build_tail_field, oscillation_diagnostic

_KERNELS = {"dexp": DOUBLE_EXP, "t": STUDENT_T}


def _add_kernel_args(p):
    p.add_argument("--kernel", choices=sorted(_KERNELS), default="dexp")
    p.add_argument("--lambda", dest="rate", type=float, default=1.0)
    p.add_argument("--df", type=float, default=3.0)


def _kernel(args) -> KernelSpec:
    return KernelSpec(_KERNELS[args.kernel], args.rate, args.df)


def _cmd_simulate(args) -> int:
    grid = make_grid(m=args.grid)
    cfg = SimConfig(n=args.n, seed=args.seed)
    if args.family == MOVING_MAX:
        sample = simulate_moving_max(_kernel(args), grid, cfg)
    else:
        sample = simulate_pareto_gbm(grid, cfg)
    sample.to_csv(args.out)
    print(f"wrote {sample.n} x {sample.m} {args.family} sample to {args.out}")
    return 0


def _cmd_transform(args) -> int:
    sample = PathSample.from_csv(args.infile, args.family)
    zeta = pareto_transform(sample, MarginalModel(args.family))
    zeta.to_csv(args.out)
    print(f"wrote {zeta.n} x {zeta.m} Pareto-scale sample to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    sample = PathSample.from_csv(args.infile)
    curves = estimate_curves(sample, args.k)
    curves.to_csv(args.out)
    flagged = int(curves.flag.sum())
    print(f"wrote curves for {curves.grid.m} grid points to {args.out}"
          + (f" ({flagged} flagged)" if flagged else ""))
    return 0


def _cmd_tailproc(args) -> int:
    paths = ParetoPaths.from_csv(args.infile)
    field = build_tail_field(paths, args.k, n_x=args.xgrid, c=args.c)
    lines = ["t," + ",".join("%.17g" % x for x in field.x_grid)]
    for j, t in enumerate(field.t_grid.points):
        lines.append(
            "%.17g," % t + ",".join("%.17g" % v for v in field.values[j])
        )
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {field.t_grid.m} x {field.x_grid.size} tail field to {args.out}")
    return 0


def _cmd_diagnose(args) -> int:
    paths = ParetoPaths.from_csv(args.infile)
    cfg = OscillationConfig(
        args.s, args.delta, args.v, args.K, args.beta, args.variant
    )
    rep = oscillation_diagnostic(paths, cfg)
    print(f"conditioning paths: {rep.n_conditioning} of {rep.n_paths}")
    print(f"outside small-oscillation set: {rep.n_exceed}")
    print(f"estimate: {rep.estimate:.6g}")
    print(f"increment threshold: {rep.threshold:.6g}")
    print(f"reference bound: {rep.reference_bound:.6g}")
    return 0


def _cmd_nu(args) -> int:
    oracle = MeasureOracle(args.family, _kernel(args))
    if (args.s is None) != (args.y is None):
        raise DataError("--s and --y go together: give both for an intersection, or neither")
    if args.s is None:
        mass = oracle.rect_mass(args.t, args.x)
    else:
        mass = oracle.intersection_mass(args.t, args.x, args.s, args.y)
    print("%.12g" % mass)
    return 0


def _write_limit_json(doc, fh):
    """Write json.dumps(doc, indent=2, sort_keys=True) and a newline to fh,
    with doc["functionals"] mapping names to 2-d float arrays that are
    written as nested lists.

    json's indenting encoder is pure Python and slow on the draws, so
    each array is written by one %-format of its floats with "%r", which
    is what json writes for a finite float, straight after the part of
    the json skeleton that precedes it: only one array's text is held at
    a time.  An array that is empty or holds a NaN or an infinity (json
    writes NaN / Infinity there) goes through json.
    """
    arrays = doc["functionals"]
    if not all(a.size and np.isfinite(a).all() for a in arrays.values()):
        lists = {name: a.tolist() for name, a in arrays.items()}
        fh.write(json.dumps({**doc, "functionals": lists}, indent=2, sort_keys=True))
        fh.write("\n")
        return
    marks = {name: f"<{name}>" for name in arrays}
    rest = json.dumps({**doc, "functionals": marks}, indent=2, sort_keys=True)
    for name in sorted(arrays):  # the skeleton's key order
        head, rest = rest.split(f'"<{name}>"', 1)
        fh.write(head + "[\n")
        a = arrays[name]
        # each name sits at depth 2: rows at 6 spaces, floats at 8
        row = "      [\n        " + ",\n        ".join(["%r"] * a.shape[1]) + "\n      ]"
        fh.write(",\n".join([row] * a.shape[0]) % tuple(a.ravel().tolist()))
        fh.write("\n    ]")
    fh.write(rest + "\n")


def _cmd_limit(args) -> int:
    oracle = MeasureOracle(args.family, _kernel(args))
    t_grid = make_grid(m=args.tgrid)
    x_grid = functional_x_grid(args.xmax, args.xgrid)
    params = LimitParams.constant(t_grid.m, 1.0, 0.0)
    fn = simulate_limit_functionals(
        oracle, t_grid, x_grid, args.draws, args.seed, params
    )
    names = ("moment1", "moment2", "index", "location", "scale")
    doc = {
        "t": t_grid.points.tolist(),
        "draws": args.draws,
        "seed": args.seed,
        "family": args.family,
        "x_max": args.xmax,
        "x_points": args.xgrid,
        "variance": {
            name: getattr(fn, name).var(axis=0, ddof=1).tolist() for name in names
        },
        "covariance_moments": [
            float(np.cov(fn.moment1[:, j], fn.moment2[:, j], ddof=1)[0, 1])
            for j in range(t_grid.m)
        ],
        "functionals": {name: getattr(fn, name) for name in names},
    }
    with open(args.out, "w") as fh:
        _write_limit_json(doc, fh)
    print(f"wrote {args.draws} limit functional draws to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    report = run_experiment(cfg, args.workers)
    if cfg.out:
        export_report(report, cfg.out)
        print(f"wrote report to {cfg.out}")
    print(report_csv(report), end="")
    if args.check:
        ok, msgs = check_report(report)
        for msg in msgs:
            print(("PASS " if ok else "FAIL ") + msg)
        return 0 if ok else 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="funcevt",
        description="functional extreme-value estimators, tail processes, "
        "and Monte Carlo experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    families = (MOVING_MAX, PARETO_GBM)

    p = sub.add_parser("simulate", help="simulate a path sample to CSV")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, required=True, help="grid size m")
    p.add_argument("--seed", type=int, default=0)
    _add_kernel_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("transform", help="Pareto-scale a sample CSV for tailproc and diagnose")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("estimate", help="estimator curves from a sample CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("tailproc", help="tail empirical process field")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--xgrid", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tailproc)

    p = sub.add_parser("diagnose", help="oscillation diagnostic")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.25)
    p.add_argument("--variant", choices=("ratio", "log"), default="log")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("nu", help="exponent measure of a cell or intersection")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--y", type=float, default=None)
    _add_kernel_args(p)
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("limit", help="simulate limit functionals to JSON")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--tgrid", type=int, default=3)
    p.add_argument("--xgrid", type=int, default=512)
    p.add_argument("--xmax", type=float, default=1e4)
    p.add_argument("--draws", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_kernel_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None, help="default: 1")
    p.add_argument("--check", action="store_true",
                   help="exit 2 if acceptance thresholds are violated")
    p.set_defaults(func=_cmd_experiment)
    return ap


_POSITIVE_INT = (lambda v: v >= 1, "a positive integer")
_FINITE_POSITIVE = (lambda v: math.isfinite(v) and v > 0.0, "a finite positive number")

# what each numeric option (by dest) must hold, checked once parsing is
# done; the commands' own checks still apply after these
_NUMERIC_RULES = {
    "n": _POSITIVE_INT,
    "grid": _POSITIVE_INT,
    # the upper end needs the sample: check_k tests it once n is known
    "k": (lambda v: v >= 1, "in [1, n-1] for a sample of n paths"),
    "xgrid": _POSITIVE_INT,
    "tgrid": _POSITIVE_INT,
    "draws": (lambda v: v >= 2, "an integer >= 2 (the report holds sample variances)"),
    "workers": _POSITIVE_INT,
    "seed": (lambda v: v >= 0, "a non-negative integer"),
    "xmax": _FINITE_POSITIVE,
    # the upper end needs the sample: build_tail_field tests c < n/k
    "c": (lambda v: 0.0 < v < math.inf, "in (0, n/k) for a sample of n paths"),
}


def _check_numbers(args):
    """DataError naming the first numeric option that breaks its rule."""
    for dest, (holds, what) in _NUMERIC_RULES.items():
        value = getattr(args, dest, None)
        if value is not None and not holds(value):
            flag = "--" + dest.replace("_", "-")
            raise DataError(f"{flag} must be {what}, got {value!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_numbers(args)
        return args.func(args)
    except (DataError, SimulationError, DegenerateCovarianceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
