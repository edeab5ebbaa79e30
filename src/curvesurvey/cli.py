"""Command-line surface.

Subcommands: estimate, bands, montecarlo, oracle-check.  All randomness
flows from --seed; when it is absent a fresh seed is generated and recorded
in the output metadata so every run can be reproduced.  Every command
runs its BLAS on one thread, so its outputs depend only on the config, the
seed and the numpy/BLAS build.  A process that imports this module before
numpy starts OpenBLAS with one thread, whatever OPENBLAS_NUM_THREADS says;
one that loaded numpy first keeps its count, and each command pins one
thread while it runs.

Exit codes: 0 success, 2 validation error, 3 numerical degeneracy,
4 oracle failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy loads it, and starts that
# many threads.  A command multiplies on one (_one_blas_thread), and the idle
# others spin: they cost CPU time and do no work.
if "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from .bands import build_band
from .config import RunConfig, build_design, build_population, load_config
from .covariance import ma_covariance_estimate
from .designs import Sample, SamplingDesign, draw, replicate_rng
from .errors import NumericalError, OracleFailure, ValidationError
from .estimators import ESTIMATORS, model_assisted_mean
from .io import (
    read_sample_indices,
    write_covariance_csv,
    write_curve_csv,
    write_metadata,
)
from .linalg import _one_blas_thread, blas_threads
from .montecarlo import run_campaign


def nonnegative_int(text: str, low: int = 0) -> int:
    """--seed: an integer >= low (0, as np.random.SeedSequence needs)."""
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def positive_int(text: str) -> int:  # --workers
    return nonnegative_int(text, low=1)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int.from_bytes(os.urandom(4), "little")


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. a file at or above that path
        raise ValidationError(f"cannot create output directory: {exc}") from None
    return out


def _setup(args):
    """(config, seed, output directory, population, design) of a command."""
    cfg = load_config(args.config)
    seed = _resolve_seed(args)
    pop, labels = build_population(cfg, seed)
    design = build_design(cfg, pop.N, labels)  # before the directory is made
    return cfg, seed, _out_dir(args), pop, design


def _get_sample(cfg: RunConfig, design: SamplingDesign, seed: int) -> Sample:
    path = cfg.design.sample_file
    if path is not None:
        return Sample(read_sample_indices(path, design.N), design)
    return draw(design, replicate_rng(seed, 0, 0))


def cmd_estimate(args) -> int:
    cfg, seed, out, pop, design = _setup(args)
    sample = _get_sample(cfg, design, seed)
    estimate = ESTIMATORS[cfg.estimator.kind](pop, sample, cfg.estimator.a)
    write_curve_csv(out / "estimate.csv", pop.grid, {"estimate": estimate.curve})
    write_metadata(
        out / "estimate.meta.json",
        {
            "estimator_kind": estimate.estimator_kind,
            "a": estimate.a_used,
            "sample_indices": sample.indices.tolist(),
            "seed": seed,
            "n": design.n,
            "N": design.N,
            "blas_threads": blas_threads(),
        },
    )
    print(f"wrote {out / 'estimate.csv'}")
    return 0


def cmd_bands(args) -> int:
    cfg, seed, out, pop, design = _setup(args)
    sample = _get_sample(cfg, design, seed)
    # the model-assisted band, whatever [estimator] kind says
    a = cfg.estimator.a
    estimate = model_assisted_mean(pop, sample, a=a)
    gamma = ma_covariance_estimate(pop, sample, a=a, estimate=estimate)
    alpha = cfg.band.alpha
    n_sims = cfg.band.n_sims or 10_000
    band = build_band(estimate, gamma, alpha=alpha, n_sims=n_sims,
                      seed=replicate_rng(seed, 0, 1))
    # sqrt(n gamma_hat(t, t)) as a product, finite where n gamma_hat is not
    sigma_hat = np.sqrt(design.n) * np.sqrt(gamma.variance)
    write_curve_csv(
        out / "band.csv",
        pop.grid,
        {
            "center": band.center,
            "lower": band.center - band.half_width,
            "upper": band.center + band.half_width,
            "sigma_hat": sigma_hat,
        },
    )
    write_covariance_csv(out / "covariance.csv", pop.grid, gamma.matrix)
    write_metadata(
        out / "band.meta.json",
        {
            "estimator_kind": estimate.estimator_kind,
            "a": estimate.a_used,
            "c_alpha": band.c_alpha,
            "alpha": alpha,
            "n_sims": n_sims,
            "seed": seed,
            "n": design.n,
            "sample_indices": sample.indices.tolist(),
            "blas_threads": blas_threads(),
        },
    )
    print(f"wrote {out / 'band.csv'} (c_alpha = {band.c_alpha:.4f})")
    return 0


_REPORT_COLUMNS = (
    "n", "replicates", "rmse", "rb_squared", "vr",
    "q5", "q25", "median", "q75", "q95", "coverage", "errors",
)


def _report_row(report):
    vals = {
        "n": report.n,
        "replicates": report.replicates,
        "rmse": report.rmse,
        "rb_squared": report.rb_squared,
        "vr": report.vr,
        **report.er_quantiles,
        "coverage": report.coverage,
        "errors": report.n_errors,
    }
    return [vals[c] for c in _REPORT_COLUMNS]


def _fmt_cell(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def cmd_montecarlo(args) -> int:
    cfg, seed, out, pop, design = _setup(args)
    campaign = cfg.campaign
    reports = run_campaign(  # every size before any file is written
        pop,
        [design if n == design.n else SamplingDesign(design.N, n)
         for n in campaign.n_list or (design.n,)],
        replicates=campaign.replicates,
        estimator=cfg.estimator.kind,
        a=cfg.estimator.a,
        compute_coverage=campaign.coverage,
        alpha=cfg.band.alpha,
        band_sims=cfg.band.n_sims or 5000,
        master_seed=seed,
        workers=args.workers,
    )
    rows = []
    for report in reports:
        rows.append(_report_row(report))
        write_covariance_csv(
            out / f"gamma_emp_n{report.n}.csv", pop.grid, report.gamma_emp.matrix
        )
    header = list(_REPORT_COLUMNS)
    text_lines = ["  ".join(f"{h:>10}" for h in header)]
    for row in rows:
        text_lines.append("  ".join(f"{_fmt_cell(v):>10}" for v in row))
    text_lines.append(f"seed = {seed}")
    (out / "report.txt").write_text("\n".join(text_lines) + "\n", encoding="utf-8")
    csv_lines = [",".join(header + ["seed"])]
    for row in rows:
        csv_lines.append(
            ",".join(
                ("" if v is None else repr(v) if isinstance(v, float) else str(v))
                for v in row
            )
            + f",{seed}"
        )
    (out / "report.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    print((out / "report.txt").read_text(encoding="utf-8"))
    return 0


def cmd_oracle_check(args) -> int:
    from .oracle import default_fixture, format_report, oracle_check

    cfg = load_config(args.config) if args.config else RunConfig()
    o = cfg.oracle
    seed = _resolve_seed(args) if o.seed is None else o.seed
    pop, design = default_fixture(o.n_units, o.n, o.n_points, seed)
    results = oracle_check(pop, design, tol=o.tol, pi2_perturbation=o.corrupt_pi2)
    print(format_report(results))
    if any(not r.passed for r in results):
        raise OracleFailure("one or more enumeration identities failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvesurvey",
        description="Model-assisted mean-curve estimation from survey samples",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "estimate": cmd_estimate,
        "bands": cmd_bands,
        "montecarlo": cmd_montecarlo,
        "oracle-check": cmd_oracle_check,
    }
    for name, handler in specs.items():
        p = sub.add_parser(name)
        p.add_argument(
            "--config", required=(name != "oracle-check"), help="config file path"
        )
        p.add_argument("--seed", type=nonnegative_int, default=None,
                       help="master RNG seed")
        p.add_argument("--workers", type=positive_int, default=1,
                       help="montecarlo's pool size; the other commands ignore it")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(handler=handler)
    return parser


def report_errors(run, *args) -> int | None:
    """run(*args), with a library error printed as one line on stderr and
    returned as its exit code (module docstring); the experiment scripts
    exit through it too."""
    try:
        return run(*args)
    except (ValidationError, MemoryError) as exc:  # bad or too large input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OracleFailure as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return 4


@_one_blas_thread()  # so no output depends on the thread count
def _run_command(args) -> int:
    return args.handler(args)


def main(argv=None) -> int:
    return report_errors(_run_command, build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
