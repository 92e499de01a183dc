"""Command-line interface.

Subcommands: simulate, filter, covariates, fit, combine, predict, cv,
coherence, aggregate, print-config.  A single JSON config drives everything;
``--seed``, ``--jobs`` and ``--variant`` override it.  A run uses every day
it finds under ``grids_dir``.  Any error is reported as one machine-readable
JSON object on stderr with a nonzero exit code; exit code 0 means every
requested artifact was written.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline
from .fileio import RunConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdown",
        description="Multivariate spectral downscaling of gridded fields to station data",
    )
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--jobs", type=int, help="worker processes for batch fitting")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--variant", help="model variant name, e.g. 'Spatial SD + Cross'")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="write a synthetic dataset (grids, stations, truth)")

    p_filter = sub.add_parser("filter", help="band-pass filter one grid file")
    p_filter.add_argument("--input", required=True)
    p_filter.add_argument("--lo", type=float, required=True)
    p_filter.add_argument("--hi", type=float, required=True)
    p_filter.add_argument("--output", required=True)

    p_cov = sub.add_parser(
        "covariates", help="spectral covariates of one grid file, as grid files covariate_j*_b*_d*.txt"
    )
    p_cov.add_argument("--input", required=True)
    p_cov.add_argument("--output-dir", required=True)

    sub.add_parser("fit", help="fit the configured variant per batch")
    sub.add_parser("combine", help="consensus-combine the batch posteriors")

    p_pred = sub.add_parser("predict", help="predict at stations")
    p_pred.add_argument("--mode", choices=["forecast", "interpolation"], default="forecast")

    sub.add_parser("cv", help="run the full cross-validation model comparison")
    sub.add_parser("coherence", help="export coherence curves from the combined posterior")

    p_agg = sub.add_parser("aggregate", help="group-by-mean export of a predictions CSV")
    p_agg.add_argument("--predictions", required=True)

    sub.add_parser("print-config", help="dump the effective configuration JSON")
    return parser


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    if args.jobs is not None:
        cfg.jobs = args.jobs
    if args.seed is not None:
        cfg.seed = args.seed
    if args.variant is not None:
        cfg.variant = args.variant
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "print-config":
            sys.stdout.write(cfg.to_json())
            return 0
        if args.command == "simulate":
            artifacts = pipeline.cmd_simulate(cfg)
        elif args.command == "filter":
            artifacts = pipeline.cmd_filter(cfg, args.input, args.lo, args.hi, args.output)
        elif args.command == "covariates":
            artifacts = pipeline.cmd_covariates(cfg, args.input, args.output_dir)
        elif args.command == "fit":
            artifacts = pipeline.cmd_fit(cfg)
        elif args.command == "combine":
            artifacts = pipeline.cmd_combine(cfg)
        elif args.command == "predict":
            artifacts = pipeline.cmd_predict(cfg, args.mode)
        elif args.command == "cv":
            artifacts = pipeline.cmd_cv(cfg)
        elif args.command == "coherence":
            artifacts = pipeline.cmd_coherence(cfg)
        elif args.command == "aggregate":
            artifacts = pipeline.cmd_aggregate(cfg, args.predictions)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
    except Exception as exc:  # error contract: JSON on stderr, nonzero exit
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 1
    for path in artifacts:
        sys.stdout.write(f"{path}\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
