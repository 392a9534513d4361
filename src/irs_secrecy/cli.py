"""Command-line entry point: sweep, case-study and plot subcommands."""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import ScenarioConfig
from .svgplot import emit_plot
from .sweep import SCHEMES, SWEEP_VARIABLES, SweepSpec, run_case_study, run_sweep

OUT_DIR_ENV = "IRS_SECRECY_OUT"


def _load_config(args) -> ScenarioConfig:
    cfg = ScenarioConfig.from_file(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    return cfg


def _out_dir(args, default: str) -> str:
    if args.out:
        return args.out
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return str(Path(env) / default)
    return default


def _parse_values(text: str, variable: str) -> tuple:
    vals = tuple(float(v) for v in text.split(",") if v.strip() != "")
    if variable == "num_users":
        # only integral counts become ints; the sweep rejects the others
        vals = tuple(int(v) if v.is_integer() else v for v in vals)
    return vals


def _report(result) -> int:
    """Print what a study wrote, and warn on stderr when runs failed."""
    ok = sum(1 for r in result.rows if r.status == "ok")
    print(f"wrote {result.results_path} ({ok}/{len(result.rows)} runs ok)")
    print(f"wrote {result.summary_path}")
    if result.plot_path is not None:
        print(f"wrote {result.plot_path}")
    failed = len(result.rows) - ok
    if failed:
        print(f"warning: {failed} runs failed; see status column", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    spec = SweepSpec(
        variable=args.variable,
        values=_parse_values(args.values, args.variable),
        schemes=tuple(s.strip() for s in args.schemes.split(",") if s.strip()),
        num_realizations=args.realizations,
        base_config=cfg,
        out_dir=_out_dir(args, "results_sweep"),
        write_audit=args.audit,
    )
    return _report(run_sweep(spec))


def _cmd_case_study(args) -> int:
    cfg = _load_config(args)
    return _report(run_case_study(
        cfg,
        _out_dir(args, "results_case_study"),
        num_realizations=args.realizations,
        k_values=_parse_values(args.values, "num_users"),
    ))


def _cmd_plot(args) -> int:
    out = emit_plot(args.csv, args.out)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irs-secrecy",
        description="Sum-secrecy-rate optimization sweeps for an IRS-assisted "
        "multiuser downlink with artificial noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="Monte-Carlo sweep over power or user count")
    sweep.add_argument("--variable", choices=SWEEP_VARIABLES, default="p_max_dbm")
    sweep.add_argument("--values", default="0,10,20,30,40", help="comma-separated sweep values")
    sweep.add_argument("--schemes", default=",".join(SCHEMES))
    sweep.add_argument("--realizations", type=int, default=50)
    sweep.add_argument("--config", help="scenario config JSON file")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", help=f"output directory (or ${OUT_DIR_ENV})")
    sweep.add_argument("--audit", action="store_true", help="write per-run audit.jsonl")
    sweep.set_defaults(func=_cmd_sweep)

    case = sub.add_parser("case-study", help="user-count study over array geometries")
    case.add_argument("--values", default="1,2,3,4", help="comma-separated user counts")
    case.add_argument("--realizations", type=int, default=50)
    case.add_argument("--config", help="scenario config JSON file")
    case.add_argument("--seed", type=int, default=None)
    case.add_argument("--out", help=f"output directory (or ${OUT_DIR_ENV})")
    case.set_defaults(func=_cmd_case_study)

    plot = sub.add_parser("plot", help="render a summary CSV as SVG")
    plot.add_argument("csv", help="summary.csv produced by sweep or case-study")
    plot.add_argument("--out", help="output SVG path")
    plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
