"""Seeded Monte-Carlo sweeps over transmit power or user count.

All schemes at a given (sweep value, realization) pair see the identical
channel draw: the channel seed is derived from the base seed and the pair
indices only. Everything written to results.csv and summary.csv is a pure
function of the SweepSpec; wall-clock timings go to a separate timing.csv
that is excluded from the determinism contract.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .channels import ChannelSet, generate_scenario
from .config import ScenarioConfig, dbm_to_watts, derive_seed
from .manifold import aligned_start
from .metrics import secrecy_rates
from .orchestrator import baseline_no_an, baseline_random_phase, optimize
from .svgplot import SUMMARY_COLUMNS, emit_plot

SWEEP_VARIABLES = ("p_max_dbm", "num_users")
SCHEMES = ("proposed", "baseline1", "baseline2")

RESULTS_COLUMNS = (
    "sweep_variable",
    "sweep_value",
    "scheme",
    "realization",
    "seed",
    "channel_hash",
    "status",
    "sum_secrecy",
    "per_user_secrecy",
    "outer_iterations",
)
TIMING_COLUMNS = ("sweep_variable", "sweep_value", "scheme", "realization", "wall_time_ms")

CASE_STUDY_CONFIGS = (
    ("nt6_m6", 6, 6),
    ("nt10_m6", 10, 6),
    ("nt6_m10", 6, 10),
)


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    values: tuple
    schemes: tuple = SCHEMES
    num_realizations: int = 50
    base_config: ScenarioConfig = field(default_factory=ScenarioConfig)
    out_dir: str = "results"
    write_audit: bool = False

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"variable must be one of {SWEEP_VARIABLES}")
        values = tuple(self.values)
        if not values:
            raise ValueError("values must be non-empty")
        if self.variable == "p_max_dbm" and not all(map(_is_power_dbm, values)):
            raise ValueError(
                "p_max_dbm values must be finite and convert to a finite positive power"
            )
        if self.variable == "num_users" and not _positive_integers(values):
            raise ValueError("num_users values must be positive integers")
        _check_axis("values", values, self.num_realizations)
        object.__setattr__(self, "values", values)
        schemes = tuple(self.schemes)
        if not schemes or any(s not in SCHEMES for s in schemes):
            raise ValueError(f"schemes must be a non-empty subset of {SCHEMES}")
        object.__setattr__(self, "schemes", schemes)


def _check_axis(name: str, values: tuple, num_realizations: int) -> None:
    """The checks both studies share: increasing values, at least one realization."""
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    if num_realizations < 1:
        raise ValueError("num_realizations must be >= 1")


def _is_power_dbm(value) -> bool:
    """True when ``value`` dBm is a finite positive power in watts."""
    try:
        watts = dbm_to_watts(value)
    except OverflowError:  # 10.0 ** 400 raises instead of giving inf
        return False
    return math.isfinite(watts) and watts > 0


def _positive_integers(values) -> bool:
    # a bool passes float(v).is_integer() but is not a user count
    return all(
        not isinstance(v, (bool, np.bool_)) and float(v).is_integer() and v >= 1
        for v in values
    )


@dataclass
class ResultRow:
    sweep_variable: str
    sweep_value: float
    scheme: str
    realization: int
    seed: int
    channel_hash: str
    status: str
    sum_secrecy: float | None
    per_user_secrecy: list[float] | None
    outer_iterations: int | None
    wall_time_ms: float


@dataclass
class SweepResult:
    results_path: Path
    summary_path: Path
    timing_path: Path
    audit_path: Path | None
    rows: list[ResultRow]
    summary_rows: list[dict]
    plot_path: Path | None  # the summary's SVG, when it has a point


def _fmt(value) -> str:
    """CSV text of one field: empty for None, ``;``-joined lists, %.12g floats."""
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(map(_fmt, value))
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _config_for(spec: SweepSpec, value, seed: int) -> ScenarioConfig:
    if spec.variable == "p_max_dbm":
        return replace(spec.base_config, p_max=dbm_to_watts(value), rng_seed=seed)
    return replace(spec.base_config, num_users=int(value), rng_seed=seed)


def _run_one(scheme: str, ch: ChannelSet, cfg: ScenarioConfig):
    """``(solution, history, breakdown)`` of one scheme on the channels ``ch``.

    The phase-optimizing schemes run from a portfolio of starts: all-ones
    plus one aligned to each user. The aligned starts let the alternation
    commit the surface to a single user when that dominates, which keeps the
    multiuser-diversity trend intact. The best run by reported sum secrecy,
    then by final objective, wins; ``min`` keeps the first of equal starts.
    """
    if scheme == "baseline1":
        runs = [baseline_random_phase(ch, cfg)]
    else:
        solver = {"proposed": optimize, "baseline2": baseline_no_an}[scheme]
        starts = [np.ones(ch.num_irs_elements, dtype=complex)]
        starts += [aligned_start(ch, k) for k in range(ch.num_users)]
        runs = (solver(ch, cfg, u_init=u0) for u0 in starts)
    return min(
        ((sol, history, secrecy_rates(sol, ch)) for sol, history in runs),
        key=lambda run: (-run[2].sum_secrecy, run[1].f_trace()[-1]),
    )


def _run_row(variable: str, job: tuple, audit: list | None) -> ResultRow:
    """One row of results.csv; an exception in the run becomes an error row.

    ``job`` is ``(value, label, realization, seed, channels, config,
    scheme)``. When ``audit`` is a list, the run's history and breakdown, or
    the failure's type and message, are appended to it.
    """
    value, label, ri, seed, ch, cfg, scheme = job
    t0 = time.perf_counter()
    try:
        _, history, breakdown = _run_one(scheme, ch, cfg)
        outer = max(r.iteration for r in history.records)
        status = "ok"
    except Exception as exc:  # recorded, never aborts the sweep
        breakdown = outer = None
        status = f"error:{type(exc).__name__}"
        error = f"{type(exc).__name__}: {exc}"
    if audit is not None:
        entry = {"sweep_value": value, "scheme": label, "realization": ri, "seed": seed}
        if breakdown is None:
            entry["error"] = error
        else:
            entry["history"] = [asdict(r) for r in history.records]
            entry["breakdown"] = asdict(breakdown)
        audit.append(entry)
    return ResultRow(
        sweep_variable=variable,
        sweep_value=value,
        scheme=label,
        realization=ri,
        seed=seed,
        channel_hash=ch.content_hash(),
        status=status,
        sum_secrecy=None if breakdown is None else breakdown.sum_secrecy,
        per_user_secrecy=None if breakdown is None else breakdown.secrecy,
        outer_iterations=outer,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
    )


def _run_jobs(
    variable: str, values, labels, jobs, out_dir, write_audit: bool, plot_name="summary.svg"
) -> SweepResult:
    """Run the jobs in order, one row each, then summarize and write the outputs."""
    audit = [] if write_audit else None
    rows = [_run_row(variable, job, audit) for job in jobs]
    summary_rows = _summarize(variable, values, labels, rows)
    return _write_outputs(Path(out_dir), rows, summary_rows, audit, plot_name)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute the sweep and write results/summary/timing CSV files and summary.svg."""
    return _run_jobs(
        spec.variable, spec.values, spec.schemes, _sweep_jobs(spec), spec.out_dir, spec.write_audit
    )


def _sweep_jobs(spec: SweepSpec):
    """Jobs in (value, realization, scheme) order; the schemes share each draw."""
    for vi, value in enumerate(spec.values):
        for ri in range(spec.num_realizations):
            seed = derive_seed("channel", spec.base_config.rng_seed, vi, ri)
            cfg = _config_for(spec, value, seed)
            ch = generate_scenario(cfg)
            for scheme in spec.schemes:
                yield value, scheme, ri, seed, ch, cfg, scheme


def _summarize(variable: str, values, schemes, rows: list[ResultRow]) -> list[dict]:
    out = []
    for value in values:
        for scheme in schemes:
            vals = [
                r.sum_secrecy
                for r in rows
                if r.sweep_value == value and r.scheme == scheme and r.status == "ok"
            ]
            arr = np.asarray(vals, dtype=float)
            out.append(
                {
                    "sweep_variable": variable,
                    "sweep_value": value,
                    "scheme": scheme,
                    "num_realizations": len(vals),
                    "mean_sum_secrecy": float(arr.mean()) if len(vals) else None,
                    "std_sum_secrecy": float(arr.std()) if len(vals) else None,
                }
            )
    return out


def _write_outputs(
    out_dir: Path,
    rows: list[ResultRow],
    summary_rows: list[dict],
    audit: list | None = None,
    plot_name: str = "summary.svg",
) -> SweepResult:
    """Create out_dir; write the CSVs, audit.jsonl given entries, and a plot of any summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    summary_path = out_dir / "summary.csv"
    timing_path = out_dir / "timing.csv"
    row_dicts = [asdict(r) for r in rows]
    _write_csv(results_path, RESULTS_COLUMNS, row_dicts)
    _write_csv(summary_path, SUMMARY_COLUMNS, summary_rows)
    _write_csv(timing_path, TIMING_COLUMNS, row_dicts)
    audit_path = None
    if audit is not None:
        audit_path = out_dir / "audit.jsonl"
        with open(audit_path, "w", encoding="utf-8", newline="\n") as fh:
            for entry in audit:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
    plot_path = None
    if any(s["num_realizations"] for s in summary_rows):
        plot_path = emit_plot(summary_path, out_dir / plot_name)
    return SweepResult(
        results_path, summary_path, timing_path, audit_path, rows, summary_rows, plot_path
    )


def _write_csv(path: Path, columns: tuple, rows) -> None:
    """Header, then the named columns of each row dict through :func:`_fmt`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def run_case_study(
    base_config: ScenarioConfig | None = None,
    out_dir: str = "results_case_study",
    *,
    num_realizations: int = 50,
    k_values: tuple = (1, 2, 3, 4),
) -> SweepResult:
    """User-count sweep of the proposed scheme over three array geometries.

    Fixed 20 dBm budget and (N_T, M, K) axes: the three curves are (N_T, M)
    = (6, 6), (10, 6), (6, 10), labelled in the scheme column, over the user
    counts ``k_values``; every other setting, ``r_re`` among them, comes from
    ``base_config``. The summary is plotted to case_study.svg.
    """
    if not k_values or not _positive_integers(k_values):
        raise ValueError("k_values must be positive integers")
    _check_axis("k_values", k_values, num_realizations)
    base = base_config if base_config is not None else ScenarioConfig()
    base = replace(base, p_max=dbm_to_watts(20.0))
    k_max = int(max(k_values))
    # one draw per (geometry, realization) at k_max users; the K-user
    # instance takes the first K, pairing the means across the K axis
    draws = []
    for label, nt, m in CASE_STUDY_CONFIGS:
        cfg_geom = replace(base, num_bs_antennas=nt, num_irs_elements=m)
        for ri in range(num_realizations):
            seed = derive_seed("case-study", base.rng_seed, label, ri)
            ch = generate_scenario(replace(cfg_geom, num_users=k_max, rng_seed=seed))
            draws.append((label, ri, seed, ch, cfg_geom))
    # rows in (K, geometry, realization) order
    jobs = (
        (k, label, ri, seed, replace(ch, g=ch.g[: int(k)]),
         replace(cfg_geom, num_users=int(k), rng_seed=seed), "proposed")
        for k in k_values
        for label, ri, seed, ch, cfg_geom in draws
    )
    labels = tuple(label for label, _, _ in CASE_STUDY_CONFIGS)
    return _run_jobs("num_users", k_values, labels, jobs, out_dir, False, "case_study.svg")
