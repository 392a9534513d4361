"""Alternating optimization of (W, Z) and u, plus the two baseline schemes.

Each outer round runs the convex-approximation loop for fixed phases, then
the manifold optimizer for fixed covariances, warm-starting both from the
previous round. Neither phase can increase the objective, so the interleaved
trace is non-increasing.
"""
from __future__ import annotations

import logging
import time
from dataclasses import replace

import numpy as np

from .channels import ChannelSet, normalize
from .config import ScenarioConfig, derive_seed
from .manifold import default_phase_init, from_phases, run_cg
from .metrics import secrecy_rates
from .sca import default_start, extract_rank_one, run_sca
from .solution import HistoryRecord, RunHistory, TransmitSolution, total_power

logger = logging.getLogger(__name__)

RANK_RESIDUAL_WARN = 1e-6


def _working_channels(ch: ChannelSet, cfg: ScenarioConfig) -> ChannelSet:
    return normalize(ch) if cfg.normalize_noise else ch


def _attach_beamformers(sol: TransmitSolution) -> TransmitSolution:
    w = np.zeros(sol.W.shape[:2], dtype=complex)
    for k in range(sol.num_users):
        w[k], residual = extract_rank_one(sol.W[k])
        if residual > RANK_RESIDUAL_WARN:
            logger.warning(
                "beamforming covariance %d has rank-one defect %.3e", k, residual
            )
    sol.w = w
    return sol


def _record(history, t, phase, sol, ch, elapsed_ms):
    breakdown = secrecy_rates(sol, ch)
    history.append(
        HistoryRecord(
            iteration=t,
            phase=phase,
            f=breakdown.f,
            power_used=total_power(sol.W, sol.Z),
            sum_secrecy=breakdown.sum_secrecy,
            wall_time_ms=elapsed_ms,
        )
    )
    return breakdown.f


def _alternate(
    ch: ChannelSet, cfg: ScenarioConfig, u0: np.ndarray, *, an_enabled: bool
) -> tuple[TransmitSolution, RunHistory]:
    work = _working_channels(ch, cfg)
    u = np.asarray(u0, dtype=complex).ravel()
    if u.shape[0] != work.num_irs_elements:
        raise ValueError("u init length does not match the IRS element count")

    start = default_start(u, work, cfg.p_max, an_enabled=an_enabled)
    W, Z = start.W, start.Z
    history = RunHistory()
    f_prev = _record(history, 0, "init", TransmitSolution(W=W, Z=Z, u=u), work, None)

    history.status = "max_iters"
    step_size = 1.0
    for t in range(1, cfg.max_outer_iters + 1):
        t0 = time.perf_counter()
        # the covariance phase must resolve finer than the outer |df| test,
        # otherwise consecutive rounds keep finding ~tol_outer improvements
        sol_t, sca_hist = run_sca(
            u,
            work,
            cfg.p_max,
            start=TransmitSolution(W=W, Z=Z, u=u),
            tol=0.1 * cfg.tol_outer,
            max_iters=cfg.sca_max_iters,
            an_enabled=an_enabled,
            step_size=step_size,
        )
        W, Z, step_size = sol_t.W, sol_t.Z, sca_hist.step_size
        # the last SCA record already holds f and sum_secrecy at (W, Z)
        history.append(
            replace(
                sca_hist.records[-1],
                iteration=t,
                wall_time_ms=(time.perf_counter() - t0) * 1e3,
            )
        )

        t0 = time.perf_counter()
        u, cg_hist = run_cg(u, W, Z, work, tol=cfg.tol_manifold)
        f_t = _record(
            history,
            t,
            "manifold",
            TransmitSolution(W=W, Z=Z, u=u),
            work,
            (time.perf_counter() - t0) * 1e3,
        )
        del cg_hist
        if abs(f_t - f_prev) <= cfg.tol_outer:
            history.status = "converged"
            break
        f_prev = f_t

    sol = _attach_beamformers(TransmitSolution(W=W, Z=Z, u=u))
    return sol, history


def optimize(ch: ChannelSet, cfg: ScenarioConfig, *, u_init=None) -> tuple[TransmitSolution, RunHistory]:
    """Joint design of beamformers, AN covariance and IRS phases."""
    u0 = default_phase_init(ch) if u_init is None else u_init
    return _alternate(ch, cfg, u0, an_enabled=True)


def baseline_random_phase(ch: ChannelSet, cfg: ScenarioConfig) -> tuple[TransmitSolution, RunHistory]:
    """Baseline 1: IRS phases drawn once uniformly at random, (W, Z) optimized."""
    rng = np.random.default_rng(derive_seed("baseline1-phases", cfg.rng_seed))
    u = from_phases(rng.uniform(0.0, 2.0 * np.pi, ch.num_irs_elements))
    work = _working_channels(ch, cfg)
    sol, history = run_sca(
        u,
        work,
        cfg.p_max,
        tol=cfg.tol_outer,
        max_iters=cfg.sca_max_iters,
        an_enabled=True,
    )
    return _attach_beamformers(sol), history


def baseline_no_an(ch: ChannelSet, cfg: ScenarioConfig, *, u_init=None) -> tuple[TransmitSolution, RunHistory]:
    """Baseline 2: no artificial noise; beamformers and phases still optimized."""
    u0 = default_phase_init(ch) if u_init is None else u_init
    sol, history = _alternate(ch, cfg, u0, an_enabled=False)
    assert np.all(sol.Z == 0)
    return sol, history
