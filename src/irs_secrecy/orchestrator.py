"""Alternating optimization of (W, Z) and u, plus the two baseline schemes.

Each outer round runs the convex-approximation loop for fixed phases, then
the manifold optimizer for fixed covariances, warm-starting both from the
previous round. From the second round on, the round may first step along
the previous round's displacement (:func:`_extrapolate`), kept only when it
lowers f. No phase can increase the objective, so the interleaved trace is
non-increasing.

Every scheme solves on the unit-noise channels of :func:`channels.normalize`;
rates do not depend on the noise units, so it solves the given channels too.
"""
from __future__ import annotations

import logging
import time
from dataclasses import replace

import numpy as np

from .channels import ChannelSet, normalize
from .config import ScenarioConfig, derive_seed
from .convex_inner import _project_exact
from .manifold import default_phase_init, from_phases, manifold_residual, run_cg
from .metrics import secrecy_rates
from .sca import default_start, extract_rank_one, run_sca
from .solution import (
    UNIT_MODULUS_TOL,
    HistoryRecord,
    RunHistory,
    TransmitSolution,
    total_power,
)

logger = logging.getLogger(__name__)

RANK_RESIDUAL_WARN = 1e-6
EXTRAPOLATION_MAX_WEIGHT = 64  # largest multiple of a round's displacement tried


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


def _record(history, t, phase, sol, breakdown, elapsed_ms):
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


def _extrapolate(prev, sol, f_now, ch, p_max):
    """Best point below ``f_now`` on the ray from ``prev`` through ``sol``.

    Late outer rounds move along an almost straight line, so the point
    sol + beta (sol - prev) is tried with beta = 1, 2, 4, ... up to
    ``EXTRAPOLATION_MAX_WEIGHT``, doubling while f strictly decreases
    (extrapolated block updates with a monotone safeguard; Xu & Yin, SIAM
    J. Imaging Sci. 2013). The phases move by the wrapped angle difference;
    (W, Z) move by the matrix difference, projected back onto the feasible
    set. Without AN both Z are 0, and the projection keeps a zero block
    exactly 0. Returns (point, breakdown), or None when no trial lowers f.
    """
    phi = -np.angle(sol.u)
    d_phi = np.angle(prev.u * np.conj(sol.u))  # phi - phi_prev, wrapped
    k = sol.num_users
    x = np.concatenate([sol.W, sol.Z[None]])
    d_x = x - np.concatenate([prev.W, prev.Z[None]])
    best = None
    beta = 1
    while beta <= EXTRAPOLATION_MAX_WEIGHT:
        out, _ = _project_exact(x + beta * d_x, p_max)
        trial = TransmitSolution(W=out[:k], Z=out[k], u=from_phases(phi + beta * d_phi))
        rates = secrecy_rates(trial, ch)
        if not rates.f < f_now:
            break
        best, f_now = (trial, rates), rates.f
        beta *= 2
    return best


def _alternate(
    ch: ChannelSet, cfg: ScenarioConfig, u_init: np.ndarray | None, *, an_enabled: bool
) -> tuple[TransmitSolution, RunHistory]:
    work = normalize(ch)
    u0 = default_phase_init(ch) if u_init is None else u_init
    u = np.asarray(u0, dtype=complex).ravel()
    if u.shape[0] != work.num_irs_elements:
        raise ValueError("u init length does not match the IRS element count")
    resid = manifold_residual(u)
    if not resid <= UNIT_MODULUS_TOL:  # a NaN fails too
        raise ValueError(f"u_init must have finite unit-modulus entries (residual {resid:.2e})")

    sol = default_start(u, work, cfg.p_max, an_enabled=an_enabled)
    history = RunHistory()
    f_prev = _record(history, 0, "init", sol, secrecy_rates(sol, work), None)

    history.status = "max_iters"
    step_size = 1.0
    round_start = None  # where the last plain round started
    for t in range(1, cfg.max_outer_iters + 1):
        if round_start is not None:
            t0 = time.perf_counter()
            jump = _extrapolate(round_start, sol, f_prev, work, cfg.p_max)
            if jump is not None:
                sol, rates = jump
                f_prev = _record(
                    history, t, "extrapolate", sol, rates, (time.perf_counter() - t0) * 1e3
                )
        round_start = sol

        t0 = time.perf_counter()
        # the covariance phase must resolve finer than the outer |df| test,
        # otherwise consecutive rounds keep finding ~tol_outer improvements
        sol, sca_hist = run_sca(
            sol.u,
            work,
            cfg.p_max,
            start=sol,
            tol=0.1 * cfg.tol_outer,
            max_iters=cfg.sca_max_iters,
            an_enabled=an_enabled,
            step_size=step_size,
        )
        step_size = sca_hist.step_size
        # the last SCA record already holds f and sum_secrecy at (W, Z)
        history.append(
            replace(
                sca_hist.records[-1],
                iteration=t,
                wall_time_ms=(time.perf_counter() - t0) * 1e3,
            )
        )

        t0 = time.perf_counter()
        u, cg_hist = run_cg(sol.u, sol.W, sol.Z, work, tol=cfg.tol_manifold)
        sol = TransmitSolution(W=sol.W, Z=sol.Z, u=u)
        f_t = _record(
            history, t, "manifold", sol, secrecy_rates(sol, work),
            (time.perf_counter() - t0) * 1e3,
        )
        del cg_hist
        # the stop test reads the plain round alone: f_prev is where it started
        if abs(f_t - f_prev) <= cfg.tol_outer:
            history.status = "converged"
            break
        f_prev = f_t

    return _attach_beamformers(sol), history


def optimize(ch: ChannelSet, cfg: ScenarioConfig, *, u_init=None) -> tuple[TransmitSolution, RunHistory]:
    """Joint design of beamformers, AN covariance and IRS phases."""
    return _alternate(ch, cfg, u_init, an_enabled=True)


def baseline_random_phase(ch: ChannelSet, cfg: ScenarioConfig) -> tuple[TransmitSolution, RunHistory]:
    """Baseline 1: IRS phases drawn once uniformly at random, (W, Z) optimized."""
    rng = np.random.default_rng(derive_seed("baseline1-phases", cfg.rng_seed))
    u = from_phases(rng.uniform(0.0, 2.0 * np.pi, ch.num_irs_elements))
    sol, history = run_sca(
        u,
        normalize(ch),
        cfg.p_max,
        tol=cfg.tol_outer,
        max_iters=cfg.sca_max_iters,
    )
    return _attach_beamformers(sol), history


def baseline_no_an(ch: ChannelSet, cfg: ScenarioConfig, *, u_init=None) -> tuple[TransmitSolution, RunHistory]:
    """Baseline 2: no artificial noise; beamformers and phases still optimized."""
    sol, history = _alternate(ch, cfg, u_init, an_enabled=False)
    assert np.all(sol.Z == 0)
    return sol, history
