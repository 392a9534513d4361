"""Successive convex approximation over the beamforming covariances.

Each round linearizes the concave part -(G1 + G2) of the objective at the
current iterate (both G blocks are convex, so their first-order expansions
are global underestimators, tight at the expansion point), solves the
resulting convex subproblem, and repeats until the true objective stalls.
The true objective never increases: the subproblem upper-bounds it and
touches it at the expansion point.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import convex_inner
from .channels import ChannelSet
from .convex_inner import InnerSolverError, SolverStatus, SubproblemSpec
from .metrics import (
    LN2,
    _breakdown,
    _log_arguments_at,
    effective_eve_channel,
    effective_user_channels,
)
from .solution import HistoryRecord, RunHistory, TransmitSolution, hermitize, total_power


def _linearize(W: np.ndarray, Z: np.ndarray, u: np.ndarray, ch: ChannelSet):
    """A_k = h_k h_k^H and B = b b^H at phases u, and (value, grad_w, grad_z)
    of G1 and of G2 at (W, Z), from one pass over the channels."""
    h = effective_user_channels(ch, u)
    b = effective_eve_channel(ch, u)
    _, d, e, _, _ = _log_arguments_at(W, Z, h, b, ch)
    return _expand(h, b, d, e)


def _expand(h: np.ndarray, b: np.ndarray, d: np.ndarray, e: np.ndarray):
    """:func:`_linearize` from the channels and the G1, G2 log arguments d, e."""
    if not ((d > 0).all() and (e > 0).all()):  # a NaN argument fails too
        raise ValueError("non-positive log argument in G1 or G2")
    a_mats = np.einsum("kn,kp->knp", h, np.conj(h))
    b_mat = np.outer(b, np.conj(b))
    c1, c2 = 1.0 / (LN2 * d), 1.0 / (LN2 * e)
    g1_z = -np.einsum("k,knp->np", c1, a_mats)
    # W_r is absent from its own d_r, so its gradient adds that term back
    g1_w = g1_z[None, :, :] + c1[:, None, None] * a_mats
    g1 = (-float(np.log2(d).sum()), g1_w, g1_z)
    g2 = (-float(np.log2(e).sum()), -c2[:, None, None] * b_mat, -c2.sum() * b_mat)
    return a_mats, b_mat, g1, g2


def grad_G1(W: np.ndarray, Z: np.ndarray, u: np.ndarray, ch: ChannelSet):
    """Gradients of G1 wrt each W_r and Z; all outputs Hermitian.

    G1 = -sum_k log2(d_k) with d_k the interference-plus-noise term of user
    k, so dG1/dW_r = -sum_{k != r} A_k / (ln2 d_k) and dG1/dZ sums over all k.
    """
    _, _, (_, g_w, g_z), _ = _linearize(W, Z, u, ch)
    return g_w, g_z


def grad_G2(W: np.ndarray, Z: np.ndarray, u: np.ndarray, ch: ChannelSet):
    """Gradients of G2 wrt each W_k and Z; per-user denominators e_k."""
    _, _, _, (_, g_w, g_z) = _linearize(W, Z, u, ch)
    return g_w, g_z


@dataclass
class Linearization:
    """First-order expansion of a convex block at (w_point, z_point)."""

    w_point: np.ndarray
    z_point: np.ndarray
    value: float
    grad_w: np.ndarray
    grad_z: np.ndarray

    def value_at(self, W: np.ndarray, Z: np.ndarray) -> float:
        dw = np.einsum("kij,kij->", np.conj(self.grad_w), W - self.w_point).real
        dz = np.einsum("ij,ij->", np.conj(self.grad_z), Z - self.z_point).real
        return float(self.value + dw + dz)


def linearize_g1(W, Z, u, ch: ChannelSet) -> Linearization:
    return Linearization(W.copy(), Z.copy(), *_linearize(W, Z, u, ch)[2])


def linearize_g2(W, Z, u, ch: ChannelSet) -> Linearization:
    return Linearization(W.copy(), Z.copy(), *_linearize(W, Z, u, ch)[3])


def build_subproblem(
    W_i: np.ndarray,
    Z_i: np.ndarray,
    u: np.ndarray,
    ch: ChannelSet,
    p_max: float,
    *,
    an_enabled: bool = True,
) -> SubproblemSpec:
    """Package the convex subproblem around the expansion point (W_i, Z_i).

    The point's feasibility is checked by :func:`convex_inner.solve`; only
    its Hermitian part is read, so it is not symmetrized.
    """
    return _subproblem(W_i, Z_i, _linearize(W_i, Z_i, u, ch), ch, p_max, an_enabled)


def _subproblem(W_i, Z_i, expansion, ch: ChannelSet, p_max: float, an_enabled: bool):
    """:func:`build_subproblem` from the :func:`_linearize` output at (W_i, Z_i)."""
    # the same values as linearize_g1 + linearize_g2, from one pass
    a_mats, b_mat, (g1, g1_w, g1_z), (g2, g2_w, g2_z) = expansion
    lin_w = g1_w + g2_w
    lin_z = g1_z + g2_z
    affine_const = g1 + g2 - np.vdot(lin_w, W_i).real - np.vdot(lin_z, Z_i).real
    return SubproblemSpec(
        a_mats=a_mats,
        noise_user=ch.noise_user,
        b_mat=b_mat,
        noise_eve=ch.noise_eve,
        lin_w=lin_w,
        lin_z=lin_z,
        affine_const=float(affine_const),
        p_max=p_max,
        an_enabled=an_enabled,
    )


def default_start(
    u: np.ndarray, ch: ChannelSet, p_max: float, *, an_enabled: bool = True
) -> TransmitSolution:
    """Matched-filter beamformers on half the budget, isotropic AN on the rest.

    Without AN the whole budget goes to the beamformers.
    """
    nt = ch.num_bs_antennas
    k = ch.num_users
    h = effective_user_channels(ch, u)
    an_power = p_max / 2.0 if an_enabled else 0.0
    per_user = (p_max - an_power) / k
    W = np.zeros((k, nt, nt), dtype=complex)
    for i in range(k):
        norm = np.linalg.norm(h[i])
        if norm > 0:
            w = np.sqrt(per_user) * h[i] / norm
            W[i] = np.outer(w, np.conj(w))
    Z = (an_power / nt) * np.eye(nt, dtype=complex)
    return TransmitSolution(W=W, Z=Z, u=np.asarray(u, dtype=complex))


def max_rank_residual(W: np.ndarray) -> float:
    """Largest second-to-first eigenvalue ratio across the user covariances."""
    return _max_rank_ratio(np.linalg.eigvalsh(hermitize(W)))


def _max_rank_ratio(vals: np.ndarray) -> float:
    """:func:`max_rank_residual` from (K, N) eigenvalues, ascending per row."""
    if vals.shape[1] < 2:
        return 0.0
    top = vals[:, -1]
    second = np.maximum(vals[:, -2], 0.0)
    ratios = np.divide(second, top, out=np.zeros_like(top), where=top > 0)
    return float(ratios.max())


def _span_basis(h: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis (N_T, r) of S = span{h_1, ..., h_K, b}, r <= K + 1.

    None when K + 1 >= N_T: S is then (generically) the whole space. The
    basis comes from an SVD, so collinear channels give r = dim S and not a
    column spanned by round-off.
    """
    k, n = h.shape
    if k + 1 >= n:
        return None
    vecs, s, _ = np.linalg.svd(np.concatenate([h, b[None]]).T, full_matrices=False)
    rank = int((s > s[0] * n * np.finfo(float).eps).sum())
    return vecs[:, : max(rank, 1)]


def run_sca(
    u: np.ndarray,
    ch: ChannelSet,
    p_max: float,
    start: TransmitSolution | None = None,
    *,
    tol: float = 1e-3,
    max_iters: int = 30,
    an_enabled: bool = True,
    step_size: float = 1.0,
) -> tuple[TransmitSolution, RunHistory]:
    """Iterate linearize-and-solve until |f change| <= tol, tracking f.

    f, and every SCA surrogate, reads W_k and Z only through the quadratic
    forms h_k^H X h_k and b^H X b, with h_k and b in S = span{h_1..h_K, b}.
    So P X P, with P the projector onto S, is as good as X and uses no more
    power (Jorswieck, Larsson & Danev, IEEE TSP 2008). When K + 1 < N_T the
    loop runs on Q^H X Q, with Q an orthonormal basis of S, and the returned
    W_k and Z are lifted back as Q Y Q^H: they lie in S, and a start outside
    S is replaced by its projection onto S. Each record carries f and
    sum_secrecy of its iterate, from the same log arguments that linearize
    the next round.

    ``step_size`` starts the first inner solve; each later round starts from
    the step the previous solve ended with, and the last one is returned as
    ``history.step_size`` for the caller's next run.
    """
    u = np.asarray(u, dtype=complex)
    if start is None:
        start = default_start(u, ch, p_max, an_enabled=an_enabled)
    if not an_enabled and np.linalg.norm(start.Z) != 0:
        raise ValueError("an_enabled=False requires a zero AN covariance start")
    h = effective_user_channels(ch, u)
    b = effective_eve_channel(ch, u)
    q = _span_basis(h, b)
    if q is None:
        W = hermitize(start.W)
        Z = hermitize(start.Z)
    else:
        # the solver checks only the compressed start, which is feasible
        # whenever the start is, so the start itself is checked here
        try:
            TransmitSolution(W=start.W, Z=start.Z, u=u).validate(p_max)
        except ValueError as exc:
            raise ValueError(f"infeasible start: {exc}") from None
        qh = np.conj(q.T)
        W = hermitize(qh @ start.W @ q)
        Z = hermitize(qh @ start.Z @ q)
        h, b = h @ np.conj(q), b @ np.conj(q)

    def evaluate(W, Z):
        logs = _log_arguments_at(W, Z, h, b, ch)
        return logs, _breakdown(*logs)

    history = RunHistory()
    logs, rates = evaluate(W, Z)
    history.append(
        HistoryRecord(
            iteration=0,
            phase="sca",
            f=rates.f,
            power_used=total_power(W, Z),
            sum_secrecy=rates.sum_secrecy,
            rank_residual=max_rank_residual(W),
        )
    )
    history.status = "max_iters"
    for i in range(1, max_iters + 1):
        t0 = time.perf_counter()
        spec = _subproblem(W, Z, _expand(h, b, logs[1], logs[2]), ch, p_max, an_enabled)
        sol_i, report = convex_inner.solve(
            spec, TransmitSolution(W=W, Z=Z, u=u), step_size=step_size
        )
        if report.status == SolverStatus.NUMERICAL_FAILURE:
            raise InnerSolverError(
                f"inner solver failed at SCA iteration {i} "
                f"(residual {report.residual:.3e}, objective {report.objective:.6e})"
            )
        W, Z = sol_i.W, sol_i.Z
        step_size = report.step_size
        f_prev = rates.f
        logs, rates = evaluate(W, Z)
        history.append(
            HistoryRecord(
                iteration=i,
                phase="sca",
                f=rates.f,
                power_used=total_power(W, Z),
                sum_secrecy=rates.sum_secrecy,
                rank_residual=_max_rank_ratio(report.eigenvalues[:-1]),
                wall_time_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
        if abs(rates.f - f_prev) <= tol:
            history.status = "converged"
            break
    history.step_size = step_size
    if q is not None:
        W, Z = q @ W @ qh, q @ Z @ qh
    return TransmitSolution(W=W, Z=Z, u=u), history


def extract_rank_one(W_k: np.ndarray) -> tuple[np.ndarray, float]:
    """Principal-eigenpair beamformer and the rank-one defect lambda2/lambda1."""
    W_k = np.asarray(W_k, dtype=complex)
    vals, vecs = np.linalg.eigh(hermitize(W_k))
    trace = float(vals.sum())
    if vals.min() < -1e-9 * max(trace, 1e-30):
        raise ValueError("extract_rank_one requires a PSD matrix")
    lam1 = float(vals[-1])
    if lam1 <= 0:
        return np.zeros(W_k.shape[0], dtype=complex), 0.0
    w = np.sqrt(lam1) * vecs[:, -1]
    lam2 = float(vals[-2]) if vals.shape[0] > 1 else 0.0
    return w, max(lam2, 0.0) / lam1
