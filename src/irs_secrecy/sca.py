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
from .convex_inner import SolverStatus, SubproblemSpec
from .metrics import (
    LN2,
    _expansion,
    _f_and_sum_secrecy,
    _flatten,
    _term_log_arguments,
    _term_rows,
    _unflatten,
    effective_eve_channel,
    effective_user_channels,
)
from .solution import HistoryRecord, RunHistory, TransmitSolution, hermitize, total_power

# Frank-Wolfe gap tolerance of each inner solve, in bits relative to 1 + |q|.
# Carrying instead of resetting the inner step moved optimize's sum secrecy
# by up to 2.5e-3 relative at 1e-6, where the |f change| stops fired on the
# inner path, and by 5e-5 at 1e-7.
INNER_TOL = 1e-7


def _linearize(rows: np.ndarray, logs):
    """(value, real gradient over x) of G1 and of G2 at the point of ``logs``.

    G1 = -sum_k log2(d_k) and G2 = -sum_k log2(e_k); both gradients come
    from one product of their (2, 3K + 1) row coefficients with the rows.
    """
    _, d, e, _, _ = logs
    if not ((d > 0).all() and (e > 0).all()):  # a NaN argument fails too
        raise ValueError("non-positive log argument in G1 or G2")
    k = d.shape[0]
    coef = np.zeros((2, 3 * k + 1))
    coef[0, k : 2 * k] = -1.0 / (LN2 * d)
    c2 = -1.0 / (LN2 * e)
    coef[1, 2 * k : 3 * k] = c2
    coef[1, 3 * k] = c2.sum()  # e_k = m + leak_k: every e_k holds tr(B Z)
    g1, g2 = coef.dot(rows)
    return (-float(np.log2(d).sum()), g1), (-float(np.log2(e).sum()), g2)


def _affine_part(rows: np.ndarray, x: np.ndarray, logs):
    """(lin, affine_const) of the G1 + G2 underestimator, tight at x."""
    (value1, lin1), (value2, lin2) = _linearize(rows, logs)
    lin = lin1 + lin2
    return lin, value1 + value2 - float(lin.dot(x))


def _gradients(W, Z, u, ch: ChannelSet):
    """:func:`_linearize` at (W, Z), each gradient as complex (grad_w, grad_z)."""
    rows, _, logs = _expansion(W, Z, u, ch)
    out = []
    for value, grad in _linearize(rows, logs):
        blocks = _unflatten(grad, W.shape[-1])
        out.append((value, blocks[:-1], blocks[-1]))
    return out


def grad_G1(W: np.ndarray, Z: np.ndarray, u: np.ndarray, ch: ChannelSet):
    """Gradients of G1 wrt each W_r and Z; all outputs Hermitian.

    G1 = -sum_k log2(d_k) with d_k the interference-plus-noise term of user
    k, so dG1/dW_r = -sum_{k != r} A_k / (ln2 d_k) and dG1/dZ sums over all k.
    """
    return _gradients(W, Z, u, ch)[0][1:]


def grad_G2(W: np.ndarray, Z: np.ndarray, u: np.ndarray, ch: ChannelSet):
    """Gradients of G2 wrt each W_k and Z; per-user denominators e_k."""
    return _gradients(W, Z, u, ch)[1][1:]


@dataclass
class Linearization:
    """First-order expansion of a convex block at (w_point, z_point)."""

    w_point: np.ndarray
    z_point: np.ndarray
    value: float
    grad_w: np.ndarray
    grad_z: np.ndarray

    def value_at(self, W: np.ndarray, Z: np.ndarray) -> float:
        dx = _flatten(W - self.w_point, Z - self.z_point)  # Re<grad, dX> is a dot
        return float(self.value + _flatten(self.grad_w, self.grad_z).dot(dx))


def linearize_g1(W, Z, u, ch: ChannelSet) -> Linearization:
    return Linearization(W.copy(), Z.copy(), *_gradients(W, Z, u, ch)[0])


def linearize_g2(W, Z, u, ch: ChannelSet) -> Linearization:
    return Linearization(W.copy(), Z.copy(), *_gradients(W, Z, u, ch)[1])


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
    its Hermitian part is read, so it is not symmetrized. Without AN, Z_i is
    0 and the term rows' Z block is zeroed: Z meets no channel term, its
    gradient is exactly 0, and every projection keeps it at 0.
    """
    rows, x, logs = _expansion(W_i, Z_i, u, ch)
    if not an_enabled:
        rows[:, -2 * Z_i.size :] = 0.0  # Z's block: the last 2 N^2 entries of x
    return _subproblem(rows, x, logs, ch, p_max)


def _subproblem(rows, x, logs, ch: ChannelSet, p_max: float):
    """:func:`build_subproblem` from the term rows, x and the log arguments."""
    k = (rows.shape[0] - 1) // 3
    # the spec's rows are n_k - s2_u = signal_k + (d_k - s2_u), exact because
    # the two rows have disjoint blocks, and m - s2_e
    return SubproblemSpec(
        np.concatenate([rows[:k] + rows[k : 2 * k], rows[3 * k :]]),
        ch.noise_user,
        ch.noise_eve,
        *_affine_part(rows, x, logs),
        p_max=p_max,
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

    A ``stalled`` inner solve's point is kept too (no worse on the
    surrogate, so f does not rise); ``history.status`` is ``stalled`` when
    the stop fires right after one, else ``converged`` or ``max_iters``.

    f, and every SCA surrogate, reads W_k and Z only through the quadratic
    forms h_k^H X h_k and b^H X b, with h_k and b in S = span{h_1..h_K, b}.
    So P X P, with P the projector onto S, is as good as X and uses no more
    power (Jorswieck, Larsson & Danev, IEEE TSP 2008). When K + 1 < N_T the
    loop runs on Q^H X Q, with Q an orthonormal basis of S, and the returned
    W_k and Z are lifted back as Q Y Q^H: they lie in S, and a start outside
    S is replaced by its projection onto S.

    The phases, and so the channels, are fixed for the whole call, so the
    term rows (``metrics._term_rows``) and the :class:`SubproblemSpec` are
    built once; each round replaces only the spec's affine part (``lin`` and
    ``affine_const``). Each iterate's log arguments are one product of the
    rows with x; they give the record's f and sum_secrecy and linearize the
    next round. The start the loop solves from is checked once; its
    spectrum gives round 0's rank-one defect and goes to the first solve,
    and each later solve gets the spectrum the previous one reported, so
    the solves decompose no start: only their projections and the
    gradients of their gap tests.

    ``step_size`` starts the first inner solve; each later round starts from
    the step the previous solve ended with, and the last one is returned as
    ``history.step_size`` for the caller's next run. Without AN the start's
    Z must be 0, and Z is pinned there as in :func:`build_subproblem`.
    """
    if not 0.0 <= p_max < np.inf:  # NaN fails too
        raise ValueError(f"p_max must be non-negative and finite, got {p_max}")
    u = np.asarray(u, dtype=complex)
    if start is None:
        start = default_start(u, ch, p_max, an_enabled=an_enabled)
    if not an_enabled and np.linalg.norm(start.Z) != 0:
        raise ValueError("an_enabled=False requires a zero AN covariance start")
    h = effective_user_channels(ch, u)
    b = effective_eve_channel(ch, u)
    q = _span_basis(h, b)
    stack = np.concatenate([start.W, start.Z[None]])
    if q is not None:
        # the solves see only the compressed start, which is feasible
        # whenever the start is, so the start itself is checked here
        convex_inner._check_start(TransmitSolution(W=start.W, Z=start.Z, u=u), p_max)
        qh = np.conj(q.T)
        stack = qh @ stack @ q
        h, b = h @ np.conj(q), b @ np.conj(q)
    stack = hermitize(stack)
    W, Z = stack[:-1], stack[-1]
    # the one decomposition of a start the solves need: each later solve
    # starts from the previous one's output, with the spectrum it reported
    eigs = convex_inner._check_start(TransmitSolution(W=W, Z=Z, u=u), p_max)

    # the phases are fixed, so the rows are too: each round changes only the
    # surrogate's affine part
    rows = _term_rows(h, b)
    if not an_enabled:
        rows[:, -2 * Z.size :] = 0.0  # Z's block: the last 2 r^2 entries of x
    x = _flatten(W, Z)
    logs = _term_log_arguments(rows, x, ch)
    f, sum_secrecy = _f_and_sum_secrecy(*logs[:4])
    spec = _subproblem(rows, x, logs, ch, p_max)
    history = RunHistory()
    history.append(
        HistoryRecord(
            iteration=0,
            phase="sca",
            f=f,
            power_used=total_power(W, Z),
            sum_secrecy=sum_secrecy,
            rank_residual=_max_rank_ratio(eigs[:-1]),
        )
    )
    history.status = "max_iters"
    for i in range(1, max_iters + 1):
        t0 = time.perf_counter()
        if i > 1:
            spec.lin, spec.affine_const = _affine_part(rows, x, logs)
        sol_i, report = convex_inner.solve(
            spec, TransmitSolution(W=W, Z=Z, u=u), tol=INNER_TOL, step_size=step_size,
            eigenvalues=eigs,
        )
        W, Z, eigs = sol_i.W, sol_i.Z, report.eigenvalues
        step_size = report.step_size
        f_prev = f
        x = _flatten(W, Z)
        logs = _term_log_arguments(rows, x, ch)
        f, sum_secrecy = _f_and_sum_secrecy(*logs[:4])
        history.append(
            HistoryRecord(
                iteration=i,
                phase="sca",
                f=f,
                power_used=total_power(W, Z),
                sum_secrecy=sum_secrecy,
                rank_residual=_max_rank_ratio(eigs[:-1]),
                wall_time_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
        if abs(f - f_prev) <= tol:
            stalled = report.status == SolverStatus.STALLED
            history.status = "stalled" if stalled else "converged"
            break
    history.step_size = step_size
    if q is not None:
        lifted = q @ np.concatenate([W, Z[None]]) @ qh
        W, Z = lifted[:-1], lifted[-1]
    return TransmitSolution(W=W, Z=Z, u=u), history


def extract_rank_one(W_k: np.ndarray) -> tuple[np.ndarray, float]:
    """Principal-eigenpair beamformer and the rank-one defect lambda2/lambda1."""
    W_k = np.asarray(W_k, dtype=complex)
    # checked first: eigh can return finite values for a NaN entry
    if not np.isfinite(W_k).all():
        raise ValueError("extract_rank_one requires a finite matrix")
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
