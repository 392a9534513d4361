"""Projected-gradient solver for the relaxed convex beamforming subproblem.

The subproblem minimizes  F1 + F2 - (affine underestimator of G1 + G2) over
PSD matrices {W_k}, Z under the total-power budget, the rank constraint
having been dropped. The -log2 terms act as implicit barriers (their
arguments stay >= the noise constants on the feasible set), so projected
gradient steps with Armijo backtracking converge without any further cone
machinery.

The constraint set is spectral, which makes the exact Euclidean projection
cheap (eigenvalue clip plus a water-filling shift when the power budget
binds); :func:`solve` uses it so that the gradient mapping vanishes exactly
at KKT points, and takes Barzilai-Borwein trial steps inside the monotone
Armijo search (spectral projected gradient).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .metrics import LN2
from .solution import TransmitSolution, total_power

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 60
LOG_GUARD = 1e-12  # reject log arguments below guard * noise constant


class SolverStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    NUMERICAL_FAILURE = "numerical_failure"


class InnerSolverError(RuntimeError):
    """Raised when a numerical failure has to propagate with context."""


@dataclass
class SubproblemSpec:
    """Data of one convexified subproblem.

    a_mats : (K, N, N) Gram matrices A_k = h_k h_k^H of the user links
    b_mat  : (N, N) Gram matrix of the eavesdropper link
    lin_w, lin_z : gradients of the subtracted affine underestimator
    affine_const : its value at W = 0, Z = 0
    an_enabled   : when False, Z is pinned to the zero matrix

    All four matrices are complex Hermitian; they are used as given.
    """

    a_mats: np.ndarray
    noise_user: float
    b_mat: np.ndarray
    noise_eve: float
    lin_w: np.ndarray
    lin_z: np.ndarray
    affine_const: float
    p_max: float
    an_enabled: bool = True

    def __post_init__(self):
        if self.noise_user <= 0 or self.noise_eve <= 0:
            raise ValueError("noise constants must be positive")
        if self.p_max < 0:
            raise ValueError("p_max must be non-negative")

    @property
    def num_users(self) -> int:
        return self.a_mats.shape[0]


@dataclass
class SolverReport:
    objective: float
    iterations: int
    final_step_norm: float
    residual: float
    power_slack: float
    min_eigenvalue: float
    status: SolverStatus
    step_size: float = 1.0  # first trial step of the next iteration at exit
    # (K + 1, N_T) eigenvalues of the returned W_1..W_K, Z, ascending per
    # matrix: the ones the projection assigned, or start.validate's for the start
    eigenvalues: np.ndarray | None = field(default=None, compare=False, repr=False)


def _log_args(spec: SubproblemSpec, W: np.ndarray, Z: np.ndarray):
    """n_k = tr(A_k (sum_r W_r + Z)) + s2_u for every k, and m = tr(B Z) + s2_e.

    For Hermitian A_k, tr(A_k X) = Re <A_k, X>, so the K traces are one real
    matmul of the flattened Gram stack against X viewed as (re, im) pairs.
    """
    x = np.asarray(W.sum(axis=0) + Z, dtype=complex)
    n = _real_rows(spec.a_mats) @ x.reshape(-1).view(float) + spec.noise_user
    m = np.vdot(spec.b_mat, Z).real + spec.noise_eve
    return n, m


def _real_rows(mats: np.ndarray) -> np.ndarray:
    """(K, N, N) complex stack as K real rows of interleaved (re, im) entries."""
    return mats.reshape(mats.shape[0], -1).view(float)


def _objective(spec: SubproblemSpec, W, Z, n, m) -> float:
    if (n <= LOG_GUARD * spec.noise_user).any() or m <= LOG_GUARD * spec.noise_eve:
        return np.inf
    lin = np.vdot(spec.lin_w, W).real + np.vdot(spec.lin_z, Z).real
    return float(
        -np.log2(n).sum() - spec.num_users * np.log2(m) - (spec.affine_const + lin)
    )


def _gradient(spec: SubproblemSpec, n, m):
    coef = 1.0 / (LN2 * n)
    s_a = (coef @ _real_rows(spec.a_mats)).view(complex).reshape(spec.b_mat.shape)
    g_w = -s_a[None, :, :] - spec.lin_w
    g_z = -s_a - (spec.num_users / (LN2 * m)) * spec.b_mat - spec.lin_z
    return g_w, g_z


def subproblem_objective(spec: SubproblemSpec, W: np.ndarray, Z: np.ndarray) -> float:
    """F1 + F2 minus the affine part; +inf outside the log domain guard."""
    return _objective(spec, W, Z, *_log_args(spec, W, Z))


def subproblem_gradient(spec: SubproblemSpec, W: np.ndarray, Z: np.ndarray):
    """Hermitian gradients (dW, dZ) of the subproblem objective."""
    return _gradient(spec, *_log_args(spec, W, Z))


def _project_exact(W: np.ndarray, Z: np.ndarray, p_max: float, an_enabled: bool):
    """Exact Euclidean projection onto {W_k, Z PSD, total trace <= p_max}.

    Returns the projected W and Z and the (K + 1, N) eigenvalues it assigned
    to W_1..W_K, Z (a zero row for Z when AN is off), ascending per matrix.

    The constraint is spectral, so the projection diagonalizes each block and
    projects the concatenated eigenvalue vector onto the simplex-with-budget
    {x >= 0, sum(x) <= p_max}: clip at zero, and if the clipped sum still
    exceeds the budget, shift all eigenvalues down by the water-filling level
    before clipping. Unlike the radial surrogate this map fixes every KKT
    point, which keeps projected-gradient steps descent directions.
    """
    stack = np.concatenate([W, Z[None]], axis=0) if an_enabled else W
    # eigh reads one triangle, so the stack needs no explicit symmetrization
    vals, vecs = np.linalg.eigh(stack)
    clipped = np.maximum(vals, 0.0)
    if clipped.sum() > p_max:
        flat = np.sort(vals, axis=None)[::-1]
        cumsum = flat.cumsum()
        level = (cumsum - p_max) / np.arange(1, flat.size + 1)
        active = np.flatnonzero(flat > level)
        lam = level[active[-1]] if active.size else cumsum[-1] - p_max
        clipped = np.maximum(vals - lam, 0.0)
        # vals - lam cancels when the eigenvalues dwarf the budget (a long
        # gradient step); rescale so the kept ones sum to p_max exactly
        total = clipped.sum()
        if total > 0.0:
            clipped *= p_max / total
    out = (vecs * clipped[:, None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))
    if an_enabled:
        return out[:-1], out[-1], clipped
    return out, np.zeros_like(Z), np.concatenate([clipped, np.zeros((1, Z.shape[0]))])


def solve(
    spec: SubproblemSpec,
    start: TransmitSolution,
    *,
    tol: float = 1e-6,
    max_iters: int = 500,
    step_size: float = 1.0,
) -> tuple[TransmitSolution, SolverReport]:
    """Minimize the subproblem from a feasible start; never ascends.

    Spectral projected gradient (Birgin, Martinez & Raydan, SIAM J. Optim.
    2000) with a monotone Armijo search: each iteration tries the step
    ``delta`` first and halves it until ``q(X+) <= q(X) - (c/delta)||s||^2``.
    After an accepted step s = X+ - X with gradient change
    y = grad(X+) - grad(X), the next first trial is the Barzilai-Borwein
    step <s, s> / <s, y> (Barzilai & Borwein, IMA J. Numer. Anal. 1988),
    clamped to [1e-8, 1e8]; it is 1e8 when <s, y> <= 0. The floor is far
    below a unit step because on unit-scale channels the curvature puts
    almost every BB step below 1. The gradient of each accepted point is
    computed once and serves both <s, y> and the next iteration. The start
    is used as given, neither projected nor symmetrized again:
    ``start.validate`` has accepted it.

    Stops when the unit-step gradient-mapping norm ||X - P(X - grad)||
    drops below ``tol * (1 + |objective|)``. ``step_size`` is the first
    trial step of the first iteration, clamped to [1, 1e8]: the
    displacement ||X - P(X - t grad)|| grows with t, so only from t >= 1
    does a displacement at float noise prove stationarity, and a step that
    backtracking collapsed to ~1e-16 at the end of one solve cannot freeze
    the next. The same bound (Calamai & More, Math. Programming 1987,
    Lemma 2.2) makes the first trial the entry test: when its displacement
    is at most ``tol * (1 + |q|)`` the start is returned as converged, with
    that displacement, an upper bound on the unit-step residual, as
    ``residual``; no separate projection is made on entry. The next trial
    step at exit is reported as ``SolverReport.step_size`` so that a caller
    solving a sequence of similar subproblems can start the next one from
    it, and the spectrum of the returned point as
    ``SolverReport.eigenvalues``.
    """
    try:
        eigs = start.validate(spec.p_max)
    except ValueError as exc:
        raise ValueError(f"infeasible start: {exc}") from None
    W, Z = start.W, start.Z
    n, m = _log_args(spec, W, Z)
    q = _objective(spec, W, Z, n, m)
    g_w, g_z = _gradient(spec, n, m)
    delta = min(max(step_size, 1.0), 1e8)
    step_norm = 0.0
    residual = np.inf
    status = SolverStatus.MAX_ITERS
    iterations = 0
    entry = True  # the next trial is the first one, with delta >= 1
    check_residual = False

    def _sq_norm(a_w, a_z):
        return float(np.vdot(a_w, a_w).real + np.vdot(a_z, a_z).real)

    def _unit_step_residual(g_w, g_z):
        # norm of the gradient mapping at unit reference step; zero exactly
        # at KKT points of the subproblem
        Wr, Zr, _ = _project_exact(W - g_w, Z - g_z, spec.p_max, spec.an_enabled)
        return float(np.sqrt(_sq_norm(Wr - W, Zr - Z)))

    for iterations in range(1, max_iters + 1):
        if check_residual:
            residual = _unit_step_residual(g_w, g_z)
            if residual <= tol * (1.0 + abs(q)):
                status = SolverStatus.CONVERGED
                break
        x_norm = float(np.sqrt(_sq_norm(W, Z)))
        accepted = False
        stopped = False
        for _ in range(MAX_BACKTRACKS):
            Wt, Zt, eigs_t = _project_exact(
                W - delta * g_w, Z - delta * g_z, spec.p_max, spec.an_enabled
            )
            s_w, s_z = Wt - W, Zt - Z
            step_sq = _sq_norm(s_w, s_z)
            step = np.sqrt(step_sq)
            if entry and step <= tol * (1.0 + abs(q)):
                # the displacement ||X - P(X - t grad)|| grows with t, so at
                # t >= 1 it bounds the unit-step residual from above
                residual = step
                status = SolverStatus.CONVERGED
                stopped = True
                break
            entry = False
            if step <= 1e-13 * (1.0 + x_norm):
                # below eigendecomposition noise: the map cannot move the point
                residual = step / delta
                status = SolverStatus.CONVERGED
                stopped = True
                break
            nt, mt = _log_args(spec, Wt, Zt)
            qt = _objective(spec, Wt, Zt, nt, mt)
            if qt <= q - (ARMIJO_C / delta) * step_sq:
                accepted = True
                break
            delta *= 0.5
        if stopped:
            break
        if not accepted:
            # distinguish float-level stationarity from a genuine failure
            residual = _unit_step_residual(g_w, g_z)
            status = (
                SolverStatus.CONVERGED
                if residual <= 10.0 * tol * (1.0 + abs(q))
                else SolverStatus.NUMERICAL_FAILURE
            )
            break
        step_norm = float(step)
        # a small accepted displacement is only a hint: confirm with the
        # unit-step residual next round (a huge step size can fake smallness)
        residual = step_norm / delta
        check_residual = residual <= tol * (1.0 + abs(qt))
        gt_w, gt_z = _gradient(spec, nt, mt)
        sy = float(np.vdot(s_w, gt_w - g_w).real + np.vdot(s_z, gt_z - g_z).real)
        delta = min(max(step_sq / sy, 1e-8), 1e8) if sy > 0.0 else 1e8
        W, Z, q, g_w, g_z, eigs = Wt, Zt, qt, gt_w, gt_z, eigs_t

    report = SolverReport(
        objective=q,
        iterations=iterations,
        final_step_norm=step_norm,
        residual=residual,
        power_slack=spec.p_max - total_power(W, Z),
        min_eigenvalue=float(eigs.min()),
        status=status,
        step_size=delta,
        eigenvalues=eigs,
    )
    return TransmitSolution(W=W, Z=Z, u=start.u, w=None), report
