"""Projected-gradient solver for the relaxed convex beamforming subproblem.

The subproblem minimizes  F1 + F2 - (affine underestimator of G1 + G2) over
PSD matrices {W_k}, Z under the total-power budget, the rank constraint
having been dropped. The -log2 terms act as implicit barriers (their
arguments stay >= the noise constants on the feasible set), so projected
gradient steps with Armijo backtracking converge without any further cone
machinery.

The solver works on one real vector x: the stack (W_1, ..., W_K, Z) of
N x N blocks, flattened and viewed as interleaved (re, im) pairs. For
complex L and X, Re<L, X> is then the dot product of their real views, and
for Hermitian A, tr(A X) = Re<A, X>; so every log argument is one real row
times x, and the objective, its gradient and every inner product are plain
real matrix-vector products.

The constraint set is spectral, which makes the exact Euclidean projection
cheap (eigenvalue clip plus a water-filling shift when the power budget
binds); :func:`solve` uses it so that the gradient mapping vanishes exactly
at KKT points, and takes Barzilai-Borwein trial steps inside the monotone
Armijo search (spectral projected gradient).
"""
from __future__ import annotations

import math
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


def _flatten(W: np.ndarray, Z: np.ndarray, an_enabled: bool = True) -> np.ndarray:
    """x for (W, Z): the stack W_1..W_K, Z as one real vector of (re, im)
    pairs. Without AN, Z is pinned to 0 and x stops before its block."""
    blocks = np.concatenate([W, Z[None]]) if an_enabled else np.ascontiguousarray(W)
    return blocks.astype(complex, copy=False).reshape(-1).view(float)


@dataclass
class SubproblemSpec:
    """Data of one convexified subproblem, over x (see the module docstring).

    rows : (K + 1, 2 (K + 1) N^2) real rows of the F1 and F2 log arguments:
           rows[k] @ x + noise_user = n_k = tr(A_k (sum_r W_r + Z)) + s2_u,
           with A_k = h_k h_k^H in every block of row k, and
           rows[K] @ x + noise_eve = m = tr(B Z) + s2_e, with B = b b^H in
           the Z block
    lin  : (2 (K + 1) N^2,) real gradient of the subtracted affine
           underestimator of G1 + G2
    affine_const : its value at W = 0, Z = 0
    an_enabled   : when False, Z is pinned to the zero matrix

    ``a_mats`` (K, N, N), ``b_mat`` (N, N), ``lin_w`` (K, N, N) and
    ``lin_z`` (N, N) are complex Hermitian views of the same data.
    """

    rows: np.ndarray
    noise_user: float
    noise_eve: float
    lin: np.ndarray
    affine_const: float
    p_max: float
    an_enabled: bool = True
    # per-row log weights, noise constants and log-domain guards
    weights: np.ndarray = field(init=False, repr=False)
    consts: np.ndarray = field(init=False, repr=False)
    guard: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # written so that NaN fails every test
        if not (0.0 < self.noise_user < math.inf and 0.0 < self.noise_eve < math.inf):
            raise ValueError("noise constants must be positive and finite")
        if not 0.0 <= self.p_max < math.inf:
            raise ValueError(f"p_max must be non-negative and finite, got {self.p_max}")
        k = self.num_users
        self.weights = np.append(np.ones(k), float(k))
        self.consts = np.append(np.full(k, float(self.noise_user)), self.noise_eve)
        self.guard = LOG_GUARD * self.consts

    @property
    def num_users(self) -> int:
        return self.rows.shape[0] - 1

    def _blocks(self, flat: np.ndarray) -> np.ndarray:
        """(..., K + 1, N, N) complex view of real vectors over x."""
        n = math.isqrt(flat.shape[-1] // (2 * self.rows.shape[0]))
        return flat.view(complex).reshape(*flat.shape[:-1], -1, n, n)

    @property
    def a_mats(self) -> np.ndarray:
        return self._blocks(self.rows[:-1])[:, 0]

    @property
    def b_mat(self) -> np.ndarray:
        return self._blocks(self.rows[-1])[-1]

    @property
    def lin_w(self) -> np.ndarray:
        return self._blocks(self.lin)[:-1]

    @property
    def lin_z(self) -> np.ndarray:
        return self._blocks(self.lin)[-1]


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


def _evaluate(spec: SubproblemSpec, x: np.ndarray):
    """(F1/F2 log arguments, objective) at x; the objective is +inf outside
    the log domain guard. Without AN, x and the rows it meets stop before
    the Z block."""
    v = spec.rows[:, : x.size].dot(x) + spec.consts
    if (v <= spec.guard).any():
        return v, np.inf
    lin_x = spec.lin[: x.size].dot(x)
    return v, float(-spec.weights.dot(np.log2(v)) - spec.affine_const - lin_x)


def subproblem_objective(spec: SubproblemSpec, W: np.ndarray, Z: np.ndarray) -> float:
    """F1 + F2 minus the affine part; +inf outside the log domain guard.

    Without AN, Z is pinned to 0 and not read.
    """
    return _evaluate(spec, _flatten(W, Z, spec.an_enabled))[1]


def subproblem_gradient(spec: SubproblemSpec, W: np.ndarray, Z: np.ndarray):
    """Hermitian gradients (dW, dZ) of the subproblem objective."""
    v = spec.rows.dot(_flatten(W, Z)) + spec.consts
    blocks = spec._blocks(-(spec.weights / (LN2 * v)).dot(spec.rows) - spec.lin)
    return blocks[:-1], blocks[-1]


def _project_exact(stack: np.ndarray, p_max: float):
    """Exact Euclidean projection onto {every block PSD, total trace <= p_max}.

    ``stack`` is the (S, N, N) stack of Hermitian blocks: W_1..W_K, then Z
    when AN is on. Returns the projected stack and the (S, N) eigenvalues it
    assigned, ascending per block.

    The constraint is spectral, so the projection diagonalizes each block and
    projects the concatenated eigenvalue vector onto the simplex-with-budget
    {x >= 0, sum(x) <= p_max}: clip at zero, and if the clipped sum still
    exceeds the budget, shift all eigenvalues down by the water-filling level
    before clipping. Unlike the radial surrogate this map fixes every KKT
    point, which keeps projected-gradient steps descent directions.
    """
    # eigh reads one triangle, so the stack needs no explicit symmetrization
    vals, vecs = np.linalg.eigh(stack)
    clipped = np.maximum(vals, 0.0)
    if clipped.sum() > p_max:
        flat = vals.flatten()
        flat.sort()
        flat = flat[::-1]
        cumsum = flat.cumsum()
        level = (cumsum - p_max) / np.arange(1, flat.size + 1)
        active = (flat > level).nonzero()[0]
        lam = level[active[-1]] if active.size else cumsum[-1] - p_max
        clipped = np.maximum(vals - lam, 0.0)
        # vals - lam cancels when the eigenvalues dwarf the budget (a long
        # gradient step); rescale so the kept ones sum to p_max exactly
        total = clipped.sum()
        if total > 0.0:
            clipped *= p_max / total
    return (vecs * clipped[:, None, :]) @ vecs.conj().swapaxes(-1, -2), clipped


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
    ``start.validate`` has accepted it. The iterate is x over the blocks
    W_1..W_K (and Z when AN is on; without AN the start's Z is not read and
    Z stays 0), and W and Z are split from it once, at exit.

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
    k, n = spec.num_users, start.Z.shape[0]
    x = _flatten(start.W, start.Z, spec.an_enabled)
    # without AN, x stops before the Z block and so do the rows it meets
    rows, lin, weights = spec.rows[:, : x.size], spec.lin[: x.size], spec.weights

    def project(y):
        out, vals = _project_exact(y.view(complex).reshape(-1, n, n), spec.p_max)
        return out.reshape(-1).view(float), vals

    def gradient(v):
        return -(weights / (LN2 * v)).dot(rows) - lin

    def unit_step_residual(g):
        # norm of the gradient mapping at unit reference step; zero exactly
        # at KKT points of the subproblem
        d = project(x - g)[0] - x
        return float(np.sqrt(d.dot(d)))

    v, q = _evaluate(spec, x)
    g = gradient(v)
    delta = min(max(step_size, 1.0), 1e8)
    step_norm = 0.0
    residual = np.inf
    status = SolverStatus.MAX_ITERS
    iterations = 0
    entry = True  # the next trial is the first one, with delta >= 1
    check_residual = False

    for iterations in range(1, max_iters + 1):
        if check_residual:
            residual = unit_step_residual(g)
            if residual <= tol * (1.0 + abs(q)):
                status = SolverStatus.CONVERGED
                break
        x_norm = float(np.sqrt(x.dot(x)))
        accepted = False
        stopped = False
        for _ in range(MAX_BACKTRACKS):
            xt, eigs_t = project(x - delta * g)
            s = xt - x
            step_sq = float(s.dot(s))
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
            vt, qt = _evaluate(spec, xt)
            if qt <= q - (ARMIJO_C / delta) * step_sq:
                accepted = True
                break
            delta *= 0.5
        if stopped:
            break
        if not accepted:
            # distinguish float-level stationarity from a genuine failure
            residual = unit_step_residual(g)
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
        gt = gradient(vt)
        sy = float(s.dot(gt - g))
        delta = min(max(step_sq / sy, 1e-8), 1e8) if sy > 0.0 else 1e8
        x, q, g, eigs = xt, qt, gt, eigs_t

    blocks = x.view(complex).reshape(-1, n, n)
    W = blocks[:k]
    Z = blocks[k] if spec.an_enabled else np.zeros((n, n), dtype=complex)
    if eigs.shape[0] == k:  # projected without AN: Z's eigenvalues are 0
        eigs = np.concatenate([eigs, np.zeros((1, n))])
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
