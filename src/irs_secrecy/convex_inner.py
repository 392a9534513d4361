"""Projected-gradient solver for the relaxed convex beamforming subproblem.

The subproblem minimizes  F1 + F2 - (affine underestimator of G1 + G2) over
PSD matrices {W_k}, Z under the total-power budget, the rank constraint
having been dropped. The -log2 terms act as implicit barriers (their
arguments stay >= the noise constants on the feasible set), so projected
gradient steps with Armijo backtracking converge without any further cone
machinery.

The solver works on one real vector x (``metrics._flatten``): the stack
(W_1, ..., W_K, Z) of N x N blocks, flattened and viewed as interleaved
(re, im) pairs. For complex L and X, Re<L, X> is then the dot product of
their real views, and for Hermitian A, tr(A X) = Re<A, X>; so every log
argument is one real row times x, and the objective, its gradient and every
inner product are plain real matrix-vector products.

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

from .metrics import LN2, _flatten, _unflatten
from .solution import TransmitSolution

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 60
MAX_STEP = 1e8  # the only bound on a trial step
LOG_GUARD = 1e-12  # reject log arguments below guard * noise constant


class SolverStatus(str, Enum):
    """How :func:`solve` stopped. At each exit the point is feasible and no
    worse than the start, and ``residual`` is its Frank-Wolfe gap.

    ``converged``: the gap is at most ``tol * (1 + |q|)``; ``max_iters``:
    the cap; ``stalled``: float precision, a trial that moved the point by
    eigendecomposition noise only even at the longest step ``MAX_STEP``, or
    backtracking that accepted no step.
    """

    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    STALLED = "stalled"


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

    ``a_mats`` (K, N, N), ``b_mat`` (N, N), ``lin_w`` (K, N, N) and
    ``lin_z`` (N, N) are complex Hermitian views of the same data.
    """

    rows: np.ndarray
    noise_user: float
    noise_eve: float
    lin: np.ndarray
    affine_const: float
    p_max: float
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
        return _unflatten(flat, math.isqrt(self.rows.shape[1] // (2 * self.rows.shape[0])))

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
    residual: float  # Frank-Wolfe gap at the returned point, >= objective - min
    status: SolverStatus
    step_size: float  # first trial step of the next iteration at exit
    # (K + 1, N_T) eigenvalues of the returned W_1..W_K, Z, ascending per
    # matrix: the ones the projection assigned, or the start's
    eigenvalues: np.ndarray = field(compare=False, repr=False)


def _evaluate(spec: SubproblemSpec, x: np.ndarray):
    """(F1/F2 log arguments, objective) at x; the objective is +inf outside
    the log domain guard."""
    v = spec.rows.dot(x) + spec.consts
    if (v <= spec.guard).any():
        return v, np.inf
    return v, float(-spec.weights.dot(np.log2(v)) - spec.affine_const - spec.lin.dot(x))


def subproblem_objective(spec: SubproblemSpec, W: np.ndarray, Z: np.ndarray) -> float:
    """F1 + F2 minus the affine part; +inf outside the log domain guard."""
    return _evaluate(spec, _flatten(W, Z))[1]


def _gradient(spec: SubproblemSpec, v: np.ndarray):
    """Real gradient over x of the objective whose log arguments at x are ``v``."""
    return -(spec.weights / (LN2 * v)).dot(spec.rows) - spec.lin


def subproblem_gradient(spec: SubproblemSpec, W: np.ndarray, Z: np.ndarray):
    """Hermitian gradients (dW, dZ) of the subproblem objective."""
    v = spec.rows.dot(_flatten(W, Z)) + spec.consts
    blocks = spec._blocks(_gradient(spec, v))
    return blocks[:-1], blocks[-1]


def _project_exact(stack: np.ndarray, p_max: float):
    """Exact Euclidean projection onto {every block PSD, total trace <= p_max}.

    ``stack`` is the (K + 1, N, N) stack of Hermitian blocks W_1..W_K, Z.
    Returns the projected stack and the (K + 1, N) eigenvalues it assigned,
    ascending per block; an all-zero block comes back exactly zero.

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


def _check_start(start: TransmitSolution, p_max: float, eigenvalues=None) -> np.ndarray:
    """``start.validate``, its failure reported as an infeasible start."""
    try:
        return start.validate(p_max, eigenvalues)
    except ValueError as exc:
        raise ValueError(f"infeasible start: {exc}") from None


def solve(
    spec: SubproblemSpec,
    start: TransmitSolution,
    *,
    tol: float = 1e-6,
    max_iters: int = 500,
    step_size: float = 1.0,
    eigenvalues: np.ndarray | None = None,
) -> tuple[TransmitSolution, SolverReport]:
    """Minimize the subproblem from a feasible start; never ascends.

    Spectral projected gradient (Birgin, Martinez & Raydan, SIAM J. Optim.
    2000) with a monotone Armijo search: each iteration tries the step
    ``delta`` first and halves it until ``q(X+) <= q(X) - (c/delta)||s||^2``.
    The start is used as given, neither projected nor symmetrized again:
    ``start.validate`` has accepted it. A caller that has the start's
    (K + 1, N_T) spectrum passes it as ``eigenvalues`` (in a sequence of
    solves, the previous ``SolverReport.eigenvalues``), and the start is
    then checked on it without a decomposition. The iterate is x over the
    blocks W_1..W_K, Z, and W and Z are split from it once, at exit.

    Every trial step is at most ``MAX_STEP`` and has no lower bound. The
    first is ``step_size``, which must be positive. After an accepted step s = X+ - X with gradient
    change y = grad(X+) - grad(X) (each accepted point's gradient is computed
    once), the next is the Barzilai-Borwein step <s, s> / <s, y> (Barzilai &
    Borwein, IMA J. Numer. Anal. 1988), or ``MAX_STEP`` when <s, y> <= 0. A
    trial that moves the point by at most ``1e-13 ||X||``, eigendecomposition
    noise, retries at ``MAX_STEP``, so a collapsed step cannot end the solve.
    The next first trial at exit is ``SolverReport.step_size``, for a caller
    that solves a sequence of similar subproblems, and the spectrum of the
    returned point is ``SolverReport.eigenvalues``.

    The exits are those of :class:`SolverStatus`. The Frank-Wolfe gap
    (Jaggi, ICML 2013) ``g.x - p_max min(0, lambda_min(G))``, G the gradient
    as the (K + 1, N, N) Hermitian stack, is the largest decrease of the
    linearized objective over the feasible set, so it bounds q - min q in
    the objective's own units (bits). It is taken at the start of each
    iteration with one ``eigvalsh``, so a start that passes the test is
    returned without a projection.
    """
    if not step_size > 0.0:  # written so that NaN fails too
        raise ValueError(f"step_size must be positive, got {step_size}")
    eigs = _check_start(start, spec.p_max, eigenvalues)
    n = start.Z.shape[0]
    x = _flatten(start.W, start.Z)

    def project(y):
        out, vals = _project_exact(_unflatten(y, n), spec.p_max)
        return out.reshape(-1).view(float), vals

    def frank_wolfe_gap(x, g):
        low = np.linalg.eigvalsh(_unflatten(g, n)).min()
        return float(g.dot(x) - spec.p_max * min(0.0, low))

    v, q = _evaluate(spec, x)
    g = _gradient(spec, v)
    delta = min(step_size, MAX_STEP)
    status = SolverStatus.MAX_ITERS
    iterations = 0

    for iterations in range(1, max_iters + 1):
        residual = frank_wolfe_gap(x, g)
        if residual <= tol * (1.0 + abs(q)):
            status = SolverStatus.CONVERGED
            break
        x_norm = math.sqrt(x.dot(x))
        for _ in range(MAX_BACKTRACKS):
            xt, eigs_t = project(x - delta * g)
            s = xt - x
            step_sq = float(s.dot(s))
            if math.sqrt(step_sq) <= 1e-13 * x_norm:
                # below eigendecomposition noise: the map cannot move the
                # point, so stop, unless a longer trial still can
                if delta >= MAX_STEP:
                    status = SolverStatus.STALLED
                    break
                delta = MAX_STEP
                continue
            vt, qt = _evaluate(spec, xt)
            if qt <= q - (ARMIJO_C / delta) * step_sq:
                break
            delta *= 0.5
        else:
            status = SolverStatus.STALLED  # no step accepted
        if status is not SolverStatus.MAX_ITERS:
            break
        gt = _gradient(spec, vt)
        sy = float(s.dot(gt - g))
        delta = min(step_sq / sy, MAX_STEP) if sy > 0.0 else MAX_STEP
        x, q, g, eigs = xt, qt, gt, eigs_t
    else:
        residual = frank_wolfe_gap(x, g)

    blocks = _unflatten(x, n)
    report = SolverReport(
        objective=q,
        iterations=iterations,
        residual=residual,
        status=status,
        step_size=delta,
        eigenvalues=eigs,
    )
    return TransmitSolution(W=blocks[:-1], Z=blocks[-1], u=start.u, w=None), report
