"""Riemannian Newton method on the oblique manifold of phase vectors.

The feasible set is {u in C^M : |u_m| = 1}. Treated as a real manifold, its
tangent space at u is {v : Re(v_m conj(u_m)) = 0 for all m}; projection,
transport and retraction are all element-wise.

Gradient convention (Wirtinger): for a real-valued f of a complex vector,
the ambient gradient used here is grad = 2 * df/d(conj u), equivalently
df/dRe(u) + 1j * df/dIm(u). The objective for fixed (W, Z) is a signed sum
f = sum_t w_t log2(a_t), a_t = u^H C_t X_t C_t^H u + c_t, of T = 3K + 1
terms, where C_t (M x N_T) is one of the cascades G_k or L, X_t
(N_T x N_T) is Hermitian (sum_r W_r + Z, Z, sum_r W_r + Z - W_k or W_k + Z)
and c_t a noise power. Term t contributes w_t times

    (2/ln2) * C_t X_t C_t^H u / (u^H C_t X_t C_t^H u + c_t)

to the gradient. Both are evaluated in this factored form, through the
effective channels h_t = C_t^H u, and never through the M x M matrices
C_t X_t C_t^H.

The solver works in the phase angles, u = exp(-1j * phi). With
R_t u = C_t X_t h_t, the quadratic form q_t = a_t - c_t has gradient
dq_t/dphi = -2 Im(conj(u) * R_t u) and Hessian
2 Re(B_t X_t B_t^H) - 2 diag(Re(conj(u) * R_t u)), B_t = diag(conj u) C_t.
With s_t = w_t / (ln2 a_t), f has gradient sum_t s_t dq_t/dphi, whose norm
equals that of the Riemannian gradient, and the exact Hessian

    H = sum_t s_t Hess(q_t) - sum_t (s_t / a_t) dq_t/dphi dq_t/dphi^T.

Its main term sum_t s_t 2 Re(B_t X_t B_t^H) is one product: the link
factors with u folded in, diag(conj u) [C_1, ..., C_T] (M x T N_T), times
the stacked s_t X_t B_t^H (T N_T x M).

`run_cg` takes damped Newton steps with it (Absil, Mahony & Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008, ch. 6) on a modified
Hessian (`_newton_step`): a rank-one term lifts the exact null direction of
the common phase rotation, along which f is constant, and a multiple of the
identity, added only when a Cholesky factorization fails, makes the matrix
positive definite, so the step descends at saddles. An Armijo backtracking
search on phi accepts it.
"""
from __future__ import annotations

import time

import numpy as np

from .channels import ChannelSet
from .metrics import LN2
from .solution import HistoryRecord, RunHistory, hermitize, total_power

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 50
SHIFT_FLOOR = 1e-3  # smallest identity shift of the Newton matrix, relative to max |H_mm|


class RetractionError(RuntimeError):
    """An element of u + delta * mu landed exactly on zero."""


def manifold_residual(u: np.ndarray) -> float:
    return float(np.max(np.abs(np.abs(u) - 1.0)))


def tangency_residual(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.max(np.abs((v * np.conj(u)).real)))


def from_phases(phases: np.ndarray) -> np.ndarray:
    """Phase vector u with u_m = exp(-1j * phi_m)."""
    return np.exp(-1j * np.asarray(phases, dtype=float))


def aligned_start(ch: ChannelSet, k: int) -> np.ndarray:
    """Unit-modulus phases aligned to user k's cascaded link.

    Takes the principal left singular vector of the M x N_T cascade G_k
    (the principal eigenvector of G_k G_k^H, which maximizes
    ||G_k^H u||^2 without the modulus constraint) and renormalizes it
    element-wise onto the manifold; a zero cascade gives the flat start.
    Good warm start for committing the surface to a single user.
    """
    vecs, s, _ = np.linalg.svd(ch.G[k], full_matrices=False)
    out = np.ones(ch.num_irs_elements, dtype=complex)
    if not s[0] > 0.0:
        return out
    v = vecs[:, 0]
    mags = np.abs(v)
    nz = mags > 0
    out[nz] = v[nz] / mags[nz]
    return out


def default_phase_init(ch: ChannelSet) -> np.ndarray:
    """Default cold start: align the surface to the strongest cascaded link.

    Converges in noticeably fewer alternation rounds than a flat start and
    reaches comparable objective values; scale-invariant, so it gives the
    same phases on raw and noise-normalized channels.
    """
    strongest = int(np.argmax(np.linalg.norm(ch.G, axis=(1, 2))))
    return aligned_start(ch, strongest)


class PhaseObjective:
    """f(u) = F1 + F2 - G1 - G2 for fixed covariances, with batched evaluation.

    Term t of the signed sum is log2(h_t^H X_t h_t + c_t) with the effective
    channel h_t = C_t^H u, so u enters only through one M x (T N_T) link
    matrix and each evaluation is O(T M N_T + T N_T^2).
    """

    def __init__(self, W: np.ndarray, Z: np.ndarray, ch: ChannelSet):
        W = hermitize(np.asarray(W, dtype=complex))
        Z = hermitize(np.asarray(Z, dtype=complex))
        k = ch.num_users
        total = W.sum(axis=0) + Z
        # term order F1 (K), F2 (1), G1 (K), G2 (K): links C_t and kernels X_t
        links = np.concatenate(
            [ch.G, ch.L[None], ch.G, np.broadcast_to(ch.L, ch.G.shape)]
        )  # (T, M, N)
        self.kernels = np.concatenate(
            [np.broadcast_to(total, W.shape), Z[None], total - W, W + Z]
        )  # (T, N, N)
        t, m, n = links.shape
        self.links = links
        self.link = links.transpose(1, 0, 2).reshape(m, t * n)
        self.link_h = np.ascontiguousarray(np.conj(self.link).T)
        self.segments = np.repeat(np.eye(t), n, axis=0)  # (T N, T) 0/1
        counts = [k, 1, k, k]
        self.weights = np.repeat([-1.0, -float(k), 1.0, 1.0], counts)
        self.consts = np.repeat(
            [ch.noise_user, ch.noise_eve, ch.noise_user, ch.noise_eve], counts
        )

    def _log_args(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-term log arguments and the stacked X_t h_t they came from, at
        one phase vector u (M,) or, with a leading axis, at each row of u."""
        h = (self.link_h @ u.T).T
        y = np.matmul(self.kernels, h.reshape(h.shape[:-1] + self.kernels.shape[:2] + (1,)))
        y = y.reshape(h.shape)
        vals = (np.conj(h) * y).real @ self.segments + self.consts
        if not (vals > 0).all():  # a NaN argument fails too
            raise ValueError("non-positive log argument in phase objective")
        return vals, y

    def value(self, u: np.ndarray, *, return_args: bool = False):
        """f(u); with ``return_args``, also the ``(vals, y)`` pair of its
        log-argument pass, which :meth:`derivatives` accepts at the same u."""
        args = self._log_args(u)
        f = float(self.weights @ np.log2(args[0]))
        return (f, args) if return_args else f

    def value_batch(self, U: np.ndarray) -> np.ndarray:
        """f at each row of the (B, M) batch ``U``."""
        return np.log2(self._log_args(U)[0]) @ self.weights

    def euclidean_grad(self, u: np.ndarray) -> np.ndarray:
        vals, y = self._log_args(u)
        coef = self.segments @ (self.weights / vals)
        return (2.0 / LN2) * (self.link @ (coef * y))

    def derivatives(
        self, u: np.ndarray, log_args: tuple[np.ndarray, np.ndarray] | None = None
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """f, its gradient and its exact Hessian in the phase angles phi.

        ``log_args`` is the ``(vals, y)`` pair of a log-argument pass at this
        u, as ``value(u, return_args=True)`` returns it; without it, one pass
        is made. The Hessian's main term is one batched (T, N_T, N_T) x
        (T, N_T, M) kernel product and one M x (T N_T) x M product (see the
        module docstring); its diagonal term is subtracted in place.
        """
        vals, y = self._log_args(u) if log_args is None else log_args
        t, m, n = self.links.shape
        scale = self.weights / (LN2 * vals)
        z = np.conj(u) * np.matmul(self.links, y.reshape(t, n, 1))[..., 0]  # conj(u) * R_t u
        dq = -2.0 * z.imag  # (T, M): dq_t/dphi
        b_h = (self.link_h * u).reshape(t, n, m)  # B_t^H
        right = np.matmul(scale[:, None, None] * self.kernels, b_h).reshape(t * n, m)
        hess = 2.0 * ((np.conj(u)[:, None] * self.link) @ right).real
        hess.reshape(-1)[:: m + 1] -= 2.0 * (scale @ z.real)
        hess -= (dq.T * (scale / vals)) @ dq
        return float(self.weights @ np.log2(vals)), scale @ dq, hess


def tangent_project(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the tangent space at u; idempotent."""
    return v - (v * np.conj(u)).real * u


def vector_transport(u_from: np.ndarray, u_to: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Carry a tangent vector at u_from into the tangent space at u_to."""
    del u_from  # the oblique transport only needs the destination
    return tangent_project(u_to, mu)


def retract(u: np.ndarray, delta: float, mu: np.ndarray) -> np.ndarray:
    """Element-wise renormalization of u + delta * mu back onto the manifold."""
    if delta == 0.0:
        return np.array(u, dtype=complex, copy=True)
    moved = u + delta * mu
    mags = np.abs(moved)
    if (mags == 0.0).any():
        raise RetractionError("retraction hit a zero element; halve the step")
    return moved / mags


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Modified Newton step -A^{-1} grad, A = H + (s/M) 1 1^T + tau I, s = max |H_mm|.

    f is constant along the common rotation 1, so H 1 = 0 and grad is
    orthogonal to 1; the rank-one term makes 1 an eigenvector of A with
    eigenvalue s + tau and leaves the step orthogonal to it. tau is 0 when A
    has a positive diagonal and, else, the shift that lifts its smallest
    diagonal entry to beta = 1e-3 s; it doubles (from at least beta) until
    the Cholesky factorization succeeds (Nocedal & Wright, Numerical
    Optimization, 2006, Alg. 3.3). So with tau = 0 the step is the exact
    Newton step on the complement of 1, and A is positive definite in every
    case, which makes the step a descent direction. One lifted matrix is
    built; each retry rewrites only its diagonal, to the lifted diagonal
    plus tau. numpy has no triangular solve, so the step itself comes from
    one LU solve with the accepted A.
    """
    m = hess.shape[0]
    sigma = float(np.abs(hess.diagonal()).max())
    mat = hess + sigma / m
    diag = mat.reshape(-1)[:: m + 1]  # a writable view of mat's diagonal
    lifted = diag.copy()  # the diagonal of H + (s/M) 1 1^T
    beta = SHIFT_FLOOR * sigma if sigma > 0.0 else 1.0
    lowest = float(lifted.min())
    tau = 0.0 if lowest > 0.0 else beta - lowest
    while True:
        diag[:] = lifted + tau
        try:
            np.linalg.cholesky(mat)
            break
        except np.linalg.LinAlgError:
            if not tau < np.inf:  # a non-finite Hessian
                raise
            tau = max(2.0 * tau, beta)
    return -np.linalg.solve(mat, grad)


def run_cg(
    u_start: np.ndarray,
    W: np.ndarray,
    Z: np.ndarray,
    ch: ChannelSet,
    *,
    tol: float = 1e-3,
    max_iters: int = 500,
) -> tuple[np.ndarray, RunHistory]:
    """Minimize f over the oblique manifold by damped Newton steps for fixed (W, Z).

    Each iteration factors the modified phase-angle Hessian by Cholesky
    (:func:`_newton_step`; again only when it needs a larger shift), solves
    for the step and backtracks along it until the Armijo condition holds;
    the accepted trial's log-argument pass serves the next derivatives.
    Stops when the Riemannian gradient norm is at most ``tol``. Returns the
    final point and the per-iteration objective trace. The trace never
    increases; on line-search stagnation the best iterate so far is
    returned with ``history.status`` flagging the condition.
    """
    u = np.asarray(u_start, dtype=complex).ravel().copy()
    resid = manifold_residual(u)
    if not resid <= 1e-9:  # a NaN residual fails too
        raise ValueError(f"u_start is off the manifold (residual {resid:.2e})")
    if resid > 1e-12:
        u = u / np.abs(u)

    obj = PhaseObjective(W, Z, ch)
    power = total_power(W, Z)
    f, grad, hess = obj.derivatives(u)
    history = RunHistory()
    history.append(HistoryRecord(iteration=0, phase="manifold", f=f, power_used=power))
    if np.sqrt(grad.dot(grad)) <= tol:
        return u, history

    status = "max_iters"
    for j in range(1, max_iters + 1):
        t0 = time.perf_counter()
        step = _newton_step(hess, grad)
        slope = float(grad @ step)
        delta = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            u_trial = u * np.exp(-1j * delta * step)
            f_trial, trial_args = obj.value(u_trial, return_args=True)
            if f_trial <= f + ARMIJO_C * delta * slope:
                accepted = True
                break
            delta *= 0.5
        if not accepted:
            status = "line_search_stagnation"
            break

        u, f = u_trial, f_trial
        _, grad, hess = obj.derivatives(u, trial_args)
        history.append(
            HistoryRecord(
                iteration=j,
                phase="manifold",
                f=f,
                power_used=power,
                wall_time_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
        if np.sqrt(grad.dot(grad)) <= tol:
            status = "converged"
            break

    history.status = status
    return u, history
