"""Containers shared by the solvers: candidate solutions and run histories."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PSD_EIG_TOL = 1e-9        # relative to trace, constraint C3/C4 slack
POWER_REL_TOL = 1e-9      # constraint C1 slack
UNIT_MODULUS_TOL = 1e-12  # constraint C2 slack


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize (A + A^H)/2 along the last two axes to kill round-off skew."""
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def total_power(W: np.ndarray, Z: np.ndarray) -> float:
    """Total radiated power sum_k tr(W_k) + tr(Z)."""
    return float(np.einsum("kii->", W).real + np.trace(Z).real)


@dataclass
class TransmitSolution:
    """Beamforming covariances W_k, AN covariance Z and IRS phase vector u.

    W : (K, N_T, N_T) Hermitian PSD, one per user
    Z : (N_T, N_T) Hermitian PSD
    u : (M,) unit-modulus entries, u_m = exp(-1j * phi_m)
    w : optional (K, N_T) rank-one beamformers extracted from W
    """

    W: np.ndarray
    Z: np.ndarray
    u: np.ndarray
    w: np.ndarray | None = None

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=complex)
        self.Z = np.asarray(self.Z, dtype=complex)
        self.u = np.asarray(self.u, dtype=complex).ravel()
        if self.W.ndim != 3 or self.W.shape[1] != self.W.shape[2]:
            raise ValueError(f"W must be (K, N, N), got {self.W.shape}")
        if self.Z.shape != self.W.shape[1:]:
            raise ValueError(f"Z must be (N, N) matching W, got {self.Z.shape}")
        if self.w is not None:
            self.w = np.asarray(self.w, dtype=complex)
            if self.w.shape != self.W.shape[:2]:
                raise ValueError(f"w must be (K, N), got {self.w.shape}")

    @property
    def num_users(self) -> int:
        return self.W.shape[0]

    def validate(self, p_max: float, eigenvalues: np.ndarray | None = None) -> np.ndarray:
        """Raise ValueError if any constraint is violated beyond tolerance.

        Returns the (K + 1, N_T) eigenvalues of W_1..W_K, Z, ascending per
        matrix, which the PSD check computes anyway. A caller that already
        has them (say, from the projection that produced W and Z) passes
        them as ``eigenvalues``; the same floors, budget and unit-modulus
        tests are then made on them without a new decomposition. Every test
        is written so that a NaN fails it.
        """
        stack = np.concatenate([self.W, self.Z[None]], axis=0)
        # checked first: eigvalsh can return finite values for a NaN entry
        if not np.isfinite(stack).all():
            raise ValueError("W or Z has a non-finite entry")
        if eigenvalues is None:
            # one stacked eigvalsh for all K + 1 matrices, each with its own floor
            eigenvalues = np.linalg.eigvalsh(hermitize(stack))
        traces = np.einsum("kii->k", stack).real
        bad = np.flatnonzero(
            ~(eigenvalues[:, 0] >= -PSD_EIG_TOL * np.maximum(traces, 1.0))
        )
        if bad.size:
            name = "W" if bad[0] < self.W.shape[0] else "Z"
            raise ValueError(f"{name} is not PSD within tolerance")
        power = float(traces.sum())
        if not power <= p_max * (1.0 + POWER_REL_TOL) + POWER_REL_TOL:
            raise ValueError(f"power {power} exceeds budget {p_max}")
        if not np.max(np.abs(np.abs(self.u) - 1.0)) <= UNIT_MODULUS_TOL:
            raise ValueError("u has entries off the unit circle")
        if self.w is not None:
            for k in range(self.num_users):
                resid = np.linalg.norm(self.W[k] - np.outer(self.w[k], np.conj(self.w[k])))
                tr = max(np.trace(self.W[k]).real, 0.0)
                if tr > 0 and not resid <= 1e-6 * max(tr, 1e-30):
                    raise ValueError(f"w[{k}] inconsistent with W[{k}]")
        return eigenvalues


@dataclass
class HistoryRecord:
    iteration: int
    phase: str                      # "init" | "extrapolate" | "sca" | "manifold"
    f: float
    power_used: float
    sum_secrecy: float | None = None
    rank_residual: float | None = None
    wall_time_ms: float | None = None


@dataclass
class RunHistory:
    """Ordered objective trace used for monotonicity auditing."""

    records: list[HistoryRecord] = field(default_factory=list)
    status: str = "converged"
    step_size: float | None = None  # inner solver step at the end of an SCA run

    def append(self, record: HistoryRecord) -> None:
        self.records.append(record)

    def f_trace(self) -> np.ndarray:
        return np.array([r.f for r in self.records], dtype=float)

    def is_monotone(self, slack: float = 1e-6) -> bool:
        f = self.f_trace()
        return bool(np.all(np.diff(f) <= slack))
