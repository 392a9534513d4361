"""Rate, secrecy and objective evaluation.

The minimized objective is f = F1 + F2 - G1 - G2 where each block is a sum
of signed log2 terms of the received-power quadratic forms:

  F1 = -sum_k log2( sum_r tr(W_r A_k) + tr(Z A_k) + s2_u )
  F2 = -K log2( tr(Z B) + s2_e )
  G1 = -sum_k log2( sum_{r!=k} tr(W_r A_k) + tr(Z A_k) + s2_u )
  G2 = -sum_k log2( tr(W_k B) + tr(Z B) + s2_e )

with A_k = G_k^H u u^H G_k and B = L^H u u^H L. By construction
f = -(sum of per-user rates minus eavesdropper capacities) before clipping;
the [.]^+ clip is applied only to reported secrecy rates, never inside f.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSet
from .solution import TransmitSolution

LN2 = np.log(2.0)


def effective_user_channels(ch: ChannelSet, u: np.ndarray) -> np.ndarray:
    """h_k = G_k^H u for all users, shape (K, N_T)."""
    return np.einsum("kmn,m->kn", np.conj(ch.G), u)


def effective_eve_channel(ch: ChannelSet, u: np.ndarray) -> np.ndarray:
    """b = L^H u, shape (N_T,)."""
    return np.conj(ch.L).T @ u


def _log_arguments(W, Z, u, ch):
    """Per-user numerators/denominators of the SINR and eavesdropper terms.

    Returns (n, d, e, m, signal): n_k and d_k are the F1/G1 log arguments,
    e_k and m the G2/F2 ones, and signal_k = tr(W_k A_k), computed so that
    n_k = d_k + signal_k and e_k = m + leak_k hold exactly in floating point.
    """
    h = effective_user_channels(ch, u)
    b = effective_eve_channel(ch, u)
    # S[k, r] = tr(W_r A_k) = h_k^H W_r h_k
    S = np.einsum("kn,rnp,kp->kr", np.conj(h), W, h).real
    zq = np.einsum("kn,np,kp->k", np.conj(h), Z, h).real
    leak = np.einsum("n,knp,p->k", np.conj(b), W, b).real
    ez = (np.conj(b) @ Z @ b).real

    signal = np.diagonal(S).copy()
    d = S.sum(axis=1) - signal + zq + ch.noise_user
    n = d + signal
    m = ez + ch.noise_eve
    e = m + leak
    return n, d, e, m, signal


def objective_value(W, Z, u, ch: ChannelSet) -> float:
    """f = F1 + F2 - G1 - G2 for raw arrays; finite for positive noise."""
    return _breakdown(*_log_arguments(W, Z, u, ch)).f


@dataclass
class ObjectiveBreakdown:
    F1: float
    F2: float
    G1: float
    G2: float
    gamma: list[float]
    rate: list[float]
    eve_capacity: list[float]
    secrecy: list[float]
    sum_secrecy: float
    f: float


def secrecy_rates(sol: TransmitSolution, ch: ChannelSet) -> ObjectiveBreakdown:
    """Evaluate every rate metric and the decomposed objective at a solution."""
    _check_dims(sol, ch)
    # Re(h^H W h) sees only the Hermitian part of W, so no symmetrization
    return _breakdown(*_log_arguments(sol.W, sol.Z, sol.u, ch))


def _breakdown(n, d, e, m, signal) -> ObjectiveBreakdown:
    """:func:`secrecy_rates` from the log arguments of :func:`_log_arguments`."""
    log_n, log_d, log_e = np.log2(n), np.log2(d), np.log2(e)
    log_m = np.log2(m)
    k = n.shape[0]

    rate = log_n - log_d
    eve = log_e - log_m
    secrecy = np.maximum(rate - eve, 0.0)
    F1 = -float(log_n.sum())
    F2 = -k * float(log_m)
    G1 = -float(log_d.sum())
    G2 = -float(log_e.sum())
    return ObjectiveBreakdown(
        F1=F1,
        F2=F2,
        G1=G1,
        G2=G2,
        gamma=(signal / d).tolist(),
        rate=rate.tolist(),
        eve_capacity=eve.tolist(),
        secrecy=secrecy.tolist(),
        sum_secrecy=float(secrecy.sum()),
        f=F1 + F2 - G1 - G2,
    )


def _check_dims(sol: TransmitSolution, ch: ChannelSet) -> None:
    if sol.W.shape[0] != ch.num_users:
        raise ValueError(
            f"solution has {sol.W.shape[0]} users, channels have {ch.num_users}"
        )
    if sol.W.shape[1] != ch.num_bs_antennas:
        raise ValueError(
            f"solution has {sol.W.shape[1]} antennas, channels have {ch.num_bs_antennas}"
        )
    if sol.u.shape[0] != ch.num_irs_elements:
        raise ValueError(
            f"u has length {sol.u.shape[0]}, channels have M={ch.num_irs_elements}"
        )
