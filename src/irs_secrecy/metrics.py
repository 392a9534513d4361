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


def _flatten(W: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """x for (W, Z): the stack W_1..W_K, Z as one real vector of (re, im) pairs."""
    return np.concatenate([W, Z[None]]).astype(complex, copy=False).reshape(-1).view(float)


def _unflatten(flat: np.ndarray, n: int) -> np.ndarray:
    """(..., S, n, n) complex view of real vectors over x with n x n blocks."""
    return flat.view(complex).reshape(*flat.shape[:-1], -1, n, n)


def _term_rows(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real rows over x of the channel terms of every log argument.

    x is the (W_1, ..., W_K, Z) stack of r x r blocks as one real vector of
    (re, im) pairs (:func:`_flatten`), and tr(A X) = Re<A, X> is the dot
    product of real views for Hermitian A. With A_k = h_k h_k^H and
    B = b b^H, the (3K + 1, 2 (K + 1) r^2) rows give, times x:
    signal_k = tr(A_k W_k) (rows 0..K-1), the interference
    d_k - s2_u = sum_{r != k} tr(A_k W_r) + tr(A_k Z) (rows K..2K-1),
    leak_k = tr(B W_k) (rows 2K..3K-1) and m - s2_e = tr(B Z) (row 3K).
    """
    k, r = h.shape
    a = np.einsum("kn,kp->knp", h, np.conj(h)).reshape(k, -1).view(float)
    bb = np.outer(b, np.conj(b)).reshape(-1).view(float)
    users = np.arange(k)
    rows = np.zeros((3 * k + 1, k + 1, 2 * r * r))
    rows[users, users] = a
    rows[k : 2 * k] = a[:, None, :]
    rows[k + users, users] = 0.0
    rows[2 * k + users, users] = bb
    rows[3 * k, k] = bb
    return rows.reshape(3 * k + 1, -1)


def _term_log_arguments(rows: np.ndarray, x: np.ndarray, ch: ChannelSet):
    """(n, d, e, m, signal) at x, as :func:`_log_arguments` returns them."""
    k = (rows.shape[0] - 1) // 3
    v = rows.dot(x)
    signal = v[:k]
    d = v[k : 2 * k] + ch.noise_user
    m = v[3 * k] + ch.noise_eve
    return d + signal, d, m + v[2 * k : 3 * k], m, signal


def _expansion(W: np.ndarray, Z: np.ndarray, u: np.ndarray, ch: ChannelSet):
    """Term rows at phases u, x for (W, Z), and the log arguments there."""
    rows = _term_rows(effective_user_channels(ch, u), effective_eve_channel(ch, u))
    x = _flatten(W, Z)
    return rows, x, _term_log_arguments(rows, x, ch)


def _log_arguments(W, Z, u, ch):
    """Per-user numerators/denominators of the SINR and eavesdropper terms.

    Returns (n, d, e, m, signal): n_k and d_k are the F1/G1 log arguments,
    e_k and m the G2/F2 ones, and signal_k = tr(W_k A_k), from the term rows
    (:func:`_term_rows`). n_k = d_k + signal_k and e_k = m + leak_k are formed
    by addition, so they hold exactly in floating point.
    """
    return _expansion(W, Z, u, ch)[2]


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


def _terms(n, d, e, m):
    """(F1, F2, G1, G2, rate, eve_capacity) from the log arguments."""
    log_n, log_d, log_e = np.log2(n), np.log2(d), np.log2(e)
    log_m = np.log2(m)
    k = n.shape[0]
    F1 = -float(log_n.sum())
    F2 = -k * float(log_m)
    G1 = -float(log_d.sum())
    G2 = -float(log_e.sum())
    return F1, F2, G1, G2, log_n - log_d, log_e - log_m


def _f_and_sum_secrecy(n, d, e, m) -> tuple[float, float]:
    """f and sum_secrecy of :func:`_breakdown`, without its other fields."""
    F1, F2, G1, G2, rate, eve = _terms(n, d, e, m)
    return F1 + F2 - G1 - G2, float(np.maximum(rate - eve, 0.0).sum())


def _breakdown(n, d, e, m, signal) -> ObjectiveBreakdown:
    """:func:`secrecy_rates` from the log arguments of :func:`_log_arguments`."""
    F1, F2, G1, G2, rate, eve = _terms(n, d, e, m)
    secrecy = np.maximum(rate - eve, 0.0)
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
