"""Random scenario generation and channel bookkeeping.

Geometry: the BS sits at the origin, the IRS on the positive x axis at
``bs_irs_distance``. Users fall uniformly (in area) inside an annulus sector
facing the IRS (inner radius 20 m, outer radius ``cell_radius``, 120 degree
aperture). Direct BS-user and BS-eavesdropper links are blocked, so the only
propagation paths run through the IRS, and the eavesdropper is placed by its
IRS distance ``r_re`` alone.

Small-scale fading is Rayleigh: each entry of H, g_k, l is an independent
circularly-symmetric complex Gaussian whose variance equals the log-distance
path-loss gain of its link.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .config import SECTOR_INNER_RADIUS, ScenarioConfig

SECTOR_APERTURE = 2.0 * np.pi / 3.0


def path_loss_gain(distance: float, alpha: float, pl0_db: float) -> float:
    """Linear power gain 10^(-(PL0 + 10*alpha*log10(d))/10) of a link of
    length d m with exponent alpha and loss PL0 dB at 1 m. An overflow
    gives inf, and :class:`ChannelSet` rejects the channels drawn with it."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    return 10.0 ** (-(pl0_db + 10.0 * alpha * np.log10(distance)) / 10.0)


@dataclass(frozen=True)
class ChannelSet:
    """One realization of all propagation matrices, immutable after creation.

    H : (M, N_T) BS to IRS
    g : (K, M)   IRS to user k, one row per user
    l : (M,)     IRS to eavesdropper
    G : (K, M, N_T) effective cascades diag(conj(g_k)) @ H, precomputed
    L : (M, N_T)    effective cascade diag(conj(l)) @ H, precomputed

    NaN or inf in H, g or l, and an empty K, M or N_T, are rejected: a solver
    SVD can hang on the first, and the solvers fail deep inside on the second.
    """

    H: np.ndarray
    g: np.ndarray
    l: np.ndarray
    noise_user: float
    noise_eve: float
    G: np.ndarray = field(init=False)
    L: np.ndarray = field(init=False)

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        g = np.atleast_2d(np.asarray(self.g, dtype=complex))
        l = np.asarray(self.l, dtype=complex).ravel()
        if H.ndim != 2:
            raise ValueError("H must be a 2-D matrix")
        m, nt = H.shape
        for name, size in (("K", g.shape[0]), ("M", m), ("N_T", nt)):
            if size == 0:
                raise ValueError(f"{name} must be >= 1, got 0")
        if g.shape[1] != m:
            raise ValueError(f"g rows must have length M={m}, got {g.shape[1]}")
        if l.shape[0] != m:
            raise ValueError(f"l must have length M={m}, got {l.shape[0]}")
        for name, arr in (("H", H), ("g", g), ("l", l)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has a non-finite entry")
        # written so that NaN fails the test
        if not (0 < self.noise_user < np.inf and 0 < self.noise_eve < np.inf):
            raise ValueError("noise powers must be positive and finite")
        G = np.einsum("km,mn->kmn", np.conj(g), H)
        L = np.conj(l)[:, None] * H
        for arr in (H, g, l, G, L):
            arr.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "L", L)

    @property
    def num_users(self) -> int:
        return self.g.shape[0]

    @property
    def num_irs_elements(self) -> int:
        return self.H.shape[0]

    @property
    def num_bs_antennas(self) -> int:
        return self.H.shape[1]

    def content_hash(self) -> str:
        """SHA-256 over shapes, channel bytes and noise powers."""
        h = hashlib.sha256()
        h.update(repr((self.H.shape, self.g.shape, self.l.shape)).encode())
        for arr in (self.H, self.g, self.l):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr((self.noise_user, self.noise_eve)).encode())
        return h.hexdigest()


def _complex_gaussian(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def user_positions(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform-in-area draws inside the blocked annulus sector, shape (K, 2)."""
    k = config.num_users
    r2 = rng.uniform(SECTOR_INNER_RADIUS ** 2, config.cell_radius ** 2, size=k)
    radius = np.sqrt(r2)
    theta = rng.uniform(-SECTOR_APERTURE / 2.0, SECTOR_APERTURE / 2.0, size=k)
    return np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)


def generate_scenario(config: ScenarioConfig) -> ChannelSet:
    """Draw one channel realization; identical (config, seed) gives identical bits."""
    rng = np.random.default_rng(config.rng_seed)
    m, nt, k = config.num_irs_elements, config.num_bs_antennas, config.num_users

    positions = user_positions(config, rng)
    irs_pos = np.array([config.bs_irs_distance, 0.0])

    pl0 = config.pl0_db
    h_gain = path_loss_gain(config.bs_irs_distance, config.pl_exp_bs_irs, pl0)
    H = _complex_gaussian(rng, (m, nt), h_gain)

    g = np.empty((k, m), dtype=complex)
    for i in range(k):
        dist = float(np.linalg.norm(positions[i] - irs_pos))
        g[i] = _complex_gaussian(rng, (m,), path_loss_gain(dist, config.pl_exp_irs_user, pl0))

    l_gain = path_loss_gain(config.r_re, config.pl_exp_irs_eve, pl0)
    l = _complex_gaussian(rng, (m,), l_gain)

    return ChannelSet(H=H, g=g, l=l, noise_user=config.noise_user, noise_eve=config.noise_eve)


def normalize(channels: ChannelSet) -> ChannelSet:
    """Rescale channels so both noise powers become 1 W.

    Scaling g by 1/sqrt(noise_user) and l by 1/sqrt(noise_eve) divides every
    quadratic channel term by the matching noise power, so all SINRs, rates
    and secrecy rates are unchanged. H is left alone.
    """
    if channels.noise_user == 1.0 and channels.noise_eve == 1.0:
        return channels
    return ChannelSet(
        H=channels.H,
        g=channels.g * (1.0 / np.sqrt(channels.noise_user)),
        l=channels.l * (1.0 / np.sqrt(channels.noise_eve)),
        noise_user=1.0,
        noise_eve=1.0,
    )
