"""Random scenario generation and channel bookkeeping.

Geometry: the BS sits at the origin, the IRS on the positive x axis at
``bs_irs_distance``. Users fall uniformly (in area) inside an annulus sector
facing the IRS (inner radius 20 m, outer radius ``cell_radius``, 120 degree
aperture). Direct BS-user and BS-eavesdropper links are blocked, so the only
propagation paths run through the IRS; the BS-eavesdropper distance ``r_be``
is carried for labelling but does not enter any channel.

Small-scale fading is Rayleigh: each entry of H, g_k, l is an independent
circularly-symmetric complex Gaussian whose variance equals the log-distance
path-loss gain of its link.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import ScenarioConfig

SECTOR_INNER_RADIUS = 20.0   # m
SECTOR_APERTURE = 2.0 * np.pi / 3.0


class LinkClass(str, Enum):
    BS_IRS = "bs_irs"
    IRS_USER = "irs_user"
    IRS_EVE = "irs_eve"


def path_loss_gain(distance: float, link_class: LinkClass, config: ScenarioConfig) -> float:
    """Linear power gain of a link: 10^(-(PL0 + 10*alpha*log10(d))/10)."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    exponents = {
        LinkClass.BS_IRS: config.pl_exp_bs_irs,
        LinkClass.IRS_USER: config.pl_exp_irs_user,
        LinkClass.IRS_EVE: config.pl_exp_irs_eve,
    }
    alpha = exponents[LinkClass(link_class)]
    return 10.0 ** (-(config.pl0_db + 10.0 * alpha * np.log10(distance)) / 10.0)


@dataclass(frozen=True)
class ChannelSet:
    """One realization of all propagation matrices, immutable after creation.

    H : (M, N_T) BS to IRS
    g : (K, M)   IRS to user k, one row per user
    l : (M,)     IRS to eavesdropper
    G : (K, M, N_T) effective cascades diag(conj(g_k)) @ H, precomputed
    L : (M, N_T)    effective cascade diag(conj(l)) @ H, precomputed
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
        m, _ = H.shape
        if g.shape[1] != m:
            raise ValueError(f"g rows must have length M={m}, got {g.shape[1]}")
        if l.shape[0] != m:
            raise ValueError(f"l must have length M={m}, got {l.shape[0]}")
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

    h_gain = path_loss_gain(config.bs_irs_distance, LinkClass.BS_IRS, config)
    H = _complex_gaussian(rng, (m, nt), h_gain)

    g = np.empty((k, m), dtype=complex)
    for i in range(k):
        dist = float(np.linalg.norm(positions[i] - irs_pos))
        g[i] = _complex_gaussian(rng, (m,), path_loss_gain(dist, LinkClass.IRS_USER, config))

    l_gain = path_loss_gain(config.r_re, LinkClass.IRS_EVE, config)
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
