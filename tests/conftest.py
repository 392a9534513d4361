import numpy as np
import pytest

from irs_secrecy.channels import ChannelSet
from irs_secrecy.convex_inner import _project_exact
from irs_secrecy.solution import TransmitSolution, hermitize


def random_channelset(rng, num_users=3, num_irs=4, num_bs=3, noise_user=1.0, noise_eve=1.0):
    """Unit-scale random channels for solver and metrics tests."""
    h = rng.standard_normal((num_irs, num_bs)) + 1j * rng.standard_normal((num_irs, num_bs))
    g = rng.standard_normal((num_users, num_irs)) + 1j * rng.standard_normal((num_users, num_irs))
    l = rng.standard_normal(num_irs) + 1j * rng.standard_normal(num_irs)
    return ChannelSet(H=h, g=g, l=l, noise_user=noise_user, noise_eve=noise_eve)


def random_psd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a @ a.conj().T) / n


def random_unit_modulus(rng, m):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))


def random_solution(rng, ch, power=None):
    """Random feasible solution; total power defaults to a uniform draw."""
    k, n = ch.num_users, ch.num_bs_antennas
    W = np.stack([random_psd(rng, n) for _ in range(k)])
    Z = random_psd(rng, n)
    total = float(np.einsum("kii->", W).real + np.trace(Z).real)
    budget = power if power is not None else rng.uniform(0.5, 5.0)
    scale = budget / total
    return TransmitSolution(
        W=hermitize(W * scale),
        Z=hermitize(Z * scale),
        u=random_unit_modulus(rng, ch.num_irs_elements),
    )


def project_blocks(W, Z, p_max):
    """``_project_exact`` on the stack W_1..W_K, Z, split back into (W, Z, eigenvalues)."""
    out, vals = _project_exact(np.concatenate([W, Z[None]]), p_max)
    return out[:-1], out[-1], vals


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
