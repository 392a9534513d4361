import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irs_secrecy.channels import ChannelSet
from irs_secrecy.metrics import _log_arguments, objective_value, secrecy_rates
from irs_secrecy.solution import TransmitSolution, hermitize, total_power
from tests.conftest import random_channelset, random_solution, random_unit_modulus


def phase_shift_matrix(u):
    # reflection matrix applied between the IRS-side vectors and H
    return np.diag(np.conj(u))


def sinr_vector_form(k, w, Z, u, ch):
    """Loop evaluation of the SINR from beamforming vectors."""
    phi = phase_shift_matrix(u)
    cascade = np.conj(ch.g[k]) @ phi @ ch.H  # row vector g_k^H Phi H
    signal = abs(cascade @ w[k]) ** 2
    interference = sum(
        abs(cascade @ w[r]) ** 2 for r in range(ch.num_users) if r != k
    )
    an = (cascade @ Z @ np.conj(cascade)).real
    return signal / (interference + an + ch.noise_user)


def eve_vector_form(k, w, Z, u, ch):
    phi = phase_shift_matrix(u)
    cascade = np.conj(ch.l) @ phi @ ch.H
    signal = abs(cascade @ w[k]) ** 2
    an = (cascade @ Z @ np.conj(cascade)).real
    return np.log2(1.0 + signal / (an + ch.noise_eve))


def log_arguments_reference(W, Z, u, ch):
    """(n, d, e, m, signal) as einsum quadratic forms h^H X h on the effective
    channels, independent of the term rows that metrics evaluates through."""
    h = np.einsum("kmn,m->kn", np.conj(ch.G), u)
    b = np.conj(ch.L).T @ u
    # S[k, r] = tr(W_r A_k) = h_k^H W_r h_k
    S = np.einsum("kn,rnp,kp->kr", np.conj(h), W, h).real
    zq = np.einsum("kn,np,kp->k", np.conj(h), Z, h).real
    leak = np.einsum("n,knp,p->k", np.conj(b), W, b).real
    ez = (np.conj(b) @ Z @ b).real
    signal = np.diagonal(S).copy()
    d = S.sum(axis=1) - signal + zq + ch.noise_user
    m = ez + ch.noise_eve
    return d + signal, d, m + leak, m, signal


def rank_one_solution(rng, ch, power=4.0):
    k, n = ch.num_users, ch.num_bs_antennas
    w = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    z_fac = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Z = z_fac @ z_fac.conj().T / n
    W = np.einsum("kn,kp->knp", w, np.conj(w))
    total = np.einsum("kii->", W).real + np.trace(Z).real
    scale = power / total
    return TransmitSolution(
        W=W * scale, Z=Z * scale, u=random_unit_modulus(rng, ch.num_irs_elements),
        w=w * np.sqrt(scale),
    )


class TestSinr:
    def test_scalar_channel(self):
        ch = ChannelSet(H=np.ones((1, 1)), g=np.ones((1, 1)), l=np.zeros(1),
                        noise_user=0.25, noise_eve=1.0)
        p = 3.0
        sol = TransmitSolution(
            W=np.array([[[p]]], dtype=complex),
            Z=np.zeros((1, 1), dtype=complex),
            u=np.ones(1, dtype=complex),
        )
        assert secrecy_rates(sol, ch).gamma[0] == pytest.approx(p / 0.25)

    def test_zero_beamformer_gives_zero(self, rng):
        ch = random_channelset(rng, num_users=2)
        sol = random_solution(rng, ch)
        sol.W[0] = 0.0
        assert secrecy_rates(sol, ch).gamma[0] == 0.0

    def test_matches_vector_form(self, rng):
        ch = random_channelset(rng, num_users=2, num_irs=3, num_bs=2)
        sol = rank_one_solution(rng, ch)
        gamma = secrecy_rates(sol, ch).gamma
        for k in range(2):
            assert gamma[k] == pytest.approx(
                sinr_vector_form(k, sol.w, sol.Z, sol.u, ch), rel=1e-10
            )

    def test_dimension_mismatch_rejected(self, rng):
        ch = random_channelset(rng, num_users=2)
        other = random_channelset(rng, num_users=3)
        sol = random_solution(rng, other)
        with pytest.raises(ValueError):
            secrecy_rates(sol, ch)


class TestEveCapacity:
    def test_zero_eavesdropper_channel(self, rng):
        ch = random_channelset(rng, num_users=2)
        ch = ChannelSet(H=ch.H, g=ch.g, l=np.zeros(ch.num_irs_elements),
                        noise_user=1.0, noise_eve=1.0)
        sol = random_solution(rng, ch)
        assert secrecy_rates(sol, ch).eve_capacity == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_zero_beamformer(self, rng):
        ch = random_channelset(rng)
        sol = random_solution(rng, ch)
        sol.W[1] = 0.0
        assert secrecy_rates(sol, ch).eve_capacity[1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_vector_form(self, rng):
        ch = random_channelset(rng, num_users=3, num_irs=4, num_bs=3)
        sol = rank_one_solution(rng, ch)
        capacity = secrecy_rates(sol, ch).eve_capacity
        for k in range(3):
            assert capacity[k] == pytest.approx(
                eve_vector_form(k, sol.w, sol.Z, sol.u, ch), rel=1e-10
            )


class TestLogArguments:
    """``_log_arguments`` runs on the term rows that the SCA and the inner
    solver share, so it is checked here against a separate einsum kernel."""

    # (K, M, N_T): K > N_T, N_T = 1 and M = 1 included
    @pytest.mark.parametrize(
        "k, m, n", [(1, 1, 1), (3, 1, 2), (4, 5, 2), (2, 6, 1), (1, 3, 4), (3, 4, 3), (5, 2, 3)]
    )
    def test_matches_einsum_reference(self, rng, k, m, n):
        ch = random_channelset(rng, num_users=k, num_irs=m, num_bs=n)
        for power in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            sol = random_solution(rng, ch, power=power)

            def skew(shape):
                a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                return power * (a - hermitize(a))

            W, Z = sol.W + skew(sol.W.shape), sol.Z + skew(sol.Z.shape)
            got = _log_arguments(W, Z, sol.u, ch)
            for name, a, b in zip("ndems", got, log_arguments_reference(W, Z, sol.u, ch)):
                assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b)), (name, power)
            n_, d, _, _, signal = got
            assert np.array_equal(n_, d + signal)


class TestSecrecyRates:
    def test_all_zero_solution(self, rng):
        ch = random_channelset(rng)
        n = ch.num_bs_antennas
        sol = TransmitSolution(
            W=np.zeros((ch.num_users, n, n)),
            Z=np.zeros((n, n)),
            u=np.ones(ch.num_irs_elements),
        )
        bd = secrecy_rates(sol, ch)
        assert bd.rate == pytest.approx([0.0] * ch.num_users)
        assert bd.eve_capacity == pytest.approx([0.0] * ch.num_users)
        assert bd.sum_secrecy == 0.0
        assert bd.f == pytest.approx(0.0, abs=1e-12)

    def test_clipping_definition(self, rng):
        # craft an instance with a negative pre-clip secrecy: strong l, weak g
        ch = random_channelset(rng, num_users=1)
        ch = ChannelSet(H=ch.H, g=0.01 * ch.g, l=10.0 * ch.l,
                        noise_user=1.0, noise_eve=1.0)
        sol = random_solution(rng, ch, power=2.0)
        bd = secrecy_rates(sol, ch)
        assert bd.rate[0] - bd.eve_capacity[0] < 0
        assert bd.secrecy[0] == 0.0
        assert bd.f > 0  # f keeps the negative term: -(negative) > 0

    def test_objective_identity_on_random_instances(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 4))
            ch = random_channelset(rng, num_users=k,
                                   num_irs=int(rng.integers(1, 5)),
                                   num_bs=int(rng.integers(1, 5)))
            sol = random_solution(rng, ch)
            bd = secrecy_rates(sol, ch)
            pre_clip = -sum(r - c for r, c in zip(bd.rate, bd.eve_capacity))
            assert bd.f == pytest.approx(bd.F1 + bd.F2 - bd.G1 - bd.G2, abs=1e-12)
            assert bd.f == pytest.approx(pre_clip, abs=1e-9)

    def test_json_serialization(self, rng):
        ch = random_channelset(rng)
        bd = secrecy_rates(random_solution(rng, ch), ch)
        # the sweep audit writes the breakdown as its asdict() JSON object
        data = json.loads(json.dumps(asdict(bd)))
        assert data["sum_secrecy"] == bd.sum_secrecy
        assert len(data["secrecy"]) == ch.num_users


class TestPowerUsed:
    def test_zero_solution(self):
        sol = TransmitSolution(W=np.zeros((1, 2, 2)), Z=np.zeros((2, 2)), u=np.ones(1))
        assert total_power(sol.W, sol.Z) == 0.0

    def test_trace_arithmetic(self):
        sol = TransmitSolution(
            W=np.stack([0.5 * np.eye(2)]), Z=np.eye(2), u=np.ones(3)
        )
        assert total_power(sol.W, sol.Z) == pytest.approx(3.0)

    def test_matches_vector_norms(self, rng):
        ch = random_channelset(rng)
        sol = rank_one_solution(rng, ch)
        expected = sum(np.linalg.norm(sol.w[k]) ** 2 for k in range(ch.num_users))
        expected += np.trace(sol.Z).real
        assert total_power(sol.W, sol.Z) == pytest.approx(expected, rel=1e-9)


class TestInvariances:
    @given(theta=st.floats(min_value=0.0, max_value=2 * np.pi),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_global_phase_invariance(self, theta, seed):
        rng = np.random.default_rng(seed)
        ch = random_channelset(rng, num_users=2, num_irs=3, num_bs=2)
        sol = random_solution(rng, ch)
        rotated = TransmitSolution(W=sol.W, Z=sol.Z, u=np.exp(1j * theta) * sol.u)
        a = secrecy_rates(sol, ch)
        b = secrecy_rates(rotated, ch)
        assert b.f == pytest.approx(a.f, abs=1e-10)
        np.testing.assert_allclose(b.gamma, a.gamma, rtol=1e-10)
        np.testing.assert_allclose(b.eve_capacity, a.eve_capacity, rtol=1e-10, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_secrecy_monotone_in_eve_noise(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_channelset(rng, num_users=2)
        sol = random_solution(rng, ch)
        louder = ChannelSet(H=ch.H, g=ch.g, l=ch.l, noise_user=ch.noise_user,
                            noise_eve=ch.noise_eve * rng.uniform(1.5, 20.0))
        before = secrecy_rates(sol, ch).secrecy
        after = secrecy_rates(sol, louder).secrecy
        assert all(b >= a - 1e-12 for a, b in zip(before, after))

    def test_terms_agree_with_breakdown(self, rng):
        ch = random_channelset(rng)
        sol = random_solution(rng, ch)
        f = objective_value(sol.W, sol.Z, sol.u, ch)
        bd = secrecy_rates(sol, ch)
        assert f == pytest.approx(bd.F1 + bd.F2 - bd.G1 - bd.G2)
