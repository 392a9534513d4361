import numpy as np
import pytest

from irs_secrecy.metrics import objective_value, secrecy_rates
from irs_secrecy.sca import (
    build_subproblem,
    default_start,
    extract_rank_one,
    grad_G1,
    grad_G2,
    linearize_g1,
    linearize_g2,
    run_sca,
)
from irs_secrecy import convex_inner
from irs_secrecy.channels import ChannelSet, generate_scenario, normalize
from irs_secrecy.config import ScenarioConfig, dbm_to_watts
from irs_secrecy.convex_inner import subproblem_gradient, subproblem_objective
from irs_secrecy.metrics import (
    _log_arguments,
    effective_eve_channel,
    effective_user_channels,
)
from irs_secrecy.solution import TransmitSolution, hermitize, total_power
from tests.conftest import (
    random_channelset,
    random_solution,
    random_unit_modulus,
)


def g1_value(W, Z, u, ch):
    _, d, _, _, _ = _log_arguments(W, Z, u, ch)
    return -float(np.log2(d).sum())


def g2_value(W, Z, u, ch):
    _, _, e, _, _ = _log_arguments(W, Z, u, ch)
    return -float(np.log2(e).sum())


def feasible_point(rng, ch, power):
    sol = random_solution(rng, ch, power=power)
    return sol.W, sol.Z


class TestGradients:
    def test_single_user_g1_gradient_zero(self, rng):
        ch = random_channelset(rng, num_users=1)
        sol = random_solution(rng, ch)
        g_w, g_z = grad_G1(sol.W, sol.Z, sol.u, ch)
        assert np.allclose(g_w, 0.0, atol=1e-15)
        assert not np.allclose(g_z, 0.0)

    def test_zero_eavesdropper_zeroes_g2(self, rng):
        from irs_secrecy.channels import ChannelSet

        base = random_channelset(rng, num_users=2)
        ch = ChannelSet(H=base.H, g=base.g, l=np.zeros(base.num_irs_elements),
                        noise_user=1.0, noise_eve=1.0)
        sol = random_solution(rng, ch)
        g_w, g_z = grad_G2(sol.W, sol.Z, sol.u, ch)
        assert np.allclose(g_w, 0.0)
        assert np.allclose(g_z, 0.0)

    def test_gradients_hermitian(self, rng):
        ch = random_channelset(rng)
        sol = random_solution(rng, ch)
        for g_w, g_z in (grad_G1(sol.W, sol.Z, sol.u, ch),
                         grad_G2(sol.W, sol.Z, sol.u, ch)):
            assert np.linalg.norm(g_w - np.conj(np.swapaxes(g_w, -1, -2))) <= 1e-12
            assert np.linalg.norm(g_z - np.conj(g_z).T) <= 1e-12

    def test_global_phase_leaves_gradients(self, rng):
        ch = random_channelset(rng)
        sol = random_solution(rng, ch)
        g_w, g_z = grad_G1(sol.W, sol.Z, sol.u, ch)
        g_w2, g_z2 = grad_G1(sol.W, sol.Z, np.exp(1j * 0.7) * sol.u, ch)
        assert np.allclose(g_w, g_w2, atol=1e-12)
        assert np.allclose(g_z, g_z2, atol=1e-12)

    @pytest.mark.parametrize("which", ["g1", "g2"])
    def test_finite_difference_agreement(self, rng, which):
        grad_fn = grad_G1 if which == "g1" else grad_G2
        val_fn = g1_value if which == "g1" else g2_value
        for _ in range(25):
            k = int(rng.integers(1, 4))
            ch = random_channelset(rng, num_users=k,
                                   num_irs=int(rng.integers(1, 5)),
                                   num_bs=int(rng.integers(1, 5)))
            sol = random_solution(rng, ch)
            W, Z, u = sol.W, sol.Z, sol.u
            g_w, g_z = grad_fn(W, Z, u, ch)
            h = 1e-6
            n = ch.num_bs_antennas
            for r in range(k):
                d = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                wp, wm = W.copy(), W.copy()
                wp[r] = W[r] + h * d
                wm[r] = W[r] - h * d
                fd = (val_fn(wp, Z, u, ch) - val_fn(wm, Z, u, ch)) / (2 * h)
                an = np.einsum("ij,ij->", np.conj(g_w[r]), d).real
                if abs(fd) > 1e-8:
                    assert an == pytest.approx(fd, rel=1e-5)
            d = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            fd = (val_fn(W, Z + h * d, u, ch) - val_fn(W, Z - h * d, u, ch)) / (2 * h)
            an = np.einsum("ij,ij->", np.conj(g_z), d).real
            assert an == pytest.approx(fd, rel=1e-5, abs=1e-10)


class TestLinearization:
    def test_tight_at_expansion_point(self, rng):
        ch = random_channelset(rng)
        W, Z = feasible_point(rng, ch, power=3.0)
        u = random_unit_modulus(rng, ch.num_irs_elements)
        lin1 = linearize_g1(W, Z, u, ch)
        lin2 = linearize_g2(W, Z, u, ch)
        assert lin1.value_at(W, Z) == pytest.approx(g1_value(W, Z, u, ch), abs=1e-12)
        assert lin2.value_at(W, Z) == pytest.approx(g2_value(W, Z, u, ch), abs=1e-12)

    def test_global_underestimation(self, rng):
        for _ in range(10):
            ch = random_channelset(rng, num_users=int(rng.integers(1, 4)))
            W, Z = feasible_point(rng, ch, power=float(rng.uniform(0.5, 4.0)))
            u = random_unit_modulus(rng, ch.num_irs_elements)
            lin1 = linearize_g1(W, Z, u, ch)
            lin2 = linearize_g2(W, Z, u, ch)
            for _ in range(100):
                Ws, Zs = feasible_point(rng, ch, power=float(rng.uniform(0.1, 6.0)))
                assert lin1.value_at(Ws, Zs) <= g1_value(Ws, Zs, u, ch) + 1e-9
                assert lin2.value_at(Ws, Zs) <= g2_value(Ws, Zs, u, ch) + 1e-9


class TestBuildSubproblem:
    def test_tightness_identity(self, rng):
        ch = random_channelset(rng)
        u = random_unit_modulus(rng, ch.num_irs_elements)
        W, Z = feasible_point(rng, ch, power=2.0)
        spec = build_subproblem(W, Z, u, ch, p_max=4.0)
        assert subproblem_objective(spec, W, Z) == pytest.approx(
            objective_value(W, Z, u, ch), abs=1e-9
        )

    def test_upper_bounds_true_objective(self, rng):
        ch = random_channelset(rng, num_users=2)
        u = random_unit_modulus(rng, ch.num_irs_elements)
        W, Z = feasible_point(rng, ch, power=2.0)
        spec = build_subproblem(W, Z, u, ch, p_max=6.0)
        for _ in range(100):
            Ws, Zs = feasible_point(rng, ch, power=float(rng.uniform(0.1, 6.0)))
            assert subproblem_objective(spec, Ws, Zs) >= objective_value(
                Ws, Zs, u, ch
            ) - 1e-9

    def test_single_pass_matches_linearizations(self, rng):
        for k, n in ((1, 3), (2, 1), (3, 4), (2, 2)):
            for _ in range(10):
                ch = random_channelset(rng, num_users=k, num_bs=n)
                u = random_unit_modulus(rng, ch.num_irs_elements)
                W, Z = feasible_point(rng, ch, power=float(rng.uniform(0.1, 6.0)))
                spec = build_subproblem(W, Z, u, ch, p_max=6.0)
                lin1 = linearize_g1(W, Z, u, ch)
                lin2 = linearize_g2(W, Z, u, ch)
                lin_w = lin1.grad_w + lin2.grad_w
                lin_z = lin1.grad_z + lin2.grad_z
                # <lin, X> is the dot product of the real (re, im) views,
                # the inner product the spec is defined in
                x = np.concatenate([W, Z[None]]).reshape(-1).view(float)
                lin = np.concatenate([lin_w, lin_z[None]]).reshape(-1).view(float)
                affine_const = lin1.value + lin2.value - float(lin.dot(x))
                # one linearization pass serves both, so they agree bit for bit
                assert np.array_equal(spec.lin_w, lin_w)
                assert np.array_equal(spec.lin_z, lin_z)
                assert spec.affine_const == affine_const

    def test_nan_expansion_point_rejected(self, rng):
        # a NaN log argument failed no "<= 0" guard
        ch = random_channelset(rng, num_users=2)
        u = random_unit_modulus(rng, ch.num_irs_elements)
        W, Z = feasible_point(rng, ch, power=2.0)
        W[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-positive log argument"):
            build_subproblem(W, Z, u, ch, p_max=4.0)

    def test_dimensions(self, rng):
        ch = random_channelset(rng, num_users=3, num_bs=4)
        u = random_unit_modulus(rng, ch.num_irs_elements)
        W, Z = feasible_point(rng, ch, power=1.0)
        spec = build_subproblem(W, Z, u, ch, p_max=2.0)
        assert spec.a_mats.shape == (3, 4, 4)
        assert spec.lin_w.shape == (3, 4, 4)
        assert spec.b_mat.shape == (4, 4)


class TestHermitianPartOnly:
    """The linearization and the metrics read W and Z only through Re(h^H X h)
    and Re<L, X> with Hermitian L, so a skew-Hermitian part changes nothing
    beyond round-off: none of them needs its inputs symmetrized."""

    def test_skew_part_ignored(self, rng):
        for k, n in ((1, 3), (2, 2), (3, 4)):
            ch = random_channelset(rng, num_users=k, num_bs=n)
            u = random_unit_modulus(rng, ch.num_irs_elements)
            W, Z = feasible_point(rng, ch, power=2.0)

            def skew(shape):
                a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                return a - hermitize(a)

            Ws, Zs = W + skew(W.shape), Z + skew(Z.shape)
            assert np.linalg.norm(Zs - Z) > 0.1

            def close(a, b):
                return np.linalg.norm(np.subtract(a, b)) <= 1e-12 * np.linalg.norm(b)

            for bd_s, bd in zip(
                vars(secrecy_rates(TransmitSolution(W=Ws, Z=Zs, u=u), ch)).values(),
                vars(secrecy_rates(TransmitSolution(W=W, Z=Z, u=u), ch)).values(),
            ):
                assert close(bd_s, bd)
            assert close(objective_value(Ws, Zs, u, ch), objective_value(W, Z, u, ch))
            spec_s = build_subproblem(Ws, Zs, u, ch, p_max=4.0)
            spec = build_subproblem(W, Z, u, ch, p_max=4.0)
            assert close(spec_s.affine_const, spec.affine_const)
            assert close(spec_s.lin_w, spec.lin_w)
            assert close(spec_s.lin_z, spec.lin_z)


class TestRunSca:
    def test_over_budget_start_rejected(self, rng):
        ch = random_channelset(rng)
        u = random_unit_modulus(rng, ch.num_irs_elements)
        start = random_solution(rng, ch, power=5.0)
        with pytest.raises(ValueError, match="infeasible start"):
            run_sca(u, ch, p_max=1.0, start=start)

    @pytest.mark.parametrize("p_max", [float("nan"), float("inf"), -1.0])
    def test_invalid_budget_rejected(self, rng, p_max):
        # an infinite budget failed only as "infeasible start: Eigenvalues
        # did not converge", after RuntimeWarnings
        ch = random_channelset(rng)
        u = random_unit_modulus(rng, ch.num_irs_elements)
        with pytest.raises(ValueError, match="p_max must be non-negative and finite"):
            run_sca(u, ch, p_max)

    def test_stationary_start_stops_quickly(self, rng):
        ch = random_channelset(rng, num_users=2)
        u = random_unit_modulus(rng, ch.num_irs_elements)
        # converge tightly first so the restart begins at a fixed point
        sol, hist = run_sca(u, ch, p_max=3.0, tol=1e-9, max_iters=200)
        sol2, hist2 = run_sca(u, ch, p_max=3.0, start=sol)
        assert len(hist2.records) <= 3  # start record + at most 2 iterations
        f0 = hist2.f_trace()[0]
        assert hist2.f_trace()[-1] == pytest.approx(f0, abs=1e-6)

    def test_monotone_descent(self, rng):
        for _ in range(20):
            ch = random_channelset(rng, num_users=int(rng.integers(1, 4)),
                                   num_irs=3, num_bs=int(rng.integers(2, 4)))
            u = random_unit_modulus(rng, ch.num_irs_elements)
            sol, hist = run_sca(u, ch, p_max=float(rng.uniform(1.0, 8.0)))
            assert hist.is_monotone(slack=1e-6)

    def test_scalar_grid_oracle(self, rng):
        # true-objective grid search over the power triangle, K = N_T = M = 1.
        # The scalar landscape has two basins (signal-heavy vs AN-heavy), so
        # the method is restarted from the corners as well as the default.
        for _ in range(10):
            ch = random_channelset(rng, num_users=1, num_irs=1, num_bs=1)
            u = np.ones(1, dtype=complex)
            p = float(rng.uniform(1.0, 6.0))
            f_sca = np.inf
            corners = [None] + [
                TransmitSolution(
                    W=np.array([[[w0]]], dtype=complex),
                    Z=np.array([[z0]], dtype=complex),
                    u=u,
                )
                for w0, z0 in [(0.98 * p, 0.01 * p), (0.01 * p, 0.98 * p)]
            ]
            for start in corners:
                _, hist = run_sca(u, ch, p_max=p, start=start, tol=1e-6)
                assert hist.is_monotone(slack=1e-9)
                f_sca = min(f_sca, hist.f_trace()[-1])
            n = 401
            wg, zg = np.meshgrid(np.linspace(0, p, n), np.linspace(0, p, n))
            mask = wg + zg <= p
            a = np.abs(ch.G[0, 0, 0]) ** 2
            b = np.abs(ch.L[0, 0]) ** 2
            f = (
                -np.log2(a * (wg + zg) + 1.0)
                - np.log2(b * zg + 1.0)
                + np.log2(a * zg + 1.0)
                + np.log2(b * (wg + zg) + 1.0)
            )
            f_grid = f[mask].min()
            assert abs(f_sca - f_grid) <= 1e-3 * (1 + abs(f_grid))

    def test_no_an_keeps_z_zero(self, rng):
        ch = random_channelset(rng, num_users=2)
        u = random_unit_modulus(rng, ch.num_irs_elements)
        sol, hist = run_sca(u, ch, p_max=4.0, an_enabled=False)
        assert np.all(sol.Z == 0)
        assert hist.is_monotone(slack=1e-6)

    def test_no_an_z_exactly_zero_in_span_and_at_40_dbm(self, rng):
        # test_no_an_keeps_z_zero has K + 1 = N_T, where the loop solves in the
        # full space; with N_T = 6 > K + 1 it solves in the channels' span
        cases = [(random_channelset(rng, num_users=2, num_bs=6), 4.0)]
        for num_bs in (3, 6):  # the default geometry's unit-noise channels
            cfg = ScenarioConfig(num_users=2, num_bs_antennas=num_bs, p_max=dbm_to_watts(40.0))
            cases.append((normalize(generate_scenario(cfg)), cfg.p_max))
        for ch, p_max in cases:
            u = random_unit_modulus(rng, ch.num_irs_elements)
            sol, hist = run_sca(u, ch, p_max=p_max, an_enabled=False)
            assert np.all(sol.Z == 0)
            assert hist.is_monotone(slack=1e-6)

    @pytest.mark.parametrize("draw", [35, 37])
    def test_stalled_inner_solve_does_not_end_the_run(self, draw):
        # K = 1 at 3.7e5 and 1.9e5 W: an inner solve stalls at float
        # precision with a gap above 10 tol (rounds 16 and 12); its point is
        # feasible and no worse than its start, so the run goes on from it
        rng = np.random.default_rng(5)
        for _ in range(draw + 1):
            nt = int(rng.integers(2, 9))
            ch = random_channelset(rng, num_users=1, num_irs=4, num_bs=nt)
            u = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            p_max = float(10 ** rng.uniform(-6, 6))
        sol, hist = run_sca(u, ch, p_max, tol=1e-9, max_iters=20)
        sol.validate(p_max)
        assert hist.is_monotone()
        assert hist.status in {"converged", "max_iters", "stalled"}


def span_projector(u, ch):
    """Projector onto S = span{h_1..h_K, b}, from an SVD with its own rank cut."""
    c = np.concatenate([effective_user_channels(ch, u), effective_eve_channel(ch, u)[None]]).T
    vecs, s, _ = np.linalg.svd(c, full_matrices=False)
    q = vecs[:, s > 1e-10 * s[0]]
    return q @ q.conj().T


def collinear_channelset(rng, num_users, num_bs):
    """Users 0 and 1 see proportional cascades, so h_1 = c h_0 and dim S = K."""
    ch = random_channelset(rng, num_users=num_users, num_bs=num_bs)
    g = ch.g.copy()
    g[1] = (0.6 - 0.8j) * g[0]
    return ChannelSet(H=ch.H, g=g, l=ch.l, noise_user=1.0, noise_eve=1.0)


# (K, N_T, collinear users 0 and 1): K + 1 < N_T, = N_T, > N_T, and dim S < K + 1
SPAN_CASES = [(2, 6, False), (2, 3, False), (3, 2, False), (3, 6, True)]


def span_case(rng, k, n, collinear):
    if collinear:
        return collinear_channelset(rng, k, n)
    return random_channelset(rng, num_users=k, num_bs=n)


class TestSpanReduction:
    """f and every SCA surrogate read (W, Z) only through h_k^H X h_k and
    b^H X b, so run_sca works in S = span{h_1..h_K, b} and returns points
    that lie in S."""

    @pytest.mark.parametrize("k, n, collinear", SPAN_CASES)
    def test_projection_keeps_objective_and_power(self, rng, k, n, collinear):
        for _ in range(5):
            ch = span_case(rng, k, n, collinear)
            u = random_unit_modulus(rng, ch.num_irs_elements)
            W, Z = feasible_point(rng, ch, power=3.0)
            P = span_projector(u, ch)
            Wp, Zp = P @ W @ P, P @ Z @ P
            f = objective_value(W, Z, u, ch)
            assert objective_value(Wp, Zp, u, ch) == pytest.approx(f, rel=1e-12)
            assert total_power(Wp, Zp) <= total_power(W, Z) * (1 + 1e-12)

    @pytest.mark.parametrize("an_enabled", [True, False])
    @pytest.mark.parametrize("k, n, collinear", SPAN_CASES)
    def test_outputs_lie_in_span(self, rng, k, n, collinear, an_enabled):
        p_max = 4.0
        for _ in range(3):
            ch = span_case(rng, k, n, collinear)
            u = random_unit_modulus(rng, ch.num_irs_elements)
            # the default start (isotropic AN) and a full-rank one both reach
            # outside S
            W, Z = feasible_point(rng, ch, power=p_max)
            if not an_enabled:
                Z = np.zeros_like(Z)
            for start in (None, TransmitSolution(W=W, Z=Z, u=u)):
                sol, hist = run_sca(u, ch, p_max, start=start, an_enabled=an_enabled)
                P = span_projector(u, ch)
                for X in (*sol.W, sol.Z):
                    assert np.linalg.norm(P @ X @ P - X) <= 1e-12 * p_max
                sol.validate(p_max)
                assert hist.is_monotone(slack=1e-9)
                if not an_enabled:
                    assert np.all(sol.Z == 0)

    @pytest.mark.parametrize("k, n, collinear", [(2, 6, False), (3, 6, True)])
    def test_one_round_matches_full_space_solve(self, rng, k, n, collinear):
        p_max = 4.0
        for _ in range(5):
            ch = span_case(rng, k, n, collinear)
            u = random_unit_modulus(rng, ch.num_irs_elements)
            W, Z = feasible_point(rng, ch, power=p_max)
            P = span_projector(u, ch)
            start = TransmitSolution(W=hermitize(P @ W @ P), Z=hermitize(P @ Z @ P), u=u)
            spec = build_subproblem(start.W, start.Z, u, ch, p_max)
            full, report = convex_inner.solve(spec, start)
            reduced, hist = run_sca(u, ch, p_max, start=start, max_iters=1)
            assert len(hist.records) == 2
            # the subproblem is flat along some directions, so the two points
            # may differ by more than round-off; but both reach its minimum
            # to the solver's tolerance, and the reduced one passes the
            # solver's own stopping test, the Frank-Wolfe gap, on the
            # full-space subproblem
            q = subproblem_objective(spec, reduced.W, reduced.Z)
            tol = 1e-6 * (1 + abs(q))
            assert q == pytest.approx(report.objective, abs=tol)
            g_w, g_z = subproblem_gradient(spec, reduced.W, reduced.Z)
            low = min(np.linalg.eigvalsh(g_w).min(), np.linalg.eigvalsh(g_z).min())
            inner = np.vdot(g_w, reduced.W).real + np.vdot(g_z, reduced.Z).real
            assert inner - p_max * min(0.0, low) <= tol

    @pytest.mark.parametrize("k, n, collinear", SPAN_CASES)
    def test_records_match_secrecy_rates_at_output(self, rng, k, n, collinear):
        # the orchestrator reuses the last record instead of re-evaluating
        ch = span_case(rng, k, n, collinear)
        u = random_unit_modulus(rng, ch.num_irs_elements)
        sol, hist = run_sca(u, ch, p_max=4.0)
        rates = secrecy_rates(sol, ch)
        last = hist.records[-1]
        assert last.f == pytest.approx(rates.f, rel=1e-12)
        assert last.sum_secrecy == pytest.approx(rates.sum_secrecy, rel=1e-12, abs=1e-12)
        assert last.power_used == pytest.approx(total_power(sol.W, sol.Z), rel=1e-12)


class TestRunScaSurrogates:
    """The surrogates run_sca builds from its own term rows, as the inner
    solver receives them: tight at each round's start and above f at the
    solver's output, in the span-reduced and the full space."""

    @pytest.mark.parametrize("an_enabled", [True, False])
    @pytest.mark.parametrize("k, n", [(2, 6), (1, 4), (2, 3), (3, 2)])
    def test_tight_at_start_and_majorizing(self, rng, monkeypatch, k, n, an_enabled):
        original_solve = convex_inner.solve
        at_start, at_output = [], []

        def recording_solve(spec, start, **kwargs):
            # the spec's affine part changes in place between rounds, so it
            # is evaluated here, inside the round
            at_start.append(subproblem_objective(spec, start.W, start.Z))
            sol, report = original_solve(spec, start, **kwargs)
            at_output.append(subproblem_objective(spec, sol.W, sol.Z))
            return sol, report

        monkeypatch.setattr(convex_inner, "solve", recording_solve)
        rounds = 0
        for _ in range(4):
            ch = random_channelset(rng, num_users=k, num_irs=4, num_bs=n)
            u = random_unit_modulus(rng, ch.num_irs_elements)
            at_start.clear()
            at_output.clear()
            _, hist = run_sca(
                u, ch, p_max=float(rng.uniform(1.0, 8.0)), tol=1e-9, max_iters=8,
                an_enabled=an_enabled,
            )
            f = hist.f_trace()
            assert len(at_start) == len(f) - 1
            for i, (q_start, q_out) in enumerate(zip(at_start, at_output)):
                assert abs(q_start - f[i]) <= 1e-12 * abs(f[i])
                assert f[i + 1] <= q_out + 1e-12 * abs(q_out)
            rounds += len(at_start)
        assert rounds > 4


class TestExtractRankOne:
    def test_exact_rank_one_recovered(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        W = np.outer(v, np.conj(v))
        w, residual = extract_rank_one(W)
        assert residual == pytest.approx(0.0, abs=1e-12)
        # recovery up to a global phase
        phase = w[np.argmax(np.abs(w))] / v[np.argmax(np.abs(w))]
        assert np.allclose(w, v * phase, atol=1e-8)

    def test_zero_matrix(self):
        w, residual = extract_rank_one(np.zeros((3, 3)))
        assert np.all(w == 0)
        assert residual == 0.0

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            extract_rank_one(np.diag([1.0, -0.5]))

    def test_non_finite_rejected(self):
        # NaN gave the beamformer [0, 0, 1] with defect 1.0
        W = np.eye(3)
        W[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            extract_rank_one(W)

    def test_post_sca_rank_one(self, rng):
        # the relaxed solutions should come back essentially rank one
        for _ in range(10):
            ch = random_channelset(rng, num_users=int(rng.integers(1, 4)),
                                   num_irs=4, num_bs=int(rng.integers(2, 5)))
            u = random_unit_modulus(rng, ch.num_irs_elements)
            sol, _ = run_sca(u, ch, p_max=4.0)
            assert max(extract_rank_one(W_k)[1] for W_k in sol.W) < 1e-6
            # replacing W_k by its rank-one extraction barely moves f
            f_before = objective_value(sol.W, sol.Z, sol.u, ch)
            W_extracted = np.stack([
                np.outer(*(lambda w: (w, np.conj(w)))(extract_rank_one(sol.W[k])[0]))
                for k in range(ch.num_users)
            ])
            f_after = objective_value(W_extracted, sol.Z, sol.u, ch)
            assert abs(f_after - f_before) <= 1e-4 * (1 + abs(f_before))
