from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from irs_secrecy.channels import generate_scenario, normalize
from irs_secrecy.config import ScenarioConfig, dbm_to_watts, derive_seed
from irs_secrecy.manifold import (
    SHIFT_FLOOR,
    PhaseObjective,
    RetractionError,
    _newton_step,
    aligned_start,
    default_phase_init,
    from_phases,
    manifold_residual,
    retract,
    run_cg,
    tangency_residual,
    tangent_project,
    vector_transport,
)
from irs_secrecy.metrics import LN2, objective_value
from irs_secrecy.sca import run_sca
from irs_secrecy.solution import hermitize
from tests.conftest import random_channelset, random_solution, random_unit_modulus


def riemannian_grad(u, W, Z, ch):
    return tangent_project(u, PhaseObjective(W, Z, ch).euclidean_grad(u))


def complex_vector(rng, m, scale=1.0):
    return scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))


class TestGeometry:
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           m=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_projection_tangency_and_idempotence(self, seed, m):
        rng = np.random.default_rng(seed)
        u = random_unit_modulus(rng, m)
        v = complex_vector(rng, m, scale=3.0)
        t = tangent_project(u, v)
        assert tangency_residual(u, t) <= 1e-10
        t2 = tangent_project(u, t)
        assert np.max(np.abs(t2 - t)) <= 1e-12

    def test_projection_of_base_point_vanishes(self, rng):
        u = random_unit_modulus(rng, 5)
        assert np.max(np.abs(tangent_project(u, u))) <= 1e-12

    def test_projection_keeps_rotated_base(self, rng):
        u = random_unit_modulus(rng, 5)
        assert np.allclose(tangent_project(u, 1j * u), 1j * u, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           m=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_transport_lands_tangent(self, seed, m):
        rng = np.random.default_rng(seed)
        u_from = random_unit_modulus(rng, m)
        u_to = random_unit_modulus(rng, m)
        mu = tangent_project(u_from, complex_vector(rng, m))
        out = vector_transport(u_from, u_to, mu)
        assert tangency_residual(u_to, out) <= 1e-10

    def test_transport_of_zero(self, rng):
        u = random_unit_modulus(rng, 4)
        assert np.all(vector_transport(u, u, np.zeros(4)) == 0)

    def test_transport_identity_on_own_tangent(self, rng):
        u = random_unit_modulus(rng, 4)
        mu = tangent_project(u, complex_vector(rng, 4))
        assert np.allclose(vector_transport(u, u, mu), mu, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           delta=st.floats(min_value=1e-6, max_value=10.0),
           m=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_retraction_stays_on_manifold(self, seed, delta, m):
        rng = np.random.default_rng(seed)
        u = random_unit_modulus(rng, m)
        mu = tangent_project(u, complex_vector(rng, m))
        out = retract(u, delta, mu)
        assert manifold_residual(out) <= 1e-12

    def test_retraction_zero_step_exact(self, rng):
        u = random_unit_modulus(rng, 6)
        out = retract(u, 0.0, complex_vector(rng, 6))
        assert np.array_equal(out, u)

    def test_retraction_eighth_turn(self):
        out = retract(np.array([1.0 + 0j]), 1.0, np.array([1j]))
        assert out[0] == pytest.approx(np.exp(1j * np.pi / 4))

    def test_retraction_zero_element_raises(self):
        with pytest.raises(RetractionError):
            retract(np.array([1.0 + 0j]), 1.0, np.array([-1.0 + 0j]))


class TestEuclideanGradient:
    def test_zero_covariances_zero_gradient(self, rng):
        ch = random_channelset(rng)
        n = ch.num_bs_antennas
        u = random_unit_modulus(rng, ch.num_irs_elements)
        obj = PhaseObjective(np.zeros((ch.num_users, n, n)), np.zeros((n, n)), ch)
        g = obj.euclidean_grad(u)
        assert np.allclose(g, 0.0)

    def test_single_element_riemannian_gradient_zero(self, rng):
        ch = random_channelset(rng, num_irs=1)
        sol = random_solution(rng, ch)
        g = riemannian_grad(sol.u, sol.W, sol.Z, ch)
        assert np.max(np.abs(g)) <= 1e-10

    def test_finite_difference_agreement(self, rng):
        # Wirtinger convention: gradient = d/dRe + 1j * d/dIm
        h = 1e-6
        for _ in range(25):
            ch = random_channelset(rng, num_users=int(rng.integers(1, 4)),
                                   num_irs=int(rng.integers(1, 6)),
                                   num_bs=int(rng.integers(1, 4)))
            sol = random_solution(rng, ch)
            obj = PhaseObjective(sol.W, sol.Z, ch)
            u = sol.u
            grad = obj.euclidean_grad(u)
            fd = np.zeros_like(grad)
            for m in range(u.shape[0]):
                e = np.zeros(u.shape[0])
                e[m] = 1.0
                fr = (obj.value(u + h * e) - obj.value(u - h * e)) / (2 * h)
                fi = (obj.value(u + 1j * h * e) - obj.value(u - 1j * h * e)) / (2 * h)
                fd[m] = fr + 1j * fi
            assert np.linalg.norm(fd - grad) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)

    def test_global_phase_quotient(self, rng):
        ch = random_channelset(rng)
        sol = random_solution(rng, ch)
        obj = PhaseObjective(sol.W, sol.Z, ch)
        theta = 1.234
        assert obj.value(np.exp(1j * theta) * sol.u) == pytest.approx(
            obj.value(sol.u), abs=1e-10
        )
        g1 = riemannian_grad(sol.u, sol.W, sol.Z, ch)
        g2 = riemannian_grad(np.exp(1j * theta) * sol.u, sol.W, sol.Z, ch)
        assert np.linalg.norm(g2) == pytest.approx(np.linalg.norm(g1), abs=1e-10)

    def test_descent_along_negative_gradient(self, rng):
        for _ in range(10):
            ch = random_channelset(rng)
            sol = random_solution(rng, ch)
            g = riemannian_grad(sol.u, sol.W, sol.Z, ch)
            if np.linalg.norm(g) < 1e-8:
                continue
            obj = PhaseObjective(sol.W, sol.Z, ch)
            f0 = obj.value(sol.u)
            f1 = obj.value(retract(sol.u, 1e-6 / np.linalg.norm(g), -g))
            assert f1 < f0


def dense_terms(W, Z, ch):
    """The M x M term matrices C_t X_t C_t^H with their weights and noise powers."""
    W, Z = hermitize(W), hermitize(Z)
    g, l_eff, k = ch.G, ch.L, ch.num_users
    p1 = np.einsum("kmn,np,kqp->kmq", g, W.sum(axis=0) + Z, np.conj(g))
    own = np.einsum("kmn,knp,kqp->kmq", g, W, np.conj(g))
    mats = np.concatenate([
        p1,
        (l_eff @ Z @ np.conj(l_eff).T)[None],
        p1 - own,
        np.einsum("mn,knp,qp->kmq", l_eff, W + Z[None], np.conj(l_eff)),
    ])
    weights = np.concatenate([-np.ones(k), [-float(k)], np.ones(k), np.ones(k)])
    consts = np.concatenate([
        np.full(k, ch.noise_user), [ch.noise_eve],
        np.full(k, ch.noise_user), np.full(k, ch.noise_eve),
    ])
    return mats, weights, consts


def dense_reference(W, Z, ch, u):
    """The phase objective through the M x M term matrices C_t X_t C_t^H.

    Returns f, the gradient, and the scales the comparisons are relative to:
    sum_t |w_t| / ln2, the size of a unit relative error in every log
    argument, and the summed norms of the gradient's terms. Plain |f| is no
    scale, because the signed sum can cancel (f = 3e-7 seen at 2e5 W).
    """
    mats, weights, consts = dense_terms(W, Z, ch)
    vals = np.einsum("m,tmn,n->t", np.conj(u), mats, u).real + consts
    terms = (2.0 / LN2) * (weights / vals)[:, None] * np.einsum("tmn,n->tm", mats, u)
    f_scale = np.abs(weights).sum() / LN2
    return weights @ np.log2(vals), terms.sum(axis=0), f_scale, np.linalg.norm(terms, axis=1).sum()


class TestFactoredObjective:
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           k=st.integers(min_value=1, max_value=4),
           m=st.integers(min_value=1, max_value=8),
           n=st.integers(min_value=1, max_value=6),
           log_power=st.floats(min_value=-6.0, max_value=6.0))
    @example(seed=1, k=2, m=3, n=6, log_power=0.0)   # N_T > M
    @example(seed=2, k=3, m=1, n=2, log_power=3.0)   # M = 1
    @example(seed=3, k=4, m=5, n=2, log_power=-3.0)  # K > N_T
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_reference(self, seed, k, m, n, log_power):
        rng = np.random.default_rng(seed)
        ch = random_channelset(rng, num_users=k, num_irs=m, num_bs=n)
        sol = random_solution(rng, ch, power=10.0 ** log_power)
        obj = PhaseObjective(sol.W, sol.Z, ch)
        U = np.stack([sol.u, random_unit_modulus(rng, m), random_unit_modulus(rng, m)])
        rows = obj.value_batch(U)
        for b, u in enumerate(U):
            f_ref, g_ref, f_scale, g_scale = dense_reference(sol.W, sol.Z, ch, u)
            assert abs(obj.value(u) - f_ref) <= 1e-12 * f_scale
            assert abs(rows[b] - f_ref) <= 1e-12 * f_scale
            assert np.linalg.norm(obj.euclidean_grad(u) - g_ref) <= 1e-12 * g_scale

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           k=st.integers(min_value=1, max_value=4),
           m=st.integers(min_value=1, max_value=8),
           n=st.integers(min_value=1, max_value=6),
           log_power=st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_metrics_objective(self, seed, k, m, n, log_power):
        # the phase objective and metrics compute the same log arguments apart
        rng = np.random.default_rng(seed)
        ch = random_channelset(rng, num_users=k, num_irs=m, num_bs=n)
        sol = random_solution(rng, ch, power=10.0 ** log_power)
        f_metrics = objective_value(sol.W, sol.Z, sol.u, ch)
        f_scale = (4 * k) / LN2  # sum_t |w_t| / ln2, as in dense_reference
        assert abs(PhaseObjective(sol.W, sol.Z, ch).value(sol.u) - f_metrics) <= 1e-12 * f_scale

    def test_non_positive_log_argument_rejected(self, rng):
        ch = random_channelset(rng, num_users=1)
        sol = random_solution(rng, ch)
        # negative "covariances" drive every quadratic form below -noise
        obj = PhaseObjective(-1e6 * np.ones_like(sol.W), -1e6 * np.eye(ch.num_bs_antennas), ch)
        with pytest.raises(ValueError, match="non-positive log argument"):
            obj.value(sol.u)
        with pytest.raises(ValueError, match="non-positive log argument"):
            obj.euclidean_grad(sol.u)

    def test_nan_log_argument_rejected(self, rng):
        # NaN failed no "<= 0" guard, so f came back as nan
        ch = random_channelset(rng, num_users=2)
        sol = random_solution(rng, ch)
        W = sol.W.copy()
        W[0, 0, 0] = np.nan
        obj = PhaseObjective(W, sol.Z, ch)
        with pytest.raises(ValueError, match="non-positive log argument"):
            obj.value(sol.u)
        with pytest.raises(ValueError, match="non-positive log argument"):
            run_cg(sol.u, W, sol.Z, ch)


def phase_scales(W, Z, ch, u):
    """Sizes of the phase gradient and Hessian that their errors are relative to.

    Term t scales as |s_t| = |w_t| / (ln2 a_t) times 2 ||R_t u|| in the
    gradient and times 2 ||C_t X_t C_t^H|| + 2 ||R_t u|| + 4 ||R_t u||^2 / a_t
    in the Hessian; unlike the derivatives, neither vanishes at M = 1. The
    third scale bounds the round-off of f, sum_t |w_t| (1 + |log2 a_t|) / ln2.
    """
    mats, weights, consts = dense_terms(W, Z, ch)
    vals = np.einsum("m,tmn,n->t", np.conj(u), mats, u).real + consts
    r = np.linalg.norm(np.einsum("tmn,n->tm", mats, u), axis=1)
    s = np.abs(weights) / (LN2 * vals)
    g_scale = float(s @ (2.0 * r))
    h_scale = float(s @ (2.0 * np.linalg.norm(mats, axis=(1, 2)) + 2.0 * r + 4.0 * r * r / vals))
    f_scale = float(np.abs(weights) @ (1.0 + np.abs(np.log2(vals)))) / LN2
    return g_scale, h_scale, f_scale


class TestPhaseDerivatives:
    """PhaseObjective.derivatives: f, gradient and Hessian in phi, u = exp(-1j phi)."""

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           k=st.integers(min_value=1, max_value=4),
           m=st.integers(min_value=1, max_value=8),
           n=st.integers(min_value=1, max_value=6),
           log_power=st.floats(min_value=-6.0, max_value=6.0))
    @example(seed=2, k=3, m=1, n=2, log_power=3.0)   # M = 1
    @example(seed=3, k=4, m=5, n=2, log_power=-3.0)  # K > N_T
    @settings(max_examples=100, deadline=None)
    def test_central_differences_and_rotation(self, seed, k, m, n, log_power):
        rng = np.random.default_rng(seed)
        ch = random_channelset(rng, num_users=k, num_irs=m, num_bs=n)
        sol = random_solution(rng, ch, power=10.0 ** log_power)
        obj = PhaseObjective(sol.W, sol.Z, ch)
        phi = -np.angle(sol.u)
        u = from_phases(phi)
        f, grad, hess = obj.derivatives(u)
        g_scale, h_scale, f_scale = phase_scales(sol.W, sol.Z, ch, u)
        assert f == obj.value(u)

        h = 1e-5
        grad_fd = np.zeros(m)
        hess_fd = np.zeros((m, m))
        for i in range(m):
            e = np.zeros(m)
            e[i] = h
            grad_fd[i] = (obj.value(from_phases(phi + e)) - obj.value(from_phases(phi - e))) / (2 * h)
            hess_fd[:, i] = (
                obj.derivatives(from_phases(phi + e))[1] - obj.derivatives(from_phases(phi - e))[1]
            ) / (2 * h)
        assert np.linalg.norm(grad - grad_fd) <= 1e-6 * g_scale + 1e-9 * f_scale
        assert np.linalg.norm(hess - hess_fd) <= 1e-7 * h_scale

        # f is constant along the common rotation phi + theta * 1
        assert abs(grad.sum()) <= 1e-12 * g_scale
        assert np.linalg.norm(hess @ np.ones(m)) <= 1e-12 * h_scale * np.sqrt(m)

        # the phase gradient has the norm of the Riemannian gradient
        riem = np.linalg.norm(tangent_project(u, obj.euclidean_grad(u)))
        assert abs(np.linalg.norm(grad) - riem) <= 1e-12 * g_scale

    def test_reused_log_arguments_match_a_fresh_pass(self, rng):
        # run_cg hands the accepted trial's log-argument pass to derivatives
        for _ in range(20):
            ch = random_channelset(rng, num_users=int(rng.integers(1, 4)),
                                   num_irs=int(rng.integers(1, 9)),
                                   num_bs=int(rng.integers(1, 5)))
            sol = random_solution(rng, ch)
            obj = PhaseObjective(sol.W, sol.Z, ch)
            f, args = obj.value(sol.u, return_args=True)
            assert f == obj.value(sol.u)
            for reused, fresh in zip(obj.derivatives(sol.u, args), obj.derivatives(sol.u)):
                assert np.array_equal(reused, fresh)

    def test_run_cg_same_with_fresh_passes(self, rng, monkeypatch):
        ch = random_channelset(rng, num_users=2, num_irs=8)
        sol = random_solution(rng, ch)
        u_reused, hist_reused = run_cg(sol.u, sol.W, sol.Z, ch, tol=1e-8)
        original = PhaseObjective.derivatives
        monkeypatch.setattr(
            PhaseObjective, "derivatives", lambda self, u, log_args=None: original(self, u)
        )
        u_fresh, hist_fresh = run_cg(sol.u, sol.W, sol.Z, ch, tol=1e-8)
        assert len(hist_reused.records) > 2
        assert np.array_equal(u_reused, u_fresh)
        assert np.array_equal(hist_reused.f_trace(), hist_fresh.f_trace())


class TestNewtonIterations:
    # (N_T, M, K) = (2, 40, 1) at 40 dBm, from optimize's first-round
    # covariances; Polak-Ribiere CG took 212 to 324 iterations on these
    # draws and stopped at its 500-iteration cap on draw 16
    @pytest.mark.parametrize("draw", [3, 10, 11, 15, 16, 22])
    def test_converges_within_30_iterations(self, draw):
        cfg = ScenarioConfig(
            num_bs_antennas=2, num_irs_elements=40, num_users=1, p_max=dbm_to_watts(40.0),
            rng_seed=derive_seed("newton-iterations", draw),
        )
        ch = generate_scenario(cfg)
        work = normalize(ch)
        u = default_phase_init(ch)
        sca_sol, _ = run_sca(
            u, work, cfg.p_max, tol=0.1 * cfg.tol_outer, max_iters=cfg.sca_max_iters
        )
        _, hist = run_cg(u, sca_sol.W, sca_sol.Z, work, tol=cfg.tol_manifold)
        assert hist.status == "converged"
        assert len(hist.records) - 1 <= 30


def rotation_free_hessian(rng, m, eigs):
    """Symmetric H with H 1 = 0 and eigenvalues ``eigs`` on the complement of 1."""
    q, _ = np.linalg.qr(np.column_stack([np.ones(m), rng.standard_normal((m, m - 1))]))
    basis = q[:, 1:]
    hess = (basis * eigs) @ basis.T
    return 0.5 * (hess + hess.T), basis


class TestNewtonStep:
    # the phase Hessian has the exact null vector 1 (the common rotation) and
    # the gradient is orthogonal to it
    @pytest.mark.parametrize("kind", ["definite", "indefinite", "near_singular"])
    def test_descent_and_no_rotation(self, kind):
        rng = np.random.default_rng(derive_seed("newton-step", kind))
        for _ in range(200):
            m = int(rng.integers(2, 41))
            eigs = rng.uniform(0.1, 10.0, m - 1)
            if kind == "indefinite":
                eigs = rng.uniform(-5.0, 10.0, m - 1)
                eigs[0] = -abs(eigs[0]) - 0.1
            elif kind == "near_singular":
                eigs[0] = 10.0 ** rng.uniform(-10.0, -4.0)
            scale = 10.0 ** rng.uniform(-6.0, 6.0)
            hess, basis = rotation_free_hessian(rng, m, scale * eigs)
            grad = basis @ rng.standard_normal(m - 1)
            step = _newton_step(hess, grad)
            assert grad @ step < 0.0
            assert abs(step.sum()) <= 1e-13 * np.sqrt(m) * np.linalg.norm(step)
            lifted = hess + np.abs(np.diag(hess)).max() / m
            if np.diag(lifted).min() > 0.0 and np.linalg.eigvalsh(lifted).min() > 0.0:
                # tau = 0: the Newton step on the complement of 1; a linear
                # solve loses cond * eps, so compare where cond <= 1e5
                assert kind != "indefinite"
                if np.abs(eigs).max() <= 1e5 * np.abs(eigs).min():
                    newton = -np.linalg.pinv(hess, rcond=1e-12, hermitian=True) @ grad
                    assert np.linalg.norm(step - newton) <= 1e-10 * np.linalg.norm(newton)

    @pytest.mark.parametrize("kind", ["definite", "indefinite"])
    def test_equals_solve_with_the_shifted_matrix(self, kind, monkeypatch):
        # the step is -solve(lifted + tau I, grad) for the tau sequence
        # 0 or beta - min diag(lifted), then max(2 tau, beta), ... of the
        # docstring; each retry rewrites only the diagonal of one matrix
        rng = np.random.default_rng(derive_seed("newton-step-shift", kind))
        original_cholesky = np.linalg.cholesky
        tried = []

        def recording_cholesky(mat):
            tried.append(mat.copy())
            return original_cholesky(mat)

        retries = 0
        for _ in range(100):
            m = int(rng.integers(2, 41))
            eigs = rng.uniform(0.1, 10.0, m - 1)
            if kind == "indefinite":
                eigs[: int(rng.integers(1, m))] *= -1.0
            hess, basis = rotation_free_hessian(rng, m, 10.0 ** rng.uniform(-6.0, 6.0) * eigs)
            grad = basis @ rng.standard_normal(m - 1)
            monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
            tried.clear()
            step = _newton_step(hess, grad)
            monkeypatch.setattr(np.linalg, "cholesky", original_cholesky)

            sigma = np.abs(np.diag(hess)).max()
            lifted = hess + sigma / m
            beta = SHIFT_FLOOR * sigma
            lowest = np.diag(lifted).min()
            tau = 0.0 if lowest > 0.0 else beta - lowest
            for i, mat in enumerate(tried):
                assert np.array_equal(mat, lifted + tau * np.eye(m))
                if i < len(tried) - 1:
                    with pytest.raises(np.linalg.LinAlgError):
                        original_cholesky(mat)
                    tau = max(2.0 * tau, beta)
            assert np.array_equal(step, -np.linalg.solve(lifted + tau * np.eye(m), grad))
            retries += len(tried) - 1
        assert (retries > 0) == (kind == "indefinite")

    def test_run_cg_makes_no_eigendecomposition(self, rng, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        ch = random_channelset(rng, num_users=2, num_irs=8)
        sol = random_solution(rng, ch)
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        _, hist = run_cg(sol.u, sol.W, sol.Z, ch, tol=1e-8)
        assert len(hist.records) > 2


class TestArmijoDescent:
    def test_sufficient_decrease_on_gradient_steps(self, rng):
        # one steepest-descent Armijo step must satisfy the classic inequality
        from irs_secrecy.manifold import ARMIJO_C

        for _ in range(20):
            ch = random_channelset(rng)
            sol = random_solution(rng, ch)
            obj = PhaseObjective(sol.W, sol.Z, ch)
            u = sol.u
            g = tangent_project(u, obj.euclidean_grad(u))
            gnorm2 = float(np.vdot(g, g).real)
            if gnorm2 < 1e-12:
                continue
            f0 = obj.value(u)
            delta = 1.0
            for _ in range(50):
                trial = retract(u, delta, -g)
                if obj.value(trial) <= f0 - ARMIJO_C * delta * gnorm2:
                    break
                delta *= 0.5
            else:
                pytest.fail("no Armijo step accepted")
            assert obj.value(trial) <= f0 - ARMIJO_C * delta * gnorm2


class TestRunCg:
    def test_stationary_start_returns_immediately(self, rng):
        ch = random_channelset(rng)
        sol = random_solution(rng, ch)
        u_opt, hist = run_cg(sol.u, sol.W, sol.Z, ch, tol=1e-4, max_iters=500)
        u_again, hist2 = run_cg(u_opt, sol.W, sol.Z, ch, tol=1e-3)
        assert len(hist2.records) == 1
        assert np.array_equal(u_again, u_opt)

    def test_off_manifold_start_rejected(self, rng):
        ch = random_channelset(rng)
        sol = random_solution(rng, ch)
        with pytest.raises(ValueError, match="manifold"):
            run_cg(1.5 * sol.u, sol.W, sol.Z, ch)

    def test_nan_start_rejected(self, rng):
        # a NaN residual passed "resid > 1e-9", and run_cg returned f = nan
        ch = random_channelset(rng)
        sol = random_solution(rng, ch)
        u = sol.u.copy()
        u[0] = np.nan
        with pytest.raises(ValueError, match="off the manifold"):
            run_cg(u, sol.W, sol.Z, ch)

    def test_monotone_trace_and_feasible_output(self, rng):
        for _ in range(50):
            ch = random_channelset(rng, num_users=int(rng.integers(1, 4)),
                                   num_irs=int(rng.integers(2, 6)))
            sol = random_solution(rng, ch)
            u_opt, hist = run_cg(sol.u, sol.W, sol.Z, ch)
            assert hist.is_monotone(slack=1e-9)
            assert manifold_residual(u_opt) <= 1e-12

    def test_two_element_grid_oracle(self, rng):
        for _ in range(5):
            ch = random_channelset(rng, num_users=1, num_irs=2, num_bs=2)
            sol = random_solution(rng, ch, power=3.0)
            obj = PhaseObjective(sol.W, sol.Z, ch)
            phi = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
            p1, p2 = np.meshgrid(phi, phi)
            grid = from_phases(np.stack([p1.ravel(), p2.ravel()], axis=1))
            f_grid = obj.value_batch(grid).min()
            u_opt, hist = run_cg(np.ones(2, dtype=complex), sol.W, sol.Z, ch)
            assert abs(hist.f_trace()[-1] - f_grid) <= 1e-3

    def test_improves_over_start(self, rng):
        ch = random_channelset(rng)
        sol = random_solution(rng, ch)
        u0 = np.ones(ch.num_irs_elements, dtype=complex)
        _, hist = run_cg(u0, sol.W, sol.Z, ch)
        assert hist.f_trace()[-1] <= hist.f_trace()[0]


class TestHelpers:
    def test_from_phases_convention(self):
        u = from_phases(np.array([0.0, np.pi / 2]))
        assert u[0] == pytest.approx(1.0)
        assert u[1] == pytest.approx(np.exp(-1j * np.pi / 2))

    @pytest.mark.parametrize("m, n", [(6, 3), (2, 5), (4, 4), (1, 3), (5, 1)])
    @pytest.mark.parametrize("zero_cascade", [False, True])
    def test_aligned_start_matches_gram_eigenvector(self, rng, m, n, zero_cascade):
        # the thin SVD of G_k gives the principal eigenvector of the M x M
        # Gram matrix G_k G_k^H up to a common phase
        for _ in range(10):
            ch = random_channelset(rng, num_users=2, num_irs=m, num_bs=n)
            if zero_cascade:
                ch = replace(ch, g=np.vstack([np.zeros(m), ch.g[1]]))
            _, vecs = np.linalg.eigh(ch.G[0] @ np.conj(ch.G[0]).T)
            v = vecs[:, -1]
            mags = np.abs(v)
            gram = np.ones(m, dtype=complex)
            gram[mags > 0] = v[mags > 0] / mags[mags > 0]
            u = aligned_start(ch, 0)
            assert manifold_residual(u) <= 1e-12
            rotation = np.vdot(gram, u) / m
            assert abs(abs(rotation) - 1.0) <= 1e-10
            assert np.abs(u - rotation * gram).max() <= 1e-10
            if zero_cascade:
                assert np.array_equal(u, np.ones(m))

    def test_aligned_start_on_manifold_and_aligned(self, rng):
        ch = random_channelset(rng, num_users=2, num_irs=5)
        u = aligned_start(ch, 0)
        assert manifold_residual(u) <= 1e-12
        # the aligned start should beat the all-ones start for that user
        gain_aligned = np.linalg.norm(np.conj(u) @ ch.G[0])
        gain_ones = np.linalg.norm(np.ones(5) @ ch.G[0])
        assert gain_aligned >= gain_ones * 0.9
