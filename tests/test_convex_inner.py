from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from irs_secrecy import convex_inner
from irs_secrecy.channels import generate_scenario
from irs_secrecy.config import ScenarioConfig, dbm_to_watts, derive_seed
from irs_secrecy.convex_inner import (
    SolverStatus,
    solve,
    subproblem_gradient,
    subproblem_objective,
)
from irs_secrecy.metrics import LN2, secrecy_rates
from irs_secrecy.orchestrator import optimize
from irs_secrecy.sca import build_subproblem, default_start, max_rank_residual, run_sca
from irs_secrecy.solution import TransmitSolution, hermitize
from tests.conftest import project_blocks, random_channelset, random_psd, random_solution


def random_spec(rng, k=2, n=3, p_max=4.0, an_enabled=True):
    ch = random_channelset(rng, num_users=k, num_irs=3, num_bs=n)
    u = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    start = default_start(u, ch, p_max, an_enabled=an_enabled)
    spec = build_subproblem(start.W, start.Z, u, ch, p_max, an_enabled=an_enabled)
    return spec, start, ch, u


def metrics_style_objective(spec, W, Z, ch, u):
    """Independent evaluation: F1 + F2 from the metrics module, affine by hand."""
    bd = secrecy_rates(TransmitSolution(W=W, Z=Z, u=u), ch)
    f1, f2 = bd.F1, bd.F2
    lin = (
        np.einsum("kij,kij->", np.conj(spec.lin_w), W).real
        + np.einsum("ij,ij->", np.conj(spec.lin_z), Z).real
    )
    return f1 + f2 - spec.affine_const - lin


def reference_log_args(spec, W, Z):
    tw = np.einsum("kij,rji->kr", spec.a_mats, W).real
    tz = np.einsum("kij,ji->k", spec.a_mats, Z).real
    n = tw.sum(axis=1) + tz + spec.noise_user
    m = np.einsum("ij,ji->", spec.b_mat, Z).real + spec.noise_eve
    return n, m


def reference_objective(spec, W, Z):
    """The subproblem objective spelled out with per-pair einsum traces."""
    n, m = reference_log_args(spec, W, Z)
    lin = (
        np.einsum("kij,kij->", np.conj(spec.lin_w), W).real
        + np.einsum("ij,ij->", np.conj(spec.lin_z), Z).real
    )
    return -np.log2(n).sum() - spec.num_users * np.log2(m) - (spec.affine_const + lin)


def reference_gradient(spec, W, Z):
    n, m = reference_log_args(spec, W, Z)
    s_a = np.einsum("k,kij->ij", 1.0 / (LN2 * n), spec.a_mats)
    g_w = -s_a[None, :, :] - spec.lin_w
    g_z = -s_a - (spec.num_users / (LN2 * m)) * spec.b_mat - spec.lin_z
    return g_w, g_z


def unit_step_residual(spec, sol):
    """||X - P(X - grad)|| at the returned point, recomputed from scratch."""
    g_w, g_z = reference_gradient(spec, sol.W, sol.Z)
    Wr, Zr, _ = project_blocks(sol.W - g_w, sol.Z - g_z, spec.p_max, spec.an_enabled)
    return float(np.sqrt(
        np.linalg.norm(Wr - sol.W) ** 2 + np.linalg.norm(Zr - sol.Z) ** 2
    ))


def relative_gap(a, b):
    return np.linalg.norm(np.asarray(a) - b) / max(np.linalg.norm(b), 1e-300)


class TestKernelMatchesReference:
    @pytest.mark.parametrize(
        "k, n, an_enabled",
        [(1, 3, True), (2, 1, True), (3, 4, True), (2, 3, False), (1, 1, False)],
    )
    def test_objective_and_gradient(self, rng, k, n, an_enabled):
        for _ in range(20):
            p_max = float(rng.uniform(0.1, 50.0))
            spec, _, _, _ = random_spec(rng, k=k, n=n, p_max=p_max, an_enabled=an_enabled)
            # PSD points away from the expansion point; the kernel does not
            # need them inside the power budget
            W = np.stack([random_psd(rng, n, p_max / (k + 1)) for _ in range(k)])
            Z = random_psd(rng, n, p_max / (k + 1)) if an_enabled else np.zeros((n, n), complex)
            for W_, Z_ in ((W, Z), (hermitize(W * rng.uniform(0.1, 3.0)), Z * 0.5)):
                q_ref = reference_objective(spec, W_, Z_)
                q = subproblem_objective(spec, W_, Z_)
                assert abs(q - q_ref) <= 1e-12 * max(abs(q_ref), 1.0)
                g_w, g_z = subproblem_gradient(spec, W_, Z_)
                r_w, r_z = reference_gradient(spec, W_, Z_)
                assert relative_gap(g_w, r_w) <= 1e-12
                assert relative_gap(g_z, r_z) <= 1e-12

    def test_domain_guard_matches(self, rng):
        spec, start, _, _ = random_spec(rng)
        # a strongly indefinite W drives every user log argument negative
        W = -1e6 * np.stack([np.eye(3, dtype=complex)] * spec.num_users)
        assert np.all(reference_log_args(spec, W, start.Z)[0] <= 0)
        assert subproblem_objective(spec, W, start.Z) == np.inf


class TestProjectExactBudget:
    def test_budget_holds_across_scales(self):
        # large steps make eigenvalues that dwarf the budget, where the shift
        # vals - lam cancels; the projected total must still meet the budget
        rng = np.random.default_rng(7)
        p_max = 0.1
        for _ in range(2000):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(1, 9))
            an_enabled = bool(rng.integers(0, 2))
            scale = 10.0 ** rng.uniform(0.0, 9.0)
            raw = rng.standard_normal((k + 1, n, n)) + 1j * rng.standard_normal((k + 1, n, n))
            stack = scale * hermitize(raw)
            W, Z, _ = project_blocks(stack[:k], stack[k], p_max, an_enabled)
            TransmitSolution(W=W, Z=Z, u=np.ones(1)).validate(p_max)


class TestProjectExact:
    def test_feasible_input_unchanged(self, rng):
        ch = random_channelset(rng)
        sol = random_solution(rng, ch, power=2.0)
        W, Z, _ = project_blocks(sol.W, sol.Z, 5.0, True)
        assert np.allclose(W, sol.W, atol=1e-12)
        assert np.allclose(Z, sol.Z, atol=1e-12)

    def test_eigenvalue_clip(self):
        w = np.diag([2.0, -1.0]).astype(complex)
        W, _, _ = project_blocks(w[None], np.zeros((2, 2), dtype=complex), 100.0, True)
        vals = np.linalg.eigvalsh(W[0])
        assert vals == pytest.approx([0.0, 2.0], abs=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           p_max=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_output_always_feasible(self, seed, p_max):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        W = np.stack([
            hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for _ in range(k)
        ])
        Z = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        W, Z, _ = project_blocks(W, Z, p_max, True)
        power = np.einsum("kii->", W).real + np.trace(Z).real
        assert power <= p_max * (1 + 1e-9) + 1e-12
        assert np.linalg.eigvalsh(W).min() >= -1e-12
        assert np.linalg.eigvalsh(Z).min() >= -1e-12

    def test_idempotent(self, rng):
        n = 3
        W = np.stack([hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                      for _ in range(2)])
        Z = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        once = project_blocks(W, Z, 2.0, True)
        twice = project_blocks(*once[:2], 2.0, True)
        assert np.allclose(twice[0], once[0], atol=1e-12)
        assert np.allclose(twice[1], once[1], atol=1e-12)


class TestSubproblemGradient:
    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            spec, start, _, _ = random_spec(rng)
            W = start.W * rng.uniform(0.2, 0.8)
            Z = start.Z * rng.uniform(0.2, 0.8)
            g_w, g_z = subproblem_gradient(spec, W, Z)
            h = 1e-6
            for r in range(spec.num_users):
                d = hermitize(rng.standard_normal(W[r].shape) + 1j * rng.standard_normal(W[r].shape))
                wp, wm = W.copy(), W.copy()
                wp[r] = W[r] + h * d
                wm[r] = W[r] - h * d
                fd = (subproblem_objective(spec, wp, Z) - subproblem_objective(spec, wm, Z)) / (2 * h)
                analytic = np.einsum("ij,ij->", np.conj(g_w[r]), d).real
                assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-10)
            d = hermitize(rng.standard_normal(Z.shape) + 1j * rng.standard_normal(Z.shape))
            fd = (subproblem_objective(spec, W, Z + h * d) - subproblem_objective(spec, W, Z - h * d)) / (2 * h)
            analytic = np.einsum("ij,ij->", np.conj(g_z), d).real
            assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-10)


class TestSolve:
    def test_zero_budget_returns_zero(self, rng):
        spec, start, _, u = random_spec(rng, p_max=4.0)
        spec_zero = replace(spec, p_max=0.0)
        zero = TransmitSolution(
            W=np.zeros_like(start.W), Z=np.zeros_like(start.Z), u=u
        )
        sol, report = solve(spec_zero, zero)
        assert np.allclose(sol.W, 0.0)
        assert np.allclose(sol.Z, 0.0)
        assert report.status == SolverStatus.CONVERGED

    def test_infeasible_start_rejected(self, rng):
        spec, start, _, u = random_spec(rng, p_max=1.0)
        hot = TransmitSolution(W=start.W * 10, Z=start.Z * 10, u=u)
        with pytest.raises(ValueError, match="infeasible"):
            solve(spec, hot)
        bad = TransmitSolution(
            W=np.stack([np.diag([0.5, -0.5, 0.0]).astype(complex)] * spec.num_users),
            Z=np.zeros_like(start.Z), u=u,
        )
        with pytest.raises(ValueError, match="infeasible"):
            solve(spec, bad)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("p_max", float("nan")),
            ("p_max", float("inf")),
            ("p_max", -1.0),
            ("noise_user", float("nan")),
            ("noise_user", float("inf")),
            ("noise_eve", float("nan")),
            ("noise_eve", 0.0),
        ],
    )
    def test_invalid_constants_rejected(self, rng, name, value):
        # NaN passed the "<= 0" tests, and a NaN or infinite budget ran all
        # 500 iterations to MAX_ITERS
        spec, _, _, _ = random_spec(rng)
        with pytest.raises(ValueError, match="finite"):
            replace(spec, **{name: value})

    def test_descent_on_random_specs(self, rng):
        for _ in range(100):
            spec, start, ch, u = random_spec(
                rng, k=int(rng.integers(1, 3)), n=int(rng.integers(1, 4)),
                p_max=float(rng.uniform(0.5, 6.0)),
            )
            sol, report = solve(spec, start, max_iters=200)
            q0 = metrics_style_objective(spec, start.W, start.Z, ch, u)
            q1 = metrics_style_objective(spec, sol.W, sol.Z, ch, u)
            assert q1 <= q0 + 1e-9 * (1 + abs(q0))
            assert report.power_slack >= -1e-9 * spec.p_max - 1e-12
            assert report.min_eigenvalue >= -1e-12

    def test_scalar_grid_oracle(self, rng):
        # 1e5-point grid over the (W, Z) triangle, 20 instances
        for _ in range(20):
            ch = random_channelset(rng, num_users=1, num_irs=1, num_bs=1)
            u = np.ones(1, dtype=complex)
            p = float(rng.uniform(1.0, 8.0))
            w0 = rng.uniform(0.05, 0.45) * p
            z0 = rng.uniform(0.05, 0.45) * p
            W0 = np.array([[[w0]]], dtype=complex)
            Z0 = np.array([[z0]], dtype=complex)
            spec = build_subproblem(W0, Z0, u, ch, p)
            sol, report = solve(spec, TransmitSolution(W=W0, Z=Z0, u=u))
            n = 317
            wg, zg = np.meshgrid(np.linspace(0, p, n), np.linspace(0, p, n))
            mask = wg + zg <= p
            a = spec.a_mats[0, 0, 0].real
            b = spec.b_mat[0, 0].real
            q = (
                -np.log2(a * (wg + zg) + spec.noise_user)
                - np.log2(b * zg + spec.noise_eve)
                - (spec.affine_const + spec.lin_w[0, 0, 0].real * wg + spec.lin_z[0, 0].real * zg)
            )
            q_grid = q[mask].min()
            assert abs(report.objective - q_grid) <= 1e-4 * (1 + abs(q_grid))

    def test_oracle_multistart_factorization(self, rng):
        # independent oracle: SLSQP over Cholesky-like factors, multi-start
        scipy_opt = pytest.importorskip("scipy.optimize")
        for trial in range(4):
            spec, start, _, _ = random_spec(rng, k=2, n=2, p_max=3.0)
            sol, report = solve(spec, start)
            k, n = spec.num_users, spec.a_mats.shape[1]

            def unpack(x):
                fac = x.reshape(k + 1, 2, n, n)
                mats = np.stack([
                    (fac[i, 0] + 1j * fac[i, 1]) @ (fac[i, 0] + 1j * fac[i, 1]).conj().T
                    for i in range(k + 1)
                ])
                return mats[:k], mats[k]

            def fun(x):
                W, Z = unpack(x)
                return subproblem_objective(spec, W, Z)

            def power_slack(x):
                W, Z = unpack(x)
                return spec.p_max - (np.einsum("kii->", W).real + np.trace(Z).real)

            best = np.inf
            for s in range(5):
                x0 = np.random.default_rng(1000 * trial + s).standard_normal(
                    (k + 1) * 2 * n * n
                ) * 0.4
                res = scipy_opt.minimize(
                    fun, x0, method="SLSQP",
                    constraints=[{"type": "ineq", "fun": power_slack}],
                    options={"maxiter": 400, "ftol": 1e-12},
                )
                if res.success:
                    best = min(best, res.fun)
            assert report.objective <= best + 1e-3 * (1 + abs(best))

    def test_no_an_mode_keeps_z_zero(self, rng):
        spec, start, _, u = random_spec(rng, an_enabled=False)
        sol, report = solve(spec, start)
        assert np.all(sol.Z == 0)
        assert report.status == SolverStatus.CONVERGED


class TestEntryAndExitSpectrum:
    def test_restart_from_converged_output_returns_it(self, rng, monkeypatch):
        # the first trial (step >= 1) doubles as the entry stationarity test
        original_project = convex_inner._project_exact
        calls = []

        def counting_project(*args):
            calls.append(1)
            return original_project(*args)

        for _ in range(30):
            spec, start, _, _ = random_spec(
                rng, k=int(rng.integers(1, 4)), n=int(rng.integers(1, 5)),
                p_max=float(10.0 ** rng.uniform(-2.0, 3.0)),
                an_enabled=bool(rng.integers(0, 2)),
            )
            sol, report = solve(spec, start)
            assert report.status == SolverStatus.CONVERGED
            monkeypatch.setattr(convex_inner, "_project_exact", counting_project)
            calls.clear()
            again, report2 = solve(spec, sol)
            monkeypatch.setattr(convex_inner, "_project_exact", original_project)
            assert report2.status == SolverStatus.CONVERGED
            assert len(calls) == 1
            assert np.array_equal(again.W, sol.W) and np.array_equal(again.Z, sol.Z)
            # ||X - P(X - t grad)|| at t >= 1 bounds the unit-step residual,
            # up to the eigendecomposition's rounding on the projected input
            g_w, g_z = reference_gradient(spec, again.W, again.Z)
            noise = 1e-12 * np.sqrt(
                np.linalg.norm(again.W - g_w) ** 2 + np.linalg.norm(again.Z - g_z) ** 2
            )
            assert report2.residual >= unit_step_residual(spec, again) - noise
            assert report2.residual <= 1e-6 * (1.0 + abs(report2.objective))

    def test_exit_eigenvalues_match_returned_stack(self, rng):
        for _ in range(40):
            an_enabled = bool(rng.integers(0, 2))
            spec, start, _, _ = random_spec(
                rng, k=int(rng.integers(1, 4)), n=int(rng.integers(1, 5)),
                p_max=float(10.0 ** rng.uniform(-3.0, 4.0)), an_enabled=an_enabled,
            )
            for max_iters in (1, 500):
                sol, report = solve(spec, start, max_iters=max_iters)
                stack = hermitize(np.concatenate([sol.W, sol.Z[None]]))
                assert report.eigenvalues.shape == stack.shape[:2]
                assert np.abs(report.eigenvalues - np.linalg.eigvalsh(stack)).max() <= (
                    1e-10 * spec.p_max
                )
                assert report.min_eigenvalue == report.eigenvalues.min()

    def test_run_sca_rank_residual_from_report(self, rng, monkeypatch):
        original_solve = convex_inner.solve
        outputs = []

        def recording_solve(spec, start, **kwargs):
            sol, report = original_solve(spec, start, **kwargs)
            outputs.append(sol.W)
            return sol, report

        monkeypatch.setattr(convex_inner, "solve", recording_solve)
        for _ in range(6):
            ch = random_channelset(rng, num_users=int(rng.integers(1, 4)), num_irs=4,
                                   num_bs=int(rng.integers(1, 5)))
            u = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            outputs.clear()
            _, history = run_sca(u, ch, p_max=float(10.0 ** rng.uniform(-1.0, 3.0)))
            assert len(outputs) == len(history.records) - 1
            for record, W in zip(history.records[1:], outputs):
                assert abs(record.rank_residual - max_rank_residual(W)) <= 1e-12


class TestStepSize:
    def test_huge_start_step_stays_feasible_and_descends(self, rng):
        for _ in range(40):
            an_enabled = bool(rng.integers(0, 2))
            p_max = float(10.0 ** rng.uniform(-2.0, 4.0))
            spec, start, ch, u = random_spec(
                rng, k=int(rng.integers(1, 4)), n=int(rng.integers(1, 5)),
                p_max=p_max, an_enabled=an_enabled,
            )
            sol, report = solve(spec, start, step_size=1e8)
            sol.validate(spec.p_max)
            q0 = subproblem_objective(spec, start.W, start.Z)
            assert report.objective <= q0 + 1e-9 * (1 + abs(q0))
            assert subproblem_objective(spec, sol.W, sol.Z) == report.objective
            assert report.status != SolverStatus.NUMERICAL_FAILURE
            assert 0.0 < report.step_size <= 1e8

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
        k=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=4),
        log_p_max=st.floats(min_value=-6.0, max_value=6.0),
        an_enabled=st.booleans(),
        log_step=st.floats(min_value=-3.0, max_value=9.0),
    )
    @settings(max_examples=60, deadline=None)
    @example(seed=1, k=4, n=1, log_p_max=-6.0, an_enabled=True, log_step=0.0)
    @example(seed=2, k=3, n=2, log_p_max=6.0, an_enabled=False, log_step=8.0)
    @example(seed=3, k=1, n=1, log_p_max=6.0, an_enabled=True, log_step=9.0)
    @example(seed=4, k=4, n=3, log_p_max=-6.0, an_enabled=False, log_step=-3.0)
    def test_properties_across_scales_and_shapes(
        self, seed, k, n, log_p_max, an_enabled, log_step
    ):
        # p_max from 1e-6 to 1e6 W, with and without AN, K > N_T and N_T = 1
        tol = 1e-6
        spec, start, _, _ = random_spec(
            np.random.default_rng(seed), k=k, n=n, p_max=10.0 ** log_p_max,
            an_enabled=an_enabled,
        )
        q0 = subproblem_objective(spec, hermitize(start.W), hermitize(start.Z))
        sol, report = solve(spec, start, tol=tol, step_size=10.0 ** log_step)
        assert report.objective <= q0
        assert subproblem_objective(spec, sol.W, sol.Z) == report.objective
        sol.validate(spec.p_max)
        assert 0.0 < report.step_size <= 1e8
        assert report.status != SolverStatus.NUMERICAL_FAILURE
        if report.status == SolverStatus.CONVERGED:
            assert unit_step_residual(spec, sol) <= 10 * tol * (
                1 + abs(report.objective)
            )

    def test_residual_hint_uses_the_step_that_moved(self, rng):
        # after one accepted step the reported residual is ||s|| / t for the
        # trial step t that produced s, whatever step the next trial takes
        for _ in range(20):
            spec, start, _, _ = random_spec(rng, k=int(rng.integers(1, 4)))
            sol, report = solve(spec, start, max_iters=1, step_size=1.0)
            assert report.status == SolverStatus.MAX_ITERS
            t = report.final_step_norm / report.residual
            assert t <= 1.0
            g_w, g_z = subproblem_gradient(spec, start.W, start.Z)
            W, Z, _ = project_blocks(
                start.W - t * g_w, start.Z - t * g_z, spec.p_max, spec.an_enabled
            )
            assert np.allclose(W, sol.W, rtol=0, atol=1e-12 * spec.p_max)
            assert np.allclose(Z, sol.Z, rtol=0, atol=1e-12 * spec.p_max)

    def test_unit_scale_steps_need_few_trials(self, rng, monkeypatch):
        # on unit-scale channels almost every Barzilai-Borwein step is below
        # 1; with a floor at a unit step these solves made 4-6 projections
        # (trials plus residual checks) per iteration, with the floor at
        # 1e-8 under 2
        original_project = convex_inner._project_exact
        original_solve = convex_inner.solve
        projections = []
        iterations = []

        def counting_project(*args):
            projections.append(1)
            return original_project(*args)

        def counting_solve(spec, start, **kwargs):
            sol, report = original_solve(spec, start, **kwargs)
            iterations.append(report.iterations)
            return sol, report

        monkeypatch.setattr(convex_inner, "_project_exact", counting_project)
        monkeypatch.setattr(convex_inner, "solve", counting_solve)
        for _ in range(4):
            ch = random_channelset(rng, num_users=2, num_irs=4, num_bs=4)
            u = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            run_sca(u, ch, p_max=float(rng.uniform(1.0, 8.0)))
        assert len(projections) <= 2.5 * sum(iterations)

    def test_tiny_start_step_does_not_fake_convergence(self, rng):
        # a start step far below 1 (say one collapsed by the backtracking of
        # an earlier solve and carried over) moves the point by less than
        # float noise; that must not read as stationarity while the
        # unit-step residual is still large
        tol = 1e-6
        for _ in range(20):
            spec, start, _, _ = random_spec(rng, k=int(rng.integers(1, 4)))
            q0 = subproblem_objective(spec, start.W, start.Z)
            assert unit_step_residual(spec, start) > tol * (1 + abs(q0))
            for step in (1e-18, 1e-6):
                sol, report = solve(spec, start, tol=tol, step_size=step)
                assert report.status != SolverStatus.NUMERICAL_FAILURE
                assert report.objective < q0
                if report.status == SolverStatus.CONVERGED:
                    assert unit_step_residual(spec, sol) <= 10 * tol * (
                        1 + abs(report.objective)
                    )
                # the start step is clamped up to a unit step
                _, unit = solve(spec, start, tol=tol, step_size=1.0)
                assert report == unit

    @pytest.mark.parametrize("rng_seed", [11, 12, 13, 14, 15])
    def test_carried_steps_need_no_more_iterations(self, monkeypatch, rng_seed):
        # on seeds 11-20 the carried run took 77-97% of the reset run's
        # iterations (Barzilai-Borwein steps leave the carry less to gain
        # than step doubling did), and never more
        cfg = ScenarioConfig(
            num_bs_antennas=8, num_irs_elements=4, num_users=2,
            p_max=dbm_to_watts(40.0), rng_seed=rng_seed,
        )
        ch = generate_scenario(cfg)
        original = convex_inner.solve

        def run(reset):
            iterations = []

            def counting_solve(spec, start, **kwargs):
                if reset:
                    kwargs["step_size"] = 1.0
                sol, report = original(spec, start, **kwargs)
                iterations.append(report.iterations)
                if report.status == SolverStatus.CONVERGED:
                    # same bound as solve's own float-stationarity exit, at the
                    # default tol=1e-6 that run_sca leaves in place
                    assert unit_step_residual(spec, sol) <= 10 * 1e-6 * (
                        1 + abs(report.objective)
                    )
                return sol, report

            monkeypatch.setattr(convex_inner, "solve", counting_solve)
            sol, history = optimize(ch, cfg)
            assert history.is_monotone(slack=1e-6)
            return sum(iterations), len(iterations), secrecy_rates(sol, ch).sum_secrecy

        carried, carried_solves, carried_rate = run(reset=False)
        reset, _, reset_rate = run(reset=True)
        assert carried_solves > 1
        assert carried <= reset
        # both runs stop at the same outer tolerance; measured gaps <= 2e-5
        assert abs(carried_rate - reset_rate) <= 1e-4 * abs(reset_rate)

    def test_carried_step_does_not_reach_the_cap(self, monkeypatch):
        # a draw with a slowly converging solve: a carried step under the
        # step-doubling rule ran it to the 500-iteration cap (646 inner
        # iterations in all); Barzilai-Borwein steps need 72, at most 18 a solve
        cfg = ScenarioConfig(
            num_bs_antennas=8, num_irs_elements=4, num_users=2,
            p_max=dbm_to_watts(40.0), rng_seed=derive_seed("inner_heavy", 2, 10),
        )
        ch = generate_scenario(cfg)
        original = convex_inner.solve
        statuses = []

        def recording_solve(spec, start, **kwargs):
            sol, report = original(spec, start, **kwargs)
            statuses.append(report.status)
            return sol, report

        monkeypatch.setattr(convex_inner, "solve", recording_solve)
        optimize(ch, cfg)
        assert len(statuses) > 1
        assert SolverStatus.MAX_ITERS not in statuses
