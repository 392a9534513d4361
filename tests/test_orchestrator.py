import numpy as np
import pytest
from dataclasses import replace

from irs_secrecy.channels import ChannelSet, generate_scenario, normalize
from irs_secrecy.config import ScenarioConfig, derive_seed
from irs_secrecy.metrics import secrecy_rates
from irs_secrecy import orchestrator
from irs_secrecy.orchestrator import baseline_no_an, baseline_random_phase, optimize
from irs_secrecy.sca import extract_rank_one
from irs_secrecy.solution import total_power
from tests.conftest import random_channelset


def small_config(seed, **kw):
    defaults = dict(
        num_users=2, num_bs_antennas=3, num_irs_elements=3, rng_seed=seed
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestOptimize:
    def test_single_outer_iteration_contract(self):
        cfg = small_config(1, max_outer_iters=1)
        ch = generate_scenario(cfg)
        sol, hist = optimize(ch, cfg)
        phases = [r.phase for r in hist.records]
        assert phases == ["init", "sca", "manifold"]

    def test_sca_record_matches_secrecy_rates(self):
        # the "sca" record is run_sca's last record, not a re-evaluation;
        # with one outer round the phases before the manifold step are u0.
        # N_T = 6 > K + 1, so the SCA phase runs in the span of the channels
        cfg = small_config(6, num_bs_antennas=6, max_outer_iters=1)
        ch = generate_scenario(cfg)
        u0 = np.exp(1j * np.random.default_rng(1).uniform(0, 2 * np.pi, cfg.num_irs_elements))
        sol, hist = optimize(ch, cfg, u_init=u0)
        record = hist.records[1]
        assert record.phase == "sca"
        rates = secrecy_rates(replace(sol, u=u0), normalize(ch))
        assert record.f == pytest.approx(rates.f, rel=1e-12)
        assert record.sum_secrecy == pytest.approx(rates.sum_secrecy, rel=1e-12)
        assert record.power_used == pytest.approx(total_power(sol.W, sol.Z), rel=1e-12)

    def test_monotone_history(self):
        for seed in range(15):
            cfg = small_config(seed)
            ch = generate_scenario(cfg)
            sol, hist = optimize(ch, cfg)
            assert hist.is_monotone(slack=1e-6), hist.f_trace()

    def test_final_solution_feasible_with_beamformers(self):
        cfg = small_config(3)
        ch = generate_scenario(cfg)
        sol, hist = optimize(ch, cfg)
        sol.validate(cfg.p_max)
        assert sol.w is not None
        assert max(extract_rank_one(W_k)[1] for W_k in sol.W) < 1e-6

    def test_custom_phase_init(self):
        cfg = small_config(4)
        ch = generate_scenario(cfg)
        rng = np.random.default_rng(0)
        u0 = np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.num_irs_elements))
        sol, hist = optimize(ch, cfg, u_init=u0)
        assert hist.is_monotone(slack=1e-6)
        with pytest.raises(ValueError):
            optimize(ch, cfg, u_init=np.ones(cfg.num_irs_elements + 1))

    @pytest.mark.parametrize("scheme", [optimize, baseline_no_an])
    @pytest.mark.parametrize("bad", ["nan", "inf", "off_circle", "zero"])
    def test_bad_phase_init_rejected_before_any_solve(self, monkeypatch, scheme, bad):
        # a NaN u_init failed as "SVD did not converge" inside the first SCA run
        cfg = small_config(4, num_bs_antennas=4, num_users=1)
        ch = generate_scenario(cfg)
        u0 = np.ones(cfg.num_irs_elements, dtype=complex)
        u0[1] = {"nan": np.nan, "inf": np.inf, "off_circle": 1.0 + 1e-6, "zero": 0.0}[bad]

        def no_solve(*args, **kwargs):
            raise AssertionError("solver called with a bad u_init")

        monkeypatch.setattr(orchestrator, "run_sca", no_solve)
        monkeypatch.setattr(orchestrator, "run_cg", no_solve)
        with pytest.raises(ValueError, match="u_init"):
            scheme(ch, cfg, u_init=u0)

    def test_handoff_feasibility(self):
        cfg = small_config(6)
        ch = generate_scenario(cfg)
        sol, hist = optimize(ch, cfg)
        assert total_power(sol.W, sol.Z) <= cfg.p_max * (1 + 1e-9)
        assert np.max(np.abs(np.abs(sol.u) - 1.0)) <= 1e-12


class TestNoiseUnits:
    @pytest.mark.parametrize("scheme", [optimize, baseline_no_an, baseline_random_phase])
    def test_bitwise_invariant_to_noise_units(self, scheme):
        # noise powers times 4^j and g, l times 2^j is exact in floating
        # point, and normalize maps both channel sets to the same bits; so
        # every scheme, which solves on normalized channels, gives the same bits
        for seed in range(6):
            cfg = small_config(seed)
            ch = generate_scenario(cfg)
            ref, ref_hist = scheme(ch, cfg)
            for j in (3, -5, 20):
                scaled = ChannelSet(
                    H=ch.H, g=ch.g * 2.0 ** j, l=ch.l * 2.0 ** j,
                    noise_user=ch.noise_user * 4.0 ** j, noise_eve=ch.noise_eve * 4.0 ** j,
                )
                sol, hist = scheme(scaled, cfg)
                for a, b in ((sol.W, ref.W), (sol.Z, ref.Z), (sol.u, ref.u)):
                    assert np.array_equal(a, b)
                assert np.array_equal(hist.f_trace(), ref_hist.f_trace())


class TestExtrapolation:
    @pytest.mark.parametrize("scheme", [optimize, baseline_no_an])
    def test_safeguard_on_random_channels(self, scheme):
        rng = np.random.default_rng(1207)
        cfg = ScenarioConfig(
            num_users=2, num_bs_antennas=3, num_irs_elements=6, p_max=1.0,
            max_outer_iters=6,
        )
        jumps = 0
        for _ in range(4):
            ch = random_channelset(rng, num_users=2, num_irs=6, num_bs=3)
            sol, hist = scheme(ch, cfg)
            assert hist.is_monotone(slack=1e-6), hist.f_trace()
            records = hist.records
            for i, rec in enumerate(records):
                if rec.phase != "extrapolate":
                    continue
                jumps += 1
                # kept only when strictly below the end of the last round,
                # and followed by that round's plain SCA and phase steps
                assert records[i - 1].phase == "manifold"
                assert rec.f < records[i - 1].f
                assert rec.iteration == records[i - 1].iteration + 1 >= 2
                assert [r.phase for r in records[i + 1:i + 3]] == ["sca", "manifold"]
                assert records[i + 2].iteration == rec.iteration
            sol.validate(cfg.p_max)
            if scheme is baseline_no_an:
                assert np.all(sol.Z == 0)
        assert jumps > 0

    def test_ladder_draw_reaches_converged_value(self):
        # at the default cap of 20 rounds the plain alternation stopped at
        # 10.876 on this draw; run to convergence it reaches 11.046
        cfg = ScenarioConfig(
            num_bs_antennas=8, num_irs_elements=32, num_users=4,
            rng_seed=derive_seed("ladder", 8, 32, 4),
        )
        ch = generate_scenario(cfg)
        sol, hist = optimize(ch, cfg)
        assert hist.is_monotone(slack=1e-6)
        assert secrecy_rates(sol, ch).sum_secrecy == pytest.approx(11.046, rel=1e-3)


class TestBaselineRandomPhase:
    def test_unit_modulus_and_seeded(self):
        cfg = small_config(7)
        ch = generate_scenario(cfg)
        sol_a, _ = baseline_random_phase(ch, cfg)
        sol_b, _ = baseline_random_phase(ch, cfg)
        assert np.max(np.abs(np.abs(sol_a.u) - 1.0)) <= 1e-12
        assert np.array_equal(sol_a.u, sol_b.u)
        other = replace(cfg, rng_seed=8)
        sol_c, _ = baseline_random_phase(ch, other)
        assert not np.array_equal(sol_a.u, sol_c.u)

    def test_phases_never_optimized(self):
        cfg = small_config(9)
        ch = generate_scenario(cfg)
        sol, hist = baseline_random_phase(ch, cfg)
        assert all(r.phase == "sca" for r in hist.records)
        assert hist.is_monotone(slack=1e-6)


class TestBaselineNoAn:
    def test_z_exactly_zero(self):
        cfg = small_config(10)
        ch = generate_scenario(cfg)
        sol, hist = baseline_no_an(ch, cfg)
        assert np.all(sol.Z == 0)
        assert total_power(sol.W, sol.Z) <= cfg.p_max * (1 + 1e-9)
        assert hist.is_monotone(slack=1e-6)

    def test_z_exactly_zero_with_span_reduction(self):
        # test_z_exactly_zero has K + 1 = N_T, so each SCA loop solves in the
        # full space; here K + 1 < N_T and it solves in the channels' span.
        # Both run at 40 dBm, the default p_max
        cfg = small_config(10, num_bs_antennas=6)
        sol, hist = baseline_no_an(generate_scenario(cfg), cfg)
        assert np.all(sol.Z == 0)
        assert hist.is_monotone(slack=1e-6)

    def test_full_power_in_beams(self):
        cfg = small_config(11)
        ch = generate_scenario(cfg)
        sol, _ = baseline_no_an(ch, cfg)
        assert total_power(sol.W, sol.Z) == pytest.approx(
            float(np.einsum("kii->", sol.W).real), rel=1e-12
        )


class TestSchemeOrdering:
    def test_proposed_not_worse_than_baselines_on_average(self):
        # small paired batch; the acceptance suite runs the full-size version
        vals = {"proposed": [], "baseline1": [], "baseline2": []}
        for seed in range(8):
            cfg = small_config(seed, num_irs_elements=4)
            ch = generate_scenario(cfg)
            for name, fn in (
                ("proposed", optimize),
                ("baseline1", baseline_random_phase),
                ("baseline2", baseline_no_an),
            ):
                sol, _ = fn(ch, cfg)
                vals[name].append(secrecy_rates(sol, ch).sum_secrecy)
        mean = {k: np.mean(v) for k, v in vals.items()}
        assert mean["proposed"] >= mean["baseline1"] - 1e-9
        assert mean["proposed"] >= mean["baseline2"] - 1e-3
