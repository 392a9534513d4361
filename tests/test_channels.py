import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irs_secrecy.channels import (
    ChannelSet,
    generate_scenario,
    normalize,
    path_loss_gain,
    user_positions,
    SECTOR_APERTURE,
    SECTOR_INNER_RADIUS,
)
from irs_secrecy.config import ScenarioConfig, dbm_to_watts
from irs_secrecy.metrics import secrecy_rates
from tests.conftest import random_solution


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss_gain(1.0, 2.2, 30.0) == pytest.approx(1e-3)

    def test_closed_form_at_100m(self):
        # hand evaluation: 10^(-(30 + 22*log10(100))/10) = 10^(-7.4)
        assert path_loss_gain(100.0, 2.2, 30.0) == pytest.approx(10 ** -7.4)

    def test_rejects_nonpositive_distance(self):
        cfg = ScenarioConfig()
        with pytest.raises(ValueError):
            path_loss_gain(0.0, cfg.pl_exp_irs_user, cfg.pl0_db)
        with pytest.raises(ValueError):
            path_loss_gain(-3.0, cfg.pl_exp_irs_eve, cfg.pl0_db)

    @given(
        d=st.floats(min_value=1.0, max_value=1e4),
        step=st.floats(min_value=1e-3, max_value=1e3),
        alpha=st.sampled_from([2.2, 2.8]),  # the default exponents
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing(self, d, step, alpha):
        assert path_loss_gain(d, alpha, 30.0) > path_loss_gain(d + step, alpha, 30.0)


class TestScenarioConfig:
    def test_table_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.p_max == pytest.approx(dbm_to_watts(40.0))
        assert cfg.noise_user == pytest.approx(1e-14)
        assert cfg.noise_eve == pytest.approx(1e-14)
        assert cfg.tol_outer == 1e-3
        assert cfg.tol_manifold == 1e-3

    def test_dbm_round_trip(self):
        assert dbm_to_watts(-110.0) == pytest.approx(1e-14)
        assert 10.0 * math.log10(dbm_to_watts(40.0) * 1000.0) == pytest.approx(40.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_users", 0),
            ("num_bs_antennas", 1),
            ("num_irs_elements", 0),
            ("p_max", 0.0),
            ("noise_user", -1e-14),
            ("cell_radius", 0.0),
            # NaN passed every "<= 0" check and failed later, in the solvers
            ("noise_user", float("nan")),
            ("p_max", float("inf")),
            ("r_re", float("nan")),
            ("num_users", float("nan")),
            ("tol_outer", float("nan")),
            ("tol_manifold", 0.0),
            ("tol_outer", -1e-3),
            # rng_seed 1.0 drew other channels than 1, and True reached numpy
            # as a user count
            ("rng_seed", 1.0),
            ("num_users", True),
            ("num_bs_antennas", 4.0),
            ("num_irs_elements", "4"),
            ("max_outer_iters", 20.0),
            ("sca_max_iters", False),
            # the type check reads every field's annotation
            ("rng_seed", True),
            ("bs_irs_distance", "50"),
            # True was accepted as 1 W, and "10" failed inside a comparison
            ("p_max", True),
            ("noise_user", True),
            ("noise_eve", False),
            ("p_max", "10"),
            ("cell_radius", None),
            ("pl0_db", [30.0]),
            ("tol_outer", 1e-3j),
            # below the user sector's inner radius, the user draw failed in numpy
            ("cell_radius", 10.0),
            # an int beyond the float range raised an OverflowError naming no field
            pytest.param("p_max", 10 ** 400, id="p_max-10**400"),
            pytest.param("cell_radius", 10 ** 400, id="cell_radius-10**400"),
            pytest.param("tol_outer", -(10 ** 400), id="tol_outer--10**400"),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            ScenarioConfig(**{field: value})

    def test_float_fields_take_ints_and_numpy_floats(self):
        cfg = ScenarioConfig(p_max=10, noise_user=np.float64(1e-14), pl_exp_bs_irs=2)
        assert cfg.p_max == 10 and cfg.noise_user == 1e-14

    def test_cell_radius_may_equal_the_sector_inner_radius(self):
        cfg = ScenarioConfig(cell_radius=SECTOR_INNER_RADIUS)
        radii = np.linalg.norm(user_positions(cfg, np.random.default_rng(0)), axis=1)
        assert np.allclose(radii, SECTOR_INNER_RADIUS)

    def test_integer_spelling_gives_the_same_channel_hash(self):
        # the same channels hashed differently: content_hash hashes repr(1) or repr(1.0)
        ints = ScenarioConfig(noise_user=1, noise_eve=1)
        floats = ScenarioConfig(noise_user=1.0, noise_eve=1.0)
        assert ints == floats
        assert all(type(getattr(ints, f)) is float for f in ("noise_user", "noise_eve", "p_max"))
        assert generate_scenario(ints).content_hash() == generate_scenario(floats).content_hash()

    def test_json_round_trip(self):
        cfg = ScenarioConfig(num_users=2, rng_seed=99, r_re=310.0)
        again = ScenarioConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            ScenarioConfig.from_json(json.dumps({"num_userz": 3}))

    def test_removed_r_be_is_unknown(self):
        # the BS-eavesdropper distance entered no channel: the direct links are blocked
        with pytest.raises(ValueError, match=r"unknown scenario config fields: \['r_be'\]"):
            ScenarioConfig.from_json('{"r_be": 200.0}')


class TestGenerateScenario:
    def test_same_seed_bit_identical(self):
        cfg = ScenarioConfig(rng_seed=123)
        a = generate_scenario(cfg)
        b = generate_scenario(cfg)
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.l, b.l)
        assert a.content_hash() == b.content_hash()

    def test_different_seed_differs(self):
        a = generate_scenario(ScenarioConfig(rng_seed=1))
        b = generate_scenario(ScenarioConfig(rng_seed=2))
        assert not np.array_equal(a.H, b.H)

    @given(
        k=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=1, max_value=6),
        nt=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_dimensions_consistent(self, k, m, nt, seed):
        cfg = ScenarioConfig(
            num_users=k, num_irs_elements=m, num_bs_antennas=nt, rng_seed=seed
        )
        ch = generate_scenario(cfg)
        assert ch.H.shape == (m, nt)
        assert ch.g.shape == (k, m)
        assert ch.l.shape == (m,)
        assert ch.G.shape == (k, m, nt)
        assert ch.L.shape == (m, nt)

    def test_effective_channel_identities(self, rng):
        ch = generate_scenario(ScenarioConfig(rng_seed=5))
        for k in range(ch.num_users):
            expected = np.diag(np.conj(ch.g[k])) @ ch.H
            assert np.allclose(ch.G[k], expected, atol=1e-16)
        assert np.allclose(ch.L, np.diag(np.conj(ch.l)) @ ch.H, atol=1e-16)

    def test_entry_variance_matches_path_loss(self):
        # 10^4 H entries: Monte-Carlo second moment within 5% of the gain
        cfg = ScenarioConfig(
            num_irs_elements=50, num_bs_antennas=20, rng_seed=77, num_users=1
        )
        draws = [generate_scenario(ScenarioConfig(
            num_irs_elements=50, num_bs_antennas=20, rng_seed=77 + i, num_users=1
        )) for i in range(10)]
        samples = np.concatenate([ch.H.ravel() for ch in draws])
        assert samples.size == 10 ** 4
        gain = path_loss_gain(cfg.bs_irs_distance, cfg.pl_exp_bs_irs, cfg.pl0_db)
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(gain, rel=0.05)

    def test_user_positions_inside_sector(self, rng):
        cfg = ScenarioConfig(num_users=200, rng_seed=3)
        pos = user_positions(cfg, np.random.default_rng(3))
        radii = np.linalg.norm(pos, axis=1)
        angles = np.arctan2(pos[:, 1], pos[:, 0])
        assert np.all(radii >= SECTOR_INNER_RADIUS - 1e-9)
        assert np.all(radii <= cfg.cell_radius + 1e-9)
        assert np.all(np.abs(angles) <= SECTOR_APERTURE / 2 + 1e-9)

    def test_immutability(self):
        ch = generate_scenario(ScenarioConfig(rng_seed=4))
        with pytest.raises(ValueError):
            ch.H[0, 0] = 0.0


class TestNormalize:
    def test_identity_on_unit_noise(self, rng):
        from tests.conftest import random_channelset

        ch = random_channelset(rng)
        assert normalize(ch) is ch

    def test_noise_becomes_one(self):
        ch = generate_scenario(ScenarioConfig(rng_seed=11))
        out = normalize(ch)
        assert out.noise_user == 1.0
        assert out.noise_eve == 1.0
        assert np.allclose(out.g, ch.g / np.sqrt(ch.noise_user))
        assert np.allclose(out.l, ch.l / np.sqrt(ch.noise_eve))
        assert np.array_equal(out.H, ch.H)

    def test_rates_invariant(self, rng):
        ch = generate_scenario(ScenarioConfig(rng_seed=12, num_users=2))
        out = normalize(ch)
        sol = random_solution(rng, ch, power=5.0)
        raw = secrecy_rates(sol, ch)
        nrm = secrecy_rates(sol, out)
        np.testing.assert_allclose(nrm.gamma, raw.gamma, rtol=1e-9)
        assert nrm.sum_secrecy == pytest.approx(raw.sum_secrecy, rel=1e-9, abs=1e-12)
        assert nrm.f == pytest.approx(raw.f, rel=1e-9, abs=1e-9)


class TestChannelSetSerialization:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ChannelSet(
                H=np.ones((3, 2)),
                g=np.ones((1, 4)),
                l=np.ones(3),
                noise_user=1.0,
                noise_eve=1.0,
            )
        with pytest.raises(ValueError):
            ChannelSet(
                H=np.ones((3, 2)),
                g=np.ones((1, 3)),
                l=np.ones(3),
                noise_user=0.0,
                noise_eve=1.0,
            )
        # NaN fails a "<= 0" test, and inf is no noise power either
        for noise_user, noise_eve in ((float("nan"), 1.0), (1.0, float("inf"))):
            with pytest.raises(ValueError, match="positive and finite"):
                ChannelSet(
                    H=np.ones((3, 2)),
                    g=np.ones((1, 3)),
                    l=np.ones(3),
                    noise_user=noise_user,
                    noise_eve=noise_eve,
                )

    @pytest.mark.parametrize(
        "name,shapes",
        [
            ("K", ((3, 2), (0, 3), 3)),
            ("M", ((0, 2), (1, 0), 0)),
            ("N_T", ((3, 0), (1, 3), 3)),
        ],
        ids=["K", "M", "N_T"],
    )
    def test_empty_dimension_rejected(self, name, shapes):
        # each passed, and optimize and baseline_random_phase then failed
        # deep inside the solvers (empty argmax, IndexError, ZeroDivisionError)
        h, g, l = (np.ones(shape) for shape in shapes)
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
            ChannelSet(H=h, g=g, l=l, noise_user=1.0, noise_eve=1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["H", "g", "l"])
    def test_non_finite_channels_rejected(self, name, bad):
        # one inf entry in H hung optimize inside an SVD; NaN failed there
        arrays = {"H": np.ones((3, 2)), "g": np.ones((1, 3)), "l": np.ones(3)}
        arrays[name].flat[1] = bad
        with pytest.raises(ValueError, match=f"^{name} has a non-finite entry$"):
            ChannelSet(**arrays, noise_user=1.0, noise_eve=1.0)

    @pytest.mark.parametrize("field,value", [("pl0_db", -4000.0), ("pl_exp_bs_irs", -1000.0)])
    def test_overflowing_path_loss_rejected(self, field, value):
        # a valid config whose path-loss gain overflows drew inf channels;
        # numpy warns, as it does outside the tests, and the draw is rejected
        cfg = ScenarioConfig(**{field: value})
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="^H has a non-finite entry$"):
                generate_scenario(cfg)
