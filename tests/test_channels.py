from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdiscc.channels import draw_channels, path_loss, steering_vector
from fdiscc.config import GeometryConfig, PathLossConfig, db2lin, desk_config


class TestSteeringVector:
    def test_first_entry_is_one(self):
        v = steering_vector(np.radians(40.0), 1)
        assert v.shape == (1,)
        assert v[0] == pytest.approx(1.0)

    def test_broadside_all_ones(self):
        assert np.allclose(steering_vector(0.0, 4), np.ones(4))

    def test_endfire_alternates(self):
        v = steering_vector(np.pi / 2, 3)
        assert np.allclose(v, [1.0, -1.0, 1.0], atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            steering_vector(0.3, 0)

    @given(theta=st.floats(-np.pi, np.pi), n=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_unit_modulus(self, theta, n):
        assert np.allclose(np.abs(steering_vector(theta, n)), 1.0)


class TestPathLoss:
    def test_reference_value(self):
        # -30 dB at 1 m regardless of exponent
        assert path_loss(1.0, 2.2) == pytest.approx(1e-3)

    def test_reference_distance_gives_lambda(self):
        for eta in (2.0, 2.5, 3.9):
            assert path_loss(1.0, eta, lambda_linear=5e-4) == pytest.approx(5e-4)

    def test_hand_value(self):
        assert path_loss(10.0, 2.0) == pytest.approx(1e-5)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_loss(0.0, 2.0)
        with pytest.raises(ValueError):
            path_loss(-1.0, 2.0)

    @given(st.floats(0.5, 100.0), st.floats(1.5, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_positive_and_decreasing(self, d, eta):
        assert path_loss(d, eta) > 0
        assert path_loss(d * 2, eta) < path_loss(d, eta)


class TestDrawChannels:
    def test_deterministic_under_seed(self, small_cfg):
        a = draw_channels(small_cfg)
        b = draw_channels(small_cfg)
        for name in ("g_t", "g_r", "h_pu", "g_pu", "g_au", "e_direct", "h_si", "g_s"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_shapes(self, small_cfg, small_ch):
        c, ch = small_cfg, small_ch
        assert ch.g_t.shape == (c.m_passive, c.n_tx)
        assert ch.g_r.shape == (c.m_passive, c.n_rx)
        assert ch.h_pu.shape == (c.n_cm, c.m_passive)
        assert ch.g_pu.shape == (c.n_cp, c.m_passive)
        assert ch.g_au.shape == (c.n_cp, c.m_active)
        assert ch.e_direct.shape == (c.n_cp, c.n_cm)
        assert ch.h_si.shape == (c.n_rx, c.n_tx)
        assert ch.g_s.shape == (c.m_active, c.m_passive)

    def test_si_modulus_exact(self, small_cfg, small_ch):
        target = np.sqrt(db2lin(small_cfg.si_power_db))
        assert np.allclose(np.abs(small_ch.h_si), target, rtol=0, atol=1e-18)

    def test_target_response_rank_one(self, small_cfg, small_ch):
        ch = small_ch
        rebuilt = small_cfg.target_reflection() * np.outer(ch.a_active, ch.a_passive.conj())
        assert np.array_equal(ch.g_s, rebuilt)
        s = np.linalg.svd(ch.g_s, compute_uv=False)
        assert s[1] <= 1e-12 * s[0]

    def test_steering_vectors_unit_modulus(self, small_ch):
        assert np.allclose(np.abs(small_ch.a_active), 1.0)
        assert np.allclose(np.abs(small_ch.a_passive), 1.0)

    def test_geometry_matches_positions(self, small_cfg, small_ch):
        geo = small_cfg.geometry
        assert np.all(small_ch.cm_pos[:, 0] >= geo.user_x_range[0])
        assert np.all(small_ch.cm_pos[:, 0] <= geo.user_x_range[1])
        assert np.all(small_ch.cp_pos[:, 1] >= geo.user_y_range[0])
        assert np.all(small_ch.cp_pos[:, 1] <= geo.user_y_range[1])

    def test_rician_mean_power_matches_path_loss(self):
        # BS-IRS matrix entries share one path loss; average |entry|^2 over
        # many seeds must land on it within 5%
        cfg = desk_config(m_passive=16, seed=0)
        plc, geo = cfg.pathloss, cfg.geometry
        d = np.hypot(geo.bs_pos[0] - geo.irs_pos[0], geo.bs_pos[1] - geo.irs_pos[1])
        pl = path_loss(d, plc.eta_br, plc.lambda_linear, plc.d0_m)
        acc = []
        for seed in range(250):
            ch = draw_channels(replace(cfg, seed=seed))
            acc.append(np.abs(ch.g_t) ** 2)
        mean_power = float(np.mean(acc))
        assert mean_power == pytest.approx(pl, rel=0.05)

    def test_rayleigh_direct_link_variance(self):
        # normalize each CP->CM entry by its pairwise path loss; the scaled
        # magnitudes-squared must average to 1 within 3% over >= 1e5 draws
        cfg = desk_config(m_passive=2, m_active=2, n_tx=2, n_rx=2,
                          n_cm=25, n_cp=25, seed=0)
        plc = cfg.pathloss
        samples = []
        for seed in range(170):
            ch = draw_channels(replace(cfg, seed=seed))
            d = np.linalg.norm(ch.cp_pos[:, None, :] - ch.cm_pos[None, :, :], axis=2)
            d = np.maximum(d, plc.d0_m)
            pl = plc.lambda_linear * (d / plc.d0_m) ** (-plc.eta_mp)
            samples.append(np.abs(ch.e_direct) ** 2 / pl)
        samples = np.concatenate([s.ravel() for s in samples])
        assert samples.size >= 1e5
        assert float(samples.mean()) == pytest.approx(1.0, rel=0.03)

    @pytest.mark.parametrize("changes", [
        {"geometry": GeometryConfig(target_distance_m=10.0)},
        {"pathloss": PathLossConfig(eta_rt=3.0)},
    ], ids=["geometry", "pathloss"])
    def test_target_response_follows_a_replace(self, changes):
        # the derived reflection coefficient is computed on read, so a replace
        # of what it derives from gives the channels of a direct build
        replaced = draw_channels(replace(desk_config(), **changes))
        direct = draw_channels(desk_config(**changes))
        assert np.array_equal(replaced.g_s, direct.g_s)

    def test_no_users_supported(self):
        cfg = desk_config(m_passive=4, m_active=2, n_cm=0, n_cp=0)
        ch = draw_channels(cfg)
        assert ch.h_pu.shape == (0, 4)
        assert ch.e_direct.shape == (0, 0)
