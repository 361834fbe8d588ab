"""Tests for preamble-stage estimation: noise statistics, channel, IQ mismatch, completion."""

import logging

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from conftest import make_channel, owned_channel_columns, transmit_preamble
from ofdmlink import estimation
from ofdmlink.estimation import (
    EstimationError,
    _mixing_det,
    _nearest_knots,
    estimate_iq_params,
    estimate_noise_ici_corr,
    estimate_preamble,
    demix_channel,
    interpolate_channel,
    iterative_refine,
    refine_iq_channel,
)
from ofdmlink.framing import build_preamble, build_subcarrier_map
from ofdmlink.impairments import IqParams
from ofdmlink.numerics import RandomSource, logical_to_bin


class TestNoiseIciCorrelation:
    def test_zero_samples_zero_matrix(self):
        psi = estimate_noise_ici_corr(np.zeros((10, 2), dtype=complex))
        np.testing.assert_array_equal(psi, np.zeros((2, 2)))

    def test_single_sample_rank_one(self):
        x = np.array([[1 + 1j, 2 - 1j]])
        psi = estimate_noise_ici_corr(x)
        np.testing.assert_allclose(psi, np.outer(x[0], np.conj(x[0])))
        assert np.linalg.matrix_rank(psi) == 1

    def test_awgn_consistency_600_samples(self):
        rng = RandomSource(61).child("psi")
        x = rng.complex_normal(var=0.1, size=(600, 2))
        psi = estimate_noise_ici_corr(x)
        err = np.linalg.norm(psi - 0.1 * np.eye(2)) / (0.1 * np.sqrt(2))
        assert err < 0.15

    def test_unbiased_large_sample(self):
        rng = RandomSource(62).child("psi")
        x = rng.complex_normal(var=1.0, size=(100_000, 2))
        psi = estimate_noise_ici_corr(x)
        np.testing.assert_allclose(psi, np.eye(2), atol=0.02)

    def test_hermitian_psd(self):
        rng = RandomSource(63).child("psi")
        x = rng.complex_normal(var=1.0, size=(50, 3))
        psi = estimate_noise_ici_corr(x)
        np.testing.assert_allclose(psi, psi.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(psi).min() > -1e-12

    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            estimate_noise_ici_corr(np.zeros((0, 2), dtype=complex))


class TestPreambleEstimation:
    def test_clean_channel_recovered_exactly(self, smap64):
        ch = make_channel(seed=71)
        pre = build_preamble(2, smap64)
        psi1, psi2 = transmit_preamble(ch, pre)
        est = estimate_preamble(psi1, psi2, pre)
        truth = owned_channel_columns(ch, pre)
        assert np.abs(est.e - truth).max() < 1e-12
        assert np.abs(est.ls - truth).max() < 1e-12  # the first symbol alone

    def test_iq_mixing_cancels_exactly(self, smap64):
        # The non-inverting combination removes the mismatch coefficients
        # from the channel estimate entirely.
        ch = make_channel(seed=72)
        pre = build_preamble(2, smap64)
        iq = IqParams.uniform(2, 5.0, 10.0)
        psi1, psi2 = transmit_preamble(ch, pre, iq=iq)
        est = estimate_preamble(psi1, psi2, pre)
        truth = owned_channel_columns(ch, pre)
        assert np.abs(est.e - truth).max() < 1e-9

    def test_purely_imaginary_residual_under_cpe_difference(self, smap64):
        # Inject a constant per-branch offset on the second symbol's
        # effective channel; the residual must be bin-independent and
        # purely imaginary, whatever the mismatch.
        ch = make_channel(seed=73)
        pre = build_preamble(2, smap64)
        iq = IqParams.uniform(2, 5.0, 10.0)
        k1, k2 = iq.k1, iq.k2
        delta = np.array([0.11 - 0.23j, -0.05 + 0.17j])
        n = 64
        used_b = logical_to_bin(pre.used, n)
        h_cols = owned_channel_columns(ch, pre)
        hm_cols = np.conj(h_cols[::-1])
        psi1 = np.zeros((n, 2), dtype=complex)
        psi2 = np.zeros((n, 2), dtype=complex)
        lam1m = np.conj(pre.lambda1[::-1])
        lam2m = np.conj(pre.lambda2[::-1])
        psi1[used_b] = k1 * pre.lambda1[:, None] * h_cols + k2 * lam1m[:, None] * hm_cols
        psi2[used_b] = (
            k1 * pre.lambda2[:, None] * (h_cols + delta)
            + k2 * lam2m[:, None] * (hm_cols + np.conj(delta))
        )
        est = estimate_preamble(psi1, psi2, pre)
        residual = est.e - h_cols
        assert np.abs(residual.real).max() < 1e-9
        spread = np.abs(residual - residual.mean(axis=0)).max()
        assert spread < 1e-9
        np.testing.assert_allclose(residual.mean(axis=0), 1j * delta.imag, atol=1e-9)

    def test_mismatch_estimate_exact_noiseless(self, smap64):
        ch = make_channel(seed=74)
        pre = build_preamble(2, smap64)
        iq = IqParams.uniform(2, 5.0, 10.0)
        psi1, psi2 = transmit_preamble(ch, pre, iq=iq)
        est = estimate_preamble(psi1, psi2, pre)
        got = estimate_iq_params(est.chi_a, est.e, pre.owner)
        np.testing.assert_allclose(np.abs(got), [1.1, 1.1], atol=1e-9)
        np.testing.assert_allclose(-np.angle(got), np.deg2rad([5.0, 5.0]), atol=1e-9)
        k1 = (1.0 + got) / 2.0
        np.testing.assert_allclose(k1, iq.k1, atol=1e-9)
        np.testing.assert_allclose(1.0 - np.conj(k1), iq.k2, atol=1e-9)

    def test_no_mismatch_estimates_identity(self, smap64):
        ch = make_channel(seed=75)
        pre = build_preamble(2, smap64)
        psi1, psi2 = transmit_preamble(ch, pre)
        est = estimate_preamble(psi1, psi2, pre)
        got = estimate_iq_params(est.chi_a, est.e, pre.owner)
        np.testing.assert_allclose(np.abs(got), 1.0, atol=1e-9)
        np.testing.assert_allclose(-np.angle(got), 0.0, atol=1e-9)

    def test_per_pair_product_constant_noiseless(self, smap64):
        ch = make_channel(seed=76)
        pre = build_preamble(2, smap64)
        iq = IqParams.uniform(2, 5.0, 10.0)
        psi1, psi2 = transmit_preamble(ch, pre, iq=iq)
        est = estimate_preamble(psi1, psi2, pre)
        alpha = est.e[:-1] - est.e[1:]
        beta = est.chi_a[:-1] - est.chi_a[1:]
        ratios = 2 * beta / alpha - 1
        g_true = iq.eps * np.exp(-1j * iq.theta)
        np.testing.assert_allclose(
            ratios, np.broadcast_to(g_true, ratios.shape), atol=1e-9
        )

    def test_degenerate_pairs_refused(self, smap64):
        # a frame without a usable pair gets NaN; the other frames of the stack do not
        ch = make_channel(seed=74)
        pre = build_preamble(2, smap64)
        iq = IqParams.uniform(2, 5.0, 10.0)
        est = estimate_preamble(*transmit_preamble(ch, pre, iq=iq), pre)
        flat = np.ones((52, 2), dtype=complex)
        got = estimate_iq_params(np.stack([flat, est.chi_a]), np.stack([flat, est.e]), pre.owner)
        assert np.isnan(got[0]).all()
        np.testing.assert_array_equal(got[1], estimate_iq_params(est.chi_a, est.e, pre.owner))
        assert np.isnan(estimate_iq_params(flat, flat, pre.owner)).all()


class TestRefinement:
    def _synthetic_cpe_difference(self, smap64, seed, theta1, theta2, iq):
        # Exact no-noise grids with branch common phases theta1/theta2 on
        # the two long symbols.
        ch = make_channel(seed=seed)
        pre = build_preamble(2, smap64)
        n = 64
        used_b = logical_to_bin(pre.used, n)
        h_cols = owned_channel_columns(ch, pre)
        psi1 = np.zeros((n, 2), dtype=complex)
        psi2 = np.zeros((n, 2), dtype=complex)
        lam1m = np.conj(pre.lambda1[::-1])
        lam2m = np.conj(pre.lambda2[::-1])
        h1 = h_cols * theta1[None, :]
        h2 = h_cols * theta2[None, :]
        psi1[used_b] = iq.k1 * pre.lambda1[:, None] * h1 + iq.k2 * lam1m[:, None] * np.conj(h1[::-1])
        psi2[used_b] = iq.k1 * pre.lambda2[:, None] * h2 + iq.k2 * lam2m[:, None] * np.conj(h2[::-1])
        return ch, pre, estimate_preamble(psi1, psi2, pre), h_cols

    def test_demix_recovers_clean_channel(self, smap64):
        theta1 = np.exp(1j * np.array([0.4, -0.2]))
        theta2 = np.exp(1j * np.array([-0.1, 0.3]))
        iq = IqParams.uniform(2, 5.0, 10.0)
        ch, pre, est, h_cols = self._synthetic_cpe_difference(smap64, 81, theta1, theta2, iq)
        u = demix_channel(est, iq.k1)
        expected = h_cols * ((theta1 + theta2) / 2)[None, :]
        assert np.abs(u - expected).max() < 1e-10

    def test_refinement_beats_plain_under_cpe_difference(self, smap64, monkeypatch):
        monkeypatch.setattr(estimation, "REFINE_IQ_ITERS", 30)
        theta1 = np.exp(1j * np.array([0.35, -0.15]))
        theta2 = np.exp(1j * np.array([-0.05, 0.25]))
        iq = IqParams.uniform(2, 5.0, 10.0)
        _, pre, est, _ = self._synthetic_cpe_difference(smap64, 82, theta1, theta2, iq)
        g_true = iq.eps * np.exp(-1j * iq.theta)
        plain = estimate_iq_params(est.chi_a, est.e, pre.owner)
        refined = refine_iq_channel(est, pre.owner, plain, np.zeros((2, 2)))
        err_plain = np.abs(plain - g_true).max()
        err_refined = np.abs(refined - g_true).max()
        assert err_plain > 1e-3  # the leakage visibly pollutes the one-shot estimate
        assert err_refined < 1e-6  # alternating de-mixing converges to the truth

    def test_refinement_preserves_noiseless_exactness(self, smap64):
        ch = make_channel(seed=83)
        pre = build_preamble(2, smap64)
        iq = IqParams.uniform(2, 5.0, 10.0)
        psi1, psi2 = transmit_preamble(ch, pre, iq=iq)
        est = estimate_preamble(psi1, psi2, pre)
        plain = estimate_iq_params(est.chi_a, est.e, pre.owner)
        refined = refine_iq_channel(est, pre.owner, plain, np.zeros((2, 2)))
        g_true = iq.eps * np.exp(-1j * iq.theta)
        np.testing.assert_allclose(refined, g_true, atol=1e-9)
        u = demix_channel(est, (1.0 + refined) / 2.0)
        np.testing.assert_allclose(u, owned_channel_columns(ch, pre), atol=1e-9)

    def test_unseparable_final_estimate_refused(self, smap64, monkeypatch):
        # Re(g) = |K1|^2 - |K2|^2 below 0.1 cannot de-mix the image, so the
        # estimate is refused (NaN) even when no iteration runs.
        ch = make_channel(seed=84)
        pre = build_preamble(2, smap64)
        est = estimate_preamble(*transmit_preamble(ch, pre), pre)
        monkeypatch.setattr(estimation, "REFINE_IQ_ITERS", 0)
        got = refine_iq_channel(est, pre.owner, np.array([0.05 + 1.1j, 1.0]), np.zeros((2, 2)))
        assert np.isnan(got).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0), complex(1.0, np.inf)])
    def test_non_finite_mismatch_cannot_separate(self, bad):
        # |nan| < 0.1 is False, so a plain threshold test let NaN through
        _, separable = _mixing_det(np.array([bad, 1.5 + 0j]))
        assert not separable
        _, separable = _mixing_det(np.array([[1.5 + 0j, 1.5 + 0j], [1.5 + 0j, bad]]))
        np.testing.assert_array_equal(separable, [True, False])

    def test_refinement_refuses_a_non_finite_leakage_fit(self, smap64):
        # All-zero long symbols give sum |um|^2 = 0 in the leakage fit, so g is NaN
        pre = build_preamble(2, smap64)
        zero = np.zeros((64, 2), dtype=complex)
        est = estimate_preamble(zero, zero, pre)
        got = refine_iq_channel(est, pre.owner, np.array([1.1 + 0j, 1.1 + 0j]), np.zeros((2, 2)))
        assert np.isnan(got).all()
        assert np.isnan(demix_channel(est, (1.0 + got) / 2.0)).all()


class TestChannelCompletion:
    def _estimate(self, m_t, seed, smap):
        ch = make_channel(m_t=m_t, m_r=2, seed=seed)
        pre = build_preamble(m_t, smap)
        psi1, psi2 = transmit_preamble(ch, pre)
        return ch, pre, estimate_preamble(psi1, psi2, pre)

    def test_flat_channel_interpolates_flat(self, smap64):
        ch = make_channel(l_taps=1, seed=91)
        pre = build_preamble(2, smap64)
        psi1, psi2 = transmit_preamble(ch, pre)
        est = estimate_preamble(psi1, psi2, pre)
        h = interpolate_channel(est.e, pre, smap64)
        used_b = logical_to_bin(pre.used, 64)
        for p in range(2):
            for q in range(2):
                vals = h[used_b, q, p]
                np.testing.assert_allclose(vals, np.full(52, ch.freq[0, q, p]), atol=1e-9)

    def test_trained_bins_pass_through(self, smap64):
        ch, pre, est = self._estimate(2, 92, smap64)
        h = interpolate_channel(est.e, pre, smap64)
        for i, k in enumerate(pre.used):
            p = pre.owner[i]
            np.testing.assert_allclose(
                h[logical_to_bin(k, 64), :, p], est.e[i], atol=1e-9
            )

    def test_smooth_channel_interpolation_error(self, smap64):
        ch = make_channel(l_taps=2, seed=93)
        pre = build_preamble(2, smap64)
        psi1, psi2 = transmit_preamble(ch, pre)
        est = estimate_preamble(psi1, psi2, pre)
        h = interpolate_channel(est.e, pre, smap64)
        used_b = logical_to_bin(smap64.used_bins, 64)
        err = np.abs(h[used_b] - ch.freq[used_b])
        assert err.max() / np.abs(ch.freq[used_b]).max() < 5e-2
        # One spline per (receive, transmit) pair is the reference.
        want = np.zeros_like(h)
        for p in range(2):
            sel = np.flatnonzero(pre.owner == p)
            for q in range(2):
                want[used_b, q, p] = CubicSpline(pre.used[sel], est.e[sel, q])(pre.used)
        np.testing.assert_array_equal(h, want)

    def test_linear_fallback_warns(self, smap64, caplog):
        pre = build_preamble(2, smap64)
        few = np.zeros_like(pre.owner)
        few[:] = 1
        few[:3] = 0  # antenna 0 owns only 3 bins
        object.__setattr__(pre, "owner", few)
        e = np.ones((52, 2), dtype=complex)
        with caplog.at_level(logging.WARNING, logger="ofdmlink"):
            interpolate_channel(e, pre, smap64)
        assert any("linear" in r.message for r in caplog.records)

    def test_iterative_single_tap_one_iteration(self, smap64, monkeypatch):
        monkeypatch.setattr(estimation, "ITERATIVE_REFINE_ITERS", 1)
        ch = make_channel(l_taps=1, seed=94)
        pre = build_preamble(2, smap64)
        psi1, psi2 = transmit_preamble(ch, pre)
        est = estimate_preamble(psi1, psi2, pre)
        h = iterative_refine(est.e, pre, smap64, l_taps=1)
        used_b = logical_to_bin(smap64.used_bins, 64)
        expected = np.broadcast_to(ch.freq[0], (52, 2, 2))
        np.testing.assert_allclose(h[used_b], expected, atol=1e-9)

    def test_iterative_reimposes_trained_bins(self, smap64, monkeypatch):
        monkeypatch.setattr(estimation, "ITERATIVE_REFINE_ITERS", 5)
        ch, pre, est = self._estimate(2, 95, smap64)
        h = iterative_refine(est.e, pre, smap64, l_taps=7)
        for i, k in enumerate(pre.used):
            p = pre.owner[i]
            np.testing.assert_array_equal(h[logical_to_bin(k, 64), :, p], est.e[i])

    @pytest.mark.parametrize("m_t", [1, 2, 4])
    @pytest.mark.parametrize("n", [64, 128, 1024])
    def test_iterative_equals_per_antenna_loop(self, n, m_t):
        # the literal passes, one antenna at a time; the tap-domain operator
        # sums the same linear map in another order, so within rounding
        smap = build_subcarrier_map(n)
        ch = make_channel(m_t=m_t, m_r=m_t, seed=97 + m_t, n_fft=n)
        pre = build_preamble(m_t, smap)
        psi1, psi2 = transmit_preamble(ch, pre)
        e = estimate_preamble(psi1, psi2, pre).e
        logical_all = np.arange(-n // 2, n // 2)
        expected = np.empty((n, m_t, m_t), dtype=complex)
        for p in range(m_t):
            sel = np.flatnonzero(pre.owner == p)
            kt = pre.used[sel]
            nearest = np.searchsorted((kt[:-1] + kt[1:]) / 2.0, logical_all)
            g = np.empty((n, m_t), dtype=complex)
            g[logical_to_bin(logical_all, n)] = e[sel][nearest]
            for _ in range(50):
                t = np.fft.ifft(g, axis=0)
                t[7:] = 0.0
                g = np.fft.fft(t, axis=0)
                g[logical_to_bin(kt, n)] = e[sel]
            expected[:, :, p] = g
        got = iterative_refine(e, pre, smap, l_taps=7)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("m_t", [1, 2, 4])
    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_nearest_knots_equal_argmin_table(self, n, m_t):
        # the (n, m_t, n_used) distance table with n masking the other
        # antennas' bins, argmin keeping the first (lower) of equal distances
        pre = build_preamble(m_t, build_subcarrier_map(n))
        logical_all = np.arange(-n // 2, n // 2)
        own = pre.owner == np.arange(m_t)[:, None]
        dist = np.abs(logical_all[:, None, None] - pre.used)
        want = np.argmin(np.where(own, dist, n), axis=-1)
        assert np.array_equal(_nearest_knots(pre, logical_all), want)

    def test_iterative_beats_spline_for_sparse_training(self, smap64):
        # With four transmit antennas each antenna trains only 13 bins;
        # enforcing the tap-domain structure interpolates better than a
        # free cubic spline.
        sp_err, it_err = [], []
        for trial in range(40):
            ch = make_channel(m_t=4, m_r=1, seed=960 + trial)
            pre = build_preamble(4, smap64)
            psi1, psi2 = transmit_preamble(ch, pre)
            est = estimate_preamble(psi1, psi2, pre)
            used_b = logical_to_bin(smap64.used_bins, 64)
            truth = ch.freq[used_b]
            h_sp = interpolate_channel(est.e, pre, smap64)[used_b]
            h_it = iterative_refine(est.e, pre, smap64, l_taps=7)[used_b]
            sp_err.append(np.sum(np.abs(h_sp - truth) ** 2))
            it_err.append(np.sum(np.abs(h_it - truth) ** 2))
        assert np.mean(it_err) <= np.mean(sp_err)
