"""Tests for phase-noise and IQ-imbalance generation, injection, and the frequency-domain model."""

import numpy as np
import pytest

from ofdmlink.channel import apply_channel, draw_channel
from ofdmlink.framing import demodulate_frame, modulate_frame
from ofdmlink.impairments import (
    IqParams,
    PhaseNoiseTrace,
    apply_iq_imbalance,
    apply_phase_noise,
    combined_freq_model,
    cpe_of,
    gen_phase_noise,
    phase_noise_coeffs,
)
from ofdmlink.numerics import ConfigurationError, RandomSource, dft


class TestIqParams:
    def test_reference_mismatch_coefficients(self):
        # eps = 1.1, theta = 5 degrees evaluated from the definitions.
        iq = IqParams.uniform(1, 5.0, 10.0)
        assert iq.k1[0] == pytest.approx(1.04790708395046 - 0.047935658511212j, abs=1e-12)
        assert iq.k2[0] == pytest.approx(-0.04790708395046 - 0.047935658511212j, abs=1e-12)

    def test_k2_identity_exact(self):
        rng = np.random.default_rng(2)
        iq = IqParams(eps=1 + 0.3 * rng.random(8), theta=rng.normal(scale=0.2, size=8))
        np.testing.assert_array_equal(iq.k2, 1.0 - np.conj(iq.k1))

    def test_k2_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        iq = IqParams(eps=1 + 0.3 * rng.random(8), theta=rng.normal(scale=0.2, size=8))
        direct = (1.0 - iq.eps * np.exp(1j * iq.theta)) / 2.0
        np.testing.assert_allclose(iq.k2, direct, atol=1e-15)

    def test_ideal_is_identity(self):
        iq = IqParams.ideal(3)
        np.testing.assert_allclose(iq.k1, 1.0)
        np.testing.assert_allclose(iq.k2, 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            IqParams(eps=np.ones(2), theta=np.zeros(3))


class TestPhaseNoiseGeneration:
    def test_zero_linewidth_is_silent(self):
        tr = gen_phase_noise(0.0, 5e-8, 500, 2, RandomSource(1).child("pn"))
        assert not tr.phi.any()

    def test_step_variance(self):
        # 4 pi beta Ts at beta = 5 kHz, Ts = 0.05 us is pi * 1e-3.
        tr = gen_phase_noise(5e3, 5e-8, 100_001, 1, RandomSource(2).child("pn"))
        steps = np.diff(tr.phi[:, 0])
        assert steps.var() == pytest.approx(4 * np.pi * 5e3 * 5e-8, rel=0.03)
        assert abs(steps.mean()) < 3e-4

    def test_linear_variance_growth(self):
        root = RandomSource(3)
        phis = np.stack(
            [gen_phase_noise(5e3, 5e-8, 81, 1, root.child("t", i)).phi[80, 0] for i in range(10_000)]
        )
        assert phis.var() == pytest.approx(80 * 4 * np.pi * 5e3 * 5e-8, rel=0.05)

    def test_branches_independent(self):
        tr = gen_phase_noise(5e3, 5e-8, 5000, 2, RandomSource(4).child("pn"))
        d = np.diff(tr.phi, axis=0)
        corr = np.corrcoef(d[:, 0], d[:, 1])[0, 1]
        assert abs(corr) < 0.05

    def test_shared_oscillator_switch(self):
        tr = gen_phase_noise(5e3, 5e-8, 100, 3, RandomSource(5).child("pn"), shared_oscillator=True)
        np.testing.assert_array_equal(tr.phi[:, 0], tr.phi[:, 1])
        np.testing.assert_array_equal(tr.phi[:, 0], tr.phi[:, 2])

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            gen_phase_noise(-1.0, 5e-8, 10, 1, RandomSource(6).child("pn"))
        with pytest.raises(ConfigurationError):
            gen_phase_noise(1.0, 0.0, 10, 1, RandomSource(6).child("pn"))


class TestApplyPhaseNoise:
    def test_zero_trace_identity(self):
        x = np.arange(6, dtype=complex).reshape(3, 2)
        tr = PhaseNoiseTrace(phi=np.zeros((3, 2)), beta=0.0, ts=5e-8)
        np.testing.assert_array_equal(apply_phase_noise(x, tr), x)

    def test_magnitude_preserved(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
        tr = gen_phase_noise(1e4, 5e-8, 50, 2, RandomSource(8).child("pn"))
        np.testing.assert_allclose(np.abs(apply_phase_noise(x, tr)), np.abs(x))

    def test_constant_phase_is_pure_cpe(self):
        rng = np.random.default_rng(9)
        grid = rng.normal(size=(64, 1)) + 1j * rng.normal(size=(64, 1))
        tx = modulate_frame(grid[None], 16)
        tr = PhaseNoiseTrace(phi=np.full((80, 1), 0.37), beta=0.0, ts=5e-8)
        out = demodulate_frame(apply_phase_noise(tx, tr), 64, 16, 1)[0]
        np.testing.assert_allclose(out, np.exp(0.37j) * grid, atol=1e-12)

    def test_short_trace_rejected(self):
        tr = PhaseNoiseTrace(phi=np.zeros((10, 1)), beta=0.0, ts=5e-8)
        with pytest.raises(ConfigurationError):
            apply_phase_noise(np.zeros((11, 1), dtype=complex), tr)


class TestApplyIqImbalance:
    def test_ideal_identity(self):
        x = np.arange(8, dtype=complex).reshape(4, 2) + 1j
        np.testing.assert_array_equal(apply_iq_imbalance(x, IqParams.ideal(2)), x)

    def test_image_rejection_ratio(self):
        # A pure tone leaks into its mirror bin with power |K2/K1|^2.
        iq = IqParams.uniform(1, 5.0, 10.0)
        k = 9
        grid = np.zeros((64, 1), dtype=complex)
        grid[k] = 1.0
        t = modulate_frame(grid[None], 0)
        spec = dft(apply_iq_imbalance(t, iq))
        ratio = np.abs(spec[(-k) % 64]) ** 2 / np.abs(spec[k]) ** 2
        assert ratio[0] == pytest.approx(np.abs(iq.k2[0] / iq.k1[0]) ** 2, rel=1e-9)
        others = np.delete(np.arange(64), [k, (-k) % 64])
        assert np.abs(spec[others]).max() < 1e-12

    def test_genie_inversion(self):
        # y = k1 r + k2 conj(r) inverts exactly when |k1|^2 != |k2|^2.
        iq = IqParams.uniform(2, 5.0, 10.0)
        rng = np.random.default_rng(10)
        r = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
        y = apply_iq_imbalance(r, iq)
        det = np.abs(iq.k1) ** 2 - np.abs(iq.k2) ** 2
        back = (np.conj(iq.k1) * y - iq.k2 * np.conj(y)) / det
        np.testing.assert_allclose(back, r, atol=1e-12)


class TestCpe:
    def test_zero_phase(self):
        tr = PhaseNoiseTrace(phi=np.zeros((100, 2)), beta=0.0, ts=5e-8)
        np.testing.assert_allclose(cpe_of(tr, 10, 64), [1.0, 1.0])

    def test_constant_phase(self):
        tr = PhaseNoiseTrace(phi=np.full((100, 1), -0.81), beta=0.0, ts=5e-8)
        assert cpe_of(tr, 0, 64)[0] == pytest.approx(np.exp(-0.81j))

    def test_matches_transform_bin_zero(self):
        tr = gen_phase_noise(1e4, 5e-8, 96, 2, RandomSource(11).child("pn"))
        got = cpe_of(tr, 16, 64)
        expected = dft(np.exp(1j * tr.phi[16:80]))[0] / 64
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_window_bounds(self):
        tr = PhaseNoiseTrace(phi=np.zeros((64, 1)), beta=0.0, ts=5e-8)
        with pytest.raises(ConfigurationError):
            cpe_of(tr, 1, 64)
        with pytest.raises(ConfigurationError):
            cpe_of(tr, np.array([0, 1]), 64)

    @pytest.mark.parametrize("m_r", [1, 2, 4])
    def test_array_of_starts_equals_scalar_calls(self, m_r):
        tr = gen_phase_noise(1e5, 5e-8, 12 * 80 + 6, m_r, RandomSource(14).child("pn", m_r))
        starts = np.arange(12) * 80 + 16
        got = cpe_of(tr, starts, 64)
        assert got.shape == (12, m_r)
        scalar = np.stack([cpe_of(tr, int(s), 64) for s in starts])
        window_means = np.stack([np.mean(np.exp(1j * tr.phi[s : s + 64]), axis=0) for s in starts])
        assert np.array_equal(got, scalar)
        assert np.array_equal(got, window_means)

    def test_coefficient_power_is_unity(self):
        # Parseval: the mixing coefficients of any window carry unit power.
        tr = gen_phase_noise(1e5, 5e-8, 64, 1, RandomSource(12).child("pn"))
        theta = phase_noise_coeffs(tr.phi[:, 0])
        assert np.sum(np.abs(theta) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_cpe_magnitude_bounded_by_one(self):
        # Average of unit-modulus samples.
        for i, beta in enumerate((1e3, 1e4, 1e5)):
            tr = gen_phase_noise(beta, 5e-8, 200, 2, RandomSource(13).child("pn", i))
            assert np.abs(cpe_of(tr, 50, 64)).max() <= 1.0 + 1e-12


class TestCombinedModel:
    def _chain(self, grids, ch, trace, iq, n_cp):
        tx = modulate_frame(grids, n_cp)
        rx = apply_channel(tx, ch)
        rx = apply_phase_noise(rx, trace)
        rx = apply_iq_imbalance(rx, iq)
        return demodulate_frame(rx, grids.shape[1], n_cp, grids.shape[0])

    def test_no_impairments_reduces_to_channel(self):
        root = RandomSource(13)
        ch = draw_channel(2, 2, 7, 2.0, root.child("ch"))
        rng = np.random.default_rng(14)
        s = rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2))
        tr = PhaseNoiseTrace(phi=np.zeros((200, 2)), beta=0.0, ts=5e-8)
        out = combined_freq_model(s, ch, tr, IqParams.ideal(2), 16)
        np.testing.assert_allclose(out, np.einsum("kqp,kp->kq", ch.freq, s), atol=1e-12)

    def test_iq_only_specialization(self):
        root = RandomSource(15)
        ch = draw_channel(2, 2, 7, 2.0, root.child("ch"))
        rng = np.random.default_rng(16)
        s = rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2))
        iq = IqParams.uniform(2, 5.0, 10.0)
        tr = PhaseNoiseTrace(phi=np.zeros((200, 2)), beta=0.0, ts=5e-8)
        faded = np.einsum("kqp,kp->kq", ch.freq, s)
        mirror = np.conj(faded[(-np.arange(64)) % 64])
        expected = iq.k1 * faded + iq.k2 * mirror
        np.testing.assert_allclose(combined_freq_model(s, ch, tr, iq, 16), expected, atol=1e-12)

    def test_time_domain_chain_equivalence(self):
        # The module's central oracle: sample-level pipeline vs the
        # spectral-mixing prediction, multi-symbol frame.
        root = RandomSource(17)
        n_cp, n, n_sym = 16, 64, 4
        ch = draw_channel(2, 2, 7, 2.0, root.child("ch"))
        rng = np.random.default_rng(18)
        grids = rng.normal(size=(n_sym, n, 2)) + 1j * rng.normal(size=(n_sym, n, 2))
        stream_len = n_sym * (n + n_cp) + 6
        trace = gen_phase_noise(5e3, 5e-8, stream_len, 2, root.child("pn"))
        iq = IqParams.uniform(2, 5.0, 10.0)
        got = self._chain(grids, ch, trace, iq, n_cp)
        for m in range(n_sym):
            window = m * (n + n_cp) + n_cp
            expected = combined_freq_model(grids[m], ch, trace, iq, window)
            err = np.abs(got[m] - expected).max() / np.abs(expected).max()
            assert err < 1e-10

    def test_ici_power_decomposition(self):
        # Residual interference power matches total minus the common-phase
        # projection on average over random symbol loads.
        root = RandomSource(19)
        ch = draw_channel(1, 1, 7, 2.0, root.child("ch"))
        trace = gen_phase_noise(2e4, 5e-8, 80, 1, root.child("pn"))
        theta0 = cpe_of(trace, 16, 64)[0]
        rng = np.random.default_rng(20)
        ratios = []
        for _ in range(400):
            s = rng.normal(size=(64, 1)) + 1j * rng.normal(size=(64, 1))
            faded = np.einsum("kqp,kp->kq", ch.freq, s)
            out = combined_freq_model(s, ch, trace, IqParams.ideal(1), 16)
            zeta = out - theta0 * faded
            ratios.append(np.sum(np.abs(zeta) ** 2) / np.sum(np.abs(faded) ** 2))
        assert np.mean(ratios) == pytest.approx(1.0 - np.abs(theta0) ** 2, rel=0.05)
