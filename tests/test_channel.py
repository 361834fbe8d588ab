"""Tests for the multipath Rayleigh channel model."""

import numpy as np
import pytest

from ofdmlink.channel import (
    ChannelRealization,
    apply_channel,
    draw_channel,
    exp_power_profile,
    freq_response,
)
from ofdmlink.framing import demodulate_frame, modulate_frame
from ofdmlink.numerics import ConfigurationError, RandomSource


class TestPowerProfile:
    def test_seven_tap_decay_two_values(self):
        # Normalizing e^{-l/2} over l = 0..6 by hand gives these endpoints.
        pdp = exp_power_profile(7, 2.0)
        assert pdp[0] == pytest.approx(0.4057210545336259, rel=1e-12)
        assert pdp[6] == pytest.approx(0.0201996618803475, rel=1e-10)
        assert pdp[6] / pdp[0] == pytest.approx(np.exp(-3.0), rel=1e-12)

    def test_normalized(self):
        for l, decay in [(1, 2.0), (7, 2.0), (16, 0.5)]:
            assert exp_power_profile(l, decay).sum() == pytest.approx(1.0, abs=1e-13)

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            exp_power_profile(0, 2.0)
        with pytest.raises(ConfigurationError):
            exp_power_profile(7, 0.0)


class TestDrawChannel:
    def test_single_tap_is_flat(self):
        ch = draw_channel(2, 2, 1, 2.0, RandomSource(3).child("ch"))
        mags = np.abs(ch.freq)
        np.testing.assert_allclose(mags, np.broadcast_to(mags[0], mags.shape), rtol=1e-12)

    def test_tap_variance_matches_profile(self):
        # 6250 draws x 16 antenna pairs = 1e5 samples per tap.
        pdp = exp_power_profile(7, 2.0)
        acc = np.zeros(7)
        root = RandomSource(17)
        for i in range(6250):
            ch = draw_channel(4, 4, 7, 2.0, root.child("draw", i))
            acc += np.sum(np.abs(ch.taps) ** 2, axis=(0, 1))
        acc /= 6250 * 16
        np.testing.assert_allclose(acc, pdp, rtol=0.02)

    def test_unit_total_energy_on_average(self):
        root = RandomSource(29)
        total = np.mean(
            [
                np.sum(np.abs(draw_channel(2, 2, 7, 2.0, root.child("d", i)).taps) ** 2, axis=2)
                for i in range(4000)
            ]
        )
        assert total == pytest.approx(1.0, rel=0.02)

    def test_cp_guard(self):
        with pytest.raises(ConfigurationError):
            draw_channel(2, 2, 17, 2.0, RandomSource(1).child("x"), n_cp=16)

    def test_profile_sum_validated(self):
        with pytest.raises(ConfigurationError):
            ChannelRealization(
                taps=np.ones((1, 1, 2), dtype=complex), pdp=np.array([0.9, 0.3]), n_fft=64
            )


class TestFreqResponse:
    def test_delta_taps_flat_unity(self):
        taps = np.zeros((1, 1, 4), dtype=complex)
        taps[0, 0, 0] = 1.0
        ch = ChannelRealization(taps=taps, pdp=np.array([1.0, 0, 0, 0]), n_fft=64)
        for k in (-32, -5, 0, 7, 31):
            assert freq_response(ch, k)[0, 0] == pytest.approx(1.0)

    def test_pure_delay_phase_ramp(self):
        taps = np.zeros((1, 1, 4), dtype=complex)
        taps[0, 0, 1] = 1.0
        ch = ChannelRealization(taps=taps, pdp=np.array([0, 1.0, 0, 0]), n_fft=64)
        for k in (-20, -1, 3, 17):
            assert freq_response(ch, k)[0, 0] == pytest.approx(np.exp(-2j * np.pi * k / 64))

    def test_matches_defining_sum(self):
        ch = draw_channel(3, 2, 7, 2.0, RandomSource(31).child("ch"))
        n = np.arange(7)
        for k in (-30, -7, 1, 13):
            expected = np.einsum("qpl,l->qp", ch.taps, np.exp(-2j * np.pi * k * n / 64))
            np.testing.assert_allclose(freq_response(ch, k), expected, atol=1e-12)


class TestApplyChannel:
    def test_single_unit_tap_identity(self):
        taps = np.ones((1, 1, 1), dtype=complex)
        ch = ChannelRealization(taps=taps, pdp=np.array([1.0]), n_fft=64)
        x = (np.arange(10) + 1j)[:, None]
        np.testing.assert_allclose(apply_channel(x, ch), x)

    def test_superposition(self):
        ch = draw_channel(2, 2, 5, 2.0, RandomSource(37).child("ch"))
        rng = np.random.default_rng(0)
        a = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
        b = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
        np.testing.assert_allclose(
            apply_channel(a + b, ch), apply_channel(a, ch) + apply_channel(b, ch), atol=1e-12
        )

    def test_output_length(self):
        ch = draw_channel(3, 2, 7, 2.0, RandomSource(41).child("ch"))
        out = apply_channel(np.zeros((100, 3), dtype=complex), ch)
        assert out.shape == (106, 2)

    def test_circular_equivalence_through_cp(self):
        # With the prefix covering the delay spread, each demodulated bin is
        # the per-bin response times the transmitted value.
        root = RandomSource(43)
        ch = draw_channel(2, 2, 7, 2.0, root.child("ch"))
        rng = np.random.default_rng(1)
        grid = rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2))
        rx = apply_channel(modulate_frame(grid[None], 16), ch)
        got = demodulate_frame(rx, 64, 16, 1)[0]
        expected = np.einsum("kqp,kp->kq", ch.freq, grid)
        err = np.abs(got - expected).max() / np.abs(expected).max()
        assert err < 1e-10

    def test_shape_validation(self):
        ch = draw_channel(2, 2, 3, 2.0, RandomSource(47).child("ch"))
        with pytest.raises(ConfigurationError):
            apply_channel(np.zeros((10, 3), dtype=complex), ch)
