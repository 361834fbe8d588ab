"""Quasi-static multipath Rayleigh MIMO channel with exponential power delay profile.

A realization is drawn once per frame and frozen: taps are zero-mean
circular complex Gaussian with per-tap variance given by the normalized
profile, links between antenna pairs are mutually independent, and the
per-subcarrier frequency response is the forward transform of the taps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import ConfigurationError, RandomSource, dft

__all__ = ["ChannelRealization", "exp_power_profile", "draw_channel", "apply_channel"]


def exp_power_profile(l_taps: int, decay: float) -> np.ndarray:
    """Exponential tap-power profile ``pdp(l) ~ e^{-l/decay}`` normalized to sum 1."""
    if l_taps < 1:
        raise ConfigurationError("need at least one channel tap")
    if not decay > 0:  # also refuses nan
        raise ConfigurationError("decay constant must be positive")
    w = np.exp(-np.arange(l_taps) / float(decay))
    return w / w.sum()


@dataclass(frozen=True)
class ChannelRealization:
    """Immutable L-tap MIMO channel: ``taps[q, p, l]`` plus cached responses.

    ``freq[k, q, p]`` holds the per-subcarrier response in FFT storage
    order; it always equals the forward transform of the zero-padded taps.
    """

    taps: np.ndarray          # (m_r, m_t, l) complex
    n_fft: int
    freq: np.ndarray = field(init=False, repr=False)  # (n, m_r, m_t), cached

    def __post_init__(self):
        m_r, m_t, l = self.taps.shape
        padded = np.zeros((self.n_fft, m_r, m_t), dtype=np.complex128)
        padded[:l] = np.moveaxis(self.taps, 2, 0)
        object.__setattr__(self, "freq", dft(padded))

    @property
    def m_r(self) -> int:
        return self.taps.shape[0]

    @property
    def m_t(self) -> int:
        return self.taps.shape[1]

    @property
    def l_taps(self) -> int:
        return self.taps.shape[2]


def draw_channel(
    m_t: int,
    m_r: int,
    l_taps: int,
    decay: float,
    rng: RandomSource,
    n_fft: int,
) -> ChannelRealization:
    """Draw an independent Rayleigh realization for every (receive, transmit) link.

    The cyclic prefix must cover the delay spread (``l_taps <= n_cp``);
    ``harness.ScenarioConfig`` checks that before any frame runs.
    """
    pdp = exp_power_profile(l_taps, decay)
    taps = rng.complex_normal(var=1.0, size=(m_r, m_t, l_taps)) * np.sqrt(pdp)
    return ChannelRealization(taps=taps, n_fft=n_fft)


def apply_channel(tx: np.ndarray, ch: ChannelRealization) -> np.ndarray:
    """Convolve per-antenna streams with the channel and sum over transmitters.

    ``tx`` is ``(n_samples, m_t)``; the result is
    ``(n_samples + l - 1, m_r)`` (full linear convolution, noise-free).
    """
    tx = np.asarray(tx, dtype=np.complex128)
    if tx.ndim != 2 or tx.shape[1] != ch.m_t:
        raise ConfigurationError(
            f"expected (n, {ch.m_t}) transmit streams, got {tx.shape}"
        )
    n_out = tx.shape[0] + ch.l_taps - 1
    rx = np.zeros((n_out, ch.m_r), dtype=np.complex128)
    for q in range(ch.m_r):
        for p in range(ch.m_t):
            rx[:, q] += np.convolve(tx[:, p], ch.taps[q, p])
    return rx
