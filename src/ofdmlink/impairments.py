"""Receiver-side impairments: Wiener phase noise and frequency-flat IQ imbalance.

Each receive branch has its own free-running oscillator, so phase paths
are independent per branch (a shared-oscillator switch exists for
experiments).  IQ imbalance mixes every subcarrier with its conjugate
mirror through the diagonal coefficients ``K1 = (1 + eps e^{-j theta})/2``
and ``K2 = (1 - eps e^{j theta})/2``; ``K2 = 1 - conj(K1)`` holds exactly.

The module also provides the noise-free frequency-domain prediction of
the full receive chain (channel, phase-noise spectral mixing including
all inter-carrier terms, then IQ image mixing), which the tests use as a
cross-check oracle against the sample-level pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .numerics import ConfigurationError, RandomSource, conj_mirror, dft

__all__ = [
    "IqParams",
    "PhaseNoiseTrace",
    "gen_phase_noise",
    "apply_phase_noise",
    "apply_iq_imbalance",
    "cpe_of",
    "phase_noise_coeffs",
    "combined_freq_model",
]


@dataclass(frozen=True)
class IqParams:
    """Per-receive-branch amplitude mismatch (linear ratio) and phase mismatch (rad)."""

    eps: np.ndarray    # (m_r,)
    theta: np.ndarray  # (m_r,)

    def __post_init__(self):
        eps = np.atleast_1d(np.asarray(self.eps, dtype=float))
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if eps.shape != theta.shape:
            raise ConfigurationError("eps and theta must have one value per branch")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "theta", theta)

    @classmethod
    def uniform(cls, m_r: int, theta_deg: float, amp_pct: float) -> "IqParams":
        """Same mismatch on every branch; 10% amplitude excess means eps = 1.1."""
        eps = 1.0 + amp_pct / 100.0
        return cls(eps=np.full(m_r, eps), theta=np.full(m_r, np.deg2rad(theta_deg)))

    @classmethod
    def ideal(cls, m_r: int) -> "IqParams":
        return cls(eps=np.ones(m_r), theta=np.zeros(m_r))

    @property
    def m_r(self) -> int:
        return self.eps.shape[0]

    @property
    def k1(self) -> np.ndarray:
        """Diagonal of K1 as a vector."""
        return (1.0 + self.eps * np.exp(-1j * self.theta)) / 2.0

    @property
    def k2(self) -> np.ndarray:
        """Diagonal of K2; derived as ``1 - conj(k1)`` so the identity is exact."""
        return 1.0 - np.conj(self.k1)


@dataclass(frozen=True)
class PhaseNoiseTrace:
    """Per-branch sampled oscillator phase path over one frame.

    ``phi[n, q]`` is the phase (radians) of branch ``q`` at sample ``n``;
    increments are i.i.d. Gaussian with variance ``4 pi beta ts``.
    """

    phi: np.ndarray   # (n_samples, m_r)
    beta: float       # 3-dB linewidth, Hz
    ts: float         # sample period, s

    @property
    def n_samples(self) -> int:
        return self.phi.shape[0]

    @property
    def m_r(self) -> int:
        return self.phi.shape[1]


def gen_phase_noise(
    beta: float,
    ts: float,
    n_samples: int,
    m_r: int,
    rng: RandomSource,
    shared_oscillator: bool = False,
) -> PhaseNoiseTrace:
    """Sample Wiener phase paths, one per branch, starting at phi(0) = 0."""
    if beta < 0:
        raise ConfigurationError("linewidth must be nonnegative")
    if ts <= 0:
        raise ConfigurationError("sample period must be positive")
    if beta == 0.0:
        phi = np.zeros((n_samples, m_r))
    else:
        n_paths = 1 if shared_oscillator else m_r
        inc = rng.normal(scale=np.sqrt(4.0 * np.pi * beta * ts), size=(n_samples - 1, n_paths))
        phi = np.vstack([np.zeros((1, n_paths)), np.cumsum(inc, axis=0)])
        if shared_oscillator:
            phi = np.repeat(phi, m_r, axis=1)
    return PhaseNoiseTrace(phi=phi, beta=float(beta), ts=float(ts))


def apply_phase_noise(rx_time: np.ndarray, trace: PhaseNoiseTrace) -> np.ndarray:
    """Rotate each sample of each branch by its oscillator phase."""
    rx_time = np.asarray(rx_time, dtype=np.complex128)
    if rx_time.shape[0] > trace.n_samples:
        raise ConfigurationError(
            f"stream of {rx_time.shape[0]} samples exceeds trace length {trace.n_samples}"
        )
    return rx_time * np.exp(1j * trace.phi[: rx_time.shape[0]])


def apply_iq_imbalance(rx_time: np.ndarray, iq: IqParams) -> np.ndarray:
    """Mix each branch with its own conjugate: ``y = k1 r + k2 conj(r)``."""
    rx_time = np.asarray(rx_time, dtype=np.complex128)
    return iq.k1[None, :] * rx_time + iq.k2[None, :] * np.conj(rx_time)


def cpe_of(trace: PhaseNoiseTrace, start, n_fft: int) -> np.ndarray:
    """Common phase error over symbol windows: ``(1/N) sum e^{j phi}`` per branch.

    ``start`` indexes the first post-prefix sample of a symbol within the
    trace; a scalar gives ``(m_r,)``, an array of ``s`` starts ``(s, m_r)``.
    """
    start = np.asarray(start)
    if np.any(start < 0) or np.any(start + n_fft > trace.n_samples):
        raise ConfigurationError("symbol window out of trace range")
    return np.mean(np.exp(1j * trace.phi[start[..., None] + np.arange(n_fft)]), axis=-2)


def phase_noise_coeffs(phi_window: np.ndarray) -> np.ndarray:
    """Spectral mixing coefficients of one symbol's phase path.

    Returns ``theta[d]`` for shifts ``d = 0 .. N-1`` (mod N) such that a
    sample-wise rotation by ``e^{j phi}`` maps spectrum ``G`` to
    ``sum_i theta[(i-k) mod N] G(i)`` at output bin ``k``.  ``theta[0]``
    is the common phase error of the window.
    """
    n = phi_window.shape[0]
    f = dft(np.exp(1j * phi_window)) / n
    return f[(-np.arange(n)) % n]


def combined_freq_model(
    s: np.ndarray,
    ch: ChannelRealization,
    trace: PhaseNoiseTrace,
    iq: IqParams,
    window_start: int,
) -> np.ndarray:
    """Noise-free frequency-domain prediction of one received OFDM symbol.

    Includes the exact inter-carrier mixing of the phase path over the
    symbol window (not just the common rotation), followed by the IQ
    image mixing of the complete phase-noised spectrum.  ``s`` is the
    ``(n, m_t)`` transmitted grid; the result is ``(n, m_r)``.
    """
    n = ch.n_fft
    if s.shape[0] != n:
        raise ConfigurationError("grid size does not match the channel FFT size")
    faded = np.einsum("kqp,kp->kq", ch.freq, s)  # (n, m_r): H(k) s(k) per branch
    shifts = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n  # [k, i] -> i-k
    r_pn = np.empty_like(faded)
    for q in range(ch.m_r):
        theta = phase_noise_coeffs(trace.phi[window_start : window_start + n, q])
        r_pn[:, q] = theta[shifts] @ faded[:, q]
    return iq.k1[None, :] * r_pn + iq.k2[None, :] * conj_mirror(r_pn)
