"""Receiver-side impairments: Wiener phase noise and frequency-flat IQ imbalance.

Each receive branch has its own free-running oscillator, so phase paths
are independent per branch.  IQ imbalance mixes every subcarrier with its
conjugate mirror through the diagonal coefficients
``K1 = (1 + eps e^{-j theta})/2`` and ``K2 = (1 - eps e^{j theta})/2``;
``K2 = 1 - conj(K1)`` holds exactly.

The noise-free frequency-domain prediction of the whole receive chain,
the tests' oracle for this sample-level pipeline, is in
``tests/freq_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import ConfigurationError

__all__ = [
    "IqParams",
    "wiener_phase",
    "apply_phase_noise",
    "apply_iq_imbalance",
    "cpe_of",
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

    # Computed once per instance and read-only: a campaign reads them for
    # every stack of frames it impairs and every mismatch term it scores.

    @cached_property
    def k1(self) -> np.ndarray:
        """Diagonal of K1 as a vector."""
        k1 = (1.0 + self.eps * np.exp(-1j * self.theta)) / 2.0
        k1.flags.writeable = False
        return k1

    @cached_property
    def k2(self) -> np.ndarray:
        """Diagonal of K2; derived as ``1 - conj(k1)`` so the identity is exact."""
        k2 = 1.0 - np.conj(self.k1)
        k2.flags.writeable = False
        return k2


def wiener_phase(beta: float, ts: float, steps: np.ndarray) -> np.ndarray:
    """Wiener phase paths from standard-normal increments, starting at phi(0) = 0.

    ``steps`` is ``(..., n_samples - 1, m_r)``, one path per receive
    branch.  Each step is scaled to variance ``4 pi beta ts``, so steps
    drawn once serve every linewidth; leading axes are frames.  Returns
    ``phi``, ``(..., n_samples, m_r)``: the phase (radians) of branch
    ``q`` at sample ``n`` is ``phi[..., n, q]``.
    """
    if beta < 0:
        raise ConfigurationError("linewidth must be nonnegative")
    if ts <= 0:
        raise ConfigurationError("sample period must be positive")
    phi = np.zeros((*steps.shape[:-2], steps.shape[-2] + 1, steps.shape[-1]))
    inc = phi[..., 1:, :]
    np.multiply(np.sqrt(4.0 * np.pi * beta * ts), steps, out=inc)
    np.cumsum(inc, axis=-2, out=inc)
    return phi


def apply_phase_noise(rx_time: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """Rotate each sample of each branch by its oscillator, over a complex128 stream in place.

    ``rotation`` is ``exp(j phi)`` of ``(..., n_samples, m_r)`` phase paths,
    one per frame of the stream; a stack of streams broadcasts against it.
    """
    rx_time = np.asarray(rx_time, dtype=np.complex128)
    if rx_time.shape[-2] > rotation.shape[-2]:
        raise ConfigurationError(
            f"stream of {rx_time.shape[-2]} samples exceeds phase path length {rotation.shape[-2]}"
        )
    return np.multiply(rx_time, rotation[..., : rx_time.shape[-2], :], out=rx_time)


def apply_iq_imbalance(rx_time: np.ndarray, iq: IqParams) -> np.ndarray:
    """Mix each branch with its own conjugate in place: ``y = k1 r + k2 conj(r)``."""
    rx_time = np.asarray(rx_time, dtype=np.complex128)
    image = np.conj(rx_time)
    np.multiply(iq.k2, image, out=image)
    out = np.multiply(iq.k1, rx_time, out=rx_time)
    out += image
    return out


def cpe_of(rotation: np.ndarray, start, n_fft: int) -> np.ndarray:
    """Common phase error over symbol windows: ``(1/N) sum e^{j phi}`` per branch.

    ``rotation`` is ``exp(j phi)`` of a ``(..., n_samples, m_r)`` phase
    path and ``start`` indexes the first post-prefix sample of a symbol
    within it; a scalar gives ``(..., m_r)``, an array of ``s`` starts
    ``(..., s, m_r)``, where ``...`` are the leading (frame) axes.
    """
    start = np.asarray(start)
    if np.any(start < 0) or np.any(start + n_fft > rotation.shape[-2]):
        raise ConfigurationError("symbol window out of phase path range")
    # take, not rotation[..., idx, :]: the mean must see C order to sum as for one frame
    windows = np.take(rotation, start[..., None] + np.arange(n_fft), axis=-2)
    return np.mean(windows, axis=-2)
