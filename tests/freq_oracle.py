"""Noise-free frequency-domain prediction of the receive chain: the oracle of criterion 01.

The chain is the channel, the phase-noise spectral mixing with all of its
inter-carrier terms, then the IQ image mixing.  The tests check the
package's sample-level pipeline against it; the package itself never
predicts a symbol this way.
"""

import numpy as np

from ofdmlink.numerics import dft


def conj_mirror(g: np.ndarray) -> np.ndarray:
    """Conjugate-mirror a grid: ``out(k) = conj(in(-k mod N))`` per column."""
    g = np.asarray(g)
    idx = (-np.arange(g.shape[0])) % g.shape[0]
    return np.conj(g[idx])


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


def combined_freq_model(s, ch, phi, iq, window_start: int) -> np.ndarray:
    """Noise-free frequency-domain prediction of one received OFDM symbol.

    Includes the exact inter-carrier mixing of the phase path over the
    symbol window (not just the common rotation), followed by the IQ
    image mixing of the complete phase-noised spectrum.  ``s`` is the
    ``(n, m_t)`` transmitted grid, ``ch`` a ``ChannelRealization``, ``phi``
    the ``(n_samples, m_r)`` phase path and ``iq`` an ``IqParams``; the
    result is ``(n, m_r)``.
    """
    n = ch.n_fft
    assert s.shape[0] == n, "grid size does not match the channel FFT size"
    faded = np.einsum("kqp,kp->kq", ch.freq, s)  # (n, m_r): H(k) s(k) per branch
    shifts = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n  # [k, i] -> i-k
    r_pn = np.empty_like(faded)
    for q in range(ch.m_r):
        theta = phase_noise_coeffs(phi[window_start : window_start + n, q])
        r_pn[:, q] = theta[shifts] @ faded[:, q]
    return iq.k1[None, :] * r_pn + iq.k2[None, :] * conj_mirror(r_pn)
