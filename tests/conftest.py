"""Shared helpers: noise-free transmit chains, the reference condition guard and phase paths."""

import numpy as np
import pytest

from ofdmlink.channel import apply_channel, draw_channel
from ofdmlink.framing import build_subcarrier_map, demodulate_frame, modulate_frame
from ofdmlink.impairments import apply_iq_imbalance
from ofdmlink.numerics import CONDITION_LIMIT, RandomSource, condition_number, logical_to_bin


@pytest.fixture(scope="session")
def smap64():
    return build_subcarrier_map(64)


def transmit_preamble(ch, pre, iq=None, n_cp=16):
    """Send the two long training symbols through the noise-free chain.

    Returns the demodulated grids (psi1, psi2) of shape (n, m_r).
    """
    grids = np.stack([pre.t1, pre.t2])
    rx = apply_channel(modulate_frame(grids, n_cp), ch)
    if iq is not None:
        rx = apply_iq_imbalance(rx, iq)
    out = demodulate_frame(rx, pre.t1.shape[0], n_cp, 2)
    return out[0], out[1]


def owned_channel_columns(ch, pre, scale=None):
    """True effective-channel column per used bin: (n_used, m_r).

    ``scale`` optionally multiplies per-branch (the common-phase factor).
    """
    n = ch.n_fft
    cols = np.stack(
        [ch.freq[logical_to_bin(k, n), :, pre.owner[i]] for i, k in enumerate(pre.used)]
    )
    if scale is not None:
        cols = cols * np.asarray(scale)[None, :]
    return cols


def make_channel(m_t=2, m_r=2, l_taps=7, seed=1234, n_fft=64):
    return draw_channel(m_t, m_r, l_taps, 2.0, RandomSource(seed).child("ch"), n_fft=n_fft)


def eigvalsh_verdicts(stack):
    """The reference guard: finite entries and eigenvalue condition within the limit."""
    finite = np.isfinite(stack).all(axis=(-2, -1))
    out = np.zeros(finite.shape, dtype=bool)
    if finite.any():
        out[finite] = condition_number(stack[finite]) <= CONDITION_LIMIT
    return out


def gen_phase_noise(beta, ts, n_samples, m_r, rng):
    """One frame's ``(n_samples, m_r)`` Wiener phase paths, each increment drawn at its own scale.

    The reference for ``wiener_phase`` on shared standard-normal steps: for
    the same source, ``normal(scale=s)`` gives ``s`` times the standard
    normals bit for bit, so both paths must be equal.
    """
    if beta == 0.0:
        return np.zeros((n_samples, m_r))
    inc = rng.rng.normal(scale=np.sqrt(4.0 * np.pi * beta * ts), size=(n_samples - 1, m_r))
    return np.vstack([np.zeros((1, m_r)), np.cumsum(inc, axis=0)])
