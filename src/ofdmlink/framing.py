"""OFDM grid layout, 16-QAM mapping, training symbols, and frame assembly.

The default grid is the 802.11a layout on a 64-point FFT: 48 data bins,
4 pilot bins at logical indices +/-7 and +/-21, and 12 null bins (DC plus
the band-edge guards).  Other FFT sizes scale that layout proportionally.

The two long training symbols multiplex the transmit antennas over the
*used* bins (data plus pilots): walking the used set in ascending logical
order, bin ``i`` belongs to antenna ``i mod m_t``, so adjacent used bins
belong to consecutive antennas, which the preamble-stage estimator relies
on.  The second training symbol negates the positive-frequency half.  The
training values are unit-modulus QPSK drawn from a fixed seed and made
conjugate-symmetric (``gamma(-k) = conj(gamma(k))``), which is what makes
the image-cancelling estimator combination exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ConfigurationError, RandomSource, dft, idft, logical_to_bin

__all__ = [
    "SubcarrierMap",
    "PreambleSet",
    "build_subcarrier_map",
    "qam16_map",
    "qam16_demap",
    "build_preamble",
    "build_short_symbol",
    "pilot_matrix",
    "modulate_frame",
    "demodulate_frame",
    "assemble_frame",
]

TRAINING_SEED = 0x5EED  # of the preamble's and the short symbol's values
_QAM16_LEVELS = np.array([-3.0, -1.0, 3.0, 1.0]) / np.sqrt(10.0)  # index = 2*b0 + b1, Gray
_LEVELS_ASC = np.sort(_QAM16_LEVELS)
_THRESHOLDS = (_LEVELS_ASC[:-1] + _LEVELS_ASC[1:]) / 2.0
MAX_FFT = 2**16  # the layout is built bin by bin, so a larger size only exhausts memory
# A frame is N_SHORT short training symbols, the two long ones, then data.
N_SHORT = 1
N_TRAIN = N_SHORT + 2
_HADAMARD4 = np.array(
    [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
)


@dataclass(frozen=True)
class SubcarrierMap:
    """Partition of the logical subcarriers into data, pilot, and null sets."""

    n: int
    data_bins: np.ndarray   # logical indices, ascending
    pilot_bins: np.ndarray
    null_bins: np.ndarray

    @property
    def used_bins(self) -> np.ndarray:
        """Data and pilot bins merged, ascending logical order."""
        return np.sort(np.concatenate([self.data_bins, self.pilot_bins]))

    @property
    def n_data(self) -> int:
        return self.data_bins.size

    @property
    def n_used(self) -> int:
        return self.data_bins.size + self.pilot_bins.size


def build_subcarrier_map(n: int) -> SubcarrierMap:
    """802.11a layout for n = 64, proportionally scaled for other sizes.

    The preamble estimator needs mirror-symmetric used bins, so the high
    guard band is one bin narrower than the low one, whose extra bin is
    the unpaired ``-n/2`` (6 and 5 at n = 64).
    """
    if not 16 <= n <= MAX_FFT or (n & (n - 1)) != 0:
        raise ConfigurationError(f"FFT size must be a power of two in 16..{MAX_FFT}, got {n}")
    g_lo = int(round(6 * n / 64))
    g_hi = g_lo - 1
    p_in, p_out = int(round(7 * n / 64)), int(round(21 * n / 64))
    nulls = {0}
    nulls.update(range(-n // 2, -n // 2 + g_lo))
    nulls.update(range(n // 2 - g_hi, n // 2))
    pilots = {p_in, -p_in, p_out, -p_out}
    if len(pilots) != 4 or pilots & nulls:
        raise ConfigurationError(f"scaled pilot layout degenerate for n={n}")
    every = set(range(-n // 2, n // 2))
    data = sorted(every - nulls - pilots)
    return SubcarrierMap(
        n=n,
        data_bins=np.array(data),
        pilot_bins=np.array(sorted(pilots)),
        null_bins=np.array(sorted(nulls)),
    )


def qam16_map(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped square 16-QAM with unit average energy.

    ``bits`` is any array whose last dimension is a multiple of 4 (or a
    flat vector); consecutive groups of 4 map to one symbol, first two
    bits to the in-phase axis.
    """
    bits = np.asarray(bits, dtype=np.int64)
    flat = bits.reshape(-1)
    if flat.size % 4:
        raise ConfigurationError("bit count must be divisible by 4")
    g = flat.reshape(-1, 4)
    return _QAM16_LEVELS[2 * g[:, 0] + g[:, 1]] + 1j * _QAM16_LEVELS[2 * g[:, 2] + g[:, 3]]


def qam16_demap(symbols: np.ndarray) -> np.ndarray:
    """Nearest-neighbor hard decisions, inverse of :func:`qam16_map`.

    With the levels' midpoints ``t0 < t1 < t2``, Gray coding makes an
    axis's first bit ``x >= t1`` and its second ``t0 <= x < t2``.  Each
    ``x >= t`` is written ``~(x < t)``, so that NaN lands on the top level.
    """
    t0, t1, t2 = _THRESHOLDS
    x = np.asarray(symbols, dtype=np.complex128).reshape(-1, 1).view(np.float64)  # (n, 2): re, im
    out = np.empty((*x.shape, 2), dtype=bool)
    out[..., 0] = ~(x < t1)
    out[..., 1] = (x < t2) & ~(x < t0)
    return out.view(np.uint8).reshape(-1)


@dataclass(frozen=True)
class PreambleSet:
    """Frequency-domain long training symbols and their per-bin bookkeeping.

    ``lambda1[i]``/``lambda2[i]`` are the single nonzero entries of the
    used bin with ascending-order index ``i``; ``owner[i]`` is the antenna
    that transmits it.
    """

    t1: np.ndarray       # (n, m_t) storage order
    t2: np.ndarray       # (n, m_t)
    used: np.ndarray     # (n_used,) logical indices, ascending
    owner: np.ndarray    # (n_used,) transmitting antenna per used bin
    lambda1: np.ndarray  # (n_used,)
    lambda2: np.ndarray  # (n_used,)

    @property
    def m_t(self) -> int:
        return self.t1.shape[1]


def build_preamble(m_t: int, smap: SubcarrierMap) -> PreambleSet:
    """Subcarrier-multiplexed two-symbol preamble over the used bins."""
    if m_t < 1:
        raise ConfigurationError("need at least one transmit antenna")
    n = smap.n
    used = smap.used_bins
    rng = RandomSource(TRAINING_SEED).child("preamble-gamma")
    gamma = np.zeros(n, dtype=np.complex128)
    for k in used:
        if k > 0:
            gamma[logical_to_bin(k, n)] = np.exp(1j * (np.pi / 4) * (2 * rng.integers(4) + 1))
    for k in used:
        if k < 0:
            gamma[logical_to_bin(k, n)] = np.conj(gamma[logical_to_bin(-k, n)])
    owner = np.arange(used.size) % m_t
    t1 = np.zeros((n, m_t), dtype=np.complex128)
    t2 = np.zeros((n, m_t), dtype=np.complex128)
    sign = np.where(used > 0, -1.0, 1.0)
    lam1 = gamma[logical_to_bin(used, n)]
    lam2 = sign * lam1
    t1[logical_to_bin(used, n), owner] = lam1
    t2[logical_to_bin(used, n), owner] = lam2
    return PreambleSet(t1=t1, t2=t2, used=used, owner=owner, lambda1=lam1, lambda2=lam2)


def build_short_symbol(smap: SubcarrierMap, m_t: int) -> np.ndarray:
    """Short training symbol: constant-modulus values on used bins, nulls empty.

    All antennas carry the same base sequence rotated by per-antenna
    orthogonal phases so the superposition stays non-degenerate.
    """
    n = smap.n
    used = smap.used_bins
    rng = RandomSource(TRAINING_SEED).child("short-symbol")
    base = np.exp(1j * (np.pi / 4) * (2 * rng.integers(4, size=used.size) + 1))
    grid = np.zeros((n, m_t), dtype=np.complex128)
    i = np.arange(used.size)
    for p in range(m_t):
        grid[logical_to_bin(used, n), p] = base * np.exp(2j * np.pi * p * i / m_t)
    return grid


def pilot_matrix(m_t: int) -> np.ndarray:
    """Unit-modulus values on the 4 pilot bins, one row per antenna, orthogonal across bins."""
    if not 1 <= m_t <= 4:
        raise ConfigurationError("pilot design supports 1 to 4 transmit antennas")
    return _HADAMARD4[:m_t].astype(np.complex128)


def modulate_frame(grids: np.ndarray, n_cp: int) -> np.ndarray:
    """Time-domain stream of a ``(..., s, n, m)`` grid stack, each symbol behind its cyclic prefix.

    Leading axes are independent frames; the result is ``(..., s (n + n_cp), m)``.
    """
    t = idft(np.asarray(grids, dtype=np.complex128), axis=-2)
    *lead, s, n, m = t.shape
    return np.concatenate([t[..., n - n_cp :, :], t], axis=-2).reshape(*lead, s * (n + n_cp), m)


def demodulate_frame(stream: np.ndarray, n: int, n_cp: int, n_symbols: int) -> np.ndarray:
    """Split a ``(..., samples, m)`` stream back into ``(..., s, n, m)`` grids, prefixes stripped."""
    per = n + n_cp
    stream = np.asarray(stream, dtype=np.complex128)
    if stream.shape[-2] < n_symbols * per:
        raise ConfigurationError(
            f"stream of {stream.shape[-2]} samples too short for {n_symbols} symbols"
        )
    lead, m = stream.shape[:-2], stream.shape[-1]
    windows = stream[..., : n_symbols * per, :].reshape(*lead, n_symbols, per, m)[..., n_cp:, :]
    # symbol-major memory: reductions over a strided view may sum in another order
    return np.ascontiguousarray(dft(windows, axis=-2))


def assemble_frame(
    smap: SubcarrierMap,
    payload_bits: np.ndarray,
    preamble: PreambleSet,
    short_symbol: np.ndarray,
    pilots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Build the per-antenna frequency grids of one frame, or of a stack of them.

    Layout: :data:`N_SHORT` short symbols (:func:`build_short_symbol`), the
    two long training symbols, then data symbols carrying payload plus
    the ``(m_t, 4)`` pilots (:func:`pilot_matrix`), ``m_t`` the preamble's.
    The last axis of ``payload_bits`` holds the data symbols, one or more,
    of ``n_data * m_t * 4`` bits each; they fill the frame symbol-major,
    then data bin (ascending logical), then antenna, then bit position.
    Returns the grids and the payload as ``(..., n_data_syms, n_data, m_t,
    4)`` bits; leading axes are independent frames and lead both.
    """
    n, m_t = smap.n, preamble.m_t
    bits = np.asarray(payload_bits, dtype=np.uint8)
    per_symbol = smap.n_data * m_t * 4
    n_data_syms = bits.shape[-1] // per_symbol if bits.ndim else 0
    if n_data_syms < 1 or bits.shape[-1] != n_data_syms * per_symbol:
        raise ConfigurationError(
            f"payload must be one or more data symbols of {per_symbol} bits, got shape {bits.shape}"
        )
    lead = bits.shape[:-1]
    bits = bits.reshape(*lead, n_data_syms, smap.n_data, m_t, 4)
    data_syms = qam16_map(bits).reshape(bits.shape[:-1])

    grids = np.zeros((*lead, N_TRAIN + n_data_syms, n, m_t), dtype=np.complex128)
    grids[..., :N_SHORT, :, :] = short_symbol
    grids[..., N_SHORT, :, :] = preamble.t1
    grids[..., N_SHORT + 1, :, :] = preamble.t2
    grids[..., N_TRAIN:, logical_to_bin(smap.data_bins, n), :] = data_syms
    grids[..., N_TRAIN:, logical_to_bin(smap.pilot_bins, n), :] = pilots.T
    return grids, bits
