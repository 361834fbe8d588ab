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

from dataclasses import dataclass, field

import numpy as np

from .numerics import ConfigurationError, RandomSource, dft, idft, logical_to_bin

__all__ = [
    "SubcarrierMap",
    "FrameConfig",
    "PreambleSet",
    "FrameGroundTruth",
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

DEFAULT_TRAINING_SEED = 0x5EED
_QAM16_LEVELS = np.array([-3.0, -1.0, 3.0, 1.0]) / np.sqrt(10.0)  # index = 2*b0 + b1, Gray
_LEVELS_ASC = np.sort(_QAM16_LEVELS)
_THRESHOLDS = (_LEVELS_ASC[:-1] + _LEVELS_ASC[1:]) / 2.0
_GRAY_OF_ASC = np.argsort(_QAM16_LEVELS)  # ascending level -> Gray index
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


def build_subcarrier_map(n: int = 64) -> SubcarrierMap:
    """802.11a layout for n = 64, proportionally scaled for other sizes."""
    if n < 16 or (n & (n - 1)) != 0:
        raise ConfigurationError(f"FFT size must be a power of two >= 16, got {n}")
    g_lo = int(round(6 * n / 64))
    g_hi = int(round(5 * n / 64))
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


@dataclass(frozen=True)
class FrameConfig:
    """Per-run OFDM frame parameters."""

    m_t: int
    m_r: int
    n: int = 64
    n_cp: int = 16
    symbols_per_frame: int = 50
    n_short: int = 1
    qam_order: int = 16
    ts: float = 5e-8

    def __post_init__(self):
        if self.qam_order != 16:
            raise ConfigurationError("only 16-QAM is supported")
        if self.symbols_per_frame < 2 + self.n_short + 1:
            raise ConfigurationError("frame too short for training plus one data symbol")
        if self.m_t < 1 or self.m_r < 1:
            raise ConfigurationError("antenna counts must be positive")

    @property
    def n_train(self) -> int:
        """Leading training symbols: short symbols then the two long symbols."""
        return self.n_short + 2

    @property
    def n_data_symbols(self) -> int:
        return self.symbols_per_frame - self.n_train

    @property
    def samples_per_symbol(self) -> int:
        return self.n + self.n_cp

    def symbol_window(self, m):
        """First post-prefix sample index of symbol ``m`` (or an array of them) in the stream."""
        return m * self.samples_per_symbol + self.n_cp


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


def _axis_demap(x: np.ndarray) -> np.ndarray:
    """Nearest level per axis (midpoint slicing), returned as the Gray index."""
    return _GRAY_OF_ASC[np.digitize(x, _THRESHOLDS)]


def qam16_demap(symbols: np.ndarray) -> np.ndarray:
    """Nearest-neighbor hard decisions, inverse of :func:`qam16_map`."""
    s = np.asarray(symbols).reshape(-1)
    gi = _axis_demap(s.real)
    gq = _axis_demap(s.imag)
    out = np.empty((s.size, 4), dtype=np.int64)
    out[:, 0] = gi // 2
    out[:, 1] = gi % 2
    out[:, 2] = gq // 2
    out[:, 3] = gq % 2
    return out.reshape(-1)


@dataclass(frozen=True)
class PreambleSet:
    """Frequency-domain long training symbols and their per-bin bookkeeping.

    ``lambda1[i]``/``lambda2[i]`` are the single nonzero entries of the
    used bin with ascending-order index ``i``; ``owner[i]`` is the antenna
    that transmits it.
    """

    t1: np.ndarray       # (n, m_t) storage order
    t2: np.ndarray       # (n, m_t)
    gamma: np.ndarray    # (n,) training values, zero on unused bins
    used: np.ndarray     # (n_used,) logical indices, ascending
    owner: np.ndarray    # (n_used,) transmitting antenna per used bin
    lambda1: np.ndarray  # (n_used,)
    lambda2: np.ndarray  # (n_used,)

    @property
    def m_t(self) -> int:
        return self.t1.shape[1]


def build_preamble(
    m_t: int, smap: SubcarrierMap, seed: int = DEFAULT_TRAINING_SEED
) -> PreambleSet:
    """Subcarrier-multiplexed two-symbol preamble over the used bins."""
    if m_t < 1:
        raise ConfigurationError("need at least one transmit antenna")
    n = smap.n
    used = smap.used_bins
    rng = RandomSource(seed).child("preamble-gamma")
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
    return PreambleSet(
        t1=t1, t2=t2, gamma=gamma, used=used, owner=owner, lambda1=lam1, lambda2=lam2
    )


def build_short_symbol(
    smap: SubcarrierMap, m_t: int, seed: int = DEFAULT_TRAINING_SEED
) -> np.ndarray:
    """Short training symbol: constant-modulus values on used bins, nulls empty.

    All antennas carry the same base sequence rotated by per-antenna
    orthogonal phases so the superposition stays non-degenerate.
    """
    n = smap.n
    used = smap.used_bins
    rng = RandomSource(seed).child("short-symbol")
    base = np.exp(1j * (np.pi / 4) * (2 * rng.integers(4, size=used.size) + 1))
    grid = np.zeros((n, m_t), dtype=np.complex128)
    i = np.arange(used.size)
    for p in range(m_t):
        grid[logical_to_bin(used, n), p] = base * np.exp(2j * np.pi * p * i / m_t)
    return grid


def pilot_matrix(m_t: int, n_pilots: int = 4) -> np.ndarray:
    """Unit-modulus pilot values, one row per antenna, orthogonal across bins."""
    if n_pilots != 4:
        raise ConfigurationError("pilot design is defined for 4 pilot bins")
    if not 1 <= m_t <= 4:
        raise ConfigurationError("pilot design supports 1 to 4 transmit antennas")
    return _HADAMARD4[:m_t].astype(np.complex128)


def modulate_frame(grids: np.ndarray, n_cp: int) -> np.ndarray:
    """Time-domain stream of a ``(s, n, m)`` grid stack, each symbol behind its cyclic prefix."""
    t = np.moveaxis(idft(np.moveaxis(np.asarray(grids, dtype=np.complex128), 0, 1)), 1, 0)
    s, n, m = t.shape
    return np.concatenate([t[:, n - n_cp :], t], axis=1).reshape(s * (n + n_cp), m)


def demodulate_frame(stream: np.ndarray, n: int, n_cp: int, n_symbols: int) -> np.ndarray:
    """Split a stream back into ``(s, n, m)`` demodulated grids, prefixes stripped."""
    per = n + n_cp
    stream = np.asarray(stream, dtype=np.complex128)
    if stream.shape[0] < n_symbols * per:
        raise ConfigurationError(
            f"stream of {stream.shape[0]} samples too short for {n_symbols} symbols"
        )
    windows = stream[: n_symbols * per].reshape(n_symbols, per, -1)[:, n_cp:]
    # symbol-major memory: reductions over a strided view may sum in another order
    return np.ascontiguousarray(np.moveaxis(dft(np.moveaxis(windows, 0, 1)), 1, 0))


@dataclass(frozen=True)
class FrameGroundTruth:
    """Everything needed to score a frame after the receiver has run."""

    bits: np.ndarray          # (n_data_syms, n_data, m_t, 4)
    data_symbols: np.ndarray  # (n_data_syms, n_data, m_t)
    pilots: np.ndarray        # (m_t, n_pilots)
    grids: np.ndarray = field(repr=False, default=None)  # (s, n, m_t) transmitted


def assemble_frame(
    config: FrameConfig,
    smap: SubcarrierMap,
    payload_bits: np.ndarray,
    preamble: PreambleSet,
    short_symbol: np.ndarray | None = None,
    pilots: np.ndarray | None = None,
) -> tuple[np.ndarray, FrameGroundTruth]:
    """Build the per-antenna frequency grids of one frame.

    Layout: ``n_short`` short symbols, the two long training symbols,
    then data symbols carrying payload plus pilots.  ``payload_bits``
    must hold exactly ``n_data_symbols * n_data * m_t * 4`` bits; they
    fill the frame symbol-major, then data bin (ascending logical), then
    antenna, then bit position.
    """
    n, m_t = config.n, config.m_t
    if short_symbol is None:
        short_symbol = build_short_symbol(smap, m_t)
    if pilots is None:
        pilots = pilot_matrix(m_t, smap.pilot_bins.size)
    bits = np.asarray(payload_bits, dtype=np.int64).reshape(-1)
    expected = config.n_data_symbols * smap.n_data * m_t * 4
    if bits.size != expected:
        raise ConfigurationError(
            f"payload must be {expected} bits, got {bits.size}"
        )
    bits = bits.reshape(config.n_data_symbols, smap.n_data, m_t, 4)
    data_syms = qam16_map(bits).reshape(config.n_data_symbols, smap.n_data, m_t)

    grids = np.zeros((config.symbols_per_frame, n, m_t), dtype=np.complex128)
    grids[: config.n_short] = short_symbol
    grids[config.n_short] = preamble.t1
    grids[config.n_short + 1] = preamble.t2
    grids[config.n_train :, logical_to_bin(smap.data_bins, n)] = data_syms
    grids[config.n_train :, logical_to_bin(smap.pilot_bins, n)] = pilots.T
    truth = FrameGroundTruth(bits=bits, data_symbols=data_syms, pilots=pilots, grids=grids)
    return grids, truth
