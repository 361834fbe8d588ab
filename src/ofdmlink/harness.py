"""Monte-Carlo campaign driver: seeded sweeps over SNR, linewidth, and receiver modes.

A grid point is one (snr, linewidth) pair; all configured receiver modes
share the same per-frame channel, noise, payload, and phase-path draws at
that point, so mode comparisons are paired.  Frame randomness is derived
from the master seed through the frame index alone, so every grid point
sees the same draws (common random numbers) and cross-point comparisons
are paired too.  A campaign runs as a grid of tasks, contiguous spans of
frames times interleaved groups of points, no more tasks than processes,
and the calling process runs the first (see :func:`_task_grid`).  A task
simulates each chunk of its frames once (:func:`simulate_frame`), makes
each linewidth's phase noise once per chunk, and impairs (:func:`impair`)
and runs the receiver once per stack of points, their frames one point
after another on the frame axis (see :data:`STACK_SYMBOLS`).  A frame's
results do not depend on the frames stacked with it, and a point's spans
merge exactly (:meth:`_Tally.merge`), so every result is byte-reproducible
regardless of worker count, stacking or scheduling.
Each stage runs on every frame: all frames draw their noise and phase
steps, and the front end always estimates the mismatch.  A frame's
layout is fixed (:data:`~ofdmlink.framing.N_TRAIN` training symbols,
then data) and its sizes are the config's fields; the subcarrier map,
training symbols and pilots they imply, and the channel completion, one
matrix per transmit antenna up to :data:`COMPLETION_OPERATOR_BYTES`, are
built once, on first use, as properties of :class:`ScenarioConfig`.

The receiver modes differ only in the channel estimate they detect with
(see :func:`receiver_state`) and the common-phase updates they apply:
``none`` (identity), ``tracked`` (from the pilots) or ``genie`` (ground
truth).  Each estimate is built once per chunk and stack of points and
shared by its modes.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .channel import apply_channel, draw_channel, exp_power_profile
from .equalization import EqualizerOptions, equalize_frame
from .estimation import (
    EstimationError,
    EstimatorState,
    PreambleEstimate,
    demix_channel,
    estimate_iq_params,
    estimate_noise_ici_corr,
    estimate_preamble,
    interpolate_channel,
    iterative_refine,
    refine_iq_channel,
)
from .framing import (
    N_SHORT,
    N_TRAIN,
    PreambleSet,
    SubcarrierMap,
    assemble_frame,
    build_preamble,
    build_short_symbol,
    build_subcarrier_map,
    demodulate_frame,
    modulate_frame,
    pilot_matrix,
)
from .impairments import (
    IqParams,
    apply_iq_imbalance,
    apply_phase_noise,
    cpe_of,
    wiener_phase,
)
from .numerics import ConfigurationError, RandomSource, logical_to_bin
from .svgplot import line_chart

__all__ = [
    "MODES",
    "RECEIVER_MODES",
    "ScenarioConfig",
    "CampaignRow",
    "CampaignResult",
    "compute_mse_ce",
    "compute_mse_k1",
    "simulate_frame",
    "impair",
    "FrontEnd",
    "front_end",
    "receiver_state",
    "run_point",
    "run_campaign",
    "emit_csv",
    "emit_plots",
]

# mode -> (channel estimate, phase updates)
RECEIVER_MODES = {
    "uncompensated": ("ls", "none"),
    "iq-only": ("demixed", "none"),
    "pn-only": ("direct", "tracked"),
    "full": ("demixed", "tracked"),
    "genie": ("genie", "genie"),
}
MODES = tuple(RECEIVER_MODES)

# Beyond this the noise variance of a finite SNR point leaves the float range.
MAX_SNR_DB = 300.0
# Symbols per chunk of frames.  A chunk holds as many whole iq_frame_avg
# blocks as fit (at least one) and is simulated once for a whole group of
# grid points: 512 (30 frames of preamble-mse) raised that workload's peak
# RSS by about 5%, 64 (10 frames) by under 2%.
CHUNK_SYMBOLS = 64
# Symbols per stack of grid points.  A stack holds as many points' whole
# chunks as fit (at least one point), every receiver stage runs once per
# stack, and all of its arrays are live at once.  Most of a short frame's
# scoring time is per call, not per frame: 160 scores 4 of preamble-mse's
# 40-symbol chunks per call.  192 (3 of cli-sweep's 64-symbol chunks) raised
# that workload's peak RSS by 2.4%; a CHUNK_SYMBOLS of 192 would instead
# triple the chunk of a one-point campaign.
STACK_SYMBOLS = 160

# Complex samples of a chunk over all receive branches, frames * samples * m_r.
# A chunk holds at least one frame, so this bounds every frame too: at this
# bound each of a chunk's stream arrays is 256 MiB.  The n = 4096, 4x4 frame
# of 50 symbols fills one chunk with 870400.
MAX_CHUNK_SAMPLES = 2**24

# Bytes of the completion operators, n * n_used complex values in all.  Their
# build holds m_t times as much, plus one antenna's padded taps and transform
# inside iterative_refine (a traced peak of 26 MiB at n = 512, m_t = 4), and a
# product costs n_used multiplies per bin where the spline costs a few; above
# this, from n = 1024, _complete runs the configured builder on each chunk's
# values instead.
COMPLETION_OPERATOR_BYTES = 2**22

# The pool of a parallel campaign; forked, its workers inherit this module as
# it stands, wrappers installed on its names included.
_pool = multiprocessing.get_context("fork").Pool


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one campaign; every field has a desk-scale default."""

    m_t: int = 2
    m_r: int = 2
    snr_db: tuple = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0)
    beta_hz: tuple = (5e3,)
    iq_theta_deg: float = 5.0
    iq_amp_pct: float = 10.0
    frames: int = 50
    modes: tuple = ("full",)
    detector: str = "mmse"
    ce_method: str = "interp"
    master_seed: int = 1
    n: int = 64
    n_cp: int = 16
    l_taps: int = 7
    pdp_decay: float = 2.0
    symbols_per_frame: int = 50
    ts: float = 5e-8
    iq_frame_avg: int = 1
    tracking_variant: str = "re-derived"
    mmse_r: str = "sigma"
    workers: int = 1

    def __post_init__(self):
        if self.frames < 1:
            raise ConfigurationError("frames must be >= 1")
        if not self.snr_db:
            raise ConfigurationError("snr list must be nonempty")
        if not all(s == math.inf or abs(s) <= MAX_SNR_DB for s in self.snr_db):
            raise ConfigurationError(f"SNR points must be +inf or within +-{MAX_SNR_DB:g} dB")
        if not self.beta_hz:
            raise ConfigurationError("linewidth list must be nonempty")
        if not all(math.isfinite(b) and b >= 0 for b in self.beta_hz):
            raise ConfigurationError("linewidths must be finite and nonnegative")
        # a repeated value would run and print the same grid points twice
        for name, values in (("SNR", self.snr_db), ("linewidth", self.beta_hz)):
            if len(set(values)) < len(values):
                raise ConfigurationError(f"{name} list must name each value once")
        if not (math.isfinite(self.ts) and self.ts > 0):
            raise ConfigurationError("sample period must be finite and positive")
        if not math.isfinite(4.0 * math.pi * max(self.beta_hz) * self.ts):
            raise ConfigurationError("linewidth times sample period overflows the phase-noise variance")
        if not (math.isfinite(self.iq_theta_deg) and -100.0 < self.iq_amp_pct <= 100.0):
            raise ConfigurationError(
                "IQ phase mismatch must be finite and the amplitude mismatch in (-100, 100] percent"
            )
        for m in self.modes:
            if m not in MODES:
                raise ConfigurationError(f"unknown mode {m!r}; choose from {MODES}")
        if not self.modes or len(set(self.modes)) < len(self.modes):
            raise ConfigurationError("mode list must be nonempty and name each mode once")
        # the frame, grid, pilot, channel and receiver checks, before any frame
        # runs; each size is bounded before anything is allocated from it, and
        # reading a layout property builds it (and raises on a bad one)
        if self.m_t < 1 or self.m_r < 1:
            raise ConfigurationError("antenna counts must be positive")
        if self.symbols_per_frame < N_TRAIN + 1:
            raise ConfigurationError("frame too short for training plus one data symbol")
        if not 0 <= self.n_cp <= self.n:
            raise ConfigurationError("cyclic prefix must be nonnegative and not exceed the FFT size")
        self.smap, self.pilots
        if self.l_taps > self.n_cp:
            raise ConfigurationError("channel length must not exceed the cyclic prefix")
        exp_power_profile(self.l_taps, self.pdp_decay)
        self.equalizer
        if self.detector == "mmse" and self.mmse_r == "kron" and self.m_r**2 != 2 * self.m_t:
            raise ConfigurationError("kron-form MMSE regularization needs m_r**2 == 2 m_t")
        if self.ce_method not in ("interp", "iterative"):
            raise ConfigurationError(f"unknown ce method {self.ce_method!r}")
        if self.iq_frame_avg < 1:
            raise ConfigurationError("iq_frame_avg must be >= 1")
        chunk = min(_chunk_frames(self), self.frames)
        if chunk * self.symbols_per_frame * (self.n + self.n_cp) * self.m_r > MAX_CHUNK_SAMPLES:
            raise ConfigurationError(
                f"a chunk of {chunk} frames must hold at most {MAX_CHUNK_SAMPLES} samples "
                "over all receive branches; shorten the frame or lower iq_frame_avg"
            )
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")

    # The layout and receiver settings the fields imply, built on first use
    # and then shared by every frame of the campaign.

    @cached_property
    def smap(self) -> SubcarrierMap:
        return build_subcarrier_map(self.n)

    @cached_property
    def preamble(self) -> PreambleSet:
        return build_preamble(self.m_t, self.smap)

    @cached_property
    def short_symbol(self) -> np.ndarray:
        return build_short_symbol(self.smap, self.m_t)

    @cached_property
    def pilots(self) -> np.ndarray:
        return pilot_matrix(self.m_t)

    @cached_property
    def iq(self) -> IqParams:
        return IqParams.uniform(self.m_r, self.iq_theta_deg, self.iq_amp_pct)

    @cached_property
    def equalizer(self) -> EqualizerOptions:
        return EqualizerOptions(
            detector=self.detector, tracking_variant=self.tracking_variant, mmse_r=self.mmse_r
        )

    @cached_property
    def completion(self) -> tuple | None:
        """Each transmit antenna's knot mask and completion matrix (:func:`_completion_operator`)."""
        return _completion_operator(self)


@dataclass(frozen=True)
class CampaignRow:
    """One row of ``results.csv``: the columns are the fields, in order."""

    snr_db: float
    beta_hz: float
    mode: str
    detector: str
    ce_method: str
    m_t: int
    m_r: int
    frames_run: int
    ber: float
    mse_ce: float
    mse_k1: float
    flagged_symbols: int
    seed: int

    def csv(self) -> str:
        """The row's CSV line; the ``float`` fields in :func:`_fmt`'s fixed format."""
        return ",".join(
            _fmt(getattr(self, f.name)) if f.type == "float" else str(getattr(self, f.name))
            for f in fields(self)
        )


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.10e}"


@dataclass(frozen=True)
class CampaignResult:
    config: ScenarioConfig
    rows: tuple

    def filter(self, **coords) -> list:
        out = []
        for r in self.rows:
            if all(getattr(r, k) == v for k, v in coords.items()):
                out.append(r)
        return out


def compute_mse_ce(h_hat: np.ndarray, h_true_eff: np.ndarray, used_bins: np.ndarray, n: int):
    """Normalized squared error of the effective-channel estimate on used bins, per frame."""
    b = logical_to_bin(used_bins, n)
    h_true = np.take(h_true_eff, b, axis=-3)
    num = np.sum(np.abs(np.take(h_hat, b, axis=-3) - h_true) ** 2, axis=(-3, -2, -1))
    den = np.sum(np.abs(h_true) ** 2, axis=(-3, -2, -1))
    return num / den


def compute_mse_k1(k1_hat: np.ndarray, k1_true: np.ndarray) -> float:
    """Squared Frobenius distance between the diagonal mismatch matrices."""
    return float(np.sum(np.abs(k1_hat - k1_true) ** 2))


@dataclass(frozen=True)
class FrameDraws:
    """A chunk of frames' point-invariant part, shared by every grid point of a task."""

    clean: np.ndarray            # (frames, samples, m_r) channel output before noise
    noise: np.ndarray            # (frames, samples, m_r) standard normal per real dimension
    steps: np.ndarray            # (frames, samples - 1, m_r) standard-normal phase steps per branch
    truth_bits: np.ndarray       # (frames, n_data_syms, n_data, m_t, 4) uint8
    freq: np.ndarray             # (frames, n, m_r, m_t) channel responses


@dataclass(frozen=True)
class SimulatedFrames:
    """A chunk of frames' physics at one or more grid points, shared by every receiver mode."""

    rx_grids: np.ndarray         # (frames, symbols, n, m_r) demodulated with impairments
    truth_bits: np.ndarray       # (frames of one point, n_data_syms, n_data, m_t, 4)
    h_eff: np.ndarray            # (frames, n, m_r, m_t) channel fused with the preamble-time phase
    sigma2: np.ndarray           # (frames,) time-domain noise variance per branch
    cpe_true: np.ndarray         # (frames, n_data_syms, m_r) genie per-symbol updates


def simulate_frame(config: ScenarioConfig, rngs) -> FrameDraws:
    """Transmit a chunk of frames through the channel and draw their noise and phase steps.

    This is the part of a frame that no SNR or linewidth changes.
    ``rngs`` holds one source per frame; each frame draws its channel,
    payload, noise and phase steps from its own labelled children, so a
    frame's draws depend neither on the chunk it runs in nor on the grid
    point.  The noise and the steps are standard normal and
    :func:`impair` scales them per point; a point without noise or phase
    noise leaves its draw unused.
    """
    smap = config.smap
    channels = [
        draw_channel(
            config.m_t, config.m_r, config.l_taps, config.pdp_decay,
            rng.child("channel"), n_fft=config.n,
        )
        for rng in rngs
    ]
    frame_bits = (config.symbols_per_frame - N_TRAIN) * smap.n_data * config.m_t * 4
    payload = np.stack([rng.child("payload").integers(0, 2, size=frame_bits) for rng in rngs])
    grids, truth_bits = assemble_frame(
        smap, payload, config.preamble, short_symbol=config.short_symbol, pilots=config.pilots
    )
    tx = modulate_frame(grids, config.n_cp)
    # one stream array for the chunk, filled frame by frame: the convolution
    # is per frame, and the chunk holds no second copy of it
    clean = np.empty((len(rngs), tx.shape[1] + config.l_taps - 1, config.m_r), dtype=np.complex128)
    for f, ch in enumerate(channels):
        clean[f] = apply_channel(tx[f], ch)
    noise = np.empty_like(clean)
    for f, rng in enumerate(rngs):  # complex_normal's two draws, unscaled
        gen = rng.child("noise").rng
        noise[f].real = gen.standard_normal(clean.shape[1:])
        noise[f].imag = gen.standard_normal(clean.shape[1:])
    shape = (clean.shape[1] - 1, config.m_r)
    steps = np.stack([rng.child("phase").rng.standard_normal(shape) for rng in rngs])
    return FrameDraws(
        clean=clean, noise=noise, steps=steps, truth_bits=truth_bits,
        freq=np.stack([ch.freq for ch in channels]),
    )


def _phase(draws: FrameDraws, config: ScenarioConfig, beta: float) -> tuple:
    """A chunk's phase noise at one linewidth: the rotation ``exp(j phi)``, ``h_eff``, ``cpe_true``.

    The common phase errors are read from the rotation that turns the
    streams, so ``exp`` runs once per linewidth and chunk.
    """
    rotation = 1j * wiener_phase(beta, config.ts, draws.steps)
    np.exp(rotation, out=rotation)  # in place: a chunk of streams is large
    # The preamble-stage estimator targets the channel fused with the mean
    # common phase of the two long training symbols (rows 0 and 1).
    start = np.arange(N_SHORT, config.symbols_per_frame) * (config.n + config.n_cp) + config.n_cp
    cpe = cpe_of(rotation, start, config.n)
    theta_pre = 0.5 * (cpe[:, 0] + cpe[:, 1])
    return rotation, theta_pre[:, None, :, None] * draws.freq, cpe[:, 2:] / theta_pre[:, None]


def impair(draws: FrameDraws, config: ScenarioConfig, points, phases: dict) -> SimulatedFrames:
    """Add a stack of grid points' noise, phase noise and IQ mixing to a chunk's shared draws.

    ``points`` is a sequence of ``(snr_db, beta)`` pairs, impaired and
    demodulated as one ``(points, frames, samples, m_r)`` stream; their
    frames come back one point after another, with the chunk's bits once.
    ``phases`` caches :func:`_phase` by linewidth for a chunk's stacks,
    which run linewidth-major: only the last point's linewidth is kept for
    the next stack.  Scaling a standard-normal draw equals drawing at that
    scale bit for bit, so the result does not depend on which points share
    the draws.
    """
    for _, beta in points:
        if beta not in phases:
            phases[beta] = _phase(draws, config, beta)
    # SNR is referenced to the average received data-symbol power per branch
    # with unit-energy constellation and unit-energy channel.
    p_rx = config.m_t * config.smap.n_used / config.n**2
    sigma2 = [0.0 if math.isinf(snr_db) else p_rx / 10.0 ** (snr_db / 10.0) for snr_db, _ in points]
    rx = np.empty((len(points), *draws.clean.shape), dtype=np.complex128)
    for p, (_, beta) in enumerate(points):
        np.multiply(draws.noise, np.sqrt(sigma2[p] / 2.0), out=rx[p])  # zeros at infinite SNR
        rx[p] += draws.clean
        apply_phase_noise(rx[p], phases[beta][0])
    h_eff = np.concatenate([phases[beta][1] for _, beta in points])
    cpe_true = np.concatenate([phases[beta][2] for _, beta in points])
    for beta in set(phases) - {points[-1][1]}:  # not held while the stack is mixed
        del phases[beta]
    rx_grids = demodulate_frame(
        apply_iq_imbalance(rx, config.iq), config.n, config.n_cp, config.symbols_per_frame
    )
    return SimulatedFrames(
        rx_grids=rx_grids.reshape(-1, *rx_grids.shape[2:]), truth_bits=draws.truth_bits,
        h_eff=h_eff, sigma2=np.repeat(sigma2, draws.clean.shape[0]), cpe_true=cpe_true,
    )


def _run_builder(e_vals, config: ScenarioConfig) -> np.ndarray:
    """The configured completion of ``(..., n_used, m_r)`` trained values.

    Called through this module's names, so that a wrapper installed on
    them sees every build.
    """
    pre = config.preamble
    if config.ce_method == "iterative":
        return iterative_refine(e_vals, pre, config.smap, config.l_taps)
    return interpolate_channel(e_vals, pre, config.smap)


def _completion_operator(config: ScenarioConfig) -> tuple | None:
    """Each transmit antenna's completion as a matrix on its own trained values.

    Both completions are linear in the trained values and their map
    depends only on the config, so one run of the configured builder on
    the unit basis (each used bin a frame, one receive branch) gives them
    all.  Antenna ``p`` gets the mask ``sel_p`` of its knots among the
    used bins and the read-only ``(n, k_p)`` matrix ``A_p``, whose column
    ``j`` completes a unit value on its ``j``-th knot.  A unit value on
    one antenna's knot must leave every other antenna's channel exactly
    zero, or the build raises :class:`EstimationError`.  ``None`` when the
    operators would exceed :data:`COMPLETION_OPERATOR_BYTES`.
    """
    pre = config.preamble
    if config.n * pre.used.size * 16 > COMPLETION_OPERATOR_BYTES:
        return None
    basis = np.eye(pre.used.size, dtype=np.complex128)[:, :, None]  # (frames, n_used, m_r = 1)
    out = _run_builder(basis, config)
    operators = []
    for p in range(config.m_t):
        sel = pre.owner == p
        cols = out[sel, :, 0, :]  # (k_p, n, m_t): the completions of each of p's unit knots
        if np.delete(cols, p, axis=-1).any():
            raise EstimationError(f"the completion of antenna {p}'s knots leaks into other antennas")
        a = np.ascontiguousarray(cols[..., p].T)
        sel.flags.writeable = a.flags.writeable = False  # shared by every chunk of the campaign
        operators.append((sel, a))
    return tuple(operators)


def _complete(e_vals, config: ScenarioConfig) -> np.ndarray:
    """Complete ``(..., n_used, m_r)`` trained values into the ``(..., n, m_r, m_t)`` channel.

    One product with the config's precomputed operator per transmit
    antenna and frame (see :func:`_completion_operator`), the receive
    branches its columns, so a frame's channel does not depend on the
    frames stacked with it; without an operator, the configured builder.
    Non-finite values raise ``ValueError``: the completion would spread
    them over the whole band.
    """
    if not np.isfinite(e_vals).all():
        raise ValueError("channel estimates to complete must be finite")
    operators = config.completion
    if operators is None:
        return _run_builder(e_vals, config)
    h = np.zeros((*e_vals.shape[:-2], config.n, e_vals.shape[-1], config.m_t), dtype=np.complex128)
    for p, (sel, a) in enumerate(operators):
        h[..., p] = a @ np.compress(sel, e_vals, axis=-2)
    return h


@dataclass(frozen=True)
class FrontEnd:
    """A chunk of frames' preamble-stage estimates, shared by every receiver mode."""

    psi: np.ndarray          # (frames, m_r, m_r) noise + ICI correlation from the short symbols
    est: PreambleEstimate    # per-bin products of the two long training symbols
    g: np.ndarray            # (frames, m_r) refined mismatch, NaN where it failed


def front_end(frames: SimulatedFrames, config: ScenarioConfig) -> FrontEnd:
    """Estimate a chunk of frames' preamble stage once for all receiver modes.

    The mismatch is the adjacent-bin estimate refined by de-mixing; only
    the modes that detect with the de-mixed channel read it.
    """
    rx, pre = frames.rx_grids, config.preamble
    nulls = logical_to_bin(config.smap.null_bins, config.n)
    samples = np.take(rx[:, :N_SHORT], nulls, axis=2).reshape(rx.shape[0], -1, config.m_r)
    psi = estimate_noise_ici_corr(samples)
    est = estimate_preamble(rx[:, N_SHORT], rx[:, N_SHORT + 1], pre)
    g0 = estimate_iq_params(est.chi_a, est.e, pre.owner)
    return FrontEnd(psi=psi, est=est, g=refine_iq_channel(est, pre.owner, g0, psi))


def receiver_state(
    frames: SimulatedFrames,
    fe: FrontEnd,
    config: ScenarioConfig,
    estimate: str,
    k1: np.ndarray | None,
) -> tuple[EstimatorState, np.ndarray]:
    """The receiver-side state of one channel estimate for the frames that can use it.

    ``ls`` is least squares from the first long symbol; ``direct`` is the
    direct preamble product ``chi_a``, which is the two-symbol least-squares
    estimate when there is no IQ mismatch; ``demixed`` is the channel
    de-mixed with ``k1``, the ``(frames, m_r)`` block-averaged mismatch
    estimates (NaN for a block without one); ``genie`` is the ground-truth
    channel, mismatch and each frame's noise power.  Returns the state of
    the frames that run, and the ``(frames,)`` mask of them: a de-mixed
    frame runs only when its ``k1`` separates the image.
    """
    ran = np.ones(frames.rx_grids.shape[0], dtype=bool)
    if estimate == "genie":
        gain = np.abs(config.iq.k1) ** 2 + np.abs(config.iq.k2) ** 2
        noise = gain * config.n * frames.sigma2[:, None]  # (frames, m_r)
        psi = (noise[..., None] * np.eye(config.m_r)).astype(np.complex128)
        return EstimatorState(h_pre=frames.h_eff, k1=config.iq.k1, psi=psi), ran
    if estimate == "demixed":
        u = demix_channel(fe.est, k1)
        ran = ~np.isnan(u).any(axis=(-2, -1))
        h = _complete(u[ran], config)
        return EstimatorState(h_pre=h, k1=k1[ran], psi=fe.psi[ran]), ran
    h = _complete(fe.est.chi_a if estimate == "direct" else fe.est.ls, config)
    return EstimatorState(h_pre=h, k1=np.ones(config.m_r, dtype=np.complex128), psi=fe.psi), ran


def _chunk_frames(config: ScenarioConfig) -> int:
    """Frames per chunk: whole ``iq_frame_avg`` blocks within CHUNK_SYMBOLS, at least one block."""
    blocks = max(1, CHUNK_SYMBOLS // (config.iq_frame_avg * config.symbols_per_frame))
    return blocks * config.iq_frame_avg


def _stack_points(config: ScenarioConfig) -> int:
    """Grid points per stack: whole chunks within STACK_SYMBOLS, at least one point."""
    chunk = min(_chunk_frames(config), config.frames)
    return max(1, STACK_SYMBOLS // (chunk * config.symbols_per_frame))


@dataclass
class _Tally:
    """One grid point's scores in one mode over a span of frames; builds the point's row.

    Scores add up stack by stack.  The per-frame ``mse_ce`` values are
    kept, 8 bytes per frame, and summed once, frame by frame in order, so a
    point's merged spans give the sum that one tally over all its frames
    gives.
    """

    frames_run: int = 0
    bit_errors: int = 0
    flagged: int = 0
    mse_ce_frames: list = field(default_factory=list)  # per-frame mse_ce arrays, stack by stack
    k1_terms: list = field(default_factory=list)  # (mismatch MSE, how many times it counts)

    def add(self, ran, errors, flagged, mse_ce, k1_terms: list) -> None:
        """Add the point's frames of one stack; ``mse_ce`` is 0.0 where a frame did not run."""
        self.frames_run += int(ran.sum())
        self.bit_errors += int(errors.sum())
        self.flagged += int(flagged.sum())
        self.mse_ce_frames.append(mse_ce)
        self.k1_terms += k1_terms

    def merge(self, later: _Tally) -> None:
        """Add the same point's scores over the frames that follow this tally's."""
        self.frames_run += later.frames_run
        self.bit_errors += later.bit_errors
        self.flagged += later.flagged
        self.mse_ce_frames += later.mse_ce_frames
        self.k1_terms += later.k1_terms

    @property
    def mse_ce_sum(self) -> float:
        """The float sum of ``mse_ce``, frame by frame in order (cumsum adds left to right)."""
        return float(np.cumsum(np.r_[0.0, *self.mse_ce_frames])[-1])

    def row(self, config: ScenarioConfig, point: tuple, mode: str) -> CampaignRow:
        """The row of ``point`` in ``mode``; ``mse_k1`` averages each term as often as it counts."""
        n, (snr_db, beta), nan = self.frames_run, point, float("nan")
        frame_bits = (config.symbols_per_frame - N_TRAIN) * config.smap.n_data * config.m_t * 4
        terms = np.repeat([v for v, _ in self.k1_terms], [c for _, c in self.k1_terms])
        return CampaignRow(
            snr_db=snr_db, beta_hz=beta, mode=mode, detector=config.detector,
            ce_method=config.ce_method, m_t=config.m_t, m_r=config.m_r, frames_run=n,
            ber=self.bit_errors / (n * frame_bits) if n else nan,
            mse_ce=self.mse_ce_sum / n if n else nan,
            mse_k1=float(np.mean(terms)) if terms.size else nan,
            flagged_symbols=self.flagged, seed=config.master_seed,
        )


def _score_chunk(frames: SimulatedFrames, config: ScenarioConfig, tallies: list) -> None:
    """Run every mode on a stack of points' chunks and add each point's scores to its tallies.

    ``frames`` holds ``len(tallies)`` points' chunks of equal length one
    after another on the frame axis, and ``tallies[p]`` maps each mode to
    point ``p``'s :class:`_Tally`.  Every stage runs once for the whole
    stack; a frame's results do not depend on the frames stacked with it.
    Each mode is scored into frame-length arrays, zero where a frame did
    not run, which each tally adds up once.  The ``iq_frame_avg`` blocks
    restart at each point's first frame, and a block's mismatch term
    counts for the de-mixed modes even where none of its frames runs.
    """
    step = config.iq_frame_avg
    n_frames = frames.rx_grids.shape[0]
    per_point = n_frames // len(tallies)
    fe = front_end(frames, config)
    k1 = np.full((n_frames, config.m_r), np.nan, dtype=np.complex128)
    usable = np.isfinite(fe.g).all(axis=-1)
    block_terms = [[] for _ in tallies]  # each point's (mismatch MSE, 1) per usable block
    for p, terms in enumerate(block_terms):
        end = (p + 1) * per_point
        for b in range(p * per_point, end, step):
            block = slice(b, min(b + step, end))
            g_block = fe.g[block][usable[block]]
            if len(g_block):
                k1[block] = k1_block = (1.0 + np.mean(g_block, axis=0)) / 2.0
                terms.append((compute_mse_k1(k1_block, config.iq.k1), 1))

    states = {}  # estimate -> (state of the frames run, their mask, mse_ce of every frame)
    for estimate in dict.fromkeys(RECEIVER_MODES[m][0] for m in config.modes):
        state, ran = receiver_state(frames, fe, config, estimate, k1)
        mse_ce = np.zeros(n_frames)
        mse_ce[ran] = compute_mse_ce(state.h_pre, frames.h_eff[ran], config.preamble.used, config.n)
        states[estimate] = (state, ran, mse_ce)
    del fe  # the preamble products are not held while the modes detect
    no_updates = np.ones((1, config.m_r), dtype=np.complex128)  # one system per frame and pair
    for mode in config.modes:
        estimate, phase = RECEIVER_MODES[mode]
        state, ran, mse_ce = states[estimate]
        errors = np.zeros(n_frames, dtype=np.int64)
        flagged = np.zeros(n_frames, dtype=np.int64)
        if ran.any():
            run = slice(None) if ran.all() else ran  # no copy of the stack when all frames run
            updates = {"none": no_updates, "tracked": None, "genie": frames.cpe_true[run]}
            dec = equalize_frame(
                frames.rx_grids[run], state, config.smap, config.pilots,
                options=config.equalizer, phase_updates=updates[phase],
            )
            wrong = dec.bits != frames.truth_bits[np.flatnonzero(ran) % per_point]
            wrong |= dec.erased[..., None, None]  # every bit of an erased bin is an error
            errors[ran] = wrong.reshape(len(wrong), -1).sum(axis=1)
            flagged[ran] = dec.flagged.sum(axis=-1)
        k1_terms = block_terms
        if estimate != "demixed":  # every frame runs, and each counts the same constant term
            k1_terms = [[(compute_mse_k1(state.k1, config.iq.k1), per_point)]] * len(tallies)
        by_point = (a.reshape(len(tallies), per_point) for a in (ran, errors, flagged, mse_ce))
        for tally, terms, *rows in zip(tallies, k1_terms, *by_point):
            tally[mode].add(*rows, terms)


def _coords(config: ScenarioConfig, point: tuple[int, int]) -> tuple[float, float]:
    """The ``(snr_db, beta)`` values of a ``(snr_idx, beta_idx)`` grid point."""
    i, j = point
    return float(config.snr_db[i]), float(config.beta_hz[j])


def run_point(config: ScenarioConfig, points, span: range | None = None) -> list:
    """Run all frames of a group of grid points and score every mode at each.

    ``points`` is a sequence of ``(snr_idx, beta_idx)`` pairs; the rows come
    back point by point in that order, one per mode, each built by the
    point's :class:`_Tally` in that mode.  With ``span``, a range of whole
    ``iq_frame_avg`` blocks, only those frames run, and each point's tallies
    come back instead of its rows (``mode -> _Tally``), for
    :func:`run_campaign` to merge.  Frames run in chunks of whole
    ``iq_frame_avg`` blocks.  A chunk's channels, payload, noise-free
    streams and standard-normal draws are simulated once and shared by
    every point of the group.  The points then go linewidth-major in stacks
    of :func:`_stack_points`, so each linewidth's phase noise is made once
    per chunk: :func:`impair` adds each point's noise, phase noise and IQ
    mixing to the chunk in one pass over the stack, its frames one point
    after another on a leading frame axis, and every receiver stage and the
    scoring (:func:`_score_chunk`) run once for the stack.  The mismatch
    estimates of a block are averaged (the mismatch is static hardware) and
    the block estimate drives detection and the mismatch-MSE metric for its
    frames.  All modes see the same physical realizations.
    """
    coords = [_coords(config, point) for point in points]
    root = RandomSource(config.master_seed)
    whole = span is None
    span = range(config.frames) if whole else span
    tallies = [{mode: _Tally() for mode in config.modes} for _ in coords]
    order = sorted(range(len(coords)), key=lambda k: points[k][1])  # linewidth-major
    chunk, stack = _chunk_frames(config), _stack_points(config)
    for start in range(span.start, span.stop, chunk):
        rngs = [root.child("frame", f) for f in range(start, min(start + chunk, span.stop))]
        draws = simulate_frame(config, rngs)
        phases = {}  # the chunk's phase noise by linewidth, filled and pruned by impair
        for s in range(0, len(order), stack):
            frames = impair(draws, config, [coords[k] for k in order[s : s + stack]], phases)
            _score_chunk(frames, config, [tallies[k] for k in order[s : s + stack]])
            del frames  # freed before the next stack is impaired
        del draws, phases  # not held while the next chunk is drawn
    if not whole:
        return tallies
    return [t[mode].row(config, point, mode) for point, t in zip(coords, tallies) for mode in t]


def _point_task(config: ScenarioConfig, points, span: range) -> list[dict]:
    """:func:`run_point` looked up in the worker: a wrapper installed on it need not pickle."""
    return run_point(config, points, span)


def _task_grid(config: ScenarioConfig) -> tuple[list[list[tuple[int, int]]], list[range]]:
    """The campaign's interleaved point groups and contiguous frame spans.

    Each (group, span) pair is one task, and there are never more tasks
    than the ``P = min(workers, os.cpu_count())`` processes.  The frames
    split first, into ``S = min(P, blocks)`` spans of whole ``iq_frame_avg``
    blocks whose block counts differ by at most one, so no frame is
    simulated twice when there are at least ``P`` blocks; the points then
    split into ``min(P // S, points)`` groups.
    """
    processes = min(config.workers, os.cpu_count() or 1)
    blocks = -(-config.frames // config.iq_frame_avg)
    n_spans = min(processes, blocks)
    edges = [k * blocks // n_spans * config.iq_frame_avg for k in range(n_spans)] + [config.frames]
    spans = [range(a, b) for a, b in zip(edges, edges[1:])]
    points = [(i, j) for i in range(len(config.snr_db)) for j in range(len(config.beta_hz))]
    n_groups = min(processes // n_spans, len(points))
    return [points[k::n_groups] for k in range(n_groups)], spans


def run_campaign(config: ScenarioConfig) -> CampaignResult:
    """Sweep the whole grid; results are identical for any worker count.

    The tasks of :func:`_task_grid` go span by span, so the first span of
    each point comes first.  The calling process runs the first task and a
    pool of one process per other task runs the rest, both through
    :func:`run_point`; with one task there is no pool.  Leaving the pool
    terminates and joins its workers, so an error in the caller's task ends
    the campaign without waiting for theirs.  With a pool, the caller runs
    its task one chunk (:func:`_chunk_frames`) per call and, after each
    chunk and then until the pool's tasks are done, watches their results:
    the first that failed raises its error at once, whatever the other
    tasks are doing.  A worker that ends before its task does (killed, say)
    raises too: the pool would start another in its place and wait for the
    lost task forever.  Each point's tallies then merge in frame order.
    """
    groups, spans = _task_grid(config)
    tasks = [(group, span) for span in spans for group in groups]
    if len(tasks) == 1:
        done = [(tasks[0][0], run_point(config, *tasks[0]))]
    else:
        others = multiprocessing.active_children()
        with _pool(len(tasks) - 1) as pool:
            workers = [p for p in multiprocessing.active_children() if p not in others]
            rest = [pool.apply_async(_point_task, (config, *task)) for task in tasks[1:]]

            def pending() -> list:
                """The pool's unfinished tasks; raises for a failed one or a lost worker."""
                for result in rest:
                    if result.ready() and not result.successful():
                        result.get()  # raises the task's error
                unfinished = [result for result in rest if not result.ready()]
                if unfinished and not all(w.is_alive() for w in workers):
                    raise RuntimeError("a campaign worker ended before its task")
                return unfinished

            (group, span), chunk, done = tasks[0], _chunk_frames(config), []
            for start in range(span.start, span.stop, chunk):
                piece = range(start, min(start + chunk, span.stop))
                done.append((group, run_point(config, group, piece)))
                pending()
            while unfinished := pending():
                unfinished[0].wait(0.1)
            done += [(group, result.get()) for (group, _), result in zip(tasks[1:], rest)]
    merged = {}
    for group, tallies in done:
        for point, by_mode in zip(group, tallies):
            if point not in merged:
                merged[point] = by_mode
                continue
            for mode, tally in by_mode.items():
                merged[point][mode].merge(tally)
    rows = tuple(
        tally.row(config, _coords(config, point), mode)
        for point in sorted(merged)
        for mode, tally in merged[point].items()
    )
    return CampaignResult(config=config, rows=rows)


def emit_csv(result: CampaignResult, path) -> None:
    lines = [",".join(f.name for f in fields(CampaignRow))] + [r.csv() for r in result.rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _series_by(result: CampaignResult, metric: str) -> list:
    series = []
    for mode in result.config.modes:
        for beta in result.config.beta_hz:
            rows = sorted(result.filter(mode=mode, beta_hz=beta), key=lambda r: r.snr_db)
            label = f"{mode} b={beta:g}Hz"
            series.append((label, [r.snr_db for r in rows], [getattr(r, metric) for r in rows]))
    return series


def emit_plots(result: CampaignResult, out_dir) -> list[str]:
    """Write the BER and channel-MSE versus SNR charts; returns the paths."""
    paths = []
    for metric, fname, ylabel in (
        ("ber", "ber_vs_snr.svg", "bit error rate"),
        ("mse_ce", "mse_vs_snr.svg", "channel estimation MSE"),
    ):
        path = os.path.join(out_dir, fname)
        svg = line_chart(
            _series_by(result, metric),
            title=f"{ylabel} vs SNR",
            xlabel="SNR (dB)",
            ylabel=ylabel,
        )
        with open(path, "w") as fh:
            fh.write(svg)
        paths.append(path)
    return paths
