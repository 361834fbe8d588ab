"""Monte-Carlo campaign driver: seeded sweeps over SNR, linewidth, and receiver modes.

A grid point is one (snr, linewidth) pair; all configured receiver modes
share the same per-frame channel, noise, payload, and phase-path draws at
that point, so mode comparisons are paired.  Frame randomness is derived
from the master seed through the frame index alone, so every grid point
sees the same draws (common random numbers) and cross-point comparisons
are paired too; every result is byte-reproducible regardless of worker
count or scheduling.

Receiver modes:

* ``full``            estimate IQ mismatch and track the common phase
* ``iq-only``         estimate IQ mismatch, hold the phase update at identity
* ``pn-only``         assume no IQ mismatch, track the common phase
* ``uncompensated``   plain least-squares channel estimate from the first
                      long symbol, no IQ handling, no tracking
* ``genie``           ground-truth channel, mismatch, and phase updates
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, apply_channel, draw_channel
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
    FrameConfig,
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
    gen_phase_noise,
)
from .numerics import ConfigurationError, RandomSource, logical_to_bin
from .svgplot import line_chart

__all__ = [
    "MODES",
    "ScenarioConfig",
    "CampaignRow",
    "CampaignResult",
    "compute_mse_ce",
    "compute_mse_k1",
    "simulate_frame",
    "FrontEnd",
    "front_end",
    "receiver_state",
    "run_point",
    "run_campaign",
    "emit_csv",
    "emit_plots",
]

MODES = ("uncompensated", "iq-only", "pn-only", "full", "genie")
ESTIMATING_MODES = ("full", "iq-only")

CSV_HEADER = (
    "snr_db,beta_hz,mode,detector,ce_method,m_t,m_r,frames_run,"
    "ber,mse_ce,mse_k1,flagged_symbols,seed"
)


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
    shared_oscillator: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.frames < 1:
            raise ConfigurationError("frames must be >= 1")
        if not self.snr_db:
            raise ConfigurationError("snr list must be nonempty")
        if not self.beta_hz:
            raise ConfigurationError("linewidth list must be nonempty")
        for m in self.modes:
            if m not in MODES:
                raise ConfigurationError(f"unknown mode {m!r}; choose from {MODES}")
        # the receiver's own checks of the detector, tracking and MMSE names
        EqualizerOptions(
            detector=self.detector, tracking_variant=self.tracking_variant, mmse_r=self.mmse_r
        )
        if self.detector == "mmse" and self.mmse_r == "kron" and self.m_r**2 != 2 * self.m_t:
            raise ConfigurationError("kron-form MMSE regularization needs m_r**2 == 2 m_t")
        if self.ce_method not in ("interp", "iterative"):
            raise ConfigurationError(f"unknown ce method {self.ce_method!r}")
        if self.l_taps > self.n_cp:
            raise ConfigurationError("channel length must not exceed the cyclic prefix")
        if self.iq_frame_avg < 1:
            raise ConfigurationError("iq_frame_avg must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")

    def frame_config(self) -> FrameConfig:
        return FrameConfig(
            m_t=self.m_t, m_r=self.m_r, n=self.n, n_cp=self.n_cp,
            symbols_per_frame=self.symbols_per_frame, ts=self.ts,
        )

    def iq_params(self) -> IqParams:
        return IqParams.uniform(self.m_r, self.iq_theta_deg, self.iq_amp_pct)


@dataclass(frozen=True)
class CampaignRow:
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
        return (
            f"{_fmt(self.snr_db)},{_fmt(self.beta_hz)},{self.mode},{self.detector},"
            f"{self.ce_method},{self.m_t},{self.m_r},{self.frames_run},"
            f"{_fmt(self.ber)},{_fmt(self.mse_ce)},{_fmt(self.mse_k1)},"
            f"{self.flagged_symbols},{self.seed}"
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


def compute_mse_ce(h_hat: np.ndarray, h_true_eff: np.ndarray, used_bins: np.ndarray, n: int) -> float:
    """Normalized squared error of the effective-channel estimate on used bins."""
    b = logical_to_bin(used_bins, n)
    num = np.sum(np.abs(h_hat[b] - h_true_eff[b]) ** 2)
    den = np.sum(np.abs(h_true_eff[b]) ** 2)
    return float(num / den)


def compute_mse_k1(k1_hat: np.ndarray, k1_true: np.ndarray) -> float:
    """Squared Frobenius distance between the diagonal mismatch matrices."""
    return float(np.sum(np.abs(k1_hat - k1_true) ** 2))


@dataclass(frozen=True)
class SimulatedFrame:
    """One frame's physics, shared by every receiver mode at a grid point."""

    rx_grids: np.ndarray         # (symbols, n, m_r) demodulated with impairments
    truth_bits: np.ndarray
    channel: ChannelRealization
    iq: IqParams
    sigma2: float                # time-domain noise variance per branch
    theta_pre: np.ndarray        # (m_r,) common phase over the first long symbol
    cpe_true: np.ndarray         # (n_data_syms, m_r) genie per-symbol updates


def simulate_frame(
    config: ScenarioConfig,
    fc: FrameConfig,
    smap: SubcarrierMap,
    pre: PreambleSet,
    short: np.ndarray,
    pilots: np.ndarray,
    snr_db: float,
    beta: float,
    rng: RandomSource,
) -> SimulatedFrame:
    """Transmit one frame through channel, noise, phase noise, and IQ mixing."""
    iq = config.iq_params()
    ch = draw_channel(
        config.m_t, config.m_r, config.l_taps, config.pdp_decay,
        rng.child("channel"), n_fft=config.n, n_cp=config.n_cp,
    )
    payload = rng.child("payload").integers(
        0, 2, size=fc.n_data_symbols * smap.n_data * config.m_t * 4
    )
    grids, truth = assemble_frame(fc, smap, payload, pre, short_symbol=short, pilots=pilots)
    tx = modulate_frame(grids, config.n_cp)
    rx = apply_channel(tx, ch)

    # SNR is referenced to the average received data-symbol power per branch
    # with unit-energy constellation and unit-energy channel.
    p_rx = config.m_t * smap.n_used / config.n**2
    if math.isinf(snr_db):
        sigma2 = 0.0
    else:
        sigma2 = p_rx / 10.0 ** (snr_db / 10.0)
        rx = rx + rng.child("noise").complex_normal(var=sigma2, size=rx.shape)

    trace = gen_phase_noise(
        beta, config.ts, rx.shape[0], config.m_r,
        rng.child("phase"), shared_oscillator=config.shared_oscillator,
    )
    rx = apply_phase_noise(rx, trace)
    rx = apply_iq_imbalance(rx, iq)
    rx_grids = demodulate_frame(rx, config.n, config.n_cp, config.symbols_per_frame)

    # The preamble-stage estimator targets the channel fused with the mean
    # common phase of the two long training symbols (rows 0 and 1).
    cpe = cpe_of(trace, fc.symbol_window(np.arange(fc.n_short, fc.symbols_per_frame)), config.n)
    theta_pre = 0.5 * (cpe[0] + cpe[1])
    return SimulatedFrame(
        rx_grids=rx_grids, truth_bits=truth.bits, channel=ch, iq=iq, sigma2=sigma2,
        theta_pre=theta_pre, cpe_true=cpe[2:] / theta_pre,
    )


def _complete(e_vals, pre, smap, config) -> np.ndarray:
    if config.ce_method == "iterative":
        return iterative_refine(e_vals, pre, smap, config.l_taps)
    return interpolate_channel(e_vals, pre, smap)


@dataclass(frozen=True)
class FrontEnd:
    """One frame's preamble-stage estimates, shared by every receiver mode."""

    psi: np.ndarray          # (m_r, m_r) noise + ICI correlation from the short symbols
    est: PreambleEstimate    # per-bin products of the two long training symbols
    g: np.ndarray | None     # (m_r,) refined mismatch; None if not estimated or failed


def front_end(
    frame: SimulatedFrame,
    config: ScenarioConfig,
    fc: FrameConfig,
    smap: SubcarrierMap,
    pre: PreambleSet,
) -> FrontEnd:
    """Estimate one frame's preamble stage once for all receiver modes.

    The mismatch (adjacent-bin stage then de-mixing) is refined only when
    an estimating mode is configured.
    """
    nulls = logical_to_bin(smap.null_bins, config.n)
    psi = estimate_noise_ici_corr(frame.rx_grids[: fc.n_short, nulls].reshape(-1, config.m_r))
    est = estimate_preamble(frame.rx_grids[fc.n_short], frame.rx_grids[fc.n_short + 1], pre)
    g = None
    if any(m in ESTIMATING_MODES for m in config.modes):
        try:
            g0 = estimate_iq_params(est.chi_a, est.e, pre.owner).g
            g = refine_iq_channel(est, pre.owner, g0, psi=psi)
        except EstimationError:
            pass  # the frame does not join its block's mismatch average
    return FrontEnd(psi=psi, est=est, g=g)


def receiver_state(
    frame: SimulatedFrame,
    fe: FrontEnd,
    config: ScenarioConfig,
    fc: FrameConfig,
    smap: SubcarrierMap,
    pre: PreambleSet,
    mode: str,
    k1: np.ndarray | None,
) -> EstimatorState:
    """The receiver-side state of one mode, built from the frame's front end.

    ``k1`` is the block-averaged mismatch estimate that the estimating
    modes (``full``, ``iq-only``) use; the other modes ignore it.
    """
    n = config.n
    m_r = config.m_r

    if mode == "genie":
        h = frame.theta_pre[None, :, None] * frame.channel.freq
        gain = np.abs(frame.iq.k1) ** 2 + np.abs(frame.iq.k2) ** 2
        psi = np.diag(gain * n * frame.sigma2).astype(np.complex128)
        return EstimatorState(h_pre=h, k1=frame.iq.k1, psi=psi)

    if mode in ESTIMATING_MODES:
        h = _complete(demix_channel(fe.est, k1), pre, smap, config)
        return EstimatorState(h_pre=h, k1=k1, psi=fe.psi)

    if mode == "pn-only":
        # Assuming no IQ mismatch, the two-symbol least-squares channel
        # estimate is exactly the direct-product combination.
        h = _complete(fe.est.chi_a, pre, smap, config)
        return EstimatorState(h_pre=h, k1=np.ones(m_r, dtype=np.complex128), psi=fe.psi)

    if mode == "uncompensated":
        b = logical_to_bin(pre.used, n)
        ls = frame.rx_grids[fc.n_short][b] / pre.lambda1[:, None]
        h = _complete(ls, pre, smap, config)
        return EstimatorState(h_pre=h, k1=np.ones(m_r, dtype=np.complex128), psi=fe.psi)

    raise ConfigurationError(f"unknown mode {mode!r}")


def _equalizer_options(config: ScenarioConfig, mode: str) -> EqualizerOptions:
    return EqualizerOptions(
        detector=config.detector,
        track=mode in ("full", "pn-only"),
        tracking_variant=config.tracking_variant,
        mmse_r=config.mmse_r,
    )


@dataclass
class _Accumulator:
    bit_errors: int = 0
    bits_total: int = 0
    mse_ce_sum: float = 0.0
    flagged: int = 0
    frames_run: int = 0
    k1_mse_terms: list = field(default_factory=list)


def run_point(
    config: ScenarioConfig, snr_idx: int, beta_idx: int
) -> list[CampaignRow]:
    """Run all frames of one (snr, beta) grid point and score every mode.

    Frames are processed in blocks of ``iq_frame_avg``: the mismatch
    estimates of a block are averaged (the mismatch is static hardware)
    and the block estimate drives detection and the mismatch-MSE metric
    for its frames.  All modes see the same physical realizations.
    """
    snr_db = float(config.snr_db[snr_idx])
    beta = float(config.beta_hz[beta_idx])
    fc = config.frame_config()
    smap = build_subcarrier_map(config.n)
    pre = build_preamble(config.m_t, smap)
    short = build_short_symbol(smap, config.m_t)
    pilots = pilot_matrix(config.m_t, smap.pilot_bins.size)
    # Frame randomness is derived from the frame index alone, so every grid
    # point sees the same channel/payload/noise-shape draws (common random
    # numbers): cross-point comparisons are paired, and scheduling or worker
    # count cannot change any result.
    point_rng = RandomSource(config.master_seed)
    k1_true = config.iq_params().k1
    estimating = [m for m in config.modes if m in ESTIMATING_MODES]

    acc = {mode: _Accumulator() for mode in config.modes}
    step = config.iq_frame_avg
    for start in range(0, config.frames, step):
        block = range(start, min(start + step, config.frames))
        frames = [
            simulate_frame(
                config, fc, smap, pre, short, pilots, snr_db, beta,
                point_rng.child("frame", f),
            )
            for f in block
        ]
        fronts = [front_end(frame, config, fc, smap, pre) for frame in frames]
        g_frames = [fe.g for fe in fronts if fe.g is not None]
        k1_block = None
        if g_frames:
            k1_block = (1.0 + np.mean(g_frames, axis=0)) / 2.0
            for mode in estimating:
                acc[mode].k1_mse_terms.append(compute_mse_k1(k1_block, k1_true))

        for frame, fe in zip(frames, fronts):
            for mode in config.modes:
                a = acc[mode]
                if mode in ESTIMATING_MODES and k1_block is None:
                    continue  # no usable mismatch estimate in this block
                try:
                    state = receiver_state(frame, fe, config, fc, smap, pre, mode, k1_block)
                    dec = equalize_frame(
                        frame.rx_grids, state, smap, pilots, fc.n_train,
                        options=_equalizer_options(config, mode),
                        cpe_override=frame.cpe_true if mode == "genie" else None,
                    )
                except EstimationError:
                    continue  # frame recorded as not run for this mode
                per_bin_bits = config.m_t * 4
                wrong = (dec.bits != frame.truth_bits) & ~dec.erased[:, :, None, None]
                a.bit_errors += int(wrong.sum()) + int(dec.erased.sum()) * per_bin_bits
                a.bits_total += frame.truth_bits.size
                h_true_eff = frame.theta_pre[None, :, None] * frame.channel.freq
                a.mse_ce_sum += compute_mse_ce(state.h_pre, h_true_eff, pre.used, config.n)
                a.flagged += dec.flagged_symbols
                a.frames_run += 1
                if mode not in ESTIMATING_MODES:
                    a.k1_mse_terms.append(compute_mse_k1(state.k1, frame.iq.k1))

    rows = []
    for mode in config.modes:
        a = acc[mode]
        rows.append(
            CampaignRow(
                snr_db=snr_db,
                beta_hz=beta,
                mode=mode,
                detector=config.detector,
                ce_method=config.ce_method,
                m_t=config.m_t,
                m_r=config.m_r,
                frames_run=a.frames_run,
                ber=a.bit_errors / a.bits_total if a.bits_total else float("nan"),
                mse_ce=a.mse_ce_sum / a.frames_run if a.frames_run else float("nan"),
                mse_k1=float(np.mean(a.k1_mse_terms)) if a.k1_mse_terms else float("nan"),
                flagged_symbols=a.flagged,
                seed=config.master_seed,
            )
        )
    return rows


def _point_task(args) -> list[CampaignRow]:
    config, snr_idx, beta_idx = args
    return run_point(config, snr_idx, beta_idx)


def run_campaign(config: ScenarioConfig) -> CampaignResult:
    """Sweep the whole grid; results are identical for any worker count."""
    tasks = [
        (config, i, j)
        for i in range(len(config.snr_db))
        for j in range(len(config.beta_hz))
    ]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            per_point = list(pool.map(_point_task, tasks))
    else:
        per_point = [_point_task(t) for t in tasks]
    rows = tuple(row for point_rows in per_point for row in point_rows)
    return CampaignResult(config=config, rows=rows)


def emit_csv(result: CampaignResult, path) -> None:
    lines = [CSV_HEADER] + [r.csv() for r in result.rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _series_by(result: CampaignResult, metric: str) -> list:
    series = []
    for mode in result.config.modes:
        for beta in result.config.beta_hz:
            rows = [r for r in result.rows if r.mode == mode and r.beta_hz == beta]
            rows.sort(key=lambda r: r.snr_db)
            label = f"{mode} b={beta:g}Hz"
            series.append((label, [r.snr_db for r in rows], [getattr(r, metric) for r in rows]))
    return series


def emit_plots(result: CampaignResult, out_dir) -> list[str]:
    """Write the BER and channel-MSE versus SNR charts; returns the paths."""
    import os

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
            log_y=True,
        )
        with open(path, "w") as fh:
            fh.write(svg)
        paths.append(path)
    return paths
