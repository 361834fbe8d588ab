"""The chunked receiver path against an inline frame-by-frame oracle, with exact equality.

``run_point`` runs every stage once per chunk of frames on a leading
frame axis, and simulates each chunk once for a whole group of grid
points.  The oracle below is the same chain one frame and one point at a
time (the package functions also take a single frame), so every array
the chunked path produces must equal it bit for bit: the received grids,
the effective channel and the genie phase, the noise correlation, the
mismatch estimates and their block averages, every completed channel,
the phase updates and the decisions.  A group of points, scored in
stacks of points, must give the rows of its points run one by one.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import gen_phase_noise
from ofdmlink import harness
from ofdmlink.channel import apply_channel, draw_channel
from ofdmlink.equalization import equalize_frame
from ofdmlink.estimation import (
    EstimatorState,
    demix_channel,
    estimate_iq_params,
    estimate_noise_ici_corr,
    estimate_preamble,
    refine_iq_channel,
)
from ofdmlink.framing import assemble_frame, demodulate_frame, modulate_frame
from ofdmlink.harness import MODES, RECEIVER_MODES, ScenarioConfig
from ofdmlink.impairments import apply_iq_imbalance, apply_phase_noise, cpe_of, wiener_phase
from ofdmlink.numerics import RandomSource, logical_to_bin


def oracle_frame(config, snr_db, beta, rng):
    """One frame through the transmit chain, as the frame-by-frame simulator did."""
    fc, smap = config.frame, config.smap
    ch = draw_channel(
        config.m_t, config.m_r, config.l_taps, config.pdp_decay,
        rng.child("channel"), n_fft=config.n,
    )
    payload = rng.child("payload").integers(
        0, 2, size=fc.n_data_symbols * smap.n_data * config.m_t * 4
    )
    grids, truth_bits = assemble_frame(
        fc, smap, payload, config.preamble, short_symbol=config.short_symbol, pilots=config.pilots
    )
    rx = apply_channel(modulate_frame(grids, config.n_cp), ch)
    sigma2 = 0.0
    if not math.isinf(snr_db):
        sigma2 = config.m_t * smap.n_used / config.n**2 / 10.0 ** (snr_db / 10.0)
        rx = rx + rng.child("noise").complex_normal(var=sigma2, size=rx.shape)
    phi = gen_phase_noise(beta, config.ts, rx.shape[0], config.m_r, rng.child("phase"))
    rotation = np.exp(1j * phi)
    rx = apply_iq_imbalance(apply_phase_noise(rx, rotation), config.iq)
    rx_grids = demodulate_frame(rx, config.n, config.n_cp, config.symbols_per_frame)
    cpe = cpe_of(rotation, fc.symbol_window(np.arange(fc.n_short, fc.symbols_per_frame)), config.n)
    theta_pre = 0.5 * (cpe[0] + cpe[1])
    return dict(
        rx_grids=rx_grids, truth_bits=truth_bits, h_eff=theta_pre[None, :, None] * ch.freq,
        sigma2=sigma2, cpe_true=cpe[2:] / theta_pre,
    )


def oracle_front_end(rx_grids, config):
    n_short, pre = config.frame.n_short, config.preamble
    nulls = logical_to_bin(config.smap.null_bins, config.n)
    psi = estimate_noise_ici_corr(rx_grids[:n_short, nulls].reshape(-1, config.m_r))
    est = estimate_preamble(rx_grids[n_short], rx_grids[n_short + 1], pre)
    g0 = estimate_iq_params(est.chi_a, est.e, pre.owner)
    return psi, est, refine_iq_channel(est, pre.owner, g0, psi=psi)


# (m_t = m_r, completion, iq_frame_avg, detector, linewidth, frames)
CASES = [
    (1, "interp", 1, "zf", 5e3, 4),
    (1, "iterative", 2, "mmse", 5e3, 4),
    (2, "interp", 2, "mmse", 5e3, 6),
    (2, "iterative", 1, "zf", 5e3, 4),
    (4, "interp", 1, "mmse", 5e3, 3),
    (4, "iterative", 2, "zf", 5e3, 4),
    # 100 kHz: some frames' mismatch estimates fail inside a chunk
    (2, "interp", 2, "mmse", 1e5, 12),
]


@pytest.mark.parametrize("m, ce_method, avg, detector, beta, n_frames", CASES)
def test_chunk_equals_frame_by_frame(m, ce_method, avg, detector, beta, n_frames):
    config = ScenarioConfig(
        m_t=m, m_r=m, frames=n_frames, snr_db=(20.0,), beta_hz=(beta,), modes=MODES,
        detector=detector, ce_method=ce_method, iq_frame_avg=avg, symbols_per_frame=7,
        master_seed=7100,
    )
    fc, smap, pre, pilots, iq = config.frame, config.smap, config.preamble, config.pilots, config.iq
    rngs = [RandomSource(config.master_seed).child("frame", f) for f in range(n_frames)]
    draws = harness.simulate_frame(config, rngs)
    frames = harness.impair(draws, config, [(20.0, beta)], {})
    fe = harness.front_end(frames, config)

    ones = [oracle_frame(config, 20.0, beta, r) for r in rngs]
    for key in ("rx_grids", "truth_bits", "h_eff", "cpe_true"):
        np.testing.assert_array_equal(getattr(frames, key), np.stack([o[key] for o in ones]))
    fronts = [oracle_front_end(o["rx_grids"], config) for o in ones]
    np.testing.assert_array_equal(fe.psi, np.stack([psi for psi, _, _ in fronts]))
    for key in ("chi_a", "chi_b", "e"):
        one_est = np.stack([getattr(est, key) for _, est, _ in fronts])
        np.testing.assert_array_equal(getattr(fe.est, key), one_est)
    g_one = np.stack([g for _, _, g in fronts])
    np.testing.assert_array_equal(fe.g, g_one)  # NaN rows where a frame's estimate failed

    usable = np.isfinite(g_one).all(axis=-1)
    if beta == 1e5:
        assert 0 < usable.sum() < n_frames, "the chunk must hold failing and usable frames"
    k1 = np.full((n_frames, m), np.nan, dtype=complex)
    for b in range(0, n_frames, avg):
        good = [g_one[f] for f in range(b, min(b + avg, n_frames)) if usable[f]]
        if good:
            k1[b : b + avg] = (1.0 + np.mean(good, axis=0)) / 2.0

    options = config.equalizer
    for mode in MODES:
        estimate, phase = RECEIVER_MODES[mode]
        state, ran = harness.receiver_state(frames, fe, config, estimate, k1)
        none = np.ones((fc.n_data_symbols, m))
        updates = {"none": none, "tracked": None, "genie": frames.cpe_true[ran]}
        dec = equalize_frame(
            frames.rx_grids[ran], state, smap, pilots, fc.n_train,
            options=options, phase_updates=updates[phase],
        )
        row = 0
        for f, one in enumerate(ones):
            psi, est, _ = fronts[f]
            if estimate == "genie":
                gain = np.abs(iq.k1) ** 2 + np.abs(iq.k2) ** 2
                one_state = EstimatorState(
                    h_pre=one["h_eff"], k1=iq.k1,
                    psi=np.diag(gain * config.n * one["sigma2"]).astype(complex),
                )
            else:
                k1_f = np.ones(m, dtype=complex)
                if estimate == "demixed":
                    e = demix_channel(est, k1[f])
                    k1_f = k1[f]
                elif estimate == "direct":
                    e = est.chi_a
                else:
                    b = logical_to_bin(pre.used, config.n)
                    e = one["rx_grids"][fc.n_short][b] / pre.lambda1[:, None]
                if np.isnan(e).any():
                    assert not ran[f]
                    continue
                one_state = EstimatorState(
                    h_pre=harness._complete(e, config), k1=k1_f, psi=psi
                )
            assert ran[f]
            np.testing.assert_array_equal(state.h_pre[row], one_state.h_pre)
            one_updates = {"none": none, "tracked": None, "genie": one["cpe_true"]}
            one_dec = equalize_frame(
                one["rx_grids"], one_state, smap, pilots, fc.n_train,
                options=options, phase_updates=one_updates[phase],
            )
            for key in ("bits", "soft", "erased", "flagged"):
                np.testing.assert_array_equal(getattr(dec, key)[row], getattr(one_dec, key))
            if phase == "tracked":
                np.testing.assert_array_equal(dec.cpe_history[row], one_dec.cpe_history)
            row += 1
        assert row == ran.sum()


@pytest.mark.parametrize("chunk_symbols", [1, 14, 10**6])
def test_rows_do_not_depend_on_chunk_size(monkeypatch, chunk_symbols):
    # 1: one 2-frame block per chunk; 14: one block; 10**6: the whole point
    config = ScenarioConfig(
        frames=6, snr_db=(20.0,), beta_hz=(5e4,), modes=MODES, iq_frame_avg=2,
        symbols_per_frame=7, ce_method="iterative", master_seed=31,
    )
    want = harness.run_point(config, [(0, 0)])
    monkeypatch.setattr(harness, "CHUNK_SYMBOLS", chunk_symbols)
    assert harness.run_point(config, [(0, 0)]) == want


@pytest.mark.parametrize("m", [1, 2, 4])
def test_shared_draws_replay_each_frame_draw(m):
    # the unit draws, scaled for a point, equal complex_normal(var) and the
    # phase path drawn at its own scale, frame by frame
    config = ScenarioConfig(m_t=m, m_r=m, frames=3, symbols_per_frame=5)

    def sources():
        return [RandomSource(41).child("frame", f) for f in range(3)]

    draws = harness.simulate_frame(config, sources())
    sigma2 = 0.37
    for f, rng in enumerate(sources()):
        want = rng.child("noise").complex_normal(var=sigma2, size=draws.clean.shape[1:])
        assert np.array_equal(np.multiply(draws.noise[f], np.sqrt(sigma2 / 2.0)), want)
        for beta in (1e3, 1e5):
            want = gen_phase_noise(beta, config.ts, draws.clean.shape[1], m, rng.child("phase"))
            got = wiener_phase(beta, config.ts, draws.steps[f])
            assert np.array_equal(got, want)
            rng = sources()[f]  # a fresh phase source for the next linewidth


# (m_t = m_r, snr points, linewidths, frames, iq_frame_avg)
GROUPS = [
    (1, (15.0, float("inf")), (0.0, 5e3), 4, 1),
    (2, (20.0, float("inf")), (0.0, 1e4), 4, 2),
    (4, (float("inf"), 25.0), (5e3, 0.0), 3, 1),
    # 100 kHz: some frames' mismatch estimates fail inside a chunk
    (2, (20.0,), (1e5, 5e3, 0.0), 12, 2),
    # no finite SNR and no positive linewidth: both draws unused
    (2, (float("inf"),), (0.0,), 2, 1),
    # chunks that are not whole iq_frame_avg blocks: the blocks of a stack
    # restart at each point's first frame
    (2, (20.0, float("inf")), (0.0, 5e3), 3, 2),
    (2, (20.0, float("inf")), (0.0, 5e3), 2, 50),
]


def exact(rows):
    """Rows as text that tells every float apart: ``==`` fails on NaN fields."""
    return [repr(row) for row in rows]


@pytest.mark.parametrize("m, snrs, betas, n_frames, avg", GROUPS)
def test_group_equals_points_one_by_one(monkeypatch, m, snrs, betas, n_frames, avg):
    config = ScenarioConfig(
        m_t=m, m_r=m, frames=n_frames, snr_db=snrs, beta_hz=betas, modes=MODES,
        iq_frame_avg=avg, symbols_per_frame=7, master_seed=7100,
    )
    points = [(i, j) for i in range(len(snrs)) for j in range(len(betas))]
    alone = {p: harness.run_point(config, [p]) for p in points}  # a stack of one
    # 1: one point per stack; 10**6: the whole group in one stack
    for stack_symbols in (1, harness.STACK_SYMBOLS, 10**6):
        monkeypatch.setattr(harness, "STACK_SYMBOLS", stack_symbols)
        for order in (points, points[::-1]):
            want = [row for p in order for row in alone[p]]
            assert exact(harness.run_point(config, order)) == exact(want), stack_symbols
    if 1e5 in betas:
        full = [r for p in points for r in alone[p] if r.beta_hz == 1e5 and r.mode == "full"]
        assert 0 < full[0].frames_run < n_frames, "the 100 kHz point must lose some frames"


def test_mode_rows_do_not_depend_on_the_other_modes():
    # A mode that never reads the mismatch estimate, run alone, gives its
    # rows of the all-mode run; the 100 kHz point loses some frames.
    config = ScenarioConfig(
        frames=12, snr_db=(20.0,), beta_hz=(1e5,), modes=MODES, iq_frame_avg=2,
        symbols_per_frame=7, master_seed=7100,
    )
    rows = {row.mode: row for row in harness.run_point(config, [(0, 0)])}
    assert 0 < rows["full"].frames_run < config.frames, "the 100 kHz point must lose some frames"
    for mode in ("pn-only", "uncompensated", "genie"):
        alone = harness.run_point(dataclasses.replace(config, modes=(mode,)), [(0, 0)])
        assert exact(alone) == exact([rows[mode]])


def test_stack_equals_frame_by_frame():
    # one pass over a stack that mixes infinite SNR, a zero and a nonzero
    # linewidth: each point's frames, one point after another, are the
    # oracle's; the chunk's bits are held once for every point
    config = ScenarioConfig(
        frames=3, snr_db=(20.0, float("inf")), beta_hz=(0.0, 5e3), symbols_per_frame=7,
        master_seed=7100,
    )
    points = [(float("inf"), 5e3), (20.0, 0.0), (20.0, 5e3), (float("inf"), 0.0)]
    rngs = [RandomSource(config.master_seed).child("frame", f) for f in range(3)]
    draws = harness.simulate_frame(config, rngs)
    phases = {}
    frames = harness.impair(draws, config, points, phases)
    assert list(phases) == [0.0]  # only the last point's linewidth is kept for the next stack
    ones = [oracle_frame(config, snr_db, beta, r) for snr_db, beta in points for r in rngs]
    for key in ("rx_grids", "h_eff", "cpe_true", "sigma2"):
        np.testing.assert_array_equal(getattr(frames, key), np.stack([o[key] for o in ones]))
    np.testing.assert_array_equal(frames.truth_bits, np.stack([o["truth_bits"] for o in ones[:3]]))


def test_phase_noise_made_once_per_linewidth_and_chunk(monkeypatch):
    # one chunk, 6 SNR points x 2 linewidths in three stacks of four: each
    # linewidth's path is made once, not once per point, and the rows equal
    # each point run alone
    config = ScenarioConfig(
        frames=2, snr_db=(10.0, 15.0, 20.0, 25.0, 30.0, 35.0), beta_hz=(1e3, 5e3),
        symbols_per_frame=20, master_seed=7100,
    )
    assert harness._chunk_frames(config) >= config.frames and harness._stack_points(config) == 4
    points = [(i, j) for i in range(6) for j in range(2)]
    alone = [row for p in points for row in harness.run_point(config, [p])]
    calls = []
    wiener = harness.wiener_phase

    def spy(beta, *args):
        calls.append(beta)
        return wiener(beta, *args)

    monkeypatch.setattr(harness, "wiener_phase", spy)
    assert exact(harness.run_point(config, points)) == exact(alone)
    assert calls == [1e3, 5e3]


def test_phase_memory_does_not_grow_with_linewidths():
    # six points at one linewidth and six at six linewidths, scored in stacks
    # of two: a chunk holds the phases of the stack it impairs and the last
    # linewidth, freeing the others before the stack is mixed.  Measured ratios: 0.998-1.001 (seeds
    # 1-10); 1.587 when every linewidth's phase stays held for the chunk
    base = dict(frames=2, modes=("full",), symbols_per_frame=30, iq_frame_avg=2, master_seed=3)
    snrs = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0)
    betas = (1e3, 2e3, 3e3, 4e3, 5e3, 6e3)
    peaks = []
    for config in (
        ScenarioConfig(snr_db=snrs, beta_hz=(5e3,), **base),
        ScenarioConfig(snr_db=(20.0,), beta_hz=betas, **base),
    ):
        assert harness._stack_points(config) == 2
        points = harness._task_grid(config)[0][0]  # one worker: a single group of every point
        harness.run_point(config, points[:1])  # first-call caches outside the measurement
        tracemalloc.start()
        try:
            harness.run_point(config, points)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one, six = peaks
    assert six <= 1.05 * one, peaks
