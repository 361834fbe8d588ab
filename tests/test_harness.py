"""Tests for the campaign driver, metrics, CSV and SVG emission."""

import dataclasses
import itertools
import math
import multiprocessing
import os
import signal
import time
import tracemalloc
import types
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ofdmlink import equalization, harness
from ofdmlink.channel import apply_channel, draw_channel
from ofdmlink.estimation import estimate_preamble
from ofdmlink.framing import (
    N_TRAIN,
    assemble_frame,
    modulate_frame,
)
from ofdmlink.harness import (
    MODES,
    RECEIVER_MODES,
    CampaignRow,
    ScenarioConfig,
    compute_mse_ce,
    compute_mse_k1,
    emit_csv,
    emit_plots,
    front_end,
    impair,
    receiver_state,
    run_campaign,
    run_point,
    simulate_frame,
)
from ofdmlink.impairments import IqParams
from ofdmlink.numerics import ConfigurationError, RandomSource
from ofdmlink.svgplot import line_chart


class TestMetrics:
    def test_mse_ce_zero_for_identical(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(64, 2, 2)) + 1j * rng.normal(size=(64, 2, 2))
        used = np.arange(-26, 27)
        assert compute_mse_ce(h, h, used, 64) == 0.0

    def test_mse_ce_unity_for_zero_estimate(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(64, 2, 2)) + 1j * rng.normal(size=(64, 2, 2))
        used = np.arange(-20, 21)
        assert compute_mse_ce(np.zeros_like(h), h, used, 64) == pytest.approx(1.0)

    def test_mse_ce_small_perturbation(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(64, 2, 2)) + 1j * rng.normal(size=(64, 2, 2))
        d = 1e-3 * (rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape))
        used = np.arange(-26, 27)
        b = np.mod(used, 64)
        expected = np.sum(np.abs(d[b]) ** 2) / np.sum(np.abs(h[b]) ** 2)
        assert compute_mse_ce(h + d, h, used, 64) == pytest.approx(expected, rel=1e-9)

    def test_mse_k1_exact_zero(self):
        k1 = IqParams.uniform(2, 5.0, 10.0).k1
        assert compute_mse_k1(k1, k1) == 0.0

    def test_mse_k1_identity_vs_reference_value(self):
        # |1 - K1|^2 per branch for (5 deg, 10%) evaluated by hand.
        k1 = IqParams.uniform(2, 5.0, 10.0).k1
        got = compute_mse_k1(np.ones(2, dtype=complex), k1)
        assert got == pytest.approx(2 * 0.004592916049539959, rel=1e-10)

    def test_mse_k1_branch_symmetric(self):
        k1 = IqParams.uniform(2, 5.0, 10.0).k1
        e = np.array([0.02 - 0.01j, 0.0])
        assert compute_mse_k1(k1 + e, k1) == pytest.approx(
            compute_mse_k1(k1 + e[::-1], k1)
        )


class TestSnrCalibration:
    def test_received_power_matches_configured_snr(self):
        # Post-channel signal power over noise power within 2 percent of
        # the configured ratio, conditioning on the realized channel
        # energies (their unit normalization has its own ensemble test;
        # unconditioned, the channel-energy spread would need thousands
        # of draws to resolve 2 percent).
        config = ScenarioConfig(frames=1, symbols_per_frame=20)
        smap, pre = config.smap, config.preamble
        root = RandomSource(7)
        p_sig, p_expected = [], []
        for i in range(500):  # 8500 data symbols
            rng = root.child("cal", i)
            ch = draw_channel(2, 2, 7, 2.0, rng.child("channel"), n_fft=64)
            bits = rng.child("payload").integers(0, 2, size=(20 - N_TRAIN) * 48 * 2 * 4)
            grids, _ = assemble_frame(smap, bits, pre, config.short_symbol, config.pilots)
            rx = apply_channel(modulate_frame(grids, 16), ch)
            p_sig.append(np.mean(np.abs(rx[3 * 80 : 20 * 80]) ** 2))
            # per-branch received power given these taps: channel energy
            # into the branch times the per-antenna transmit sample power
            e_into_branch = np.sum(np.abs(ch.taps) ** 2, axis=(1, 2))
            p_expected.append(np.mean(e_into_branch) * 52 / 64**2)
        snr_db = 17.0
        snr_lin = 10 ** (snr_db / 10)
        sigma2 = (2 * 52 / 64**2) / snr_lin
        measured_snr = np.mean(p_sig) / sigma2
        conditional_snr = snr_lin * np.mean(p_expected) / (2 * 52 / 64**2)
        assert measured_snr == pytest.approx(conditional_snr, rel=0.02)


class TestRunPoint:
    def test_genie_noiseless_unimpaired_is_error_free(self):
        config = ScenarioConfig(
            frames=2, snr_db=(float("inf"),), beta_hz=(0.0,),
            iq_theta_deg=0.0, iq_amp_pct=0.0, modes=("genie",),
            detector="zf", symbols_per_frame=8,
        )
        rows = run_point(config, [(0, 0)])
        assert rows[0].ber == 0.0
        assert rows[0].mse_ce == pytest.approx(0.0, abs=1e-20)

    def test_full_mode_noiseless_iq_only_is_error_free(self):
        # Estimation is exact on trained bins in this regime and the
        # tap-truncation completion converges to the exact channel, so
        # detection inverts the mixing perfectly.
        config = ScenarioConfig(
            frames=2, snr_db=(float("inf"),), beta_hz=(0.0,),
            modes=("full",), detector="zf", symbols_per_frame=8,
            ce_method="iterative",
        )
        rows = run_point(config, [(0, 0)])
        assert rows[0].ber == 0.0
        assert rows[0].mse_k1 < 1e-18

    def test_fft_size_128_runs(self):
        # the scaled guard bands used to be asymmetric above 64 (12 low, 10
        # high at 128), so the preamble estimator raised mid-run
        config = ScenarioConfig(
            frames=1, snr_db=(20.0,), modes=MODES, n=128, n_cp=32, symbols_per_frame=5,
        )
        assert all(r.frames_run == 1 for r in run_point(config, [(0, 0)]))

    def test_row_for_each_mode(self):
        config = ScenarioConfig(
            frames=1, snr_db=(20.0,), modes=("uncompensated", "full", "genie"),
            symbols_per_frame=6,
        )
        rows = run_point(config, [(0, 0)])
        assert [r.mode for r in rows] == ["uncompensated", "full", "genie"]

    def test_mse_k1_is_the_mean_over_blocks_and_run_frames(self):
        # six blocks of ten frames, each a chunk, all with a usable mismatch
        # estimate; two of them cannot separate the image, so none of their
        # frames run, and their terms still count for the de-mixed modes
        config = ScenarioConfig(
            frames=60, snr_db=(30.0,), beta_hz=(1e5,), symbols_per_frame=4, iq_frame_avg=10,
            master_seed=7100, modes=MODES,
        )
        rows = {r.mode: r for r in run_point(config, [(0, 0)])}
        root = RandomSource(config.master_seed)
        draws = simulate_frame(config, [root.child("frame", f) for f in range(60)])
        g = front_end(impair(draws, config, [(30.0, 1e5)], {}), config).g
        terms = []
        for block in np.split(g, 6):  # the usable estimates of each block, averaged
            usable = block[np.isfinite(block).all(axis=-1)]
            if len(usable):
                terms.append(compute_mse_k1((1.0 + usable.mean(axis=0)) / 2.0, config.iq.k1))
        assert len(terms) == 6
        for mode in ("full", "iq-only"):
            assert rows[mode].frames_run == 40
            assert rows[mode].mse_k1 == np.mean(terms)
        # without the mismatch estimate: one constant term per frame run, and
        # their mean is not the constant in the last bit
        constant = compute_mse_k1(np.ones(2), config.iq.k1)
        per_frame = np.mean(np.full(60, constant))
        assert per_frame != constant
        for mode in ("uncompensated", "pn-only"):
            assert rows[mode].frames_run == 60
            assert rows[mode].mse_k1 == per_frame
        assert rows["genie"].mse_k1 == 0.0

    def test_mse_ce_summed_frame_by_frame_in_order(self):
        # the reference: a running float sum; a frame that did not run adds 0.0.
        # Per-stack or whole np.sum adds in another order and misses these bits.
        rng = np.random.default_rng(1)
        stacks = [rng.exponential(size=n) * 10.0 ** rng.integers(-8, 3, size=n) for n in (7, 1, 40)]
        stacks[1][0] = 0.0
        tally, expected = harness._Tally(), 0.0
        for mse_ce in stacks:
            ran = mse_ce > 0
            tally.add(ran, np.zeros(len(ran)), np.zeros(len(ran)), mse_ce, [])
            for value in mse_ce[ran]:
                expected += float(value)
        assert tally.mse_ce_sum == expected
        assert tally.frames_run == 47

        # the same stacks split into two or three spans at every position: the
        # merged sum is the same to the bit, where adding the spans' own sums
        # is not
        ends = np.cumsum([len(s) for s in stacks])
        cuts = [(c,) for c in range(1, 48)] + list(itertools.combinations(range(1, 48), 2))
        span_sums_differ = False
        for edges in cuts:
            bounds = list(zip((0, *edges), (*edges, 48)))
            spans = [harness._Tally() for _ in bounds]
            for span, (a, b) in zip(spans, bounds):
                for mse_ce, end in zip(stacks, ends):
                    piece = mse_ce[max(a - end + len(mse_ce), 0) : max(b - end + len(mse_ce), 0)]
                    if len(piece):
                        span.add(piece > 0, np.zeros(len(piece)), np.zeros(len(piece)), piece, [])
            own = [t.mse_ce_sum for t in spans[1:]]
            span_sums_differ |= sum(own, spans[0].mse_ce_sum) != expected
            for later in spans[1:]:
                spans[0].merge(later)
            assert spans[0].mse_ce_sum == expected, edges
            assert spans[0].frames_run == 47
        assert span_sums_differ

    def test_mismatch_terms_held_per_chunk_not_per_frame(self, monkeypatch):
        tallies = []

        class Recorded(harness._Tally):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tallies.append(self)

        monkeypatch.setattr(harness, "_Tally", Recorded)
        config = ScenarioConfig(
            frames=400, snr_db=(20.0,), symbols_per_frame=4, modes=("genie", "uncompensated"),
        )
        rows = run_point(config, [(0, 0)])
        chunks = math.ceil(config.frames / harness._chunk_frames(config))
        assert chunks == 25 and len(tallies) == 2
        assert all(r.frames_run == 400 for r in rows)
        assert all(0 < len(t.k1_terms) <= chunks for t in tallies)


class TestReceiverState:
    def _frames(self, config, n_frames=1):
        rngs = [RandomSource(1).child("f", f) for f in range(n_frames)]
        return impair(simulate_frame(config, rngs), config, [(25.0, 5e3)], {})

    def test_modes_produce_consistent_states(self):
        config = ScenarioConfig(frames=1, symbols_per_frame=6)
        frames = self._frames(config, n_frames=2)
        fe = front_end(frames, config)
        k1 = (1.0 + fe.g) / 2.0
        for mode in MODES:
            estimate, _ = RECEIVER_MODES[mode]
            state, ran = receiver_state(frames, fe, config, estimate, k1)
            np.testing.assert_array_equal(ran, [True, True])
            assert state.h_pre.shape == (2, 64, 2, 2)
            if mode in ("pn-only", "uncompensated"):
                np.testing.assert_array_equal(state.k1, np.ones(2))
            if mode in ("iq-only", "full"):
                np.testing.assert_array_equal(state.k1, k1)
            if mode == "genie":
                np.testing.assert_allclose(state.k1, config.iq.k1)
                np.testing.assert_array_equal(state.h_pre, frames.h_eff)

    def test_demixed_state_skips_frames_without_a_separable_k1(self):
        config = ScenarioConfig(frames=1, symbols_per_frame=6)
        frames = self._frames(config, n_frames=3)
        fe = front_end(frames, config)
        k1 = (1.0 + fe.g) / 2.0
        k1[0] = np.nan          # a block without a usable estimate
        k1[2] = 0.5             # |K1|^2 - |K2|^2 = 0: cannot separate the image
        state, ran = receiver_state(frames, fe, config, "demixed", k1)
        np.testing.assert_array_equal(ran, [False, True, False])
        assert state.h_pre.shape == (1, 64, 2, 2)
        np.testing.assert_array_equal(state.k1, k1[1:2])

    def test_preamble_estimated_once_per_frame(self, monkeypatch):
        # one call per chunk, covering every frame of it once
        frames_per_call = []

        def counted(psi1, psi2, pre):
            frames_per_call.append(psi1.shape[0])
            return estimate_preamble(psi1, psi2, pre)

        monkeypatch.setattr(harness, "estimate_preamble", counted)
        config = ScenarioConfig(
            frames=3, snr_db=(20.0,), modes=MODES, iq_frame_avg=2, symbols_per_frame=6,
        )
        rows = run_point(config, [(0, 0)])
        assert frames_per_call == [3]
        assert all(r.frames_run == 3 for r in rows)

    @pytest.mark.parametrize("ce_method", ["interp", "iterative"])
    def test_each_estimate_completed_once_per_frame(self, monkeypatch, ce_method):
        # full and iq-only share the de-mixed channel; genie completes nothing.
        # One completion per estimate and chunk, covering each frame once.
        frames_per_call = []
        complete = harness._complete

        def counted(e_vals, *args, **kwargs):
            frames_per_call.append(e_vals.shape[0])
            return complete(e_vals, *args, **kwargs)

        monkeypatch.setattr(harness, "_complete", counted)
        config = ScenarioConfig(
            frames=4, snr_db=(20.0,), modes=MODES, iq_frame_avg=2, symbols_per_frame=6,
            ce_method=ce_method,
        )
        rows = run_point(config, [(0, 0)])
        assert frames_per_call == [4, 4, 4]
        assert all(r.frames_run == 4 for r in rows)

    def test_static_modes_detect_one_system_per_frame(self, monkeypatch):
        # No phase update (uncompensated, iq-only): one detection system per
        # (frame, unit) carrying every data symbol; tracked and genie updates:
        # one per (frame, symbol, unit) with one column.  A unit is a data
        # bin, an m_t-system, where the estimate has no IQ image (k1 = 1: the
        # ls and direct estimates of uncompensated and pn-only), and a mirror
        # pair, a 2m_t-system, otherwise.  The tracker (pn-only, full) solves
        # one 2x2 system per (frame, branch, pilot), every data symbol one of
        # its columns.
        calls = []
        equalize = harness.equalize_frame
        detect, track = equalization._solve_small, equalization._solve_pairs

        def per_frame(rx_grids, *args, **kwargs):
            calls.append((len(rx_grids), [], []))
            return equalize(rx_grids, *args, **kwargs)

        def detected(w, x_stack, *args):  # each block of a system counted as a system
            calls[-1][1].append(((w.shape[-1],) * 2, math.prod(w.shape[:-2]), x_stack.shape[-2]))
            return detect(w, x_stack, *args)

        def tracked(w, x_stack, *args):
            calls[-1][2].append((w.shape[-2:], math.prod(w.shape[:-2]), x_stack.shape[-2]))
            return track(w, x_stack, *args)

        monkeypatch.setattr(harness, "equalize_frame", per_frame)
        monkeypatch.setattr(equalization, "_solve_small", detected)
        monkeypatch.setattr(equalization, "_solve_pairs", tracked)
        config = ScenarioConfig(
            frames=4, snr_db=(20.0,), modes=MODES, iq_frame_avg=2, symbols_per_frame=12,
        )
        rows = run_point(config, [(0, 0)])
        assert all(r.frames_run == 4 for r in rows)
        assert len(calls) == len(MODES)
        n_data, n_syms = config.smap.n_data, config.symbols_per_frame - N_TRAIN
        pilots = config.smap.pilot_bins.size
        assert pilots == 4
        for mode, (frames, detects, tracks) in zip(config.modes, calls):
            estimate, phase = RECEIVER_MODES[mode]
            by_bin = estimate in ("ls", "direct")
            size, units = (config.m_t, n_data) if by_bin else (2 * config.m_t, n_data // 2)
            assert {shape for shape, _, _ in detects} == {(size, size)}, mode
            systems = frames * units * (1 if phase == "none" else n_syms)
            assert sum(n for _, n, _ in detects) == systems, mode
            assert {cols for _, _, cols in detects} == {n_syms if phase == "none" else 1}, mode
            want = [((2, 2), frames * config.m_r * pilots, n_syms)] if phase == "tracked" else []
            assert tracks == want, mode


class _SerialPool:
    """Runs the pool's tasks in this process once their results are asked for, so spies see them."""

    def __init__(self, processes):
        self.processes = processes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def apply_async(self, fn, args):
        return types.SimpleNamespace(ready=lambda: True, successful=lambda: True, get=lambda: fn(*args))


def test_run_campaign_reaches_module_level_names(monkeypatch):
    # Wrappers installed on the module (as the benchmark's probes are) must
    # see every task, the caller's included, and every chunk of frames, so
    # neither name may be bound locally.  The caller runs the first task
    # itself, before the pool's tasks, which enter through _point_task; a
    # task simulates each chunk of its span once for all of its grid points.
    seen = []
    point, task, simulate = harness.run_point, harness._point_task, harness.simulate_frame

    def point_spy(config, points, span):
        seen.append(("run_point", list(points), (span.start, span.stop)))
        return point(config, points, span)

    def task_spy(*args):
        seen.append(("_point_task",))
        return task(*args)

    def simulate_spy(config, rngs):
        seen.append(("simulate_frame", len(rngs)))
        return simulate(config, rngs)

    monkeypatch.setattr(harness, "run_point", point_spy)
    monkeypatch.setattr(harness, "_point_task", task_spy)
    monkeypatch.setattr(harness, "simulate_frame", simulate_spy)
    monkeypatch.setattr(harness, "_pool", _SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "CHUNK_SYMBOLS", 12)  # two 6-symbol frames per chunk
    grid = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for workers, iq_frame_avg, want in (
        (1, 1, [("run_point", grid, (0, 3)), ("simulate_frame", 2), ("simulate_frame", 1)]),
        # three blocks: two spans of every point, one frame and two
        (2, 1, [
            ("run_point", grid, (0, 1)), ("simulate_frame", 1),
            ("_point_task",), ("run_point", grid, (1, 3)), ("simulate_frame", 2),
        ]),
        # one block: one span and two groups of points, each simulating it
        (2, 3, [
            ("run_point", [(0, 0), (1, 0)], (0, 3)), ("simulate_frame", 3),
            ("_point_task",), ("run_point", [(0, 1), (1, 1)], (0, 3)), ("simulate_frame", 3),
        ]),
    ):
        seen.clear()
        config = ScenarioConfig(
            frames=3, snr_db=(20.0, 30.0), beta_hz=(0.0, 5e3), modes=("genie",),
            symbols_per_frame=6, iq_frame_avg=iq_frame_avg, workers=workers,
        )
        result = run_campaign(config)
        assert seen == want
        assert [(r.snr_db, r.beta_hz) for r in result.rows] == [
            (20.0, 0.0), (20.0, 5e3), (30.0, 0.0), (30.0, 5e3),
        ]


def test_pool_runs_a_locally_wrapped_run_point(monkeypatch):
    # a wrapper that cannot be pickled (a local function) stays in the parent:
    # the pool sends the task by name, and the results do not change
    point = harness.run_point

    def run_point(*args, **kwargs):
        return point(*args, **kwargs)

    config = ScenarioConfig(
        frames=1, snr_db=(20.0, 30.0), modes=("genie",), symbols_per_frame=6, workers=2,
    )
    serial = run_campaign(dataclasses.replace(config, workers=1)).rows
    monkeypatch.setattr(harness, "run_point", run_point)
    assert run_campaign(config).rows == serial


@pytest.mark.parametrize("cpus, workers, processes", [(2, 5, 2), (1, 10**6, 1), (None, 3, 1), (8, 3, 3)])
def test_pool_starts_at_most_one_process_per_cpu(monkeypatch, cpus, workers, processes):
    # one single-block span, so the points split into one group per process;
    # the caller runs one task and the pool one process per other task, never
    # more processes in all than CPUs; the rows do not change
    pools = []

    class RecordingPool(_SerialPool):
        def __init__(self, processes):
            super().__init__(processes)
            pools.append(processes)

    config = ScenarioConfig(
        frames=1, snr_db=(10.0, 20.0, 30.0, 40.0, 50.0), modes=("genie",), symbols_per_frame=6,
    )
    serial = run_campaign(config).rows
    monkeypatch.setattr(harness, "_pool", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    config = dataclasses.replace(config, workers=workers)
    groups, spans = harness._task_grid(config)
    assert (len(groups), len(spans)) == (processes, 1)
    assert run_campaign(config).rows == serial
    assert pools == ([processes - 1] if processes > 1 else [])


@pytest.mark.parametrize("workers", [1, 3, 4, 10**6])
def test_point_groups_cover_the_grid_once(monkeypatch, workers):
    # two blocks and four points on eight CPUs: the frames split first, the
    # points into what processes remain, and the tasks, never more than the
    # processes, cover each (point, frame) pair once; no pool starts here
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    config = ScenarioConfig(frames=2, snr_db=(10.0, 20.0), beta_hz=(0.0, 5e3), workers=workers)
    groups, spans = harness._task_grid(config)
    want = {1: (1, 1), 3: (1, 2), 4: (2, 2), 10**6: (4, 2)}[workers]
    assert (len(groups), len(spans)) == want
    assert len(groups) * len(spans) <= min(workers, 8)
    assert all(groups)
    covered = sorted((p, f) for g in groups for p in g for span in spans for f in span)
    assert covered == [(p, f) for p in [(0, 0), (0, 1), (1, 0), (1, 1)] for f in range(2)]
    assert groups[0][0] == (0, 0) and spans[0].start == 0


@pytest.mark.parametrize("cpus, workers, frames, iq_frame_avg, spans, n_groups", [
    pytest.param(2, 2, 6, 1, [(0, 3), (3, 6)], 1, id="one-frame-blocks"),
    pytest.param(3, 3, 7, 3, [(0, 3), (3, 6), (6, 7)], 1, id="partial-last-block"),
    pytest.param(8, 8, 3, 1, [(0, 1), (1, 2), (2, 3)], 2, id="fewer-frames-than-workers"),
    pytest.param(2, 15, 5, 1, [(0, 2), (2, 5)], 1, id="more-workers-than-cpus"),
    pytest.param(4, 4, 4, 4, [(0, 4)], 4, id="single-block"),
])
def test_task_grid_rows_match_one_worker(monkeypatch, cpus, workers, frames, iq_frame_avg, spans, n_groups):
    # spans of whole blocks, then groups of points; the merged tasks give the
    # rows of one worker byte for byte, the pool starts one process per task
    # after the caller's, and a frame is simulated once per group
    config = ScenarioConfig(
        frames=frames, snr_db=(10.0, 30.0), beta_hz=(0.0, 1e4),
        modes=("full", "genie", "uncompensated"), symbols_per_frame=4,
        iq_frame_avg=iq_frame_avg, master_seed=5,
    )
    serial = [r.csv() for r in run_campaign(config).rows]
    pools, simulated = [], []
    simulate = harness.simulate_frame

    class RecordingPool(_SerialPool):
        def __init__(self, processes):
            super().__init__(processes)
            pools.append(processes)

    def counted(config, rngs):
        simulated.append(len(rngs))
        return simulate(config, rngs)

    monkeypatch.setattr(harness, "_pool", RecordingPool)
    monkeypatch.setattr(harness, "simulate_frame", counted)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    config = dataclasses.replace(config, workers=workers)
    groups, got = harness._task_grid(config)
    assert [(s.start, s.stop) for s in got] == spans
    assert len(groups) == n_groups
    assert [r.csv() for r in run_campaign(config).rows] == serial
    tasks = n_groups * len(spans)
    assert tasks <= min(workers, cpus)
    assert pools == ([tasks - 1] if tasks > 1 else [])
    assert sum(simulated) == frames * n_groups


def test_caller_runs_the_first_task(monkeypatch, tmp_path):
    # real processes: each task logs its process and span from the module-level
    # run_point; the caller runs the first span, one pool process the second,
    # the rows are those of one worker, and no process is left running
    config = ScenarioConfig(
        frames=2, snr_db=(20.0, 30.0), modes=("full", "genie"), symbols_per_frame=6,
    )
    serial = [r.csv() for r in run_campaign(config).rows]
    log, point = tmp_path / "tasks.log", harness.run_point

    def logged(config, points, span):
        with open(log, "a") as fh:
            fh.write(f"{span.start} {os.getpid()}\n")
        return point(config, points, span)

    monkeypatch.setattr(harness, "run_point", logged)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    rows = run_campaign(dataclasses.replace(config, workers=2)).rows
    assert [r.csv() for r in rows] == serial
    tasks = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
    assert [span for span, _ in tasks] == [0, 1]
    assert tasks[0][1] == os.getpid() != tasks[1][1]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_a_failing_task_leaves_no_process_running(monkeypatch, where):
    # a stage raises in one task: the error reaches the caller, and the pool
    # is joined on the way out
    caller, simulate = os.getpid(), harness.simulate_frame

    def failing(config, rngs):
        if (os.getpid() == caller) == (where == "caller"):
            raise RuntimeError(f"a stage failed in the {where}")
        return simulate(config, rngs)

    monkeypatch.setattr(harness, "simulate_frame", failing)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    config = ScenarioConfig(
        frames=2, snr_db=(20.0,), modes=("genie",), symbols_per_frame=6, workers=2,
    )
    with pytest.raises(RuntimeError, match=f"failed in the {where}"):
        run_campaign(config)
    assert multiprocessing.active_children() == []


def test_a_failing_caller_does_not_wait_for_the_pool(monkeypatch):
    # the caller's task raises at once while the worker's sleeps: leaving the
    # pool ends the worker, so the error surfaces long before the sleep would
    # end (a campaign that waited would take 20 s here), and no process is left
    caller, simulate = os.getpid(), harness.simulate_frame

    def stage(config, rngs):
        if os.getpid() == caller:
            raise RuntimeError("a stage failed in the caller")
        time.sleep(20.0)
        return simulate(config, rngs)

    monkeypatch.setattr(harness, "simulate_frame", stage)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    config = ScenarioConfig(
        frames=2, snr_db=(20.0,), modes=("genie",), symbols_per_frame=6, workers=2,
    )
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="failed in the caller"):
        run_campaign(config)
    assert time.perf_counter() - start < 5.0
    assert multiprocessing.active_children() == []


def test_a_failing_worker_does_not_wait_for_the_other_tasks(monkeypatch):
    # three one-frame spans: the caller runs span 0, the span-1 worker raises
    # at once and the span-2 worker sleeps.  Each task's result is watched on
    # its own, so the error surfaces long before the sleep would end (waiting
    # for every task would take 20 s here), and no process is left running.
    point = harness.run_point

    def task(config, points, span):
        if span.start == 1:
            raise RuntimeError("a stage failed in a worker")
        if span.start == 2:
            time.sleep(20.0)
        return point(config, points, span)

    monkeypatch.setattr(harness, "run_point", task)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    config = ScenarioConfig(
        frames=3, snr_db=(20.0,), modes=("genie",), symbols_per_frame=6, workers=3,
    )
    assert [(s.start, s.stop) for s in harness._task_grid(config)[1]] == [(0, 1), (1, 2), (2, 3)]
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="failed in a worker"):
        run_campaign(config)
    assert time.perf_counter() - start < 5.0
    assert multiprocessing.active_children() == []


def test_a_failing_worker_does_not_wait_for_the_callers_span(monkeypatch):
    # two spans of six one-frame chunks: the caller's simulate_frame sleeps
    # 1 s per chunk and the worker's raises at once.  The caller looks at the
    # pool's results after each of its chunks, so the error arrives after
    # about one chunk, not after the caller's whole span (6 s), and no
    # process is left running.
    caller, simulate = os.getpid(), harness.simulate_frame

    def stage(config, rngs):
        if os.getpid() != caller:
            raise RuntimeError("a stage failed in a worker")
        time.sleep(1.0)
        return simulate(config, rngs)

    monkeypatch.setattr(harness, "simulate_frame", stage)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    config = ScenarioConfig(
        frames=12, snr_db=(20.0,), modes=("genie",), symbols_per_frame=64, workers=2,
    )
    assert harness._chunk_frames(config) == 1
    assert [(s.start, s.stop) for s in harness._task_grid(config)[1]] == [(0, 6), (6, 12)]
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="failed in a worker"):
        run_campaign(config)
    assert time.perf_counter() - start < 3.0
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_ends_the_campaign(monkeypatch):
    # a worker that exits without a result (as one killed for its memory
    # would) is not replaced and waited for: the campaign raises, bounded by
    # an alarm, and no process is left running
    caller, simulate = os.getpid(), harness.simulate_frame

    def stage(config, rngs):
        if os.getpid() != caller:
            os._exit(1)
        return simulate(config, rngs)

    def timeout(*_):
        raise TimeoutError("the campaign waited for a worker that had died")

    monkeypatch.setattr(harness, "simulate_frame", stage)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    config = ScenarioConfig(
        frames=2, snr_db=(20.0,), modes=("genie",), symbols_per_frame=6, workers=2,
    )
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with pytest.raises(RuntimeError, match="ended before its task"):
            run_campaign(config)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_point_arrays_freed_before_the_next_point():
    # Six points score in three stacks of two.  The peak of the six stays near
    # the peak of one stack: each stack's frames, front end, states and
    # decisions are freed before the next stack is impaired.  Measured ratios:
    # 1.0050-1.0069 (seeds 1-10); 1.198-1.200 when the previous stack's frames
    # stay alive.  One stack's peak is well under twice one point's:
    # 1.3694-1.3709 (seeds 1-10), impaired in one pass; 1.4356-1.4378 when each
    # point is impaired alone and copied into the stack.
    config = ScenarioConfig(
        frames=2, snr_db=(10.0, 15.0, 20.0, 25.0, 30.0, 35.0), beta_hz=(5e3,), modes=MODES,
        symbols_per_frame=30, iq_frame_avg=2, master_seed=3,
    )
    assert harness._stack_points(config) == 2
    run_point(config, [(0, 0)])  # first-call caches outside the measurement
    peaks = []
    for points in ([(0, 0)], [(0, 0), (1, 0)], [(i, 0) for i in range(6)]):
        tracemalloc.start()
        try:
            run_point(config, points)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one, stack, six = peaks
    assert six <= 1.04 * stack, peaks
    assert stack <= 1.47 * one, peaks


@pytest.fixture(scope="module")
def small_result():
    config = ScenarioConfig(
        frames=2, snr_db=(15.0, 25.0), beta_hz=(0.0, 5e3),
        modes=("full", "genie"), symbols_per_frame=6,
    )
    return run_campaign(config)


class TestCampaignOutputs:
    def test_row_count_is_grid_size(self, small_result):
        assert len(small_result.rows) == 2 * 2 * 2

    def test_rows_in_grid_order(self, small_result):
        coords = [(r.snr_db, r.beta_hz, r.mode) for r in small_result.rows]
        expected = [
            (s, b, m)
            for s in (15.0, 25.0)
            for b in (0.0, 5e3)
            for m in ("full", "genie")
        ]
        assert coords == expected

    def test_deterministic_rows(self, small_result):
        again = run_campaign(small_result.config)
        assert again.rows == small_result.rows

    def test_csv_emission(self, small_result, tmp_path):
        path = tmp_path / "results.csv"
        emit_csv(small_result, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("snr_db,beta_hz,mode,")
        assert len(lines) == 1 + len(small_result.rows)
        emit_csv(small_result, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_worker_count_does_not_change_csv(self, small_result, tmp_path):
        import dataclasses

        config3 = dataclasses.replace(small_result.config, workers=3)
        res3 = run_campaign(config3)
        emit_csv(small_result, tmp_path / "w1.csv")
        emit_csv(res3, tmp_path / "w3.csv")
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()

    def test_svg_plots_structure(self, small_result, tmp_path):
        paths = emit_plots(small_result, tmp_path)
        assert sorted(os.path.basename(p) for p in paths) == [
            "ber_vs_snr.svg", "mse_vs_snr.svg",
        ]
        for p in paths:
            root = ET.parse(p).getroot()
            assert root.tag.endswith("svg")
            polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
            # one series per (mode, linewidth) pair
            assert len(polylines) == 4

    def test_infinite_snr_point_is_left_off_the_chart(self):
        # the CSV keeps an infinite-SNR row; the chart has no place for its x
        series = [("full", [10.0, 20.0], [1e-2, 1e-3]), ("genie", [10.0, 20.0], [5e-3, 0.0])]
        with_inf = [(label, [*xs, math.inf], [*ys, 1e-4]) for label, xs, ys in series]
        args = ("ber vs SNR", "SNR (dB)", "bit error rate")
        assert line_chart(with_inf, *args) == line_chart(series, *args)

    def test_infinite_snr_formats(self, tmp_path):
        row = CampaignRow(
            snr_db=math.inf, beta_hz=0.0, mode="genie", detector="zf",
            ce_method="interp", m_t=2, m_r=2, frames_run=1, ber=0.0,
            mse_ce=0.0, mse_k1=0.0, flagged_symbols=0, seed=1,
        )
        assert row.csv().startswith("inf,")


class TestConfigValidation:
    def test_rejects_bad_modes(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(modes=("sideways",))

    @pytest.mark.parametrize("modes", [(), ("full", "full"), ("genie", "full", "genie")])
    def test_rejects_empty_or_repeated_modes(self, modes):
        # a repeated mode would add two runs into one row and print it twice
        with pytest.raises(ConfigurationError):
            ScenarioConfig(frames=1, modes=modes)

    @pytest.mark.parametrize("grid", [
        dict(snr_db=(10.0, 10.0)),
        dict(snr_db=(10.0, 20.0, 10.0)),
        dict(beta_hz=(0.0, 0.0)),
        dict(beta_hz=(5e3, 1e4, 5e3)),
    ])
    def test_rejects_repeated_grid_values(self, grid):
        # a repeated value would run its grid points twice and print each
        # row, and each chart series, twice
        with pytest.raises(ConfigurationError, match="each value once"):
            ScenarioConfig(frames=1, **grid)

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(snr_db=())
        with pytest.raises(ConfigurationError):
            ScenarioConfig(beta_hz=())

    def test_rejects_cp_violation(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(l_taps=20, n_cp=16)

    def test_rejects_bad_detector(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(detector="ml")

    @pytest.mark.parametrize("fields", [
        dict(snr_db=(1e300,)),             # OverflowError in the noise power
        dict(snr_db=(-1e300,)),            # ZeroDivisionError in the noise power
        dict(snr_db=(5000.0,)),
        dict(beta_hz=(1e300,), ts=1e300),  # infinite phase-noise variance
        dict(iq_amp_pct=float("nan")),     # the spline refuses the non-finite channel
        dict(iq_amp_pct=1e300),            # eigvalsh does not converge
        dict(iq_amp_pct=-100.0),           # zero amplitude ratio
        dict(iq_theta_deg=float("inf")),
        dict(pdp_decay=float("nan")),      # nan fails every comparison, so a check must be written for it
        dict(n=2**40),                     # a size this large would exhaust memory
        dict(l_taps=2**31, n_cp=16),       # allocated the profile before the prefix check
        dict(m_r=100_000),                 # about 6.4 GB per stream array of the first chunk
        dict(symbols_per_frame=10**9),
        dict(iq_frame_avg=10**6, frames=10**6),  # a first chunk of 10**6 frames, about 128 GB
    ])
    def test_rejects_values_that_broke_a_run(self, fields):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(**fields)

    def test_frame_bound_admits_a_large_fft_4x4_frame(self):
        config = ScenarioConfig(m_t=4, m_r=4, n=4096, n_cp=256)  # constructed, never run
        assert config.symbols_per_frame == 50

    def test_chunk_samples_bounded(self):
        # a chunk is whole iq_frame_avg blocks, 50 * 80 * 2 samples a frame by
        # default; only the config is built, no chunk
        most = harness.MAX_CHUNK_SAMPLES // 8000
        ScenarioConfig(iq_frame_avg=most, frames=10**6)
        ScenarioConfig(iq_frame_avg=10**6, frames=most)
        with pytest.raises(ConfigurationError, match="chunk"):
            ScenarioConfig(iq_frame_avg=most + 1, frames=10**6)
        with pytest.raises(ConfigurationError, match="chunk"):
            ScenarioConfig(iq_frame_avg=10**6, frames=most + 1)
