"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  The Monte-Carlo criteria take about a minute in total on
two cores (criterion 07's campaigns run on two worker processes); every
campaign is fully seeded and reproducible.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import gen_phase_noise, make_channel, owned_channel_columns, transmit_preamble
from freq_oracle import combined_freq_model
from ofdmlink.channel import apply_channel, draw_channel
from ofdmlink.equalization import equalize_frame
from ofdmlink.estimation import (
    EstimatorState,
    estimate_iq_params,
    estimate_noise_ici_corr,
    estimate_preamble,
)
from ofdmlink.framing import (
    build_preamble,
    demodulate_frame,
    modulate_frame,
)
from ofdmlink.harness import ScenarioConfig, emit_csv, run_campaign, run_point
from ofdmlink.impairments import (
    IqParams,
    apply_iq_imbalance,
    apply_phase_noise,
    wiener_phase,
)
from ofdmlink.numerics import RandomSource, logical_to_bin


def report(num: int, name: str, ok: bool, detail: str = ""):
    tail = f" :: {detail}" if detail else ""
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}{tail}")
    assert ok, f"criterion {num:02d} {name}{tail}"


def test_criterion_01_model_equivalence_oracle():
    """Sample-level chain equals the spectral-mixing model to 1e-10."""
    t0 = time.time()
    n, n_cp, n_sym = 64, 16, 4
    worst = 0.0
    root = RandomSource(2024)
    for trial in range(20):
        rng = root.child("cfg", trial)
        ch = draw_channel(2, 2, 7, 2.0, rng.child("ch"), n_fft=n)
        g = rng.child("iq")
        iq = IqParams(
            eps=1.0 + 0.2 * g.rng.random(2),
            theta=np.deg2rad(g.rng.uniform(-10, 10, size=2)),
        )
        beta = float(rng.child("beta").rng.uniform(1e3, 1e5))
        s = rng.child("sym").complex_normal(var=1.0, size=(n_sym, n, 2))
        stream_len = n_sym * (n + n_cp) + ch.l_taps - 1
        trace = gen_phase_noise(beta, 5e-8, stream_len, 2, rng.child("pn"))
        rx = apply_channel(modulate_frame(s, n_cp), ch)
        rx = apply_phase_noise(rx, np.exp(1j * trace))
        rx = apply_iq_imbalance(rx, iq)
        got = demodulate_frame(rx, n, n_cp, n_sym)
        for m in range(n_sym):
            window = m * (n + n_cp) + n_cp
            expected = combined_freq_model(s[m], ch, trace, iq, window)
            err = np.abs(got[m] - expected).max() / np.abs(expected).max()
            worst = max(worst, err)
    elapsed = time.time() - t0
    report(
        1, "model-equivalence oracle",
        worst < 1e-10 and elapsed < 5.0,
        f"worst rel err {worst:.2e} over 20 configs, {elapsed:.1f}s",
    )


def test_criterion_02_noiseless_estimator_exactness(smap64):
    """No noise, no phase noise, (5 deg, 10%): estimates exact to 1e-9."""
    t0 = time.time()
    worst_eps = worst_theta = worst_h = 0.0
    for trial in range(5):
        ch = make_channel(seed=3100 + trial)
        pre = build_preamble(2, smap64)
        iq = IqParams.uniform(2, 5.0, 10.0)
        psi1, psi2 = transmit_preamble(ch, pre, iq=iq)
        est = estimate_preamble(psi1, psi2, pre)
        got = estimate_iq_params(est.chi_a, est.e, pre.owner)
        worst_eps = max(worst_eps, np.abs(np.abs(got) - 1.1).max())
        worst_theta = max(worst_theta, np.abs(-np.angle(got) - np.deg2rad(5.0)).max())
        worst_h = max(worst_h, np.abs(est.e - owned_channel_columns(ch, pre)).max())
    elapsed = time.time() - t0
    ok = worst_eps < 1e-9 and worst_theta < 1e-9 and worst_h < 1e-9 and elapsed < 1.0
    report(
        2, "noiseless estimator exactness", ok,
        f"|eps err| {worst_eps:.1e}, |theta err| {worst_theta:.1e} rad, "
        f"|H err| {worst_h:.1e}, {elapsed:.2f}s",
    )


def test_criterion_03_purely_imaginary_residual(smap64):
    """Injected common-phase difference leaves a constant imaginary residual."""
    t0 = time.time()
    ch = make_channel(seed=3300)
    pre = build_preamble(2, smap64)
    iq = IqParams.uniform(2, 5.0, 10.0)
    delta = np.array([0.21 - 0.13j, -0.07 + 0.29j])
    n = 64
    used_b = logical_to_bin(pre.used, n)
    h_cols = owned_channel_columns(ch, pre)
    hm_cols = np.conj(h_cols[::-1])
    lam1m = np.conj(pre.lambda1[::-1])
    lam2m = np.conj(pre.lambda2[::-1])
    psi1 = np.zeros((n, 2), dtype=complex)
    psi2 = np.zeros((n, 2), dtype=complex)
    psi1[used_b] = iq.k1 * pre.lambda1[:, None] * h_cols + iq.k2 * lam1m[:, None] * hm_cols
    psi2[used_b] = (
        iq.k1 * pre.lambda2[:, None] * (h_cols + delta)
        + iq.k2 * lam2m[:, None] * (hm_cols + np.conj(delta))
    )
    est = estimate_preamble(psi1, psi2, pre)
    residual = est.e - h_cols
    max_re = np.abs(residual.real).max()
    spread = np.abs(residual - residual.mean(axis=0)).max()
    elapsed = time.time() - t0
    ok = max_re < 1e-9 and spread < 1e-9 and elapsed < 1.0
    report(
        3, "purely-imaginary residual", ok,
        f"max |Re| {max_re:.1e}, bin spread {spread:.1e}, {elapsed:.2f}s",
    )


def test_criterion_04_wiener_law():
    """Increment variance and linear variance growth of the phase path."""
    t0 = time.time()
    target_step = 4 * np.pi * 5e3 * 5e-8
    phi = wiener_phase(5e3, 5e-8, RandomSource(3400).child("pn").rng.normal(size=(100_000, 1)))
    step_var = np.diff(phi[:, 0]).var()
    root = RandomSource(3401)
    # 10_000 traces in batches: the path variance at sample 80
    endpoints = np.concatenate(
        [
            wiener_phase(5e3, 5e-8, root.child("batch", i).rng.normal(size=(80, 100)))[80]
            for i in range(100)
        ]
    )
    growth_var = endpoints.var()
    elapsed = time.time() - t0
    ok = (
        abs(step_var - target_step) < 0.03 * target_step
        and abs(growth_var - 80 * target_step) < 0.05 * (80 * target_step)
        and elapsed < 10.0
    )
    report(
        4, "Wiener increment law", ok,
        f"step var {step_var:.4e} (target {target_step:.4e}), "
        f"var at n=80 {growth_var:.4e} (target {80 * target_step:.4e}), {elapsed:.1f}s",
    )


def test_criterion_05_noise_ici_correlation():
    """Sample correlation of synthetic null-bin noise near 0.1 I."""
    t0 = time.time()
    rng = RandomSource(3500).child("psi")
    x = rng.complex_normal(var=0.1, size=(600, 2))
    psi = estimate_noise_ici_corr(x)
    err = np.linalg.norm(psi - 0.1 * np.eye(2)) / (0.1 * np.sqrt(2))
    elapsed = time.time() - t0
    report(
        5, "noise+ICI correlation consistency",
        err < 0.15 and elapsed < 1.0,
        f"rel Frobenius err {err:.3f} with 600 samples, {elapsed:.2f}s",
    )


def test_criterion_06_genie_zf_exactness():
    """Genie parameters, noiseless mismatch-only frames decode error-free."""
    t0 = time.time()
    bers = {}
    for m in (2, 4):
        config = ScenarioConfig(
            m_t=m, m_r=m, frames=10, snr_db=(float("inf"),), beta_hz=(0.0,),
            modes=("genie",), detector="zf", symbols_per_frame=10,
        )
        bers[m] = run_point(config, [(0, 0)])[0].ber

    # MMSE with a vanishing regularizer must reproduce the ZF decisions.
    config = ScenarioConfig(
        m_t=2, m_r=2, frames=2, snr_db=(float("inf"),), beta_hz=(0.0,),
        modes=("genie",), detector="zf", symbols_per_frame=10,
    )
    from ofdmlink.harness import front_end, impair, receiver_state, simulate_frame

    smap, pilots = config.smap, config.pilots
    draws = simulate_frame(config, [RandomSource(3600).child("frame", f) for f in range(2)])
    frames = impair(draws, config, [(float("inf"), 0.0)], {})
    fe = front_end(frames, config)
    state, _ = receiver_state(frames, fe, config, "genie", None)
    state_eps = EstimatorState(
        h_pre=state.h_pre, k1=state.k1, psi=1e-12 * np.eye(2, dtype=complex)
    )
    zf = equalize_frame(
        frames.rx_grids, state, smap, pilots,
        options=config.equalizer,
        phase_updates=frames.cpe_true,
    )
    mmse = equalize_frame(
        frames.rx_grids, state_eps, smap, pilots,
        options=dataclasses.replace(config.equalizer, detector="mmse"),
        phase_updates=frames.cpe_true,
    )
    same = np.array_equal(zf.bits, mmse.bits)
    elapsed = time.time() - t0
    ok = bers[2] == 0.0 and bers[4] == 0.0 and same and elapsed < 10.0
    report(
        6, "genie/ZF exactness", ok,
        f"BER 2x2 {bers[2]:.1e}, 4x4 {bers[4]:.1e}, MMSE(1e-12 I)==ZF decisions: {same}, "
        f"{elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def ber_campaigns():
    # two worker processes: the rows do not depend on the count (criterion 10)
    out = {}
    for m in (2, 4):
        config = ScenarioConfig(
            m_t=m, m_r=m, frames=200, snr_db=(10.0, 15.0, 20.0, 25.0, 30.0, 35.0),
            beta_hz=(5e3,), modes=("uncompensated", "iq-only", "pn-only", "full", "genie"),
            detector="mmse", iq_frame_avg=50, master_seed=7000, workers=2,
        )
        t0 = time.time()
        out[m] = run_campaign(config)
        print(f"\n[campaign] BER sweep {m}x{m}: {time.time() - t0:.0f}s")
    return out


def _check_ber_shape(res):
    """Floor, full-compensation orderings, and monotonicity for one campaign."""

    def curve(mode):
        rows = sorted(res.filter(mode=mode), key=lambda r: r.snr_db)
        return np.array([r.ber for r in rows]), rows

    unc, _ = curve("uncompensated")
    iqo, _ = curve("iq-only")
    pno, _ = curve("pn-only")
    gen, _ = curve("genie")
    full, rows = curve("full")
    snrs = [r.snr_db for r in rows]
    frames = rows[0].frames_run
    n_eff = frames * (res.config.symbols_per_frame - 3)

    floor_ok = unc[-1] > 0.5 * unc[2]  # 35 dB vs 20 dB
    order_ok = all(
        full[i] < iqo[i] and full[i] < pno[i]
        for i in range(len(snrs))
        if snrs[i] >= 25.0
    )
    # mode-monotonicity invariant at 30 dB
    i30 = snrs.index(30.0)
    chain_ok = gen[i30] <= full[i30] < min(iqo[i30], pno[i30]) < unc[i30]
    mono_ok = True
    for i in range(len(full) - 1):
        p = max(full[i], 1e-9)
        sigma = np.sqrt(p * (1 - p) / n_eff)
        if full[i + 1] > full[i] + 2 * sigma:
            mono_ok = False
    detail = (
        f"uncomp floor {unc[2]:.3e}->{unc[-1]:.3e}; "
        f"genie {gen[i30]:.3e} <= full {full[i30]:.3e} < "
        f"min(iq-only {iqo[i30]:.3e}, pn-only {pno[i30]:.3e}) < uncomp {unc[i30]:.3e} at 30 dB"
    )
    return floor_ok and order_ok and chain_ok and mono_ok, detail


def test_criterion_07_ber_shape(ber_campaigns):
    """Floor of the partial schemes, full-compensation ordering and monotonicity."""
    ok2, det2 = _check_ber_shape(ber_campaigns[2])
    ok4, det4 = _check_ber_shape(ber_campaigns[4])
    report(
        7, "BER curve shape (5 kHz, 5deg/10pct)",
        ok2 and ok4, f"2x2: {det2} | 4x4: {det4}",
    )


@pytest.fixture(scope="module")
def mse_campaigns():
    base = ScenarioConfig(
        m_t=2, m_r=2, frames=200, snr_db=(10.0, 15.0, 20.0, 25.0, 30.0, 35.0),
        beta_hz=(1e3, 1e4, 1e5), modes=("full",), detector="mmse",
        symbols_per_frame=4, iq_frame_avg=50, master_seed=7100,
    )
    out = {}
    t0 = time.time()
    for method in ("interp", "iterative"):
        out[method] = run_campaign(dataclasses.replace(base, ce_method=method))
    print(f"\n[campaign] channel-MSE sweeps: {time.time() - t0:.0f}s")
    return out


def test_criterion_08_channel_mse_shape(mse_campaigns):
    """MSE falls with SNR then floors, grows with linewidth; tap-domain helps 4x4."""
    details = []
    ok = True
    for method, res in mse_campaigns.items():
        for beta in (1e3, 1e4, 1e5):
            rows = sorted(res.filter(beta_hz=beta), key=lambda r: r.snr_db)
            mse = np.array([r.mse_ce for r in rows])
            ok = ok and mse[3] < mse[0]  # decreasing from 10 to 25 dB
            if beta == 1e4:
                ok = ok and mse[-1] > 0.25 * mse[3]  # floor: 35 dB vs 25 dB
                details.append(f"{method} b=10k floor {mse[3]:.2e}->{mse[-1]:.2e}")
        at25 = {
            beta: sorted(res.filter(beta_hz=beta), key=lambda r: r.snr_db)[3].mse_ce
            for beta in (1e3, 1e4, 1e5)
        }
        ok = ok and at25[1e3] < at25[1e4] < at25[1e5]
        details.append(
            f"{method} at 25 dB: {at25[1e3]:.2e} < {at25[1e4]:.2e} < {at25[1e5]:.2e}"
        )

    # 4x4 at 20 dB: tap-truncation completion vs spline over 200 channels.
    base = ScenarioConfig(
        m_t=4, m_r=4, frames=200, snr_db=(20.0,), beta_hz=(1e3,),
        modes=("full",), detector="mmse", symbols_per_frame=4,
        iq_frame_avg=50, master_seed=7200,
    )
    per_method = {
        method: run_point(dataclasses.replace(base, ce_method=method), [(0, 0)])[0].mse_ce
        for method in ("interp", "iterative")
    }
    ok = ok and per_method["iterative"] <= per_method["interp"]
    details.append(
        f"4x4@20dB iterative {per_method['iterative']:.2e} <= spline {per_method['interp']:.2e}"
    )
    report(8, "channel-estimation MSE shape", ok, "; ".join(details))


_K1_BETAS = (1e3, 5e3, 1e4)  # linewidths where the tracker-assisted link operates


@pytest.fixture(scope="module")
def k1_campaigns():
    base = ScenarioConfig(
        m_t=2, m_r=2, frames=200, snr_db=(10.0, 15.0, 20.0, 25.0, 30.0),
        beta_hz=_K1_BETAS, modes=("full",), detector="mmse",
        symbols_per_frame=4, master_seed=7300,
    )
    out = {}
    t0 = time.time()
    for avg in (1, 2):
        out[avg] = run_campaign(dataclasses.replace(base, iq_frame_avg=avg))
    print(f"\n[campaign] mismatch-MSE sweeps: {time.time() - t0:.0f}s")
    return out


def test_criterion_09_k1_mse_trend(k1_campaigns):
    """Mismatch MSE falls with SNR (within error) and halves with 2-frame averaging."""
    ok = True
    details = []
    n_blocks = {1: 200, 2: 100}
    for avg, res in k1_campaigns.items():
        slack = 1.0 + 2.0 * np.sqrt(2.0 / n_blocks[avg])
        for beta in _K1_BETAS:
            rows = sorted(res.filter(beta_hz=beta), key=lambda r: r.snr_db)
            mse = np.array([r.mse_k1 for r in rows])
            for i in range(len(mse) - 1):
                ok = ok and mse[i + 1] <= mse[i] * slack
    for beta in _K1_BETAS:
        one = sorted(k1_campaigns[1].filter(beta_hz=beta), key=lambda r: r.snr_db)
        two = sorted(k1_campaigns[2].filter(beta_hz=beta), key=lambda r: r.snr_db)
        better = [t.mse_k1 < o.mse_k1 for o, t in zip(one, two)]
        ok = ok and all(better)
        details.append(
            f"b={beta:g}: avg2/avg1 at 20 dB = {two[2].mse_k1 / one[2].mse_k1:.2f}"
        )
    report(9, "mismatch-MSE trend and frame averaging", ok, "; ".join(details))


def test_criterion_10_determinism(tmp_path):
    """Identical config and seed give byte-identical CSV for any worker count."""
    t0 = time.time()
    base = ScenarioConfig(
        frames=4, snr_db=(15.0, 25.0), beta_hz=(5e3,), modes=("full", "genie"),
        symbols_per_frame=6, master_seed=4242,
    )
    emit_csv(run_campaign(base), tmp_path / "w1.csv")
    emit_csv(run_campaign(dataclasses.replace(base, workers=3)), tmp_path / "w3.csv")
    same = (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()
    elapsed = time.time() - t0
    report(
        10, "byte-identical results across worker counts",
        same and elapsed < 60.0, f"{elapsed:.1f}s",
    )
