"""Tests for common-phase tracking and stacked mirror-pair detection."""

import dataclasses

import numpy as np
import pytest

from conftest import make_channel
from ofdmlink import equalization
from ofdmlink.channel import apply_channel
from ofdmlink.equalization import (
    UPSILON_CEILING,
    EqualizerOptions,
    LDL_MAX,
    _ldl_solve,
    _mixing_matrices,
    _pilot_responses,
    _pilot_tables,
    _solve_pairs,
    _solve_small,
    _track,
    _tracking_matrices,
    equalize_frame,
    mmse_r_matrix,
)
from ofdmlink.estimation import EstimatorState
from ofdmlink.framing import (
    N_TRAIN,
    assemble_frame,
    build_preamble,
    build_short_symbol,
    build_subcarrier_map,
    demodulate_frame,
    modulate_frame,
    pilot_matrix,
    qam16_map,
)
from ofdmlink.impairments import IqParams, apply_iq_imbalance
from ofdmlink.numerics import (
    CONDITION_LIMIT,
    ConfigurationError,
    RandomSource,
    condition_number,
    logical_to_bin,
)

# ZF detection with the re-derived tracking model; a test that needs
# another setting replaces that field
OPTIONS = EqualizerOptions(detector="zf", tracking_variant="re-derived", mmse_r="sigma")


def genie_state(ch, iq=None, psi_scale=0.0, theta_pre=None):
    m_r = ch.m_r
    iq = iq if iq is not None else IqParams.uniform(m_r, 0.0, 0.0)
    h = ch.freq.copy()
    if theta_pre is not None:
        h = h * np.asarray(theta_pre)[None, :, None]
    return EstimatorState(h_pre=h, k1=iq.k1, psi=psi_scale * np.eye(m_r, dtype=complex))


def pilot_observation(state, smap, pilots, upsilon):
    """Noise-free pilot bins of one symbol under the tracked-mixing model."""
    n = state.h_pre.shape[0]
    x = np.zeros((n, state.m_r), dtype=complex)
    k2 = 1.0 - np.conj(state.k1)
    for i, k in enumerate(smap.pilot_bins):
        j = list(smap.pilot_bins).index(-k)
        y = state.h_pre[logical_to_bin(k, n)] @ pilots[:, i]
        ym = np.conj(state.h_pre[logical_to_bin(-k, n)] @ pilots[:, j])
        x[logical_to_bin(k, n)] = state.k1 * upsilon * y + k2 * np.conj(upsilon) * ym
    return x


def track_cpe(x, state, smap, pilots, variant="re-derived"):
    """Tracking updates and flags of a ``(symbols, n, m_r)`` stack via the frame kernel."""
    return _track(np.asarray(x), state, pilots, smap, variant)


def build_w(k, state, upsilon):
    """Mixing matrix of the single mirror pair ``{k, -k}`` (2m_r x 2m_t)."""
    n = state.h_pre.shape[0]
    b_k = logical_to_bin(np.array([k]), n)
    b_mk = logical_to_bin(np.array([-k]), n)
    return _mixing_matrices(np.asarray(upsilon)[None], *pair_channels(state, b_k, b_mk))[0, 0]


def pair_channels(state, b_k, b_mk):
    """``_mixing_matrices``' channel arguments: pair bins, conjugated mirrors, mismatch."""
    return state.h_pre[b_k], np.conj(state.h_pre[b_mk]), state.k1


def solve_detection(w, x_stack, r, r_floor):
    """Solutions and guard verdicts of a stack of pair systems, as equalize_frame detects them."""
    solve = _solve_small if w.shape[-1] <= LDL_MAX else _solve_pairs
    s, good = solve(w[..., None, :, :], x_stack[..., None, :, :], r, r_floor)  # one block each
    return s[..., 0, :, :], good[..., 0]


def detect(x_stack, w, r=0.0):
    """Soft estimate and guard verdict of one stacked mirror pair."""
    s, good = solve_detection(w[None], np.asarray(x_stack, dtype=complex)[None, None], r, 0.0)
    return s[0, 0], bool(good[0])


class TestTrackCpe:
    def test_identity_without_drift(self, smap64):
        ch = make_channel(seed=101)
        state = genie_state(ch)
        pilots = pilot_matrix(2)
        x = pilot_observation(state, smap64, pilots, np.ones(2, dtype=complex))
        ups, flagged = track_cpe(x[None], state, smap64, pilots)
        np.testing.assert_allclose(ups[0], 1.0, atol=1e-9)
        assert not flagged[0]

    def test_recovers_injected_rotation(self, smap64):
        ch = make_channel(seed=102)
        iq = IqParams.uniform(2, 5.0, 10.0)
        state = genie_state(ch, iq=iq)
        pilots = pilot_matrix(2)
        ups = np.exp(0.3j) * np.ones(2, dtype=complex)
        x = pilot_observation(state, smap64, pilots, ups)
        got, _ = track_cpe(x[None], state, smap64, pilots)
        np.testing.assert_allclose(got[0], ups, atol=1e-6)

    def test_per_branch_rotations(self, smap64):
        ch = make_channel(seed=103)
        iq = IqParams.uniform(2, 5.0, 10.0)
        state = genie_state(ch, iq=iq)
        pilots = pilot_matrix(2)
        ups = np.exp(1j * np.array([0.25, -0.4])) * np.array([0.97, 1.02])
        x = pilot_observation(state, smap64, pilots, ups)
        got, _ = track_cpe(x[None], state, smap64, pilots)
        np.testing.assert_allclose(got[0], ups, atol=1e-6)

    def test_published_matrix_variant_misses_rotation(self, smap64):
        # The literal published construction drops the imaginary column
        # factor; it cannot recover a plain rotation even without noise.
        ch = make_channel(seed=104)
        state = genie_state(ch, iq=IqParams.uniform(2, 5.0, 10.0))
        pilots = pilot_matrix(2)
        ups = np.exp(0.3j) * np.ones(2, dtype=complex)
        x = pilot_observation(state, smap64, pilots, ups)
        got, _ = track_cpe(x[None], state, smap64, pilots, variant="as-printed")
        assert np.abs(got[0] - ups).max() > 1e-2

    def test_pilot_averaging_tightens_estimate(self, smap64):
        # The four-pilot average beats every single-pilot estimator over
        # random channels and noise.
        pilots = pilot_matrix(2)
        ups = np.exp(0.2j) * np.ones(2, dtype=complex)
        rng = RandomSource(106).child("noise")
        err_avg = []
        err_single = [[] for _ in range(4)]
        for trial in range(200):
            ch = make_channel(seed=5000 + trial)
            state = genie_state(ch, psi_scale=0.02)
            x = pilot_observation(state, smap64, pilots, ups)
            x = x + rng.complex_normal(var=0.02, size=x.shape)
            got, _ = track_cpe(x[None], state, smap64, pilots)
            err_avg.append(np.abs(got[0] - ups) ** 2)
            singles = _per_pilot_estimates(x, state, smap64, pilots)
            for l in range(4):
                err_single[l].append(np.abs(singles[l] - ups) ** 2)
        for l in range(4):
            assert np.mean(err_avg) < np.mean(err_single[l])

    def test_divergence_flag_and_fallback(self, smap64):
        # A diverging symbol keeps the update of the symbol before it.
        ch = make_channel(seed=107)
        state = genie_state(ch)
        pilots = pilot_matrix(2)
        prev = pilot_observation(state, smap64, pilots, np.full(2, 0.5 + 0j))
        x = pilot_observation(state, smap64, pilots, np.ones(2, dtype=complex)) * 50.0
        ups, flagged = track_cpe(np.stack([prev, x]), state, smap64, pilots)
        assert flagged[1]
        np.testing.assert_allclose(ups[1], 0.5)


def _per_pilot_estimates(x, state, smap, pilots):
    """Single-pilot tracking estimates, one per pilot bin (averaging baseline)."""
    p_bins, p_mirror = _pilot_tables(smap)
    y, ym = _pilot_responses(state, pilots, smap)
    z = np.stack([x[p_bins], np.conj(x[p_bins[p_mirror]])], axis=1)
    c = _tracking_matrices(y, ym, state.k1, "re-derived")
    r = z.shape[0]
    out = np.empty((r, state.m_r), dtype=complex)
    for l in range(r):
        for q in range(state.m_r):
            cq = c[q, l]
            zq = z[l, :, q]
            phi = np.linalg.solve(
                cq.conj().T @ cq + state.psi[q, q].real * np.eye(2), cq.conj().T @ zq
            )
            out[l, q] = phi[0].real + 1j * phi[1].real
    return out


def per_symbol_tracker(data, state, smap, pilots, variant, ceiling=UPSILON_CEILING):
    """The symbol-by-symbol tracker, written out as an oracle for the frame kernel.

    Each symbol solves each branch's regularized pilot systems behind the
    eigenvalue condition guard and falls back to the previous symbol's update (1
    before the first) when the guard rejects or the estimate is not
    finite or exceeds the ceiling.
    """
    p_bins, p_mirror = _pilot_tables(smap)
    y, ym = _pilot_responses(state, pilots, smap)
    c = _tracking_matrices(y, ym, state.k1, variant)
    ch = c.conj().swapaxes(-1, -2)
    gram = ch @ c
    prev = np.ones(state.m_r, dtype=complex)
    history, flagged = [], []
    for x in data:
        z = np.stack([x[p_bins], np.conj(x[p_bins[p_mirror]])], axis=1)
        rhs = (ch @ np.moveaxis(z, 2, 0)[..., None])[..., 0]
        ups = np.empty(state.m_r, dtype=complex)
        rejected = False
        for q in range(state.m_r):
            lam = max(float(state.psi[q, q].real), 0.0)
            reg = gram[q] + lam * np.eye(2, dtype=complex)
            cond = condition_number(reg)
            if not (np.isfinite(reg).all() and np.all(cond <= CONDITION_LIMIT)):
                ups[q], rejected = prev[q], True
                continue
            mean = np.linalg.solve(reg, rhs[q][..., None])[..., 0].mean(axis=0)
            est = mean[0].real + 1j * mean[1].real
            if not np.isfinite(est) or abs(est) > ceiling:
                ups[q], rejected = prev[q], True
            else:
                ups[q] = est
        history.append(ups)
        flagged.append(rejected)
        prev = ups
    return np.array(history), np.array(flagged)


class TestForwardFillTracker:
    """The frame tracker equals the symbol-by-symbol loop, fallbacks included."""

    def _frame(self, smap, scales, state=None):
        # One drifting rotation per symbol and branch; ``scales`` multiplies
        # a symbol's (or a symbol-branch's) pilots, 50 pushes it over the
        # ceiling and NaN makes it non-finite.
        if state is None:
            ch = make_channel(seed=141)
            state = genie_state(ch, iq=IqParams.uniform(2, 5.0, 10.0), psi_scale=1e-3)
        pilots = pilot_matrix(2)
        phases = np.linspace(0.05, 0.6, len(scales))
        data = np.stack([
            pilot_observation(state, smap, pilots, np.exp(1j * np.array([p, -p])))
            * np.broadcast_to(s, (2,))[None, :]
            for p, s in zip(phases, scales)
        ])
        return data, state, pilots

    def _compare(self, smap, data, state, pilots, variant="re-derived"):
        want_hist, want_flags = per_symbol_tracker(data, state, smap, pilots, variant)
        options = dataclasses.replace(OPTIONS, tracking_variant=variant)
        # equalize_frame skips a frame's training symbols; these are zeros
        frame = np.concatenate([np.zeros((N_TRAIN, *data.shape[1:]), dtype=complex), data])
        dec = equalize_frame(frame, state, smap, pilots, options)
        np.testing.assert_array_equal(dec.cpe_history, want_hist)
        np.testing.assert_array_equal(dec.flagged, want_flags)
        assert dec.flagged_symbols == want_flags.sum()
        return dec, int(want_flags.sum())

    def test_rejection_on_first_symbol(self, smap64):
        data, state, pilots = self._frame(smap64, [[50, 1], 1, 1, 1, 1])
        dec, flagged = self._compare(smap64, data, state, pilots)
        assert flagged == 1 and dec.cpe_history[0, 0] == 1.0

    @pytest.mark.parametrize("scale", [3, 8, 50])
    def test_rejection_mid_frame(self, smap64, scale):
        # an update of about the pilot scale: 3 is under the ceiling of 4
        # and is kept, 8 and 50 exceed it and are replaced
        data, state, pilots = self._frame(smap64, [1, 1, [1, scale], 1, 1, 1])
        dec, flagged = self._compare(smap64, data, state, pilots)
        if scale == 3:
            assert flagged == 0
            assert dec.cpe_history[2, 1] != dec.cpe_history[1, 1]
        else:
            assert flagged == 1
            assert dec.cpe_history[2, 1] == dec.cpe_history[1, 1]

    def test_consecutive_rejections(self, smap64):
        nan = float("nan")
        scales = [1, 50, [50, 1], [nan, 50], 1, [1, 50], 50, 1]
        data, state, pilots = self._frame(smap64, scales)
        dec, flagged = self._compare(smap64, data, state, pilots)
        assert flagged == 5
        hist = dec.cpe_history
        np.testing.assert_array_equal(hist[1:4, 0], hist[0, 0])
        assert hist[3, 1] == hist[2, 1]
        assert hist[6, 0] == hist[5, 0] and hist[6, 1] == hist[4, 1]

    def test_guard_rejected_branches_hold_identity(self, smap64):
        # The as-printed model has rank one; with zero measured noise the
        # guard rejects every symbol of every branch.
        state = genie_state(make_channel(seed=142), iq=IqParams.uniform(2, 5.0, 10.0))
        data, state, pilots = self._frame(smap64, [1, 50, 1, 1], state=state)
        dec, flagged = self._compare(smap64, data, state, pilots, variant="as-printed")
        assert flagged == 4
        np.testing.assert_array_equal(dec.cpe_history, 1.0)

    def test_guard_rejects_one_branch(self, smap64):
        # A branch that sees no channel has a zero pilot model: only that
        # branch is rejected, on every symbol, and the other one tracks.
        state = genie_state(make_channel(seed=143))
        state.h_pre[:, 1, :] = 0.0
        data, state, pilots = self._frame(smap64, [1, [50, 1], 1], state=state)
        dec, flagged = self._compare(smap64, data, state, pilots)
        assert flagged == 3
        np.testing.assert_array_equal(dec.cpe_history[:, 1], 1.0)
        assert dec.cpe_history[1, 0] == dec.cpe_history[0, 0] != 1.0


class TestBuildW:
    def test_siso_unimpaired_blocks_decouple(self):
        ch = make_channel(m_t=1, m_r=1, seed=111)
        state = genie_state(ch)
        w = build_w(9, state, np.ones(1, dtype=complex))
        h = ch.freq[9, 0, 0]
        hm = np.conj(ch.freq[(-9) % 64, 0, 0])
        np.testing.assert_allclose(w, np.diag([h, hm]), atol=1e-14)

    def test_rotation_scales_blocks_oppositely(self):
        ch = make_channel(seed=112)
        state = genie_state(ch, iq=IqParams.uniform(2, 5.0, 10.0))
        w0 = build_w(5, state, np.ones(2, dtype=complex))
        wr = build_w(5, state, np.exp(0.7j) * np.ones(2, dtype=complex))
        np.testing.assert_allclose(wr[:2, :2], np.exp(0.7j) * w0[:2, :2], atol=1e-12)
        np.testing.assert_allclose(wr[:2, 2:], np.exp(-0.7j) * w0[:2, 2:], atol=1e-12)

    def test_consistency_with_frequency_model(self, smap64):
        # W times the stacked symbols reproduces the mixing model output
        # for a common-phase-only impairment.
        ch = make_channel(seed=113)
        iq = IqParams.uniform(2, 5.0, 10.0)
        theta = np.exp(1j * np.array([0.15, -0.22]))
        rng = np.random.default_rng(114)
        s = rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2))
        faded = np.einsum("kqp,kp->kq", ch.freq, s) * theta[None, :]
        x = iq.k1 * faded + iq.k2 * np.conj(faded[(-np.arange(64)) % 64])
        state = genie_state(ch, iq=iq, theta_pre=theta)
        for k in (3, 11, 26):
            w = build_w(k, state, np.ones(2, dtype=complex))
            s_stack = np.concatenate([s[k], np.conj(s[(-k) % 64])])
            x_stack = np.concatenate([x[k], np.conj(x[(-k) % 64])])
            np.testing.assert_allclose(w @ s_stack, x_stack, atol=1e-9)

    def test_frame_stack_matches_single_pairs(self):
        # The (symbols, pairs) stack is the single-pair matrix at every entry.
        ch = make_channel(seed=115)
        state = genie_state(ch, iq=IqParams.uniform(2, 5.0, 10.0))
        ups = np.exp(1j * np.array([[0.1, -0.2], [0.3, 0.05], [-0.4, 0.2]]))
        bins = np.array([1, 5, 26])
        stack = _mixing_matrices(ups, *pair_channels(state, bins, (-bins) % 64))
        for j in range(3):
            for p, k in enumerate(bins):
                np.testing.assert_array_equal(stack[j, p], build_w(k, state, ups[j]))


class TestDetect:
    def test_zf_exact_for_all_constellation_points(self):
        ch = make_channel(seed=121)
        iq = IqParams.uniform(2, 5.0, 10.0)
        state = genie_state(ch, iq=iq)
        w = build_w(7, state, np.ones(2, dtype=complex))
        bits = np.array([[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)])
        points = qam16_map(bits)
        for a in points:
            for b in points[:4]:
                s_stack = np.array([a, b, np.conj(a), np.conj(b)])
                got, good = detect(w @ s_stack, w)
                assert good
                np.testing.assert_allclose(got, s_stack, atol=1e-9)

    def test_mmse_with_zero_r_equals_zf(self):
        ch = make_channel(seed=122)
        state = genie_state(ch, iq=IqParams.uniform(2, 5.0, 10.0))
        w = build_w(3, state, np.ones(2, dtype=complex))
        rng = np.random.default_rng(123)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        zf, _ = detect(x, w)
        mmse, _ = detect(x, w, r=np.zeros((4, 4)))
        np.testing.assert_allclose(mmse, zf, atol=1e-12)

    def test_mmse_converges_to_zf(self):
        ch = make_channel(seed=124)
        state = genie_state(ch)
        w = build_w(10, state, np.ones(2, dtype=complex))
        rng = np.random.default_rng(125)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        zf, _ = detect(x, w)
        mmse, _ = detect(x, w, r=1e-12 * np.eye(4))
        np.testing.assert_allclose(mmse, zf, atol=1e-9)

    def test_siso_flat_channel_scaling(self):
        w = np.diag([2.0, 2.0]).astype(complex)
        s = np.array([0.5 - 0.5j, np.conj(0.5 - 0.5j)])
        got, _ = detect(w @ s, w)
        np.testing.assert_allclose(got, s, atol=1e-12)

    def test_zf_left_inverse_property(self):
        ch = make_channel(seed=126)
        state = genie_state(ch, iq=IqParams.uniform(2, 5.0, 10.0))
        w = build_w(14, state, np.ones(2, dtype=complex))
        gram = w.conj().T @ w
        a_zf = np.linalg.solve(gram, w.conj().T)
        np.testing.assert_allclose(a_zf @ w, np.eye(4), atol=1e-10)

    def test_rank_deficiency_erases(self):
        # A rank-deficient pair is rejected by the guard: no estimate.
        w = np.zeros((4, 4), dtype=complex)
        got, good = detect(np.ones(4, dtype=complex), w)
        assert not good
        np.testing.assert_array_equal(got, 0.0)

    def test_stack_rejects_only_the_singular_pair(self):
        ch = make_channel(seed=127)
        state = genie_state(ch, iq=IqParams.uniform(2, 5.0, 10.0))
        w = np.stack([build_w(k, state, np.ones(2, dtype=complex)) for k in (3, 5, 9)])
        w[1] = 0.0
        s = np.array([1 - 1j, -3 + 1j, 1 + 1j, -3 - 1j]) / np.sqrt(10)
        got, good = solve_detection(w, (w @ s)[:, None], 0.0, 0.0)
        got = got[:, 0]
        np.testing.assert_array_equal(good, [True, False, True])
        np.testing.assert_allclose(got[[0, 2]], np.stack([s, s]), atol=1e-9)
        np.testing.assert_array_equal(got[1], 0.0)

    def test_mmse_requires_r(self):
        # MMSE detection needs a regularizer of the detector's size; the
        # kron form of a 4x4 link has none, and the frame is refused.
        ch = make_channel(m_t=4, m_r=4, seed=128)
        state = genie_state(ch)
        smap = build_subcarrier_map(64)
        rx = np.zeros((N_TRAIN + 2, 64, 4), dtype=complex)
        options = dataclasses.replace(OPTIONS, detector="mmse", mmse_r="kron")
        with pytest.raises(ConfigurationError):
            equalize_frame(rx, state, smap, pilot_matrix(4), options)


class TestMmseRMatrix:
    def test_sigma_form(self):
        state = EstimatorState(
            h_pre=np.zeros((64, 2, 2), dtype=complex),
            k1=np.ones(2, dtype=complex),
            psi=np.diag([0.3, 0.5]).astype(complex),
        )
        np.testing.assert_allclose(mmse_r_matrix(state, "sigma"), 0.4 * np.eye(4))

    def test_kron_form_2x2(self):
        psi = np.array([[0.2, 0.05j], [-0.05j, 0.3]])
        state = EstimatorState(
            h_pre=np.zeros((64, 2, 2), dtype=complex), k1=np.ones(2, dtype=complex), psi=psi
        )
        np.testing.assert_allclose(mmse_r_matrix(state, "kron"), np.kron(psi, np.eye(2)))

    def test_kron_form_rejected_when_inconsistent(self):
        state = EstimatorState(
            h_pre=np.zeros((64, 4, 4), dtype=complex),
            k1=np.ones(4, dtype=complex),
            psi=np.eye(4, dtype=complex),
        )
        with pytest.raises(ConfigurationError):
            mmse_r_matrix(state, "kron")


class TestEqualizeFrame:
    def _loopback_frame(self, m_t=2, m_r=2, iq=None, seed=131, symbols=8):
        smap = build_subcarrier_map(64)
        pre = build_preamble(m_t, smap)
        pilots = pilot_matrix(m_t)
        payload = RandomSource(seed).child("payload").integers(
            0, 2, size=(symbols - N_TRAIN) * 48 * m_t * 4
        )
        grids, bits = assemble_frame(smap, payload, pre, build_short_symbol(smap, m_t), pilots)
        ch = make_channel(m_t=m_t, m_r=m_r, seed=seed)
        rx = apply_channel(modulate_frame(grids, 16), ch)
        if iq is not None:
            rx = apply_iq_imbalance(rx, iq)
        rx_grids = demodulate_frame(rx, 64, 16, symbols)
        return smap, pre, pilots, bits, ch, rx_grids

    def test_impairment_free_loopback_is_bit_exact(self):
        smap, pre, pilots, bits, ch, rx = self._loopback_frame()
        state = genie_state(ch)
        dec = equalize_frame(rx, state, smap, pilots, OPTIONS)
        np.testing.assert_array_equal(dec.bits, bits)
        assert not dec.erased.any()
        assert dec.flagged_symbols == 0

    def test_iq_impairment_with_estimated_state_is_bit_exact(self, smap64):
        # Estimation is exact in the noiseless regime, so detection
        # inverts the mixing perfectly.
        from ofdmlink.estimation import (
            estimate_iq_params,
            estimate_preamble,
            demix_channel,
            iterative_refine,
            refine_iq_channel,
        )

        iq = IqParams.uniform(2, 5.0, 10.0)
        smap, pre, pilots, bits, ch, rx = self._loopback_frame(iq=iq)
        est = estimate_preamble(rx[1], rx[2], pre)
        g0 = estimate_iq_params(est.chi_a, est.e, pre.owner)
        k1 = (1.0 + refine_iq_channel(est, pre.owner, g0, np.zeros((2, 2)))) / 2.0
        h = iterative_refine(demix_channel(est, k1), pre, smap, l_taps=7)
        state = EstimatorState(h_pre=h, k1=k1, psi=np.zeros((2, 2), dtype=complex))
        dec = equalize_frame(rx, state, smap, pilots, OPTIONS)
        np.testing.assert_array_equal(dec.bits, bits)

    def test_every_data_bin_detected_once(self):
        smap, pre, pilots, bits, ch, rx = self._loopback_frame()
        state = genie_state(ch)
        dec = equalize_frame(rx, state, smap, pilots, OPTIONS)
        # soft estimates populated on every data bin of every symbol
        assert dec.soft.shape == (len(bits), 48, 2)
        np.testing.assert_allclose(
            dec.soft, qam16_map(bits).reshape(dec.soft.shape), atol=1e-6
        )

    def test_erasures_counted_for_singular_pairs(self):
        smap, pre, pilots, bits, ch, rx = self._loopback_frame()
        state = genie_state(ch)
        state.h_pre[...] = 0.0  # force rank deficiency everywhere
        dec = equalize_frame(rx, state, smap, pilots, OPTIONS)
        assert dec.erased.all()

    def test_tracking_reduces_rotation_error(self):
        # A per-symbol common rotation is corrected when tracking is on.
        smap, pre, pilots, bits, ch, rx_clean = self._loopback_frame(symbols=10)
        rot = np.exp(1j * 0.35)
        rx = rx_clean.copy()
        rx[N_TRAIN:] *= rot
        state = genie_state(ch, psi_scale=1e-6)
        tracked = equalize_frame(rx, state, smap, pilots, OPTIONS)
        frozen = equalize_frame(
            rx, state, smap, pilots, OPTIONS,
            phase_updates=np.ones((len(bits), 2), dtype=complex),
        )
        sent = qam16_map(bits).reshape(tracked.soft.shape)
        err_tracked = np.mean(np.abs(tracked.soft - sent) ** 2)
        err_frozen = np.mean(np.abs(frozen.soft - sent) ** 2)
        assert err_tracked < 0.1 * err_frozen
        np.testing.assert_allclose(tracked.cpe_history, rot, atol=1e-6)

    def test_genie_cpe_override(self):
        smap, pre, pilots, bits, ch, rx_clean = self._loopback_frame(symbols=6)
        rots = np.exp(1j * np.linspace(0.1, 0.5, len(bits)))
        rx = rx_clean.copy()
        for j, r in enumerate(rots):
            rx[N_TRAIN + j] *= r
        state = genie_state(ch)
        override = np.repeat(rots[:, None], 2, axis=1)
        dec = equalize_frame(
            rx, state, smap, pilots, OPTIONS, phase_updates=override
        )
        np.testing.assert_array_equal(dec.bits, bits)


class TestStaticSystems:
    """One system per (frame, pair) for a single update row equals one per symbol."""

    @pytest.mark.parametrize(
        "m, detector, mmse_r",
        [(1, "zf", "sigma"), (2, "zf", "sigma"), (4, "zf", "sigma"),
         (1, "mmse", "sigma"), (2, "mmse", "sigma"), (4, "mmse", "sigma"), (2, "mmse", "kron")],
    )
    def test_one_row_equals_per_symbol_rows(self, smap64, m, detector, mmse_r):
        # Every symbol's right-hand side is its own product and the LU solve
        # takes them all at once; LAPACK's getrs then gives each column as a
        # single-column solve does, bit for bit.  Frame 1 has no noise and
        # one pair without channel, so its guard rejects that pair.
        frames, n_data_syms = 3, 11
        rng = np.random.default_rng(150 + m)

        def cnormal(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        h_pre = cnormal(frames, 64, m, m)
        k = smap64.data_bins[smap64.data_bins > 0][5]
        h_pre[1, logical_to_bin(k, 64)] = 0.0
        psi = np.einsum("f,ij->fij", [0.05, 0.0, 0.2], np.eye(m)).astype(complex)
        state = EstimatorState(h_pre=h_pre, k1=1.0 + 0.1 * cnormal(frames, m), psi=psi)
        rx = cnormal(frames, N_TRAIN + n_data_syms, 64, m)
        options = dataclasses.replace(OPTIONS, detector=detector, mmse_r=mmse_r)
        decs = [
            equalize_frame(rx, state, smap64, pilot_matrix(m), options,
                           phase_updates=np.ones((rows, m), dtype=complex))
            for rows in (1, n_data_syms)
        ]
        static, per_symbol = decs
        for key in ("soft", "erased", "bits", "cpe_history", "flagged"):
            assert np.array_equal(getattr(static, key), getattr(per_symbol, key)), key
        assert static.flagged_symbols == per_symbol.flagged_symbols == 0
        assert static.flagged.shape == (frames, n_data_syms)
        assert static.erased[1].any() and not static.erased[[0, 2]].any()
        assert static.cpe_history.shape == (frames, n_data_syms, m)


def cnormal_stack(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def hpd_stack(rng, k, n, cond=None):
    """``k`` random Hermitian positive-definite ``n x n`` matrices; with ``cond``, of that condition."""
    q, _ = np.linalg.qr(cnormal_stack(rng, k, n, n))
    ev = rng.uniform(0.5, 4.0, size=(k, n)) if cond is None else np.geomspace(1.0, 1.0 / cond, n)
    return (q * np.broadcast_to(ev, (k, n))[:, None, :]) @ q.conj().swapaxes(-1, -2)


def ldl(a, b):
    """``_ldl_solve`` on ``(k, n, n)`` systems and ``(k, c, n)`` right-hand sides."""
    x = _ldl_solve(np.transpose(a, (1, 2, 0)).copy(), np.transpose(b, (2, 1, 0)).copy())
    return np.transpose(x, (2, 1, 0))


class TestLdlSolve:
    """The stack-last LDL^H kernel against LAPACK."""

    @pytest.mark.parametrize("cols", [1, 47])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_lapack(self, n, cols):
        rng = np.random.default_rng(160 + n)
        a = hpd_stack(rng, 200, n)
        b = cnormal_stack(rng, 200, cols, n)
        got = ldl(a, b)
        want = np.linalg.solve(a, b.swapaxes(-1, -2)).swapaxes(-1, -2)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # a column solved with 46 others is the column solved alone, bit for bit
        for j in (0, cols // 2, cols - 1):
            np.testing.assert_array_equal(got[:, j : j + 1], ldl(a, b[:, j : j + 1]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_near_the_guard_limit(self, n):
        # Condition 1e11, which the guard accepts: two stable solvers may
        # differ there by cond * eps in the solution, so the check is the
        # relative residual, which a backward-stable solve keeps near eps.
        rng = np.random.default_rng(170 + n)
        a = hpd_stack(rng, 100, n, cond=CONDITION_LIMIT / 10)
        assert np.all(condition_number(a) <= CONDITION_LIMIT)
        b = cnormal_stack(rng, 100, 3, n)
        x = ldl(a, b)
        residual = np.linalg.norm(x @ a.swapaxes(-1, -2) - b, axis=-1)
        scale = np.linalg.norm(a, 2, axis=(-2, -1))[:, None] * np.linalg.norm(x, axis=-1)
        assert np.all(residual <= 1e-12 * scale)


def spy_on_solvers(monkeypatch, sizes):
    """Record the block size of every system that detection's two solvers get."""
    for name in ("_solve_small", "_solve_pairs"):
        def spy(w, *args, _solve=getattr(equalization, name)):
            sizes.append(w.shape[-1])
            return _solve(w, *args)

        monkeypatch.setattr(equalization, name, spy)


class TestDetectionPaths:
    """equalize_frame against the pair systems of _mixing_matrices solved by _solve_pairs.

    With ``k1 = 1`` (no IQ image) and a regularizer without ``k``/``-k``
    blocks detection solves each data bin on its own; each pair must still
    get its pair system's guard verdict.  Frame 1 has no noise, so its MMSE
    is ZF: one of its pairs has a bin without channel (rank-deficient) and
    another a mirror bin 1e-7 weaker than its partner, each bin well
    conditioned alone but the pair not.  Frame 2's noise is so small that
    the trace certificate settles none of its pairs.
    """

    frames, n_syms = 3, 5

    def _setup(self, smap, m, image):
        rng = np.random.default_rng(180 + m)
        h_pre = np.eye(m) + 0.3 * cnormal_stack(rng, self.frames, 64, m, m)  # well conditioned
        kpos = smap.data_bins[smap.data_bins > 0]
        h_pre[1, kpos[3]] = 0.0
        h_pre[1, -kpos[7] % 64] *= 1e-7
        k1 = 1.0 + 0.1 * cnormal_stack(rng, self.frames, m) if image else np.ones((self.frames, m))
        psi = np.einsum("f,ij->fij", [0.05, 0.0, 1e-13], np.eye(m)).astype(complex)
        state = EstimatorState(h_pre=h_pre, k1=k1.astype(complex), psi=psi)
        rx = cnormal_stack(rng, self.frames, N_TRAIN + self.n_syms, 64, m)
        ups = np.exp(1j * rng.uniform(-0.5, 0.5, size=(self.frames, self.n_syms, m)))
        return state, rx, ups, kpos

    def _oracle(self, state, rx, ups, smap, detector, mmse_r="sigma"):
        m_t, data_bins = state.m_t, smap.data_bins
        kpos = data_bins[data_bins > 0]
        i_k, i_mk = np.searchsorted(data_bins, kpos), np.searchsorted(data_bins, -kpos)
        b_k, b_mk = kpos % 64, -kpos % 64
        w = _mixing_matrices(
            ups, state.h_pre[:, None, b_k], np.conj(state.h_pre[:, None, b_mk]), state.k1[:, None]
        )
        data = rx[:, N_TRAIN:]
        x_stack = np.concatenate([data[:, :, b_k], np.conj(data[:, :, b_mk])], axis=-1)
        r, r_floor = np.zeros((2 * m_t, 2 * m_t)), 0.0
        if detector == "mmse":
            r = mmse_r_matrix(state, mmse_r)
            r_floor = np.linalg.eigvalsh(r)[:, None, None, 0]
            r = r[:, None, None]
        s, good = _solve_pairs(w, x_stack[..., None, :], r, r_floor)
        soft = np.zeros((*data.shape[:2], data_bins.size, m_t), dtype=complex)
        soft[:, :, i_k], soft[:, :, i_mk] = s[..., 0, :m_t], np.conj(s[..., 0, m_t:])
        erased = np.zeros(soft.shape[:-1], dtype=bool)
        erased[:, :, i_k] = erased[:, :, i_mk] = ~good
        return soft, erased

    @pytest.mark.parametrize("detector", ["zf", "mmse"])
    @pytest.mark.parametrize("image", [False, True], ids=["bins", "pairs"])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_matches_the_pair_systems(self, smap64, monkeypatch, m, image, detector):
        state, rx, ups, kpos = self._setup(smap64, m, image)
        sizes = []
        spy_on_solvers(monkeypatch, sizes)
        options = dataclasses.replace(OPTIONS, detector=detector)
        dec = equalize_frame(rx, state, smap64, pilot_matrix(m), options, phase_updates=ups)
        assert set(sizes) == {2 * m if image else m}
        soft, erased = self._oracle(state, rx, ups, smap64, detector)
        np.testing.assert_array_equal(dec.erased, erased)
        assert np.abs(dec.soft - soft).max() <= 1e-12 * np.abs(soft).max()
        i_k = np.searchsorted(smap64.data_bins, kpos)
        i_mk = np.searchsorted(smap64.data_bins, -kpos)
        for p in (3, 7):  # both bins of frame 1's two bad pairs are erased, and only in frame 1
            assert erased[1, :, [i_k[p], i_mk[p]]].all()
            assert not erased[[0, 2]][..., [i_k[p], i_mk[p]]].any()
        assert erased.sum() == 2 * 2 * self.n_syms
        weak = state.h_pre[1, -kpos[7] % 64]
        assert condition_number(weak.conj().T @ weak) < CONDITION_LIMIT

    @pytest.mark.parametrize(
        "psi, size",
        [
            (np.diag([0.05, 0.2]), 2),
            (np.array([[0.05, 0.03 + 0.04j], [0.03 - 0.04j, 0.2]]), 4),
        ],
        ids=["bins", "pairs"],
    )
    def test_kron_regularizer(self, smap64, monkeypatch, psi, size):
        # kron(psi, I) at 2x2: bin k takes its block psi[0, 0] I and the
        # mirror bin -k the conjugate of psi[1, 1] I, so unequal diagonal
        # entries give the two bins of a pair different regularizers; an
        # off-diagonal psi couples k with -k and keeps the pair systems
        state, rx, ups, _ = self._setup(smap64, 2, image=False)
        psi = np.einsum("f,ij->fij", [1.0, 0.0, 1e-12], psi).astype(complex)
        state = dataclasses.replace(state, psi=psi)
        sizes = []
        spy_on_solvers(monkeypatch, sizes)
        options = dataclasses.replace(OPTIONS, detector="mmse", mmse_r="kron")
        dec = equalize_frame(rx, state, smap64, pilot_matrix(2), options, phase_updates=ups)
        assert set(sizes) == {size}
        soft, erased = self._oracle(state, rx, ups, smap64, "mmse", "kron")
        np.testing.assert_array_equal(dec.erased, erased)
        assert np.abs(dec.soft - soft).max() <= 1e-12 * np.abs(soft).max()

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_static_bins_equal_per_symbol_bins(self, smap64, m):
        # the bin path's one system per frame gives each symbol what its own system does
        state, rx, _, _ = self._setup(smap64, m, image=False)
        decs = [
            equalize_frame(rx, state, smap64, pilot_matrix(m), OPTIONS,
                           phase_updates=np.ones((rows, m), dtype=complex))
            for rows in (1, self.n_syms)
        ]
        for key in ("soft", "erased", "bits"):
            assert np.array_equal(getattr(decs[0], key), getattr(decs[1], key)), key
