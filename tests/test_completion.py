"""Channel completion through the config's precomputed per-antenna operators.

``harness._complete`` applies one matrix per transmit antenna, built once
per config by running ``interpolate_channel`` or ``iterative_refine`` on
the unit basis.  The builders stay the reference: the products equal them
to rounding, pass trained bins through exactly and read only each
antenna's own knots.
"""

import logging
import math
import tracemalloc

import numpy as np
import pytest

from ofdmlink import harness
from ofdmlink.estimation import EstimationError, interpolate_channel, iterative_refine
from ofdmlink.harness import ScenarioConfig, run_campaign
from ofdmlink.numerics import logical_to_bin

METHODS = ["interp", "iterative"]
# (n, m_t, n_cp, l_taps): the preamble-shaped grids, and n = 16 with m_t = 4,
# where every antenna owns 3 bins and the spline falls back to linear
GRIDS = [
    *[(n, m_t, 16, 7) for n in (64, 128) for m_t in (1, 2, 4)],
    (16, 4, 4, 2),
]


def _config(grid, ce_method):
    n, m_t, n_cp, l_taps = grid
    return ScenarioConfig(
        n=n, m_t=m_t, m_r=2, n_cp=n_cp, l_taps=l_taps, ce_method=ce_method, symbols_per_frame=6,
    )


def _values(config, shape, seed):
    rng = np.random.default_rng(seed)
    shape = (*shape, config.preamble.used.size, config.m_r)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _reference(e, config):
    pre, smap = config.preamble, config.smap
    if config.ce_method == "iterative":
        return iterative_refine(e, pre, smap, config.l_taps)
    return interpolate_channel(e, pre, smap)


@pytest.mark.parametrize("frames", [(3,), ()])
@pytest.mark.parametrize("ce_method", METHODS)
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"n{g[0]}-mt{g[1]}")
def test_operator_equals_builder(grid, ce_method, frames):
    config = _config(grid, ce_method)
    pre = config.preamble
    e = _values(config, frames, seed=grid[0] + grid[1])
    h, want = harness._complete(e, config), _reference(e, config)
    assert h.shape == want.shape
    ub = logical_to_bin(pre.used, config.n)
    for p in range(config.m_t):
        scale = np.abs(want[..., p]).max()
        assert np.abs(h[..., p] - want[..., p]).max() <= 1e-13 * scale
        sel = pre.owner == p
        assert np.array_equal(h[..., p][..., ub[sel], :], e[..., sel, :])
    # the spline leaves the bins off the used set at zero, as it always has
    assert np.array_equal(h == 0, want == 0)
    # a frame's channel does not depend on the frames stacked with it
    for i in range(frames[0] if frames else 0):
        assert np.array_equal(h[i], harness._complete(e[i], config))


@pytest.mark.parametrize("ce_method", METHODS)
@pytest.mark.parametrize("grid", [g for g in GRIDS if g[1] == 4], ids=lambda g: f"n{g[0]}-mt{g[1]}")
def test_antenna_reads_only_its_own_knots(grid, ce_method):
    config = _config(grid, ce_method)
    owner = config.preamble.owner
    e = _values(config, (4,), seed=5)
    h = harness._complete(e, config)
    rng = np.random.default_rng(6)
    for q in range(config.m_t):
        bumped = e.copy()
        bumped[:, owner == q] += rng.standard_normal(bumped[:, owner == q].shape)
        h2 = harness._complete(bumped, config)
        assert not np.array_equal(h2[..., q], h[..., q])
        for p in range(config.m_t):
            if p != q:
                assert np.array_equal(h2[..., p], h[..., p])


@pytest.mark.parametrize("ce_method", METHODS)
def test_build_refuses_a_completion_that_mixes_antennas(monkeypatch, ce_method):
    name = "iterative_refine" if ce_method == "iterative" else "interpolate_channel"
    builder = getattr(harness, name)

    def leaky(*args, **kwargs):
        out = builder(*args, **kwargs)
        out[..., 1] += 1e-12 * out[..., 0]  # antenna 0's knots reach antenna 1's channel
        return out

    monkeypatch.setattr(harness, name, leaky)
    config = _config(GRIDS[1], ce_method)
    with pytest.raises(EstimationError, match="antenna 0"):
        config.completion


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
@pytest.mark.parametrize("ce_method", METHODS)
def test_non_finite_values_raise(ce_method, bad):
    config = _config(GRIDS[1], ce_method)
    e = _values(config, (2,), seed=7)
    e[1, 9, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        harness._complete(e, config)


@pytest.mark.parametrize("ce_method", METHODS)
def test_large_fft_completes_with_the_builder(ce_method):
    # n = 1024 is the first size whose operators exceed the byte budget
    config = _config((1024, 4, 16, 7), ce_method)
    assert config.n * config.preamble.used.size * 16 > harness.COMPLETION_OPERATOR_BYTES
    assert config.completion is None
    e = _values(config, (2,), seed=8)
    assert np.array_equal(harness._complete(e, config), _reference(e, config))


def test_large_fft_campaign_memory_is_bounded():
    # the operators of n = 4096, m_t = 4 would take about 0.9 GB to build; the
    # spline completes each chunk in a few MB
    config = ScenarioConfig(
        n=4096, m_t=4, m_r=4, frames=2, symbols_per_frame=6, snr_db=(20.0,), ce_method="interp",
    )
    tracemalloc.start()
    try:
        result = run_campaign(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert result.rows[0].frames_run >= 1


def test_large_fft_iterative_campaign_memory_is_bounded():
    # above the operator bound iterative_refine completes each chunk; its
    # nearest-knot fill is linear in n (a table of n * m_t * n_used
    # distances took this campaign's traced peak to 538 MiB)
    config = ScenarioConfig(
        n=4096, m_t=4, m_r=4, frames=2, symbols_per_frame=6, snr_db=(20.0,), ce_method="iterative",
    )
    assert config.completion is None
    tracemalloc.start()
    try:
        result = run_campaign(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert result.rows[0].frames_run >= 1


def test_operators_are_read_only():
    config = _config(GRIDS[1], "interp")
    for sel, a in config.completion:
        assert a.shape == (config.n, sel.sum())
        assert not a.flags.writeable and not sel.flags.writeable


def test_linear_fallback_warns_once_per_antenna(caplog):
    # two grid points, two chunks and two estimates complete 8 times; the
    # warning comes from the one build of the operator, once per antenna
    config = ScenarioConfig(
        n=16, n_cp=4, l_taps=2, m_t=4, m_r=4, frames=4, symbols_per_frame=32,
        snr_db=(20.0, 30.0), modes=("uncompensated", "pn-only"), ce_method="interp",
    )
    assert harness._chunk_frames(config) < config.frames
    with caplog.at_level(logging.WARNING, logger="ofdmlink"):
        result = run_campaign(config)
    warned = [r.getMessage() for r in caplog.records if "falls back to linear" in r.getMessage()]
    want = "antenna {} has only 3 trained bins; spline falls back to linear"
    assert warned == [want.format(p) for p in range(config.m_t)]
    assert all(r.frames_run == config.frames for r in result.rows)
