"""Property: a ScenarioConfig either refuses its fields or runs to a finite BER.

Each example draws up to two fields from values a user could type,
including nan, inf, zero, negative and huge ones, and the others from
ordinary values (or leaves them at their defaults).  Construction must
either raise ConfigurationError or give a config whose 1-frame, 1-worker
run finishes with a finite ``ber`` on every row that ran.  ``frames``
and ``workers`` are drawn for construction only (the run replaces them
by 1), and a config with a large grid, FFT, frame or antenna count is
only constructed, never run, so the test starts no pool and allocates no
large frame.
"""

import dataclasses
import math

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ofdmlink.harness import MODES, ScenarioConfig, run_campaign
from ofdmlink.numerics import ConfigurationError

NASTY_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -100.0, 1e-300, 1e300, -1e300, 5e3]
)
NASTY_INTS = st.sampled_from([0, -1, -(2**31), 2**31, 2**62, 10**30])

# field -> (ordinary values, values a user could also type)
FIELDS = {
    "m_t": (st.integers(1, 4), NASTY_INTS),
    "m_r": (st.integers(1, 4), NASTY_INTS),
    "snr_db": (
        st.lists(st.floats(-10.0, 40.0), min_size=1, max_size=2),
        st.lists(st.one_of(NASTY_FLOATS, st.floats(-10.0, 40.0)), max_size=3),
    ),
    "beta_hz": (
        st.lists(st.floats(0.0, 2e5), min_size=1, max_size=2),
        st.lists(st.one_of(NASTY_FLOATS, st.floats(0.0, 2e5)), max_size=3),
    ),
    "iq_theta_deg": (st.floats(-20.0, 20.0), NASTY_FLOATS),
    "iq_amp_pct": (st.floats(-30.0, 30.0), NASTY_FLOATS),
    "frames": (st.integers(1, 3), NASTY_INTS),
    "modes": (
        st.lists(st.sampled_from(MODES), min_size=1, max_size=5, unique=True),
        st.lists(st.sampled_from(MODES + ("sideways", "")), max_size=5),
    ),
    "detector": (st.sampled_from(["zf", "mmse"]), st.sampled_from(["ml", "", "ZF"])),
    "ce_method": (st.sampled_from(["interp", "iterative"]), st.just("magic")),
    "master_seed": (st.integers(0, 2**32), NASTY_INTS),
    "n": (st.sampled_from([16, 32, 64]), st.sampled_from([0, -64, 48, 128, 256, 2**17, 2**40])),
    "n_cp": (st.integers(8, 16), NASTY_INTS),
    "l_taps": (st.integers(1, 8), NASTY_INTS),
    "pdp_decay": (st.floats(0.1, 10.0), NASTY_FLOATS),
    "symbols_per_frame": (st.integers(4, 8), NASTY_INTS),
    "ts": (st.floats(1e-9, 1e-6), NASTY_FLOATS),
    "iq_frame_avg": (st.integers(1, 3), NASTY_INTS),
    "tracking_variant": (st.sampled_from(["re-derived", "as-printed"]), st.just("bogus")),
    "workers": (st.integers(1, 4), NASTY_INTS),
}
assert set(FIELDS) == {f.name for f in dataclasses.fields(ScenarioConfig)}


def _small(config) -> bool:
    return (
        config.symbols_per_frame <= 50 and config.m_r <= 4
        and len(config.snr_db) * len(config.beta_hz) <= 6
    )


@settings(
    max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(st.data())
def test_config_refuses_or_runs_to_a_finite_ber(data):
    corrupt = data.draw(st.sets(st.sampled_from(sorted(FIELDS)), max_size=2), label="corrupt")
    fields = {}
    for name, (ordinary, any_value) in FIELDS.items():
        if name in corrupt:
            value = data.draw(any_value, label=name)
        else:
            value = data.draw(st.one_of(st.none(), ordinary), label=name)
        if value is not None:  # None keeps the default
            fields[name] = tuple(value) if isinstance(value, list) else value
    try:
        config = ScenarioConfig(**fields)
    except ConfigurationError:
        event("refused")
        return
    if not _small(config):
        event("constructed only")
        return
    event("ran")
    result = run_campaign(dataclasses.replace(config, frames=1, workers=1))
    for row in result.rows:
        if row.frames_run:
            assert math.isfinite(row.ber), row
