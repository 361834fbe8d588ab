"""Absolute anchor: the genie ZF receiver against the closed-form Rayleigh BER.

With no phase noise (``beta = 0``), no IQ mismatch (``0 deg, 0 pct``, so
``K2 = 0``) and ZF detection, the genie receiver is plain ZF over i.i.d.
Rayleigh bins.  Each stream's post-ZF SNR is exponential with mean
``gbar = (n / n_used) * SNR / m_t`` for ``m_r = m_t``; the ``n / n_used``
factor comes from the SNR being defined over all ``n`` bins.  The Gray
16-QAM bit error rate is then

    Pb = (3 I(1/5) + 2 I(9/5) - I(5)) / 4,  I(c) = (1 - sqrt(c gbar / (2 + c gbar))) / 2.

Bounds on simulated / theoretical BER: mean +- 5 standard deviations of a
sweep over master seeds 100..159 (60 seeds, this configuration),
rounded outward.  The sweep gave

    2x2 10 dB  mean 1.001  std 0.014  range 0.965 .. 1.030
    2x2 20 dB  mean 0.999  std 0.034  range 0.924 .. 1.099
    4x4 10 dB  mean 0.999  std 0.007  range 0.984 .. 1.015
    4x4 20 dB  mean 0.995  std 0.021  range 0.947 .. 1.036

Dropping the ``n / n_used`` factor would scale the ratio by 0.90 (2x2)
and 0.92 (4x4) at 10 dB, outside both 10 dB bounds.  The test runs the
default master seed, which is not among the sweep's.
"""

import math

import pytest

from ofdmlink.harness import ScenarioConfig, run_point

SNRS = (10.0, 20.0)
BOUNDS = {
    (2, 10.0): (0.93, 1.08),
    (2, 20.0): (0.83, 1.17),
    (4, 10.0): (0.96, 1.04),
    (4, 20.0): (0.89, 1.10),
}


def zf_rayleigh_ber(snr_db: float, n: int, n_used: int, m_t: int) -> float:
    gbar = (n / n_used) * 10.0 ** (snr_db / 10.0) / m_t

    def i(c):
        return (1.0 - math.sqrt(c * gbar / (2.0 + c * gbar))) / 2.0

    return (3.0 * i(1 / 5) + 2.0 * i(9 / 5) - i(5.0)) / 4.0


@pytest.mark.parametrize("m", [2, 4])
def test_genie_zf_matches_closed_form(m):
    config = ScenarioConfig(
        m_t=m, m_r=m, frames=400, snr_db=SNRS, beta_hz=(0.0,),
        iq_theta_deg=0.0, iq_amp_pct=0.0, modes=("genie",), detector="zf",
        symbols_per_frame=4,
    )
    for i, snr in enumerate(SNRS):
        ratio = run_point(config, [(i, 0)])[0].ber / zf_rayleigh_ber(snr, 64, 52, m)
        lo, hi = BOUNDS[(m, snr)]
        assert lo <= ratio <= hi, f"{m}x{m} at {snr:g} dB: simulated/theory {ratio:.3f}"
