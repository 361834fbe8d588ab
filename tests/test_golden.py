"""Byte-for-byte regression gate on a small fixed set of campaigns.

``tests/golden/results.csv`` holds the rows of the campaigns below, one
header, in campaign order.  Together they cover every receiver mode, ZF
and MMSE (both regularizer forms), spline and iterative completion, 2x2
and 4x4, a finite and an infinite SNR, block-averaged IQ estimates, and
the as-printed tracker.  Its pilot model has rank one, so without noise
or phase noise (the measured noise power, the tracker's regularizer, is
exactly zero) the condition guard rejects every branch: the fallback
path and ``flagged_symbols`` are exercised.  At 100 kHz it is guarded
but wrong.

A change that alters any printed number must be deliberate: regenerate
the file with ``PYTHONPATH=src python tests/test_golden.py`` and record
why.
"""

import os
import sys

import numpy as np

from conftest import eigvalsh_verdicts
from ofdmlink import equalization, numerics
from ofdmlink.harness import CampaignResult, ScenarioConfig, emit_csv, run_campaign

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "results.csv")

ALL_MODES = ("uncompensated", "iq-only", "pn-only", "full", "genie")

CAMPAIGNS = (
    ScenarioConfig(
        m_t=2, m_r=2, snr_db=(20.0, float("inf")), beta_hz=(5e3,), frames=4,
        modes=ALL_MODES, detector="zf", ce_method="interp", symbols_per_frame=10,
        iq_frame_avg=2, master_seed=11,
    ),
    ScenarioConfig(
        m_t=4, m_r=4, snr_db=(20.0, float("inf")), beta_hz=(5e3,), frames=2,
        modes=ALL_MODES, detector="mmse", ce_method="iterative", symbols_per_frame=8,
        iq_frame_avg=2, master_seed=12,
    ),
    ScenarioConfig(
        m_t=2, m_r=2, snr_db=(float("inf"),), beta_hz=(0.0, 1e5), frames=4,
        modes=("pn-only", "full"), detector="mmse", ce_method="interp", mmse_r="kron",
        tracking_variant="as-printed", symbols_per_frame=12, iq_frame_avg=2,
        master_seed=13,
    ),
)


def write_results(path) -> None:
    rows = tuple(row for config in CAMPAIGNS for row in run_campaign(config).rows)
    emit_csv(CampaignResult(config=CAMPAIGNS[0], rows=rows), path)


def test_results_match_golden_bytes(tmp_path):
    out = tmp_path / "results.csv"
    write_results(out)
    with open(GOLDEN, "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected


def test_golden_exercises_tracker_fallback():
    # The noiseless as-printed rows must carry flagged symbols, or the
    # fallback path would go unchecked by the byte comparison.
    with open(GOLDEN) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh]
    as_printed = [
        r for r in rows
        if r["seed"] == str(CAMPAIGNS[2].master_seed) and float(r["beta_hz"]) == 0.0
    ]
    assert as_printed and all(int(r["flagged_symbols"]) > 0 for r in as_printed)


def test_mmse_guard_verdicts_equal_eigvalsh(monkeypatch):
    # Every tracker and detector system of the 4x4 MMSE campaign: the
    # guard, with the floors the receiver passes, gives the eigvalsh
    # verdict, and the regularizer certificate spares most of them the
    # eigendecomposition.
    stacks, reached_eigvalsh = [], []

    def guard_spy(a, floor=0.0):
        verdicts = numerics.well_conditioned(a, floor)
        stacks.append((np.array(a), verdicts))
        return verdicts

    def eigvalsh_spy(a):
        reached_eigvalsh.append(a.shape[0])
        return eigvalsh_stage(a)

    eigvalsh_stage = numerics.condition_number
    monkeypatch.setattr(equalization, "well_conditioned", guard_spy)
    monkeypatch.setattr(numerics, "condition_number", eigvalsh_spy)
    run_campaign(CAMPAIGNS[1])
    for a, verdicts in stacks:
        np.testing.assert_array_equal(verdicts, eigvalsh_verdicts(a))
    total = sum(verdicts.size for _, verdicts in stacks)
    assert total > 0 and sum(reached_eigvalsh) < total / 2


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    write_results(sys.argv[1] if len(sys.argv) > 1 else GOLDEN)
