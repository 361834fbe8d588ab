"""Workload definitions: benchmark seed -> the campaigns one repetition runs.

Every workload is a closed-loop batch: one process runs its campaigns one
after another, each grid point waiting for the previous one (or, for
``cli-sweep``, two pool workers sharing the grid).  The shapes follow the
acceptance criteria 07, 08 and 09 of ``tests/test_acceptance.py``.  The
frame counts are chosen here, so that one repetition takes a few seconds,
and so is the block size of ``preamble-mse`` (see MSE_IQ_FRAME_AVG).

The benchmark seed picks the campaign master seed as
``base + (seed % SEED_SLOTS)``, where ``base`` is the criterion's own
seed.  ``digests.json`` holds the output digests of every slot, so every
run, whatever its seed, is checked byte for byte.
"""

from __future__ import annotations

SEED_SLOTS = 32
DEFAULT_SEED = 0
HELD_OUT_SEED = 31  # not used to tune the benchmark; re-check claims on it

ALL_MODES = ["uncompensated", "iq-only", "pn-only", "full", "genie"]
SNR_07_08 = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0]

# Frames per grid point.  Changing any of these changes the recorded
# digests: re-run record_digests.py and say so.
BER_FRAMES = 2
MSE_FRAMES = 30
SWEEP_FRAMES = 50
# preamble-mse averages the IQ estimate over blocks of 10 frames, not 50 as
# criterion 08 does.  With one 50-frame block per point, whether a 100 kHz
# block fails is one coin flip per point, and the seed alone moved
# campaign_s by a third between runs.  Three blocks per point keep the
# block-averaging path and the 100 kHz failures, at a steadier rate.
MSE_IQ_FRAME_AVG = 10

WORKLOADS = {
    "ber-allmodes": "back end: all five modes, 50-symbol frames; equalize_frame is ~88% of the time",
    "preamble-mse": "front end: 4-symbol frames, iterative completion, 1-100 kHz; back-end control",
    "cli-sweep": "user command path: cli.main with a 2-worker pool, per-frame IQ estimates, CSV+SVG",
}

_BASE_SEED = {"ber-allmodes": 7000, "preamble-mse": 7100, "cli-sweep": 7300}


def master_seed(workload: str, seed: int) -> int:
    return _BASE_SEED[workload] + seed % SEED_SLOTS


def campaigns(workload: str, seed: int, traced: bool = False) -> list[dict]:
    """The campaigns of one repetition, in run order.

    Each entry has a ``name`` (its output subdirectory), ``frames`` and
    ``points`` x ``modes`` (to count attempted frame-modes), and either
    ``config`` (keyword arguments of ``ScenarioConfig``, run through
    ``run_campaign`` + ``emit_csv``) or ``cli`` (config-file keys, run
    through ``cli.main``).  A traced ``cli-sweep`` uses one worker,
    because spans recorded in forked pool workers would be lost.
    """
    ms = master_seed(workload, seed)
    if workload == "ber-allmodes":
        return [
            _run_campaign(
                f"{m}x{m}", m_t=m, m_r=m, frames=BER_FRAMES, snr_db=SNR_07_08,
                beta_hz=[5e3], modes=ALL_MODES, detector="mmse", ce_method="interp",
                symbols_per_frame=50, iq_frame_avg=50, master_seed=ms,
            )
            for m in (2, 4)
        ]
    if workload == "preamble-mse":
        common = dict(detector="mmse", modes=["full"], symbols_per_frame=4,
                      iq_frame_avg=MSE_IQ_FRAME_AVG, frames=MSE_FRAMES, master_seed=ms)
        return [
            _run_campaign(
                f"2x2-{ce}", m_t=2, m_r=2, snr_db=SNR_07_08,
                beta_hz=[1e3, 1e4, 1e5], ce_method=ce, **common,
            )
            for ce in ("interp", "iterative")
        ] + [
            _run_campaign(
                "4x4-iterative", m_t=4, m_r=4, snr_db=[20.0], beta_hz=[1e3],
                ce_method="iterative", **common,
            )
        ]
    if workload == "cli-sweep":
        keys = {
            "snr": "10:30:5", "beta": "1e3,5e3,1e4", "mimo": "2x2", "iq": "5deg,10pct",
            "mode": "full", "detector": "mmse", "ce": "interp",
            "frames": str(SWEEP_FRAMES), "seed": str(ms),
            "workers": "1" if traced else "2",
            "symbols_per_frame": "4", "iq_frame_avg": "1",
        }
        return [{
            "name": "sweep", "cli": keys, "frames": SWEEP_FRAMES, "points": 15, "modes": 1,
            "outputs": ["results.csv", "ber_vs_snr.svg", "mse_vs_snr.svg"],
        }]
    raise KeyError(workload)


def _run_campaign(name: str, **config) -> dict:
    return {
        "name": name, "config": config, "frames": config["frames"],
        "points": len(config["snr_db"]) * len(config["beta_hz"]),
        "modes": len(config["modes"]), "outputs": ["results.csv"],
    }


def shrink(spec: list[dict]) -> list[dict]:
    """The same campaigns at one frame per point, for the smoke check only."""
    out = []
    for c in spec:
        c = dict(c, frames=1)
        if "config" in c:
            c["config"] = dict(c["config"], frames=1)
        else:
            c["cli"] = dict(c["cli"], frames="1")
        out.append(c)
    return out
