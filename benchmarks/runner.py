"""One repetition of a workload in a fresh interpreter; started by run.py.

Usage: ``python3 runner.py SPEC.json T_SPAWN``

``SPEC.json`` names the source tree, the campaigns (see workloads.py),
the output directory and whether to trace.  ``T_SPAWN`` is the
``time.monotonic()`` reading taken just before this process was
started; the clock is system-wide, so set-up time includes interpreter
start and ``import ofdmlink``.  The machine-speed kernel (calibrate.py)
is read just before the first campaign and just after the last; its time
is excluded from set-up.

Two probes run in every repetition, traced or not: the first
``simulate_frame`` call of each process and the peak RSS of each process
after each grid point are appended to a small log file, so pool workers
report too.  They cost one file write per process and per grid point.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import resource
import sys
import time


def _append(path: str, line: str) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)


def _log_rss(path: str) -> None:
    _append(path, f"rss {os.getpid()} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}\n")


def install_probes(harness, log_path: str) -> None:
    """Log each process's first frame start and its peak RSS after each point.

    Pool workers are forked from this process and inherit the patched
    module, so their first frame and their memory are logged as well.
    """
    simulate, point = harness.simulate_frame, harness.run_point
    started = set()

    def simulate_frame(*args, **kwargs):
        if os.getpid() not in started:
            started.add(os.getpid())
            _append(log_path, f"frame {os.getpid()} {time.monotonic()!r}\n")
        return simulate(*args, **kwargs)

    def run_point(*args, **kwargs):
        try:
            return point(*args, **kwargs)
        finally:
            _log_rss(log_path)

    harness.simulate_frame = simulate_frame
    harness.run_point = run_point


def _run_one(campaign: dict, out_dir: str) -> None:
    from ofdmlink import cli, harness

    os.makedirs(out_dir, exist_ok=True)
    if "config" in campaign:
        config = harness.ScenarioConfig(
            **{k: tuple(v) if isinstance(v, list) else v for k, v in campaign["config"].items()}
        )
        result = harness.run_campaign(config)
        harness.emit_csv(result, os.path.join(out_dir, "results.csv"))
        return
    cfg_path = os.path.join(out_dir, "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in campaign["cli"].items())
    code = cli.main(["--config", cfg_path, "--out", out_dir])
    if code != 0:
        raise SystemExit(f"simulate exited with code {code}")


def main(argv: list[str]) -> int:
    spec_path, t_spawn = argv[0], float(argv[1])
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import calibrate
    from ofdmlink import harness

    recorder = None
    skipped = []
    if spec["trace"]:
        import layertrace

        recorder = layertrace.Recorder()
        skipped = layertrace.install(recorder)
    log_path = os.path.join(spec["out_dir"], "probes.log")
    install_probes(harness, log_path)

    # Machine-speed readings right next to the campaigns, in this process;
    # run.py takes the time of the first ones out of the set-up time.
    t_ref = time.monotonic()
    readings = calibrate.readings()
    ref_s = time.monotonic() - t_ref
    for campaign in spec["campaigns"]:
        _run_one(campaign, os.path.join(spec["out_dir"], campaign["name"]))
    t_end = time.monotonic()
    _log_rss(log_path)
    readings += calibrate.readings()

    frame_starts, rss_kb = [], {}
    with open(log_path) as fh:
        for line in fh:
            kind, pid, value = line.split()
            if kind == "frame":
                frame_starts.append(float(value))
            else:
                rss_kb[pid] = max(int(value), rss_kb.get(pid, 0))
    out = {
        "t_spawn": t_spawn,
        "reference_s": readings,
        "reference_wall_s": ref_s,
        "t_first_frame": min(frame_starts, default=None),
        "t_end": t_end,
        "rss_kb": rss_kb,
        "versions": {
            "python": sys.version.split()[0],
            **{name: importlib.metadata.version(name) for name in ("numpy", "scipy")},
        },
        "skipped_targets": skipped,
        "trace": recorder.dump() if recorder is not None else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(out, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
