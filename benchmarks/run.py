"""Campaign benchmark for ofdmlink: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload ber-allmodes --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke

A run repeats the workload, each repetition a fresh interpreter running
the seeded campaigns through the public API (runner.py), until
``--seconds`` have passed, and reports medians over the repetitions.
Every output file is checked byte for byte against ``digests.json``.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (repetitions) and
``metrics``.  A record with the machine and versions is written to
``benchmarks/out/``.

``--smoke`` runs every workload once at one frame per grid point, traced
and untraced, checks that every metric named in BENCHMARK.json is printed
with its unit, and prints no result line: it is not a measurement.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import calibrate
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
RUNNER = os.path.join(BENCH_DIR, "runner.py")

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REP_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0  # start no repetition that could end past this

E2E_UNITS = {
    "campaign_s": "s",
    "frame_modes_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_frac": "fraction",
    "csv_match": "bool",
}

# Per-layer metrics.  ``<span>.calls|.s|.self_s|.failures`` are read from
# the span of that name; the rest are derived in _layer_metrics.
LAYER_UNITS = {
    "equalization.equalize_frame.calls": "count",
    "equalization.equalize_frame.self_s": "s",
    "equalization.equalize_symbol.calls": "count",
    "equalization.erased_bins": "count",
    "equalization.flagged_symbols": "count",
    "numerics.condition_number.calls": "count",
    "numerics.condition_number.matrices": "count",
    "numerics.condition_number.s": "s",
    "numerics.condition_number.rejects": "count",
    "numerics.solve_regularized.calls": "count",
    "numerics.solve_regularized.s": "s",
    "numerics.fft.calls": "count",
    "numerics.fft.s": "s",
    "estimation.estimate_noise_ici_corr.calls": "count",
    "estimation.estimate_preamble.calls": "count",
    "estimation.estimate_preamble.per_frame": "calls/frame",
    "estimation.refine_iq_channel.calls": "count",
    "estimation.refine_iq_channel.s": "s",
    "estimation.demix_channel.calls": "count",
    "estimation.interpolate_channel.s": "s",
    "estimation.iterative_refine.s": "s",
    "harness.estimate_iq_refined.calls": "count",
    "harness.estimate_iq_refined.failures": "count",
    "harness.failed_frac": "fraction",
    "harness.simulate_frame.calls": "count",
    "harness.simulate_frame.self_s": "s",
    "channel.draw_channel.s": "s",
    "channel.apply_channel.s": "s",
    "impairments.gen_phase_noise.s": "s",
    "impairments.apply_phase_noise.s": "s",
    "impairments.apply_iq_imbalance.s": "s",
    "impairments.cpe_of.calls": "count",
    "impairments.cpe_of.s": "s",
    "framing.assemble_frame.s": "s",
    "framing.modulate_frame.s": "s",
    "framing.demodulate_frame.s": "s",
    "framing.qam16_demap.calls": "count",
    "framing.qam16_demap.s": "s",
    "harness.run_point.self_s": "s",
    "harness.run_point.s_max_over_median": "ratio",
    "harness.receiver_state.calls": "count",
    "harness.emit_csv.s": "s",
    "harness.emit_plots.s": "s",
    "svgplot.line_chart.s": "s",
    "harness.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}
# Layer metrics that are timings (median over traced repetitions); all
# others are exact counts and must agree between repetitions.
_TIMED_LAYER = {m for m, u in LAYER_UNITS.items() if u in ("s", "ratio")}


class RepError(RuntimeError):
    """One repetition did not complete or produced no usable record."""


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _frames_run(csv_path: str) -> int:
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        col = header.index("frames_run")
        return sum(int(line.split(",")[col]) for line in fh if line.strip())


def run_rep(campaigns: list, rep_dir: str, trace: bool) -> dict:
    """Run one repetition in a fresh interpreter and return its raw record."""
    os.makedirs(rep_dir)
    spec_path = os.path.join(rep_dir, "spec.json")
    result_path = os.path.join(rep_dir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump({"src": SRC, "campaigns": campaigns, "out_dir": rep_dir,
                   "trace": trace, "result": result_path}, fh)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, RUNNER, spec_path, repr(t_spawn)], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except BaseException as exc:  # timeout or termination: stop the whole group first
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RepError(f"repetition exceeded {REP_TIMEOUT_S:.0f} s") from None
        raise
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        raise RepError(f"runner exited with {proc.returncode}: " + " | ".join(tail))
    with open(result_path) as fh:
        raw = json.load(fh)
    if raw["t_first_frame"] is None:
        raise RepError("no frame was simulated")

    digests, frames_run, attempted = {}, 0, 0
    for c in campaigns:
        for name in c["outputs"]:
            path = os.path.join(rep_dir, c["name"], name)
            if not os.path.isfile(path):
                raise RepError(f"missing output {c['name']}/{name}")
            digests[f"{c['name']}/{name}"] = _sha256(path)
        frames_run += _frames_run(os.path.join(rep_dir, c["name"], "results.csv"))
        attempted += c["frames"] * c["points"] * c["modes"]
    raw.update(digests=digests, frames_run=frames_run, frame_modes_attempted=attempted)
    return raw


def _speed(raw: dict) -> float:
    """Scale to nominal machine speed, from the readings taken around the campaigns.

    The kernel is trusted only to show a slowdown: a reading faster than
    nominal leaves the times as measured.
    """
    return min(1.0, calibrate.NOMINAL_S / statistics.median(raw["reference_s"]))


def _e2e_metrics(raw: dict) -> dict:
    """One repetition's end-to-end values, times scaled to nominal machine speed."""
    speed = _speed(raw)
    campaign_s = (raw["t_end"] - raw["t_first_frame"]) * speed
    return {
        "campaign_s": campaign_s,
        "frame_modes_per_s": raw["frames_run"] / campaign_s,
        "setup_s": (raw["t_first_frame"] - raw["t_spawn"] - raw["reference_wall_s"]) * speed,
        "peak_rss_mb": sum(raw["rss_kb"].values()) / 1024.0,
        "completed_frac": raw["frames_run"] / raw["frame_modes_attempted"],
        # the unscaled readings, reported alongside
        "wall_campaign_s": raw["t_end"] - raw["t_first_frame"],
        "wall_setup_s": raw["t_first_frame"] - raw["t_spawn"] - raw["reference_wall_s"],
        "speed": speed,
    }


def _empty_stats() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "failures": 0, "notes": [0, 0], "durs": []}


def _span_stats(trace: dict) -> dict:
    """Per span name: calls, inclusive and self seconds, raises, note sums, durations."""
    names, spans = trace["names"], trace["spans"]
    child_s = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    stats = {n: _empty_stats() for n in names}
    for i, (nid, t0, t1, _, raised, note) in enumerate(spans):
        st = stats[names[nid]]
        st["calls"] += 1
        st["s"] += t1 - t0
        st["self_s"] += t1 - t0 - child_s[i]
        st["failures"] += int(raised)
        st["durs"].append(t1 - t0)
        for j, v in enumerate(note or ()):
            st["notes"][j] += v
    return stats


def _layer_metrics(raw: dict) -> dict:
    """Every per-layer metric of one traced repetition; times scaled like campaign_s."""
    stats = _span_stats(raw["trace"])

    def span(name):
        return stats.get(name) or _empty_stats()

    speed = _speed(raw)
    out = {}
    for metric in LAYER_UNITS:
        name, _, field = metric.rpartition(".")
        if field in ("calls", "failures"):
            out[metric] = span(name)[field]
        elif field in ("s", "self_s"):
            out[metric] = span(name)[field] * speed
    out["equalization.erased_bins"], out["equalization.flagged_symbols"] = \
        span("equalization.equalize_frame")["notes"]
    (out["numerics.condition_number.matrices"],
     out["numerics.condition_number.rejects"]) = span("numerics.condition_number")["notes"]
    frames = span("harness.simulate_frame")["calls"]
    out["estimation.estimate_preamble.per_frame"] = (
        span("estimation.estimate_preamble")["calls"] / frames if frames else 0.0
    )
    durs = span("harness.run_point")["durs"]
    out["harness.run_point.s_max_over_median"] = (
        max(durs) / statistics.median(durs) if durs else 0.0
    )
    out["harness.output_bytes"] = (
        span("harness.emit_csv")["notes"][0] + span("harness.emit_plots")["notes"][0]
    )
    out["harness.failed_frac"] = 1.0 - raw["frames_run"] / raw["frame_modes_attempted"]
    return out


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def environment(versions: dict) -> dict:
    """The machine, library versions, thread settings and commit of a record."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=False)
            commit = res.stdout.strip() or commit
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
        **versions, "git_commit": commit, "thread_env": THREAD_ENV,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Repeat the workload for ``seconds`` and summarize; see the module docstring."""
    ms = workloads.master_seed(workload, seed)
    campaigns = workloads.campaigns(workload, seed, traced=trace)
    if smoke:
        campaigns = workloads.shrink(campaigns)
    expected = None
    if not smoke:
        with open(os.path.join(BENCH_DIR, "digests.json")) as fh:
            expected = json.load(fh)["workloads"][workload].get(str(ms))

    run_dir = os.path.join(OUT_DIR, f"{workload}_seed{seed}_trace{int(trace)}_{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    order = [False, True] if trace else [False]
    reps, errors, notes = [], [], []
    t_begin = time.monotonic()
    try:
        while True:
            t_pair = time.monotonic()
            for traced in order:
                rep_dir = os.path.join(run_dir, f"rep{len(reps) + len(errors)}")
                try:
                    raw = run_rep(campaigns, rep_dir, traced)
                except RepError as exc:
                    errors.append(str(exc))
                    continue
                finally:
                    shutil.rmtree(rep_dir, ignore_errors=True)
                raw["traced"] = traced
                reps.append(raw)
            now = time.monotonic()
            if now - t_begin >= seconds or now - t_begin + (now - t_pair) > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if not plain or (trace and not traced_reps):
        raise RepError("; ".join(errors) or "no repetition completed")

    # Correctness: every output equals the recorded digest (or, for the
    # smoke check, every repetition's output equals the first one's).
    reference = expected if expected is not None else plain[0]["digests"]
    if expected is None and not smoke:
        notes.append(f"no recorded digests for master seed {ms}")
    mismatched = [r for r in reps if r["digests"] != reference]
    csv_match = not mismatched and (expected is not None or smoke)
    if mismatched:
        bad = sorted(k for k, v in mismatched[0]["digests"].items() if reference.get(k) != v)
        notes.append(f"output bytes differ from the reference in {len(mismatched)} "
                     f"repetition(s): {', '.join(bad)}")
    if len({r["frames_run"] for r in reps}) != 1:
        notes.append("frames_run differs between repetitions")

    per_rep = [_e2e_metrics(r) for r in plain]
    e2e = {m: statistics.median(p[m] for p in per_rep) for m in per_rep[0]}
    e2e["csv_match"] = 1.0 if csv_match else 0.0
    failed_reps = len(errors) + len(mismatched)
    correct = csv_match and not errors and not notes
    record = {
        "workload": workload, "why": workloads.WORKLOADS[workload], "seed": seed,
        "master_seed": ms, "seconds": seconds, "trace": trace, "smoke": smoke,
        "environment": environment(plain[0]["versions"]),
        "campaigns": campaigns,
        "repetitions": len(plain), "per_repetition": per_rep,
        "quartiles": {m: _quartiles([p[m] for p in per_rep]) for m in per_rep[0]},
        "failed_frac": 1.0 - e2e["completed_frac"],
        "digests": plain[0]["digests"], "errors": errors, "notes": notes,
    }
    if trace:
        per_layer = [_layer_metrics(r) for r in traced_reps]
        layer = {}
        for m in LAYER_UNITS:
            if m == "trace.overhead_ratio":
                continue
            values = [p[m] for p in per_layer]
            if m in _TIMED_LAYER:
                layer[m] = statistics.median(values)
            else:
                layer[m] = values[0]
                if len(set(values)) != 1:
                    notes.append(f"count {m} differs between traced repetitions: {values}")
                    correct = False
        layer["trace.overhead_ratio"] = (
            statistics.median(_e2e_metrics(r)["campaign_s"] for r in traced_reps)
            / e2e["campaign_s"]
        )
        record.update(traced_repetitions=len(traced_reps),
                      skipped_targets=traced_reps[0]["skipped_targets"])
        metrics = {m: {"value": layer[m], "unit": LAYER_UNITS[m]} for m in LAYER_UNITS}
    else:
        metrics = {m: {"value": e2e[m], "unit": E2E_UNITS[m]} for m in E2E_UNITS}
    record["result"] = {"correct": correct, "attempted": len(reps) + len(errors),
                        "failed": failed_reps, "metrics": metrics}
    return record


def _print_report(rec: dict) -> None:
    print(f"workload {rec['workload']}: {rec['why']}")
    print(f"seed {rec['seed']} (master seed {rec['master_seed']}), trace {int(rec['trace'])}, "
          f"{rec['repetitions']} untraced repetition(s)"
          + (f", {rec['traced_repetitions']} traced" if rec["trace"] else ""))
    env = rec["environment"]
    print(f"machine: {env['nproc']} x {env['cpu_model']}; python {env.get('python')}, "
          f"numpy {env.get('numpy')}, scipy {env.get('scipy')}; threads {env['thread_env']}")
    print("per repetition (times scaled to nominal machine speed; `speed` is the scale):")
    for m, (q1, med, q3) in rec["quartiles"].items():
        print(f"  {m:<20} median {med:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    print(f"  failed_frac          {rec['failed_frac']:.6g} (frame-modes attempted but not run)")
    print("result:")
    for m, v in rec["result"]["metrics"].items():
        print(f"  {m:<45} {v['value']:.6g} {v['unit']}")
    for line in rec["errors"] + rec["notes"]:
        print(f"  ! {line}")


def _write_record(rec: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    name = "smoke_" if rec["smoke"] else ""
    path = os.path.join(
        OUT_DIR, f"{name}{rec['workload']}_seed{rec['seed']}_trace{int(rec['trace'])}.json"
    )
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1)
    return path


def smoke() -> int:
    """Tiny runs of every workload; checks metric names and units, measures nothing."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    ok = True
    for key, units in (("end_to_end", E2E_UNITS), ("per_layer", LAYER_UNITS)):
        want = {m["name"]: m["unit"] for m in declared[key]}
        if want != units:
            print(f"smoke: {key} in BENCHMARK.json differs from run.py: "
                  f"{sorted(set(want.items()) ^ set(units.items()))}")
            ok = False
    if [w["name"] for w in declared["workloads"]] != list(workloads.WORKLOADS):
        print("smoke: workloads in BENCHMARK.json differ from workloads.py")
        ok = False
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            rec = measure(workload, workloads.DEFAULT_SEED, 0.0, trace, smoke=True)
            res = rec["result"]
            units = LAYER_UNITS if trace else E2E_UNITS
            printed = {m: v["unit"] for m, v in res["metrics"].items()}
            good = res["correct"] and printed == units
            ok = ok and good
            print(f"smoke {workload} trace {int(trace)}: {'ok' if good else 'FAILED'}; "
                  f"{len(printed)} metrics with units; {_write_record(rec)}")
            for line in rec["errors"] + rec["notes"]:
                print(f"  ! {line}")
    print("smoke check " + ("passed" if ok else "FAILED")
          + " (one frame per grid point: names and units only, not a measurement)")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ofdmlink", "__init__.py")):
        print(f"benchmark: no ofdmlink sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is imported here or in a repetition
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        rec = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RepError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    _print_report(rec)
    print(f"record: {os.path.relpath(_write_record(rec), ROOT)}")
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
