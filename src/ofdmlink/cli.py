"""Campaign command line: ``simulate --config run.cfg [overrides...]``.

The config file is flat ``key = value`` text (``#`` starts a comment);
every command-line flag overrides the corresponding file key.  Outputs
are ``results.csv`` plus the BER and MSE charts in the chosen directory.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .harness import MAX_SNR_DB, ScenarioConfig, emit_csv, emit_plots, run_campaign
from .numerics import ConfigurationError

__all__ = ["main", "parse_config_file", "build_config"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

MAX_SNR_POINTS = 10_000  # an a:b:step range is refused beyond this, before it is expanded

_CONFIG_KEYS = {
    "snr", "beta", "mimo", "iq", "mode", "detector", "ce", "frames", "seed",
    "out", "workers", "symbols_per_frame", "l_taps", "pdp_decay", "n", "n_cp",
    "ts", "iq_frame_avg", "tracking_variant", "mmse_r", "shared_oscillator",
}


def parse_config_file(path: str) -> dict:
    """Read flat ``key = value`` lines; unknown keys are rejected."""
    out = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{ln}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigurationError(f"{path}:{ln}: unknown key {key!r}")
            out[key] = val
    return out


def _parse_float(text: str) -> float:
    if text.strip().lower() in ("inf", "+inf", "infinity"):
        return math.inf
    return float(text)


def _parse_snr(text: str) -> tuple:
    text = text.strip()
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3:
            raise ConfigurationError(f"SNR range must be a:b:step, got {text!r}")
        if not all(math.isfinite(p) for p in parts):
            raise ConfigurationError(f"SNR range endpoints and step must be finite, got {text!r}")
        a, b, step = parts
        if step <= 0:
            raise ConfigurationError("SNR step must be positive")
        if max(abs(a), abs(b)) > MAX_SNR_DB:
            raise ConfigurationError(f"SNR range endpoints must be within +-{MAX_SNR_DB:g} dB, got {text!r}")
        if (b + 1e-9 - a) / step >= MAX_SNR_POINTS:
            raise ConfigurationError(f"SNR range {text!r} has more than {MAX_SNR_POINTS} points")
        vals = []
        v = a
        while v <= b + 1e-9:
            vals.append(round(v, 9))
            v += step
        return tuple(vals)
    return tuple(_parse_float(p) for p in text.split(","))


def _parse_list(text: str) -> tuple:
    return tuple(_parse_float(p) for p in text.split(","))


def _parse_mimo(text: str) -> tuple[int, int]:
    try:
        m_t, m_r = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ConfigurationError(f"MIMO spec must look like 2x2, got {text!r}") from None
    return m_t, m_r


def _parse_iq(text: str) -> tuple[float, float]:
    theta_deg, amp_pct = None, None
    for part in text.split(","):
        part = part.strip().lower()
        if part.endswith("deg"):
            theta_deg = float(part[:-3])
        elif part.endswith("pct"):
            amp_pct = float(part[:-3])
        else:
            raise ConfigurationError(f"IQ spec parts must end in deg/pct, got {part!r}")
    if theta_deg is None or amp_pct is None:
        raise ConfigurationError("IQ spec needs both a deg and a pct part, e.g. 5deg,10pct")
    return theta_deg, amp_pct


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def build_config(values: dict) -> tuple[ScenarioConfig, str]:
    """Merge parsed key/value strings into a ScenarioConfig and output dir."""
    kw = {}
    if "snr" in values:
        kw["snr_db"] = _parse_snr(values["snr"])
    if "beta" in values:
        kw["beta_hz"] = _parse_list(values["beta"])
    if "mimo" in values:
        kw["m_t"], kw["m_r"] = _parse_mimo(values["mimo"])
    if "iq" in values:
        kw["iq_theta_deg"], kw["iq_amp_pct"] = _parse_iq(values["iq"])
    if "mode" in values:
        kw["modes"] = tuple(p.strip() for p in values["mode"].split(","))
    if "detector" in values:
        kw["detector"] = values["detector"].strip()
    if "ce" in values:
        kw["ce_method"] = values["ce"].strip()
    if "frames" in values:
        kw["frames"] = int(values["frames"])
    if "seed" in values:
        kw["master_seed"] = int(values["seed"])
    if "workers" in values:
        kw["workers"] = int(values["workers"])
    for key in ("symbols_per_frame", "l_taps", "n", "n_cp", "iq_frame_avg"):
        if key in values:
            kw[key] = int(values[key])
    for key in ("pdp_decay", "ts"):
        if key in values:
            kw[key] = float(values[key])
    if "tracking_variant" in values:
        kw["tracking_variant"] = values["tracking_variant"].strip()
    if "mmse_r" in values:
        kw["mmse_r"] = values["mmse_r"].strip()
    if "shared_oscillator" in values:
        kw["shared_oscillator"] = _parse_bool(values["shared_oscillator"])
    out_dir = values.get("out", ".")
    return ScenarioConfig(**kw), out_dir


def _arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="simulate",
        description="Run a seeded MIMO-OFDM link campaign and write CSV plus SVG charts.",
    )
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--snr", help="SNR points in dB: a:b:step or comma list (inf allowed)")
    ap.add_argument("--beta", help="phase-noise linewidths in Hz, comma list")
    ap.add_argument("--mimo", help="antenna counts, e.g. 2x2 or 4x4")
    ap.add_argument("--iq", help="IQ mismatch, e.g. 5deg,10pct")
    ap.add_argument("--mode", help="comma list of receiver modes")
    ap.add_argument("--detector", choices=["zf", "mmse"])
    ap.add_argument("--ce", choices=["interp", "iterative"], help="channel completion method")
    ap.add_argument("--frames", type=int, help="Monte-Carlo frames per grid point")
    ap.add_argument("--seed", type=int, help="master seed")
    ap.add_argument("--workers", type=int, help="parallel worker processes")
    ap.add_argument("--out", help="output directory (created if missing)")
    return ap


def _is_snr_spec(text: str) -> bool:
    """Whether ``text`` reads as an SNR range or list, valid or not."""
    try:
        _parse_snr(text)
    except ConfigurationError:
        return True  # refused later, as a configuration error
    except ValueError:
        return False
    return True


def _join_snr_values(argv: list) -> list:
    """``--snr -5:20:5`` as ``--snr=-5:20:5``.

    argparse reads a separate value that starts with a minus and holds a
    ``:`` or ``,`` as an option, and would exit before the config check.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--snr" and arg.startswith("-") and _is_snr_spec(arg):
            out[-1] = f"--snr={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _arg_parser().parse_args(_join_snr_values(argv))
    try:
        values = parse_config_file(args.config) if args.config else {}
        for key in ("snr", "beta", "mimo", "iq", "mode", "detector", "ce",
                    "frames", "seed", "workers", "out"):
            val = getattr(args, key)
            if val is not None:
                values[key] = str(val)
        config, out_dir = build_config(values)
    except (ConfigurationError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        os.makedirs(out_dir, exist_ok=True)
        result = run_campaign(config)
        csv_path = os.path.join(out_dir, "results.csv")
        emit_csv(result, csv_path)
        plot_paths = emit_plots(result, out_dir)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code per contract
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(f"wrote {csv_path}")
    for p in plot_paths:
        print(f"wrote {p}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
