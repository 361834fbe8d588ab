"""Campaign command line: ``simulate --config run.cfg [overrides...]``.

The config file is flat ``key = value`` text (``#`` starts a comment);
every command-line flag overrides the corresponding file key and is
parsed and checked as the file value would be (:data:`SETTINGS`).  Outputs
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


def parse_config_file(path: str) -> dict:
    """Read flat ``key = value`` lines; unknown and repeated keys are rejected."""
    out = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{ln}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in SETTINGS:
                raise ConfigurationError(f"{path}:{ln}: unknown key {key!r}")
            if key in out:
                raise ConfigurationError(f"{path}:{ln}: key {key!r} given twice")
            out[key] = val
    return out


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
    return _parse_list(text)


def _parse_list(text: str) -> tuple:
    return tuple(float(p) for p in text.split(","))


def _parse_mimo(text: str) -> tuple[int, int]:
    try:
        m_t, m_r = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ConfigurationError(f"MIMO spec must look like 2x2, got {text!r}") from None
    return m_t, m_r


def _parse_iq(text: str) -> tuple[float, float]:
    parts = {}  # unit -> value
    for part in text.split(","):
        part = part.strip().lower()
        unit = part[-3:]
        if unit not in ("deg", "pct"):
            raise ConfigurationError(f"IQ spec parts must end in deg/pct, got {part!r}")
        if unit in parts:
            raise ConfigurationError(f"IQ spec gives a {unit} part twice, got {text!r}")
        parts[unit] = float(part[:-3])
    if len(parts) < 2:
        raise ConfigurationError("IQ spec needs both a deg and a pct part, e.g. 5deg,10pct")
    return parts["deg"], parts["pct"]


def _parse_words(text: str) -> tuple:
    return tuple(p.strip() for p in text.split(","))


# config key -> (ScenarioConfig field, or fields for a key that sets several,
# or None for the output directory; parser of the value text; help of the
# key's command-line flag, or None for a key that only the file sets)
SETTINGS = {
    "snr": ("snr_db", _parse_snr, "SNR points in dB: a:b:step or comma list (inf allowed)"),
    "beta": ("beta_hz", _parse_list, "phase-noise linewidths in Hz, comma list"),
    "mimo": (("m_t", "m_r"), _parse_mimo, "antenna counts, e.g. 2x2 or 4x4"),
    "iq": (("iq_theta_deg", "iq_amp_pct"), _parse_iq, "IQ mismatch, e.g. 5deg,10pct"),
    "mode": ("modes", _parse_words, "comma list of receiver modes"),
    "detector": ("detector", str.strip, "zf or mmse"),
    "ce": ("ce_method", str.strip, "channel completion method: interp or iterative"),
    "frames": ("frames", int, "Monte-Carlo frames per grid point"),
    "seed": ("master_seed", int, "master seed"),
    "workers": ("workers", int, "processes, this one included; at most one per CPU is used"),
    "out": (None, str, "output directory (created if missing)"),
    "symbols_per_frame": ("symbols_per_frame", int, None),
    "l_taps": ("l_taps", int, None),
    "pdp_decay": ("pdp_decay", float, None),
    "n": ("n", int, None),
    "n_cp": ("n_cp", int, None),
    "ts": ("ts", float, None),
    "iq_frame_avg": ("iq_frame_avg", int, None),
    "tracking_variant": ("tracking_variant", str.strip, None),
    "mmse_r": ("mmse_r", str.strip, None),
}


def build_config(values: dict) -> tuple[ScenarioConfig, str]:
    """Merge parsed key/value strings into a ScenarioConfig and output dir."""
    kw = {}
    for key, text in values.items():
        fields, parse, _ = SETTINGS[key]
        try:
            value = parse(text)
        except ValueError as exc:
            raise ConfigurationError(f"{key}: {exc}") from None
        kw.update(zip(fields, value) if isinstance(fields, tuple) else [(fields, value)])
    out_dir = kw.pop(None, ".")
    return ScenarioConfig(**kw), out_dir


def _flags() -> dict:
    """The help of each command-line flag, e.g. ``--snr``, by flag."""
    return {f"--{key}": help_text for key, (_, _, help_text) in SETTINGS.items() if help_text}


def _refuse(message: str):
    raise ConfigurationError(message)


def _arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="simulate",
        description="Run a seeded MIMO-OFDM link campaign and write CSV plus SVG charts.",
        allow_abbrev=False,  # --fr is not --frames
    )
    ap.error = _refuse  # a bad command line is a configuration error, not an exit from main
    # every flag collects its values, so that main can refuse one given twice
    ap.add_argument("--config", action="append", help="flat key=value config file")
    for flag, help_text in _flags().items():
        ap.add_argument(flag, action="append", help=help_text)
    return ap


def _join_flag_values(argv: list) -> list:
    """``--snr -5:20:5`` as ``--snr=-5:20:5``, for every setting flag.

    argparse reads a separate value that starts with a single minus and is
    not a plain number (a range or a list) as an option, and would exit
    before the config check.
    """
    flags, out = _flags(), []
    for arg in argv:
        if out and out[-1] in flags and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = {k: v for k, v in vars(_arg_parser().parse_args(_join_flag_values(argv))).items() if v}
        for key, given in args.items():
            if len(given) > 1:
                raise ConfigurationError(f"flag --{key} given {len(given)} times")
        values = parse_config_file(args.pop("config")[0]) if "config" in args else {}
        values.update((k, v[0]) for k, v in args.items())
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
