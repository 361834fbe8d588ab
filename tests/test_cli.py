"""Tests for the campaign command line and config file parsing."""

import math
import re
import time
from pathlib import Path

import pytest

from ofdmlink.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    MAX_SNR_POINTS,
    SETTINGS,
    _arg_parser,
    _parse_iq,
    _parse_mimo,
    _parse_snr,
    build_config,
    main,
    parse_config_file,
)
from ofdmlink.numerics import ConfigurationError


class TestParsers:
    def test_snr_range(self):
        assert _parse_snr("10:35:5") == (10.0, 15.0, 20.0, 25.0, 30.0, 35.0)

    def test_snr_fractional_range_keeps_its_points(self):
        # the accumulated step still lands on the endpoint, as before ranges were bounded
        assert _parse_snr("0:1:0.1") == tuple(round(0.1 * i, 9) for i in range(11))
        assert _parse_snr("-300:300:150") == (-300.0, -150.0, 0.0, 150.0, 300.0)
        step = 2.0**-6  # exact in binary, so the count is exact too
        assert len(_parse_snr(f"0:{(MAX_SNR_POINTS - 1) * step}:{step}")) == MAX_SNR_POINTS
        with pytest.raises(ConfigurationError):
            _parse_snr(f"0:{MAX_SNR_POINTS * step}:{step}")

    def test_snr_range_bounded_before_expansion(self):
        for text in ("0:1:1e-6", "0:40:1e-9", "0:1:5e-324", "-301:0:1", "0:1e300:1e299"):
            with pytest.raises(ConfigurationError):
                _parse_snr(text)

    def test_snr_list(self):
        assert _parse_snr("10,20,30") == (10.0, 20.0, 30.0)

    def test_snr_inf(self):
        assert _parse_snr("inf") == (math.inf,)

    def test_snr_bad_range(self):
        with pytest.raises(ConfigurationError):
            _parse_snr("10:35")
        with pytest.raises(ConfigurationError):
            _parse_snr("10:35:0")

    def test_snr_range_must_be_finite(self):
        for text in ("10:inf:5", "-inf:10:5", "nan:30:5", "10:30:inf", "10:30:nan"):
            with pytest.raises(ConfigurationError):
                _parse_snr(text)

    def test_mimo(self):
        assert _parse_mimo("2x2") == (2, 2)
        assert _parse_mimo("4X4") == (4, 4)
        with pytest.raises(ConfigurationError):
            _parse_mimo("2by2")

    def test_iq(self):
        assert _parse_iq("5deg,10pct") == (5.0, 10.0)
        assert _parse_iq("10pct,5deg") == (5.0, 10.0)
        with pytest.raises(ConfigurationError):
            _parse_iq("5,10")
        with pytest.raises(ConfigurationError):
            _parse_iq("5deg")
        for text in ("5deg,10pct,7deg", "5deg,10pct,20pct"):  # a part given twice
            with pytest.raises(ConfigurationError, match="twice"):
                _parse_iq(text)


class TestConfigFile:
    def test_parse_and_build(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            """
# campaign description
snr = 10:20:5
beta = 5e3
mimo = 4x4
iq = 5deg,10pct
mode = full,genie
detector = zf
ce = iterative
frames = 3
seed = 99
workers = 2
symbols_per_frame = 6
"""
        )
        config, out_dir = build_config(parse_config_file(cfg))
        assert config.snr_db == (10.0, 15.0, 20.0)
        assert config.m_t == 4 and config.m_r == 4
        assert config.modes == ("full", "genie")
        assert config.detector == "zf"
        assert config.ce_method == "iterative"
        assert config.frames == 3
        assert config.master_seed == 99
        assert config.workers == 2
        assert out_dir == "."

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # a misspelt key, and keys of older files: the removed shared-oscillator
        # switch and MMSE-regularizer form
        cfg = tmp_path / "run.cfg"
        for text in ("snrs = 10\n", "snr = 10\nshared_oscillator = false\n",
                     "snr = 10\nmmse_r = sigma\n"):
            cfg.write_text(text)
            with pytest.raises(ConfigurationError):
                parse_config_file(cfg)
            assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
            assert "configuration error:" in capsys.readouterr().err

    def test_readme_config_block_lists_every_key(self):
        # the README's config block names each key once, the flagged keys first
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("The config file is flat", 1)[1].split("```")[1]
        flagged, file_only = block.split("# file only:")
        keys = [re.match(r"(\w+) = ", ln) for ln in (flagged + file_only).splitlines()]
        assert [m[1] for m in keys if m] == list(SETTINGS)
        flags = set(re.findall(r"--(\w+)", _arg_parser().format_help())) - {"help", "config"}
        assert set(re.findall(r"^(\w+) = ", flagged, re.M)) == flags

    def test_repeated_key_rejected(self, tmp_path):
        # the last value was kept
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snr = 10\nbeta = 0\nsnr = 20\n")
        with pytest.raises(ConfigurationError, match="snr"):
            parse_config_file(cfg)

    @pytest.mark.parametrize("values", [
        {"mimo": "2x100000"},
        {"symbols_per_frame": "1000000000"},
        {"iq_frame_avg": "1000000", "frames": "1000000"},  # one chunk of 10**6 frames
    ])
    def test_oversized_frame_refused(self, values):
        # built, never run: 2x100000 would allocate about 6.4 GB per stream
        # array, the chunk of 10**6 frames about 128 GB
        with pytest.raises(ConfigurationError, match="frame"):
            build_config(values)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ConfigurationError):
            parse_config_file(cfg)


class TestMain:
    def test_tiny_campaign_runs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            [
                "--snr", "20", "--beta", "0", "--mimo", "2x2", "--mode", "genie",
                "--frames", "1", "--seed", "5", "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        assert (out / "results.csv").exists()
        assert (out / "ber_vs_snr.svg").exists()
        assert (out / "mse_vs_snr.svg").exists()
        text = (out / "results.csv").read_text()
        assert text.splitlines()[1].startswith("2.0000000000e+01,0.0000000000e+00,genie")

    def test_infinite_snr_point_runs_and_plots(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "--snr", "20,inf", "--beta", "0", "--mode", "full", "--frames", "1", "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert (out / "results.csv").read_text().splitlines()[2].startswith("inf,")
        assert (out / "ber_vs_snr.svg").exists()
        assert (out / "mse_vs_snr.svg").exists()

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snr = 10\nmode = genie\nframes = 1\nbeta = 0\nout = %s\n" % tmp_path)
        out = tmp_path / "flagged"
        rc = main(["--config", str(cfg), "--snr", "30", "--out", str(out)])
        assert rc == EXIT_OK
        text = (out / "results.csv").read_text()
        assert "3.0000000000e+01" in text

    @pytest.mark.parametrize(
        "flag, value",
        [("--detector", "warp"), ("--frames", "x"), ("--workers", "two"), ("--beta", "-1,0")],
    )
    def test_bad_flag_value_exits_config(self, tmp_path, capsys, flag, value):
        # parsed and checked as the same key in a config file would be; a
        # value with a leading minus is the flag's value, not an option
        rc = main([flag, value, "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "configuration error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["--bogus", "1"],  # unknown flag
        ["--snr"],  # flag without a value
        ["--snr=10", "-5"],  # stray argument
        ["--fr", "1"],  # a prefix of --frames is not --frames
    ])
    def test_bad_command_line_exits_config(self, tmp_path, capsys, args):
        # refused as a configuration error, not by an exit from inside main
        rc = main(["--out", str(tmp_path / "out"), *args])
        assert rc == EXIT_CONFIG
        assert "configuration error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_mode_exits_config(self, tmp_path):
        rc = main(["--mode", "warp", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_repeated_mode_exits_config(self, tmp_path):
        rc = main(["--mode", "full,full", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("snr, beta", [("10,10", "0"), ("10", "0,0"), ("10,10", "0,0")])
    def test_repeated_grid_value_exits_config(self, tmp_path, snr, beta):
        # each would write the same rows twice and draw two series per chart
        rc = main([
            "--snr", snr, "--beta", beta, "--frames", "1", "--out", str(tmp_path / "out"),
        ])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, file", [
        (["--iq", "5deg,10pct,7deg"], ""),
        ([], "snr = 20\nsnr = 30\n"),
    ])
    def test_repeated_part_exits_config(self, tmp_path, args, file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"beta = 0\nframes = 1\nmode = genie\n{file}")
        rc = main(["--config", str(cfg), *args, "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["--snr", "10", "--snr", "20"],
        ["--snr=10", "--snr", "-20"],
        ["--frames", "1", "--frames", "1"],  # even with the same value
        ["--config", "{cfg}"],
    ])
    def test_repeated_flag_exits_config(self, tmp_path, capsys, args):
        # the last value was kept, as a repeated file key and --iq part were
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 0\nframes = 1\nmode = genie\n")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), *(a.format(cfg=cfg) for a in args), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "given 2 times" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_config(self, tmp_path):
        rc = main(["--config", str(tmp_path / "nope.cfg")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "line",
        [
            "tracking_variant = bogus", "mimo = 5x5", "mimo = 0x2", "beta = -1", "n = 48", "symbols_per_frame = 3",
            "pdp_decay = 0", "ts = 0", "l_taps = 0",
        ],
    )
    def test_bad_receiver_setting_exits_config(self, tmp_path, line):
        # caught while the config is built, before any frame runs
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"snr = 20\nbeta = 0\nframes = 1\ndetector = mmse\n{line}\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "beta = nan", "beta = inf", "beta = 0,inf", "ts = nan", "ts = inf", "n_cp = 100",
            "snr = nan", "snr = -inf", "snr = 20,nan", "snr = 10:inf:5", "snr = 10:30:nan",
        ],
    )
    def test_non_finite_setting_exits_config(self, tmp_path, line):
        # caught while the config is built: no output directory, no garbage results
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"snr = 20\nbeta = 0\nframes = 1\nmode = genie,full\n{line}\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("snr", ["0:40:1e-9", "0:1:1e-6", "-400:0:10"])
    def test_oversized_snr_range_exits_config_at_once(self, tmp_path, snr):
        # unbounded, 0:40:1e-9 would be expanded point by point for minutes
        start = time.perf_counter()
        rc = main([f"--snr={snr}", "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert time.perf_counter() - start < 5.0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "snr, points",
        [("-5:20:5", (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0)), ("-10,0,inf", (-10.0, 0.0, math.inf))],
    )
    def test_negative_snr_as_separate_argument(self, tmp_path, snr, points):
        out = tmp_path / "out"
        rc = main([
            "--snr", snr, "--beta", "0", "--mode", "genie", "--frames", "1",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert tuple(float(r.split(",")[0]) for r in rows) == points

    def test_negative_snr_out_of_range_exits_config(self, tmp_path):
        # joined to --snr and refused by the range check, not by argparse
        rc = main(["--snr", "-400:0:10", "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_bad_snr_exits_config(self, tmp_path):
        rc = main(["--snr", "10:35", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
