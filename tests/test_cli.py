"""Tests for the campaign command line and config file parsing."""

import math

import pytest

from ofdmlink.cli import (
    EXIT_CONFIG,
    EXIT_OK,
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

    def test_snr_list(self):
        assert _parse_snr("10,20,30") == (10.0, 20.0, 30.0)

    def test_snr_inf(self):
        assert _parse_snr("inf") == (math.inf,)

    def test_snr_bad_range(self):
        with pytest.raises(ConfigurationError):
            _parse_snr("10:35")
        with pytest.raises(ConfigurationError):
            _parse_snr("10:35:0")

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

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snrs = 10\n")
        with pytest.raises(ConfigurationError):
            parse_config_file(cfg)

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

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snr = 10\nmode = genie\nframes = 1\nbeta = 0\nout = %s\n" % tmp_path)
        out = tmp_path / "flagged"
        rc = main(["--config", str(cfg), "--snr", "30", "--out", str(out)])
        assert rc == EXIT_OK
        text = (out / "results.csv").read_text()
        assert "3.0000000000e+01" in text

    def test_bad_mode_exits_config(self, tmp_path):
        rc = main(["--mode", "warp", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_missing_config_file_exits_config(self, tmp_path):
        rc = main(["--config", str(tmp_path / "nope.cfg")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "line",
        ["tracking_variant = bogus", "mmse_r = bogus", "mimo = 4x4\nmmse_r = kron"],
    )
    def test_bad_receiver_setting_exits_config(self, tmp_path, line):
        # caught while the config is built, before any frame runs
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"snr = 20\nbeta = 0\nframes = 1\ndetector = mmse\n{line}\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    def test_bad_snr_exits_config(self, tmp_path):
        rc = main(["--snr", "10:35", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
