"""Config parsing, command dispatch, output formats and exit codes."""

import json
import math
import platform

import numpy as np
import pytest
import scipy
from scipy.optimize._highspy import _core as highs

import rfiqsdc
from rfiqsdc import cli, decoy, pipeline
from rfiqsdc.cli import (
    CSV_COLUMNS,
    ConfigError,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    RunConfig,
    load_config,
    run,
)
from rfiqsdc.pipeline import PointResult


class TestLoadConfig:
    def test_defaults(self):
        config = load_config(None, [])
        assert config.eta_opt_ba == 0.21
        assert config.eta_opt_bab == 0.088
        assert config.eta_d == 0.7
        assert config.pd == 8e-8
        assert config.ed_a == 0.0131
        assert config.ed_b == 0.0026
        assert config.alpha_db_per_km == 0.2
        assert config.n_cut == 10
        assert config.beta_deg == (0.0,)
        assert config.n_pulses == 1e12
        assert config.u_sigma == 5.0

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# comment line\n"
            "beta_deg = 45  # inline comment\n"
            "mu = 0.1, 0.05, 0.01\n"
            "\n"
            "n_cut = 12\n"
        )
        config = load_config(str(path), [])
        assert config.beta_deg == (45.0,)
        assert config.mu == (0.1, 0.05, 0.01)
        assert config.n_cut == 12

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("beta_deg = 45\n")
        config = load_config(str(path), ["beta_deg=10"])
        assert config.beta_deg == (10.0,)

    def test_beta_unit_conversion(self):
        config = load_config(None, ["beta_deg=45"])
        assert config.betas_rad() == (pytest.approx(math.pi / 4),)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            load_config(None, ["darkness=1"])

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="pd"):
            load_config(None, ["pd=1.5"])
        with pytest.raises(ConfigError, match="decoy"):
            load_config(None, ["decoy_ratio1=0.01", "decoy_ratio2=0.05"])
        with pytest.raises(ConfigError, match="n_cut"):
            load_config(None, ["n_cut=1"])

    @pytest.mark.parametrize("entry", ["n_pulses=0", "n_pulses=-1e12", "n_pulses=nan"])
    def test_nonpositive_pulse_count_rejected(self, entry):
        with pytest.raises(ConfigError, match="n_pulses"):
            load_config(None, [entry])

    @pytest.mark.parametrize("entry", ["u_sigma=-1", "u_sigma=inf", "u_sigma=nan"])
    def test_bad_fluctuation_width_rejected(self, entry):
        with pytest.raises(ConfigError, match="u_sigma"):
            load_config(None, [entry])

    def test_infinite_pulse_count_accepted(self):
        config = load_config(None, ["n_pulses=inf", "u_sigma=0"])
        assert config.channel().fluctuation == 0.0

    def test_malformed_entries(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("just words\n")
        with pytest.raises(ConfigError):
            load_config(str(path), [])
        with pytest.raises(ConfigError):
            load_config(None, ["pd"])
        with pytest.raises(ConfigError):
            load_config(None, ["pd=abc"])

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.conf", [])


class TestExitCodes:
    def test_config_error_exits_2(self, capsys):
        assert run(["point", "--set", "pd=1.5"]) == EXIT_CONFIG
        assert "pd" in capsys.readouterr().err

    def test_unknown_key_exits_2(self):
        assert run(["point", "--set", "bogus=1"]) == EXIT_CONFIG

    def test_workers_key_rejected(self, capsys):
        # scans run serially; the former thread-pool size is no longer a key
        assert run(["scan", "--mode", "fixed", "--set", "mu=0.05", "--set", "workers=2"]) == EXIT_CONFIG
        assert "unknown configuration key: workers" in capsys.readouterr().err

    def test_fixed_scan_without_mu_exits_2(self):
        assert run(["scan", "--mode", "fixed", "--quiet"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "entry, name",
        [
            ("atten_hi_db=inf", "atten_hi_db"),
            ("alpha_db_per_km=nan", "alpha_db_per_km"),
            ("mu_rel_tol=nan", "rel_tol"),
            ("attenuation_db=nan", "attenuation_db"),
            ("beta_deg=inf", "beta_deg"),
            ("mu=nan", "mu"),
            ("atten_step_db=nan", "atten_step_db"),
        ],
    )
    def test_non_finite_value_exits_2(self, capsys, entry, name):
        assert run(["cutoff", "--quiet", "--set", entry]) == EXIT_CONFIG
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["cutoff", "--set", "mu=0.05"], "mu"),
            (["scan", "--set", "mu=0.05", "--set", "atten_stop_db=1"], "mu"),
            (["point", "--set", "mu=0.05,0.01"], "mu"),
            (["point", "--set", "beta_deg=0,45"], "beta_deg"),
            (["cutoff", "--set", "beta_deg=0,45"], "beta_deg"),
        ],
        ids=["cutoff-mu", "scan-optimized-mu", "point-two-mu", "point-two-beta", "cutoff-two-beta"],
    )
    def test_ignored_value_exits_2(self, capsys, argv, key):
        # each of these values would otherwise be dropped without a word
        assert run([*argv, "--quiet", "--set", "mu_coarse_points=3"]) == EXIT_CONFIG
        assert f"{key}:" in capsys.readouterr().err

    def test_internal_error_traceback_only_when_verbose(self, monkeypatch, capsys):
        def failing_point(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(cli, "evaluate_point", failing_point)
        argv = ["point", "--quiet", "--set", "mu=0.05"]
        assert run(argv) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "internal error: solver exploded" in err
        assert "Traceback" not in err
        assert run([*argv, "--verbose"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "internal error: solver exploded" in err

    def test_selftest_passes(self, capsys):
        assert run(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out


class TestPointCommand:
    def test_point_outputs(self, tmp_path, capsys):
        out = tmp_path / "point.csv"
        summary = tmp_path / "point.json"
        code = run([
            "point", "--quiet",
            "--set", "attenuation_db=6", "--set", "mu=0.05",
            "--out", str(out), "--summary", str(summary),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        payload = json.loads(summary.read_text())
        point = payload["points"][0]
        assert point["attenuation_db"] == 6.0
        assert point["mu"] == 0.05
        # the CSV capacity is the JSON capacity, formatted
        csv_capacity = float(lines[1].split(",")[4])
        assert csv_capacity == pytest.approx(point["capacity_bit_per_pulse"], rel=1e-8)

    def test_summary_records_versions(self, tmp_path):
        summary = tmp_path / "point.json"
        argv = ["point", "--quiet", "--set", "attenuation_db=6", "--set", "mu=0.05", "--summary", str(summary)]
        assert run(argv) == EXIT_OK
        assert json.loads(summary.read_text())["provenance"] == {
            "rfiqsdc": rfiqsdc.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "highs": f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}.{highs.HIGHS_VERSION_PATCH}",
        }

    def test_optimized_point_honours_y0_from_model(self, tmp_path):
        rows = {}
        for name, mu_entries in (("fixed", ["mu=0.05"]), ("optimized", ["mu_lo=0.05", "mu_hi=0.05"])):
            out = tmp_path / f"{name}.csv"
            args = ["point", "--quiet", "--set", "attenuation_db=8", "--set", "y0_from_model=true"]
            for entry in mu_entries:
                args += ["--set", entry]
            assert run([*args, "--out", str(out)]) == EXIT_OK
            rows[name] = out.read_text().splitlines()[1].split(",")
        assert rows["fixed"][4] == "5.14420340e-05"
        assert rows["optimized"][4] == rows["fixed"][4]


class TestFluctuationParameters:
    """``n_pulses`` and ``u_sigma`` reach the estimator on every command path,
    and so do ``y0_from_model`` and ``tight_z_bounds``."""

    def _point_row(self, tmp_path, *entries):
        out = tmp_path / "point.csv"
        args = ["point", "--quiet", "--set", "attenuation_db=10", "--set", "mu=0.015"]
        for entry in entries:
            args += ["--set", entry]
        assert run([*args, "--out", str(out)]) == EXIT_OK
        return out.read_text().splitlines()[1].split(",")

    def test_pulse_count_changes_point(self, tmp_path):
        default = self._point_row(tmp_path)
        more = self._point_row(tmp_path, "n_pulses=1e13")
        assert float(more[4]) != float(default[4])
        # more pulses mean narrower fluctuations and a larger capacity
        assert float(more[4]) > float(default[4])

    def test_zero_width_is_asymptotic_model(self, tmp_path):
        exact = self._point_row(tmp_path, "u_sigma=0")
        # capacity and c_lower of the estimator with exact observations, which
        # ignored statistical fluctuations altogether
        assert exact[4:6] == ["1.01025586e-05", "1.89647001e+00"]
        assert self._point_row(tmp_path, "n_pulses=inf") == exact

    @pytest.mark.parametrize(
        "argv",
        [
            ["point", "--set", "mu=0.05"],
            ["point", "--set", "mu_coarse_points=3"],
            ["scan", "--mode", "fixed", "--set", "mu=0.05,0.01", "--set", "atten_stop_db=2"],
            ["scan", "--set", "mu_coarse_points=3", "--set", "atten_stop_db=2"],
            ["cutoff", "--set", "mu_coarse_points=3"],
        ],
        ids=["point-fixed", "point-optimized", "scan-fixed", "scan-optimized", "cutoff"],
    )
    def test_every_path_carries_both(self, monkeypatch, argv):
        seen = []

        def recording_points(channel, points, estimator):
            results = []
            for attenuation_db, beta_rad, mu in points:
                seen.append((channel.n_pulses, channel.u_sigma, estimator.y0_from_model, estimator.tight_z_bounds))
                capacity = 1e-6 if attenuation_db < 5.0 else -1e-6
                results.append(PointResult(attenuation_db, 0.0, beta_rad, mu, capacity, *[0.0] * 9))
            return results

        # every evaluation, including evaluate_point's, goes through evaluate_points
        monkeypatch.setattr(pipeline, "evaluate_points", recording_points)
        code = run([
            *argv, "--quiet", "--set", "n_pulses=3e9", "--set", "u_sigma=2.5",
            "--set", "y0_from_model=true", "--set", "tight_z_bounds=true",
        ])
        assert code == EXIT_OK
        assert seen
        assert set(seen) == {(3e9, 2.5, True, True)}


class TestScanCommand:
    FALLBACK_SETTINGS = [
        arg
        for entry in (
            "mu_coarse_points=3", "atten_stop_db=2", "n_pulses=3e9", "u_sigma=2.5",
            "y0_from_model=true", "tight_z_bounds=true",
        )
        for arg in ("--set", entry)
    ]

    def test_failed_batch_falls_back_to_single_points(self, monkeypatch, tmp_path):
        # when each observation was two one-sided rows, HiGHS reported "model_status
        # is Unknown" for the stacked programs of the golden-section opening pair
        # at 1.5 and 2 dB, while each point solved alone; the scan must give
        # every point's own result
        settings = self.FALLBACK_SETTINGS
        out = tmp_path / "scan.csv"
        assert run(["scan", "--quiet", *settings, "--out", str(out)]) == EXIT_OK

        monkeypatch.setattr(pipeline, "_POINTS_PER_SOLVE", 1)
        rows = []
        for attenuation in ("0", "0.5", "1", "1.5", "2"):
            point = tmp_path / f"point{attenuation}.csv"
            argv = ["point", "--quiet", *settings, "--set", f"attenuation_db={attenuation}", "--out", str(point)]
            assert run(argv) == EXIT_OK
            rows.append(point.read_text().splitlines()[1])
        assert out.read_text().splitlines() == [",".join(CSV_COLUMNS), *rows]

    def test_fallback_command_retries_no_chunk(self, monkeypatch, tmp_path):
        # with one ranged row per observation every stacked call of that scan
        # succeeds, so each evaluated point is solved exactly once
        solve_lps, evaluate_points = decoy.solve_lps, pipeline.evaluate_points
        points_per_call, failures, evaluated = [], [], []

        def recording_solve_lps(programs):
            points_per_call.append(len(programs) // 22)
            try:
                return solve_lps(programs)
            except RuntimeError as exc:
                failures.append(str(exc))
                raise

        def counting_evaluate_points(channel, points, *args):
            evaluated.append(len(points))
            return evaluate_points(channel, points, *args)

        monkeypatch.setattr(decoy, "solve_lps", recording_solve_lps)
        monkeypatch.setattr(pipeline, "evaluate_points", counting_evaluate_points)
        out = tmp_path / "scan.csv"
        assert run(["scan", "--quiet", *self.FALLBACK_SETTINGS, "--out", str(out)]) == EXIT_OK
        assert failures == []
        assert max(points_per_call) > 1
        assert sum(points_per_call) == sum(evaluated)

    def _scan_args(self, out):
        return [
            "scan", "--mode", "fixed", "--quiet",
            "--set", "atten_start_db=2", "--set", "atten_stop_db=6",
            "--set", "atten_step_db=2", "--set", "mu=0.05",
            "--out", str(out),
        ]

    def test_scan_csv_shape(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(self._scan_args(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + 3 grid points
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(CSV_COLUMNS)
            float(fields[0])

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run(self._scan_args(first)) == EXIT_OK
        assert run(self._scan_args(second)) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_lf_line_endings_and_format(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(self._scan_args(out)) == EXIT_OK
        raw = out.read_bytes()
        assert b"\r" not in raw
        sample = raw.decode().splitlines()[1].split(",")[4]
        mantissa, _, exponent = sample.partition("e")
        assert len(mantissa.lstrip("-").replace(".", "")) == 9


class TestCutoffCommand:
    def test_always_insecure_replaces_stale_csv(self, tmp_path):
        out, summary = tmp_path / "cutoff.csv", tmp_path / "cutoff.json"
        out.write_text("left over from an earlier run\n")
        code = run([
            "cutoff", "--quiet", "--set", "ed_b=0.5",
            "--set", "mu_coarse_points=5", "--set", "mu_rel_tol=1e-2",
            "--out", str(out), "--summary", str(summary),
        ])
        assert code == EXIT_OK
        assert json.loads(summary.read_text())["always_insecure"] is True
        assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


class TestRunConfigHelpers:
    def test_channel_construction(self):
        config = RunConfig(pd=1e-6, beta_deg=(45.0,))
        spec = config.channel(beta_rad=math.pi / 4)
        assert spec.pd == 1e-6
        assert spec.beta_rad == pytest.approx(math.pi / 4)

    def test_decoy_ratios(self):
        assert RunConfig().estimator().decoy_ratios == (0.05, 0.01)
