import pytest

from irs_secrecy.cli import main
from irs_secrecy.config import ScenarioConfig


def tiny_config_file(tmp_path):
    cfg = ScenarioConfig(num_users=2, num_bs_antennas=2, num_irs_elements=2, rng_seed=9)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    return path


class TestSweepCommand:
    def test_sweep_end_to_end(self, tmp_path, capsys):
        cfg = tiny_config_file(tmp_path)
        code = main([
            "sweep", "--config", str(cfg), "--values", "10,20",
            "--schemes", "proposed,baseline1", "--realizations", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "results.csv" in out
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "summary.svg").exists()
        assert f"wrote {tmp_path / 'out' / 'summary.svg'}" in out

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = tiny_config_file(tmp_path)
        monkeypatch.setenv("IRS_SECRECY_OUT", str(tmp_path / "envout"))
        code = main([
            "sweep", "--config", str(cfg), "--values", "10",
            "--schemes", "baseline1", "--realizations", "1",
        ])
        assert code == 0
        assert (tmp_path / "envout" / "results_sweep" / "results.csv").exists()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = tiny_config_file(tmp_path)
        code = main([
            "sweep", "--config", str(cfg), "--values", "10",
            "--schemes", "baseline1", "--realizations", "1",
            "--seed", "77", "--out", str(tmp_path / "s77"),
        ])
        assert code == 0

    def test_bad_scheme_fails_with_diagnostic(self, tmp_path, capsys):
        cfg = tiny_config_file(tmp_path)
        code = main([
            "sweep", "--config", str(cfg), "--schemes", "wat",
            "--out", str(tmp_path / "x"),
        ])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["nan", "10,inf", "10,4000", "-4000"])
    def test_non_finite_powers_rejected(self, tmp_path, capsys, values):
        # each NaN or inf run used to become an error:LinAlgError row, with
        # exit code 0; 4000 dBm ran the 10 dBm row, then failed on an
        # OverflowError with no CSV written, and -4000 dBm is 0 W
        cfg = tiny_config_file(tmp_path)
        code = main([
            "sweep", "--config", str(cfg), "--values", values,
            "--schemes", "baseline1", "--realizations", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "error: p_max_dbm values must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_non_finite_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"noise_user": NaN}', encoding="utf-8")
        code = main([
            "sweep", "--config", str(cfg), "--values", "10",
            "--schemes", "baseline1", "--realizations", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "error: noise_user must be finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_config_integer_beyond_float_range_rejected(self, tmp_path, capsys):
        # "error: int too large to convert to float" named no field
        cfg = tmp_path / "config.json"
        cfg.write_text('{"p_max": 1%s}' % ("0" * 400), encoding="utf-8")
        code = main([
            "sweep", "--config", str(cfg), "--values", "10",
            "--schemes", "baseline1", "--realizations", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "error: p_max must fit in a float" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"rng_seed": 1.0}', "rng_seed must be an integer, got 1.0"),
            ('{"num_users": true}', "num_users must be an integer, got True"),
            # the removed option is an unknown field, not silently ignored
            ('{"normalize_noise": "no"}', "unknown scenario config fields: ['normalize_noise']"),
            ('{"r_be": 300.0}', "unknown scenario config fields: ['r_be']"),
            # true ran with 1 W of noise, and "10" failed inside a comparison
            ('{"noise_user": true}', "noise_user must be a real number, got True"),
            ('{"p_max": "10"}', "p_max must be a real number, got '10'"),
        ],
    )
    def test_mistyped_config_rejected(self, tmp_path, capsys, text, message):
        # 1.0 ran with other channel seeds than 1, and true failed inside numpy
        cfg = tmp_path / "config.json"
        cfg.write_text(text, encoding="utf-8")
        code = main([
            "sweep", "--config", str(cfg), "--values", "10",
            "--schemes", "baseline1", "--realizations", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "case-study"])
    def test_cell_radius_inside_the_user_sector_rejected(self, tmp_path, capsys, command):
        # the user draw failed inside numpy, with "error: high - low < 0"
        cfg = tmp_path / "config.json"
        cfg.write_text('{"cell_radius": 10.0}', encoding="utf-8")
        code = main([
            command, "--config", str(cfg), "--values", "1", "--realizations", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "error: cell_radius must be >= 20.0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ['{"pl0_db": -4000}', '{"pl_exp_bs_irs": -1000}'])
    def test_overflowing_path_loss_rejected(self, tmp_path, capsys, text):
        # the config is valid, but its path-loss gain overflows to inf: the
        # sweep wrote error:LinAlgError rows and exited 0. numpy warns, as it
        # does outside the tests, and the sweep stops before any run
        cfg = tmp_path / "config.json"
        cfg.write_text(text, encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = main([
                "sweep", "--config", str(cfg), "--values", "10",
                "--schemes", "baseline1", "--realizations", "1",
                "--out", str(tmp_path / "out"),
            ])
        assert code == 2
        assert "error: H has a non-finite entry" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()
        # the output directory is made only once there are rows to write
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main([
            "sweep", "--config", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "x"),
        ])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    def test_all_runs_failed_warns_without_plot(self, tmp_path, capsys, monkeypatch):
        import irs_secrecy.sweep as sweep_mod

        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(sweep_mod, "baseline_random_phase", boom)
        cfg = tiny_config_file(tmp_path)
        code = main([
            "sweep", "--config", str(cfg), "--values", "10",
            "--schemes", "baseline1", "--realizations", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert ".svg" not in captured.out
        assert "warning: 1 runs failed" in captured.err
        assert "error:" not in captured.err
        assert (tmp_path / "out" / "results.csv").exists()
        assert not list((tmp_path / "out").glob("*.svg"))


    @pytest.mark.parametrize("values", ["1.5,2", "1,2.5", "0,1", "inf"])
    def test_non_integer_user_counts_rejected(self, tmp_path, capsys, values):
        # they were truncated to ints, so "1.5,2" ran K = 1, 2
        cfg = tiny_config_file(tmp_path)
        code = main([
            "sweep", "--config", str(cfg), "--variable", "num_users",
            "--values", values, "--schemes", "baseline1", "--realizations", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "error: num_users values must be positive integers" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_integral_user_counts_accepted(self, tmp_path):
        cfg = tiny_config_file(tmp_path)
        code = main([
            "sweep", "--config", str(cfg), "--variable", "num_users",
            "--values", "1,2.0", "--schemes", "baseline1", "--realizations", "1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["1", "2"]


class TestCaseStudyCommand:
    def test_case_study_small(self, tmp_path, capsys):
        cfg = tiny_config_file(tmp_path)
        code = main([
            "case-study", "--config", str(cfg), "--values", "1,2",
            "--realizations", "1", "--out", str(tmp_path / "case"),
        ])
        assert code == 0
        assert (tmp_path / "case" / "summary.csv").exists()
        assert (tmp_path / "case" / "case_study.svg").exists()
        captured = capsys.readouterr()
        assert "(6/6 runs ok)" in captured.out
        assert f"wrote {tmp_path / 'case' / 'case_study.svg'}" in captured.out
        assert "warning" not in captured.err

    @pytest.mark.parametrize("values", ["2.9", "1,1.5", "0,1"])
    def test_non_integer_user_counts_rejected(self, tmp_path, capsys, values):
        # "2.9" ran K = 2
        cfg = tiny_config_file(tmp_path)
        code = main([
            "case-study", "--config", str(cfg), "--values", values,
            "--realizations", "1", "--out", str(tmp_path / "case"),
        ])
        assert code == 2
        assert "error: k_values must be positive integers" in capsys.readouterr().err
        assert not (tmp_path / "case" / "results.csv").exists()

    @pytest.mark.parametrize(
        "args,message",
        [
            # "1,1" wrote summary rows that counted 2 realizations from 1
            (["--values", "1,1"], "k_values must be strictly increasing"),
            (["--values", "2,1"], "k_values must be strictly increasing"),
            # 0 printed "(0/0 runs ok)" and wrote empty summary rows
            (["--values", "1", "--realizations", "0"], "num_realizations must be >= 1"),
        ],
    )
    def test_invalid_study_axis_rejected(self, tmp_path, capsys, args, message):
        cfg = tiny_config_file(tmp_path)
        code = main([
            "case-study", "--config", str(cfg), "--realizations", "1",
            *args, "--out", str(tmp_path / "case"),
        ])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "case" / "results.csv").exists()

    def test_all_runs_failed_warns_without_plot(self, tmp_path, capsys, monkeypatch):
        # the command exited 0 and said nothing about the failed runs
        import irs_secrecy.sweep as sweep_mod

        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(sweep_mod, "optimize", boom)
        cfg = tiny_config_file(tmp_path)
        code = main([
            "case-study", "--config", str(cfg), "--values", "1",
            "--realizations", "1", "--out", str(tmp_path / "case"),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "(0/3 runs ok)" in captured.out
        assert ".svg" not in captured.out
        assert "warning: 3 runs failed" in captured.err
        assert "error:" not in captured.err
        assert (tmp_path / "case" / "results.csv").exists()
        assert not list((tmp_path / "case").glob("*.svg"))


class TestPlotCommand:
    def test_plot_from_summary(self, tmp_path):
        cfg = tiny_config_file(tmp_path)
        assert main([
            "sweep", "--config", str(cfg), "--values", "10,20",
            "--schemes", "baseline1", "--realizations", "1",
            "--out", str(tmp_path / "out"),
        ]) == 0
        code = main([
            "plot", str(tmp_path / "out" / "summary.csv"),
            "--out", str(tmp_path / "replot.svg"),
        ])
        assert code == 0
        assert (tmp_path / "replot.svg").exists()

    def test_plot_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("zzz\n", encoding="utf-8")
        code = main(["plot", str(bad)])
        assert code != 0
        assert "error:" in capsys.readouterr().err
