import hashlib
import json
from dataclasses import dataclass

import pytest

from irs_secrecy.config import ScenarioConfig
from irs_secrecy.sweep import (
    CASE_STUDY_CONFIGS,
    RESULTS_COLUMNS,
    SUMMARY_COLUMNS,
    ResultRow,
    SweepSpec,
    _write_outputs,
    run_case_study,
    run_sweep,
)

TINY = ScenarioConfig(num_users=2, num_bs_antennas=2, num_irs_elements=2, rng_seed=5)


def tiny_spec(out_dir, **kw):
    defaults = dict(
        variable="p_max_dbm",
        values=(10.0, 20.0),
        schemes=("proposed", "baseline1"),
        num_realizations=2,
        base_config=TINY,
        out_dir=str(out_dir),
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


def file_sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSweepSpec:
    def test_values_must_increase(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, values=(20.0, 10.0))
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, values=())

    def test_schemes_validated(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, schemes=("nonsense",))

    def test_realizations_positive(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, num_realizations=0)

    # 4000 dBm overflows dbm_to_watts (10 ** 400), and -4000 dBm underflows to 0 W
    @pytest.mark.parametrize(
        "values", [(float("nan"),), (10.0, float("inf")), (10.0, 4000.0), (-4000.0,)]
    )
    def test_powers_must_be_finite(self, tmp_path, values):
        with pytest.raises(ValueError, match="finite"):
            tiny_spec(tmp_path, values=values)

    def test_user_counts_must_be_integers(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_spec(tmp_path, variable="num_users", values=(1.5, 2.0))

    def test_user_counts_reject_bools(self, tmp_path):
        # True passed as one user and failed only when the plot read the CSV
        with pytest.raises(ValueError, match="num_users values must be positive integers"):
            tiny_spec(tmp_path, variable="num_users", values=(True, 2))
        with pytest.raises(ValueError, match="k_values must be positive integers"):
            run_case_study(TINY, str(tmp_path / "case"), num_realizations=1, k_values=(True, 2))
        assert not (tmp_path / "case").exists()


class TestRunSweep:
    def test_counting_contract(self, tmp_path):
        spec = tiny_spec(tmp_path, values=(10.0,), schemes=("proposed",),
                         num_realizations=1)
        result = run_sweep(spec)
        assert len(result.rows) == 1
        assert len(result.summary_rows) == 1
        lines = result.results_path.read_text().splitlines()
        assert len(lines) == 2  # header + one data row
        assert lines[0] == ",".join(RESULTS_COLUMNS)
        assert result.plot_path == tmp_path / "summary.svg"
        assert result.plot_path.stat().st_size > 0

    def test_rerun_byte_identical(self, tmp_path):
        spec_a = tiny_spec(tmp_path / "a")
        spec_b = tiny_spec(tmp_path / "b")
        ra = run_sweep(spec_a)
        rb = run_sweep(spec_b)
        assert file_sha(ra.results_path) == file_sha(rb.results_path)
        assert file_sha(ra.summary_path) == file_sha(rb.summary_path)

    def test_paired_channels_across_schemes(self, tmp_path):
        spec = tiny_spec(tmp_path, schemes=("proposed", "baseline1", "baseline2"))
        result = run_sweep(spec)
        by_key = {}
        for row in result.rows:
            by_key.setdefault((row.sweep_value, row.realization), set()).add(
                row.channel_hash
            )
        for hashes in by_key.values():
            assert len(hashes) == 1  # every scheme saw the identical channels

    def test_statuses_ok_and_values_clipped(self, tmp_path):
        result = run_sweep(tiny_spec(tmp_path))
        for row in result.rows:
            assert row.status == "ok"
            assert row.sum_secrecy >= 0.0
            assert all(v >= 0.0 for v in row.per_user_secrecy)

    def test_audit_log_written(self, tmp_path):
        spec = tiny_spec(tmp_path, write_audit=True, values=(10.0,),
                         schemes=("proposed",), num_realizations=1)
        result = run_sweep(spec)
        lines = result.audit_path.read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["scheme"] == "proposed"
        assert entry["history"][0]["phase"] == "init"
        assert "sum_secrecy" in entry["breakdown"]

    def test_num_users_sweep(self, tmp_path):
        spec = tiny_spec(tmp_path, variable="num_users", values=(1, 2),
                         schemes=("baseline1",), num_realizations=1)
        result = run_sweep(spec)
        assert [row.sweep_value for row in result.rows] == [1, 2]
        assert all(row.status == "ok" for row in result.rows)

    def test_failures_recorded_not_raised(self, tmp_path, monkeypatch):
        import irs_secrecy.sweep as sweep_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(
            sweep_mod.__dict__, "baseline_random_phase", boom
        )
        spec = tiny_spec(tmp_path, schemes=("baseline1",), values=(10.0,),
                         num_realizations=1, write_audit=True)
        result = run_sweep(spec)
        assert result.rows[0].status == "error:RuntimeError"
        assert result.rows[0].sum_secrecy is None
        text = result.results_path.read_text()
        assert "error:RuntimeError" in text
        assert result.plot_path is None  # nothing to plot
        assert not (tmp_path / "summary.svg").exists()
        entries = [json.loads(line) for line in result.audit_path.read_text().splitlines()]
        assert len(entries) == 1
        assert entries[0]["error"] == "RuntimeError: synthetic failure"
        assert entries[0]["scheme"] == "baseline1"
        assert "history" not in entries[0]

    # starts 0..2 (all-ones, then aligned to user 0 and 1) report these
    # (sum_secrecy, final f); the row's outer_iterations names the kept start
    @pytest.mark.parametrize(
        "scores,kept",
        [
            ([(1.0, -1.0)] * 3, 0),                      # all equal: the first
            ([(1.0, -1.0), (1.0, -2.0), (1.0, -2.0)], 1),  # tie on secrecy: lower f
            ([(1.0, -1.0), (1.0, -1.0), (2.0, 5.0)], 2),   # higher secrecy wins
        ],
    )
    def test_portfolio_keeps_first_of_equal_starts(self, tmp_path, monkeypatch, scores, kept):
        import irs_secrecy.sweep as sweep_mod

        @dataclass
        class Record:
            iteration: int

        @dataclass
        class Breakdown:
            sum_secrecy: float
            secrecy: list

        class History:
            def __init__(self, start):
                self.records = [Record(start)]

            def f_trace(self):
                return [scores[self.records[0].iteration][1]]

        calls = []

        def fake_optimize(ch, cfg, u_init):
            calls.append(u_init)
            return len(calls) - 1, History(len(calls) - 1)

        def fake_rates(sol, ch):
            return Breakdown(scores[sol][0], [scores[sol][0]])

        monkeypatch.setitem(sweep_mod.__dict__, "optimize", fake_optimize)
        monkeypatch.setitem(sweep_mod.__dict__, "secrecy_rates", fake_rates)
        spec = tiny_spec(tmp_path, values=(10.0,), schemes=("proposed",), num_realizations=1)
        result = run_sweep(spec)
        assert len(calls) == 3  # all-ones plus one aligned start per user
        assert result.rows[0].status == "ok"
        assert result.rows[0].outer_iterations == kept
        assert result.rows[0].sum_secrecy == scores[kept][0]


def hand_rows(sweep_value):
    ok = ResultRow(
        sweep_variable="num_users", sweep_value=sweep_value, scheme="proposed",
        realization=3, seed=2 ** 64 - 1, channel_hash="c0ffee", status="ok",
        sum_secrecy=1.2345678901234567, per_user_secrecy=[0.5, 2.0 / 3.0, 0.0],
        outer_iterations=7, wall_time_ms=12.5,
    )
    err = ResultRow(
        sweep_variable="num_users", sweep_value=sweep_value, scheme="baseline1",
        realization=3, seed=17, channel_hash="c0ffee", status="error:RuntimeError",
        sum_secrecy=None, per_user_secrecy=None, outer_iterations=None,
        wall_time_ms=0.25,
    )
    summary = [
        {"sweep_variable": "num_users", "sweep_value": sweep_value,
         "scheme": "proposed", "num_realizations": 1,
         "mean_sum_secrecy": 1.2345678901234567, "std_sum_secrecy": 0.0},
        {"sweep_variable": "num_users", "sweep_value": sweep_value,
         "scheme": "baseline1", "num_realizations": 0,
         "mean_sum_secrecy": None, "std_sum_secrecy": None},
    ]
    return [ok, err], summary


class TestCsvLines:
    def test_ok_and_error_rows(self, tmp_path):
        rows, summary = hand_rows(2.0)
        result = _write_outputs(tmp_path, rows, summary)
        assert result.results_path.read_text().splitlines()[1:] == [
            "num_users,2,proposed,3,18446744073709551615,c0ffee,ok,"
            "1.23456789012,0.5;0.666666666667;0,7",
            "num_users,2,baseline1,3,17,c0ffee,error:RuntimeError,,,",
        ]
        assert result.timing_path.read_text().splitlines() == [
            "sweep_variable,sweep_value,scheme,realization,wall_time_ms",
            "num_users,2,proposed,3,12.5",
            "num_users,2,baseline1,3,0.25",
        ]
        assert result.summary_path.read_text().splitlines()[1:] == [
            "num_users,2,proposed,1,1.23456789012,0",
            "num_users,2,baseline1,0,,",
        ]

    def test_integer_sweep_value_renders_like_float(self, tmp_path):
        # num_users sweeps carry int values, power sweeps floats
        (tmp_path / "f").mkdir()
        (tmp_path / "i").mkdir()
        as_float = _write_outputs(tmp_path / "f", *hand_rows(2.0))
        as_int = _write_outputs(tmp_path / "i", *hand_rows(2))
        for name in ("results_path", "summary_path", "timing_path"):
            assert getattr(as_int, name).read_bytes() == getattr(as_float, name).read_bytes()


class TestCaseStudy:
    def test_small_case_study(self, tmp_path):
        result = run_case_study(
            TINY, str(tmp_path / "case"), num_realizations=2, k_values=(1, 2)
        )
        schemes = {row.scheme for row in result.rows}
        assert schemes == {"nt6_m6", "nt10_m6", "nt6_m10"}
        assert len(result.rows) == 3 * 2 * 2
        lines = result.summary_path.read_text().splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        assert result.plot_path == tmp_path / "case" / "case_study.svg"
        assert result.plot_path.exists()

    def test_failures_recorded_not_raised(self, tmp_path, monkeypatch):
        import irs_secrecy.sweep as sweep_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(sweep_mod.__dict__, "optimize", boom)
        result = run_case_study(
            TINY, str(tmp_path / "case"), num_realizations=1, k_values=(1, 2)
        )
        assert len(result.rows) == 3 * 2
        assert all(row.status == "error:RuntimeError" for row in result.rows)
        assert all(row.sum_secrecy is None for row in result.rows)
        summary = result.summary_path.read_text().splitlines()[1:]
        assert len(summary) == 3 * 2
        assert all(line.split(",")[3] == "0" for line in summary)
        assert result.plot_path is None  # nothing to plot
        assert not list((tmp_path / "case").glob("*.svg"))

    def test_rows_ordered_by_user_count_geometry_realization(self, tmp_path, monkeypatch):
        import irs_secrecy.sweep as sweep_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(sweep_mod.__dict__, "optimize", boom)
        result = run_case_study(
            TINY, str(tmp_path / "case"), num_realizations=2, k_values=(1, 3)
        )
        assert [(r.sweep_value, r.scheme, r.realization) for r in result.rows] == [
            (k, label, ri)
            for k in (1, 3)
            for label, _, _ in CASE_STUDY_CONFIGS
            for ri in range(2)
        ]

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(k_values=(1, 1)), "k_values must be strictly increasing"),
            (dict(k_values=(2, 1)), "k_values must be strictly increasing"),
            (dict(num_realizations=0), "num_realizations must be >= 1"),
        ],
    )
    def test_invalid_axis_rejected(self, tmp_path, kwargs, message):
        kwargs = {"num_realizations": 1, "k_values": (1,), **kwargs}
        with pytest.raises(ValueError, match=message):
            run_case_study(TINY, str(tmp_path / "case"), **kwargs)
        assert not (tmp_path / "case").exists()

    def test_eavesdropper_distance_from_config(self, tmp_path):
        # the study fixed r_re at 250 m, so a config's r_re drew the same channels
        runs = [
            run_case_study(cfg, str(tmp_path / name), num_realizations=1, k_values=(1,))
            for name, cfg in (("default", ScenarioConfig()), ("far", ScenarioConfig(r_re=350.0)))
        ]
        default, far = ([row.channel_hash for row in r.rows] for r in runs)
        assert len(default) == len(far) == 3
        assert all(a != b for a, b in zip(default, far))

    def test_channels_nested_across_user_counts(self, tmp_path):
        # same realization at different K shares the underlying draw, so the
        # seed column matches across K within a configuration
        result = run_case_study(
            TINY, str(tmp_path / "case2"), num_realizations=2, k_values=(1, 2)
        )
        seeds = {}
        for row in result.rows:
            seeds.setdefault((row.scheme, row.realization), set()).add(row.seed)
        for found in seeds.values():
            assert len(found) == 1
