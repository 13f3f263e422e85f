import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coxscreen
from coxscreen.benchmark import ALL_METHODS
from coxscreen.cli import main
from coxscreen.data import write_csv, write_rows
from coxscreen.screening import STATISTICS

from conftest import random_dataset


@pytest.fixture
def toy_csv(rng, tmp_path):
    ds = random_dataset(rng, 60, 5, beta=np.array([1.0, -0.8, 0, 0, 0]), censor_upper=3.0)
    path = tmp_path / "toy.csv"
    write_csv(ds, path)
    return str(path)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("command", ["screen", "diagnose"])
def test_workers_flag_rejected(toy_csv, tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", toy_csv, "--workers", "2", "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["toy.csv"]


@pytest.mark.parametrize(
    "command, extra",
    [("simulate", ["--out", "sim.csv"]), ("benchmark", ["--replicates", "1", "--out", "bench.csv"]),
     ("calibrate", [])],
    ids=["simulate", "benchmark", "calibrate"],
)
def test_example_and_config_together_rejected(tmp_path, monkeypatch, capsys, command, extra):
    from coxscreen import simulate

    def no_calibration(*args, **kwargs):
        raise AssertionError("calibration ran")

    monkeypatch.setattr(simulate, "calibrate_censoring", no_calibration)
    cfg = tmp_path / "ex2.kv"
    simulate.config_to_kv(simulate.example_config(2, n=20, p=4, censor_target=0.2, seed=3), cfg)
    monkeypatch.chdir(tmp_path)
    code = main([command, "--example", "1", "--config", str(cfg), *extra])
    assert code == 1
    assert capsys.readouterr().err == (
        "error category=config: choose exactly one of --example and --config\n"
    )
    assert os.listdir(tmp_path) == ["ex2.kv"]


@pytest.mark.parametrize(
    "lines, message",
    [("n=abc\np=3\n", "bad.kv:1: n: expected int, got 'abc'"),
     ("n=10\np=3\nbeta.x=1\n", "bad.kv:3: beta.x: expected int, got 'x'"),
     ("n=10\np=3\nbeta.1=abc\n", "bad.kv:3: beta.1: expected float, got 'abc'")],
    ids=["n", "beta-index", "beta-value"],
)
def test_unparsable_config_value_reported(tmp_path, monkeypatch, capsys, lines, message):
    (tmp_path / "bad.kv").write_text(lines)
    monkeypatch.chdir(tmp_path)
    assert main(["calibrate", "--config", "bad.kv"]) == 1
    assert capsys.readouterr().err == f"error category=validation: {message}\n"


def test_unknown_config_key_reported(tmp_path, monkeypatch, capsys):
    (tmp_path / "typo.kv").write_text("n=30\np=8\nbeta.1=1.0\ncensoring=0.5\n")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", "typo.kv", "--out", "sim.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=validation: typo.kv:4: censoring: unknown key; known keys are ")
    assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["typo.kv"]


BENCH = ["benchmark", "--example", "1", "--n", "30", "--p", "8", "--out", "bench.csv"]


@pytest.mark.parametrize(
    "argv, line",
    [
        (["screen", "--input", "toy.csv", "--stats", "bogus", "--out", "res.csv"],
         f"config: unknown statistic 'bogus'; choose from {STATISTICS}"),
        (["screen", "--input", "toy.csv", "--stats", "", "--out", "res.csv"],
         "config: --stats list is empty"),
        ([*BENCH, "--methods", "bogus"], f"validation: unknown method 'bogus'; choose from {ALL_METHODS}"),
        ([*BENCH, "--replicates", "0"], "validation: need at least 1 replicate"),
    ],
    ids=["stats-bogus", "stats-empty", "methods-bogus", "replicates-zero"],
)
def test_bad_flag_value_reported(toy_csv, tmp_path, monkeypatch, capsys, argv, line):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error category={line}\n"
    assert os.listdir(tmp_path) == ["toy.csv"]


class TestScreenCommand:
    def test_conditional_screen_writes_records_and_selection(self, toy_csv, tmp_path, capsys):
        out = str(tmp_path / "res.csv")
        code = main(
            ["screen", "--input", toy_csv, "--conditioning", "1", "--stats",
             "mple,wald,plik", "--out", out]
        )
        assert code == 0
        rows = _read_rows(out)
        assert rows[0] == ["index", "name", "beta_hat", "sigma_hat", "wald", "plik", "fit_status"]
        assert len(rows) == 5  # header + 4 candidates
        sel = _read_rows(str(tmp_path / "res_selected.csv"))
        assert sel[0] == ["index", "name"]
        # default top-k = floor(60/log 60) = 14, capped at the 4 candidates
        assert len(sel) == 5
        err = capsys.readouterr().err
        assert "null fit" in err and "records=4" in err

    def test_top_k_selection_size(self, toy_csv, tmp_path):
        out = str(tmp_path / "res.csv")
        assert main(["screen", "--input", toy_csv, "--top-k", "2", "--out", out]) == 0
        assert len(_read_rows(str(tmp_path / "res_selected.csv"))) == 3

    def test_constant_conditioning_column_is_fit_error(self, rng, tmp_path, capsys):
        ds = random_dataset(rng, 40, 4, censor_upper=3.0)
        z = ds.covariates.copy()
        z[:, 2] = 3.7
        path = tmp_path / "constant.csv"
        write_csv(type(ds)(ds.time, ds.status, z), path)
        out = tmp_path / "res.csv"
        code = main(["screen", "--input", str(path), "--conditioning", "1,3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error category=fit: conditioning column 3 is constant\n"
        assert not out.exists()

    @pytest.mark.parametrize("conditioning", ["none", "1"])
    def test_overflowing_second_moment_names_its_event_time(self, rng, tmp_path, capsys, conditioning):
        ds = random_dataset(rng, 30, 3, censor_upper=3.0)
        z = ds.covariates.copy()
        z[:, 2] *= 1e160  # its squares overflow, its values do not
        path = tmp_path / "huge.csv"
        write_csv(type(ds)(ds.time, ds.status, z), path)
        out = tmp_path / "res.csv"
        assert main(["screen", "--input", str(path), "--conditioning", conditioning, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        head = "error category=validation: non-finite score/information contribution at event time "
        assert err.startswith(head) and err.endswith("\n")
        t = float(err[len(head) : -1])
        assert np.isfinite(t) and t in ds.time[ds.status == 1]
        assert not out.exists()

    @pytest.mark.parametrize("conditioning", ["none", "1"])
    def test_overflow_leaves_one_stderr_line(self, tmp_path, conditioning):
        # a fresh process with Python's default warning filters, which print each numpy RuntimeWarning
        rows = [[i + 1, int(i % 4 != 0), (7 * i) % 11 - 5, (5 * i) % 13 - 6, (i % 7 - 3) * 1e160]
                for i in range(30)]
        write_rows(tmp_path / "overflow.csv", ["time", "status", "z1", "z2", "z3"], rows)
        env = dict(os.environ)
        env.pop("PYTHONWARNINGS", None)
        src = str(Path(coxscreen.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["screen", "--input", "overflow.csv", "--conditioning", conditioning, "--out", "res.csv"]
        proc = subprocess.run([sys.executable, "-m", "coxscreen.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == (
            "error category=validation: non-finite score/information contribution at event time 2.0\n"
        )

    def test_gamma_and_top_k_exclusive(self, toy_csv, tmp_path, capsys):
        out = str(tmp_path / "res.csv")
        code = main(
            ["screen", "--input", toy_csv, "--gamma", "0.1", "--top-k", "2", "--out", out]
        )
        assert code == 1
        assert "error category=config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [("--top-k", "0"), ("--top-k", "-2"), ("--gamma", "nan"), ("--gamma", "0")]
    )
    def test_bad_selection_rejected_before_screening(self, toy_csv, tmp_path, capsys, flag):
        out = tmp_path / "res.csv"
        assert main(["screen", "--input", toy_csv, *flag, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error category=config: ")
        assert not out.exists() and not (tmp_path / "res_selected.csv").exists()

    @pytest.mark.parametrize("selection", [(), ("--top-k", "2"), ("--gamma", "0.1")])
    def test_no_candidates_warns_and_selects_nothing(self, rng, tmp_path, capsys, selection):
        path = tmp_path / "three.csv"
        write_csv(random_dataset(rng, 40, 3, censor_upper=3.0), path)
        out = str(tmp_path / "res.csv")
        code = main(["screen", "--input", str(path), "--conditioning", "1,2,3", *selection,
                     "--out", out])
        assert code == 0
        assert "warning: conditioning set covers all covariates" in capsys.readouterr().err
        assert _read_rows(out) == [["index", "name", "beta_hat", "sigma_hat", "wald", "plik",
                                    "fit_status"]]
        assert _read_rows(str(tmp_path / "res_selected.csv")) == [["index", "name"]]

    def test_auto_conditioning_reported(self, toy_csv, tmp_path, capsys):
        out = str(tmp_path / "res.csv")
        code = main(["screen", "--input", toy_csv, "--conditioning", "auto", "--out", out])
        assert code == 0
        assert "conditioning=auto selected C=" in capsys.readouterr().err

    def test_json_output(self, toy_csv, tmp_path):
        import json

        out = str(tmp_path / "res.json")
        code = main(
            ["screen", "--input", toy_csv, "--conditioning", "1", "--format", "json",
             "--out", out]
        )
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["conditioning"] == [1]

    def test_missing_input_io_error(self, tmp_path, capsys):
        code = main(["screen", "--input", str(tmp_path / "nope.csv"), "--out", "x.csv"])
        assert code == 1
        assert "error category=io" in capsys.readouterr().err

    def test_bad_csv_reports_io_category(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,status,z1\n1.0,1,2.0\nabc,1,1.0\n")
        code = main(["screen", "--input", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "error category=io" in capsys.readouterr().err

    def test_same_time_and_status_column_reports_io_category(self, toy_csv, tmp_path, capsys):
        code = main(["screen", "--input", toy_csv, "--time-col", "time", "--status-col", "time",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error category=io: " in err and "column 'time' is both time and status" in err

    def test_undecodable_csv_reports_one_io_line(self, toy_csv, tmp_path, capsys):
        content = open(toy_csv, "rb").read()
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content[:-10] + b"\xff" + content[-9:])
        code = main(["screen", "--input", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error category=io: {bad}: ")

    def test_oversized_quoted_cell_reports_one_io_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text('time,status,z1\n1.0,1,0.5\n2.0,0,"' + "1" * 200_000 + '"\n')
        code = main(["screen", "--input", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error category=io: ")

    def test_rerun_byte_identical(self, toy_csv, tmp_path):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        for out in (out_a, out_b):
            assert main(["screen", "--input", toy_csv, "--conditioning", "1",
                         "--stats", "mple,wald,plik", "--out", out]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()


class TestSimulateCommand:
    def test_single_replicate_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "sim.csv")
        code = main(
            ["simulate", "--example", "2", "--n", "40", "--p", "6", "--censoring", "0.2",
             "--seed", "5", "--out", out]
        )
        assert code == 0
        rows = _read_rows(out)
        assert rows[0][:2] == ["time", "status"]
        assert len(rows) == 41
        assert "replicate 0" in capsys.readouterr().err

    def test_multiple_replicates_named_files(self, tmp_path):
        out = str(tmp_path / "sim.csv")
        code = main(
            ["simulate", "--example", "2", "--n", "20", "--p", "4", "--censoring", "0",
             "--seed", "5", "--replicates", "3", "--out", out]
        )
        assert code == 0
        for rid in range(3):
            assert os.path.exists(str(tmp_path / f"sim_r{rid}.csv"))
        assert not os.path.exists(out)

    def test_replicates_share_one_calibration(self, tmp_path, monkeypatch):
        from coxscreen import simulate

        config = simulate.example_config(3, n=30, p=5, censor_target=0.3, seed=4)
        expected = []
        for rid in range(3):
            path = tmp_path / f"expected_r{rid}.csv"
            write_csv(simulate.gen_replicate(config, rid).dataset, path)
            expected.append(path.read_bytes())
        calls = []
        calibrate = simulate.calibrate_censoring

        def counting_calibrate(*args, **kwargs):
            calls.append(args)
            return calibrate(*args, **kwargs)

        monkeypatch.setattr(simulate, "calibrate_censoring", counting_calibrate)
        out = str(tmp_path / "sim.csv")
        assert main(["simulate", "--example", "3", "--n", "30", "--p", "5", "--censoring", "0.3",
                     "--seed", "4", "--replicates", "3", "--out", out]) == 0
        assert len(calls) == 1
        assert [(tmp_path / f"sim_r{rid}.csv").read_bytes() for rid in range(3)] == expected

    @pytest.mark.parametrize("replicates", ["0", "-2"])
    def test_replicates_below_one_rejected_before_calibration(
        self, tmp_path, monkeypatch, capsys, replicates
    ):
        from coxscreen import simulate

        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran")

        monkeypatch.setattr(simulate, "calibrate_censoring", no_calibration)
        code = main(["simulate", "--example", "1", "--n", "20", "--p", "4",
                     "--replicates", replicates, "--out", str(tmp_path / "sim.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error category=config: --replicates must be at least 1, got {replicates}\n"
        )
        assert not os.listdir(tmp_path)

    def test_seed_changes_output(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = str(tmp_path / f"s{seed}.csv")
            main(["simulate", "--example", "2", "--n", "20", "--p", "4", "--censoring", "0",
                  "--seed", seed, "--out", out])
            outs.append(open(out).read())
        assert outs[0] != outs[1]

    def test_config_file_with_override(self, tmp_path):
        from coxscreen.simulate import config_to_kv, example_config

        cfg = tmp_path / "sim.cfg"
        config_to_kv(example_config(2, n=20, p=4, censor_target=0.0, seed=3), cfg)
        out = str(tmp_path / "cfg.csv")
        code = main(["simulate", "--config", str(cfg), "--n", "25", "--out", out])
        assert code == 0
        assert len(_read_rows(out)) == 26

    def test_missing_example_and_config(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "error category=config" in capsys.readouterr().err


class TestBenchmarkCommand:
    def test_small_benchmark_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        code = main(
            ["benchmark", "--example", "2", "--n", "60", "--p", "8", "--censoring", "0.2",
             "--seed", "2", "--replicates", "4", "--methods", "cs-mple,psis-wald",
             "--conditioning", "1", "--out", out]
        )
        assert code == 0
        summary = _read_rows(str(tmp_path / "bench_summary.csv"))
        assert summary[0][:2] == ["method", "config_id"]
        assert {r[0] for r in summary[1:]} == {"cs-mple", "psis-wald"}
        assert summary[1][1] == "example2"
        scores = _read_rows(str(tmp_path / "bench_scores.csv"))
        assert len(scores) == 1 + 2 * 4
        assert "median MMS" in capsys.readouterr().err

    def test_rerun_and_workers_byte_identical(self, tmp_path):
        files = {}
        for tag, workers in (("a", "1"), ("b", "2")):
            out = str(tmp_path / f"{tag}.csv")
            code = main(
                ["benchmark", "--example", "2", "--n", "50", "--p", "6", "--censoring", "0.2",
                 "--seed", "4", "--replicates", "3", "--methods", "cs-wald",
                 "--conditioning", "1", "--workers", workers, "--out", out]
            )
            assert code == 0
            files[tag] = (
                open(str(tmp_path / f"{tag}_summary.csv"), "rb").read(),
                open(str(tmp_path / f"{tag}_scores.csv"), "rb").read(),
            )
        # config_id differs only via --out basename, which is not embedded
        assert files["a"] == files["b"]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected_before_calibration(
        self, tmp_path, monkeypatch, capsys, workers
    ):
        from coxscreen import simulate

        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran")

        monkeypatch.setattr(simulate, "calibrate_censoring", no_calibration)
        code = main(["benchmark", "--example", "1", "--n", "30", "--p", "8", "--replicates", "1",
                     "--methods", "cs-wald", "--workers", workers,
                     "--out", str(tmp_path / "bench.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error category=config: --workers must be at least 1, got {workers}\n"
        )
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("methods", [",", "cors,cs-wald,cors"], ids=["empty", "repeated"])
    def test_empty_or_repeated_methods_rejected_before_calibration(
        self, tmp_path, monkeypatch, capsys, methods
    ):
        from coxscreen import simulate

        def no_calibration(*args, **kwargs):
            raise AssertionError("calibration ran")

        monkeypatch.setattr(simulate, "calibrate_censoring", no_calibration)
        code = main(["benchmark", "--example", "1", "--n", "30", "--p", "8", "--replicates", "1",
                     "--methods", methods, "--out", str(tmp_path / "bench.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=validation: methods must be a non-empty list of distinct")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_none_conditioning_scores_match_psis(self, tmp_path):
        out = str(tmp_path / "none.csv")
        code = main(
            ["benchmark", "--example", "2", "--n", "60", "--p", "8", "--censoring", "0.2",
             "--seed", "2", "--replicates", "3", "--conditioning", "none",
             "--methods", "cs-wald,cs-plik,psis-wald,psis-plik", "--out", out]
        )
        assert code == 0
        header, *rows = _read_rows(str(tmp_path / "none_scores.csv"))
        method = header.index("method")
        by = {(r[method], tuple(r[:method] + r[method + 1:])) for r in rows}
        for stat in ("wald", "plik"):
            cs = {rest for m, rest in by if m == f"cs-{stat}"}
            assert cs and cs == {rest for m, rest in by if m == f"psis-{stat}"}


class TestCalibrateCommand:
    def test_prints_bound_and_achieved(self, capsys):
        code = main(["calibrate", "--example", "2", "--n", "50", "--p", "4", "--seed", "3",
                     "--target", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("c=") and "achieved=" in out and "target=0.2" in out

    def test_invalid_target_config_category(self, capsys):
        code = main(["calibrate", "--example", "2", "--n", "50", "--p", "4",
                     "--target", "1.5"])
        assert code == 1
        assert "error category=config" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        runs = []
        for _ in range(2):
            main(["calibrate", "--example", "1", "--n", "40", "--p", "4", "--seed", "8",
                  "--target", "0.3"])
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]


class TestDiagnoseCommand:
    def test_writes_signal_strengths(self, toy_csv, tmp_path):
        out = str(tmp_path / "diag.csv")
        code = main(["diagnose", "--input", toy_csv, "--conditioning", "1", "--out", out])
        assert code == 0
        rows = _read_rows(out)
        assert rows[0] == ["index", "name", "signal_strength"]
        assert [r[0] for r in rows[1:]] == ["2", "3", "4", "5"]

    def test_conditioning_covers_everything_warns(self, rng, tmp_path, capsys):
        ds = random_dataset(rng, 30, 1, censor_upper=2.0)
        path = tmp_path / "one.csv"
        write_csv(ds, path)
        out = str(tmp_path / "diag.csv")
        code = main(["diagnose", "--input", str(path), "--conditioning", "1", "--out", out])
        assert code == 0
        assert "nothing to diagnose" in capsys.readouterr().err
        assert len(_read_rows(out)) == 1  # header only

    def test_auto_conditioning_reported(self, toy_csv, tmp_path, capsys):
        from coxscreen.data import read_csv
        from coxscreen.screening import default_conditioning

        (j,) = default_conditioning(read_csv(toy_csv)).indices
        out = str(tmp_path / "diag.csv")
        assert main(["diagnose", "--input", toy_csv, "--conditioning", "auto", "--out", out]) == 0
        assert capsys.readouterr().err == f"conditioning=auto selected C=[{j}]\n"
        assert [r[0] for r in _read_rows(out)[1:]] == [str(k) for k in range(1, 6) if k != j]

    def test_bad_conditioning_spec(self, toy_csv, tmp_path, capsys):
        code = main(["diagnose", "--input", toy_csv, "--conditioning", "1;2",
                     "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert "error category=config" in capsys.readouterr().err
