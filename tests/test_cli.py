import json
import logging
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from searesponse import cli, distfit, gp, simulator
from searesponse.distfit import DistFamily, load_training_table, write_training_table
from searesponse.errors import DomainError, NumericError
from searesponse.gp import predict_batch
from searesponse.orderstats import usable_cpus
from searesponse.simulator import write_sim_config
from searesponse.surrogate import load_surrogate
from searesponse.weather import (
    Weather,
    load_weather,
    sample_uniform_inputs,
    synthesize_weather,
    write_weather,
)


@pytest.fixture(scope="module")
def fast_config_path(tmp_path_factory, fast_sim_config):
    path = tmp_path_factory.mktemp("cfg") / "sim.json"
    write_sim_config(path, fast_sim_config)
    return str(path)


@pytest.fixture(scope="module")
def weather_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("weather") / "weather.csv"
    write_weather(path, synthesize_weather(6, seed=5))
    return str(path)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory, small_table):
    path = tmp_path_factory.mktemp("table") / "training_table.csv"
    write_training_table(path, small_table)
    return str(path)


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory, table_path):
    out = tmp_path_factory.mktemp("bundle") / "rayleigh"
    code = cli.main(["train", "--table", table_path, "--family", "rayleigh",
                     "--restarts", "2", "--seed", "5", "--out", str(out)])
    assert code == 0
    return str(out)


@pytest.fixture(scope="module")
def qoi_run(tmp_path_factory, fast_config_path, weather_csv):
    """A simulator qoi output directory (k=2, M=2)."""
    out = tmp_path_factory.mktemp("qoi") / "run"
    assert cli.main(["qoi", "--source", "simulator", "--weather", weather_csv, "--k", "2",
                     "--m", "2", "--seed", "7", "--sim-config", fast_config_path,
                     "--out", str(out)]) == 0
    return str(out)


def _read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def test_cli_import_loads_no_heavy_scipy_subpackage():
    # Every stage invocation pays for importing searesponse.cli in a fresh
    # interpreter; the optimizer is imported only when `train` fits.
    heavy = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.interpolate")
    code = f"import sys, searesponse.cli; print(*(m for m in {heavy!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True, timeout=120)
    assert result.stdout.split() == []


# The GP layer's scipy subpackages: only train, eval and a surrogate qoi
# load them.
GP_LAYER_SCIPY = ("scipy.linalg", "scipy.special", "scipy.spatial", "scipy.sparse")


def _gp_layer_loaded_by(code: str) -> list[str]:
    """The GP_LAYER_SCIPY modules loaded once code has run in a fresh interpreter."""
    code += f"\nimport sys; print(*(m for m in {GP_LAYER_SCIPY!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True, timeout=120)
    return result.stdout.splitlines()[-1].split()


def _run_commands(*argvs: list[str]) -> str:
    """Code that runs each argv through cli.main and checks it succeeds."""
    return (f"from searesponse import cli\n"
            f"for argv in {[list(map(str, a)) for a in argvs]!r}:\n"
            f"    assert cli.main(argv) == 0, argv")


@pytest.mark.parametrize("module", ["searesponse", "searesponse.cli"])
def test_import_loads_no_gp_layer(module):
    assert _gp_layer_loaded_by(f"import {module}") == []


def test_commands_without_a_surrogate_load_no_gp_layer(tmp_path, fast_config_path):
    weather = tmp_path / "weather" / "weather.csv"
    qoi = ["qoi", "--source", "simulator", "--weather", weather, "--k", "2", "--m", "2",
           "--sim-config", fast_config_path]
    code = _run_commands(
        ["weather", "synth", "--hours", "4", "--seed", "7", "--out", weather.parent],
        ["trainset", "--n", "4", "--m", "2", "--seed", "3", "--sim-config", fast_config_path,
         "--out", tmp_path / "table"],
        [*qoi, "--seed", "11", "--out", tmp_path / "a"],
        [*qoi, "--seed", "12", "--out", tmp_path / "b"],
        ["compare", tmp_path / "a", tmp_path / "b", "--out", tmp_path / "cmp"],
    )
    assert _gp_layer_loaded_by(code) == []
    assert (tmp_path / "cmp" / "report.json").is_file()


def test_train_loads_the_gp_layer(tmp_path, table_path):
    code = _run_commands(["train", "--table", table_path, "--family", "rayleigh",
                          "--restarts", "1", "--seed", "5", "--out", tmp_path / "b"])
    assert "scipy.linalg" in _gp_layer_loaded_by(code)


def test_unknown_log_level_is_usage_error(tmp_path):
    out = tmp_path / "w"
    env = {**os.environ, "SEARESPONSE_LOGLEVEL": "bogus",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-m", "searesponse.cli", "weather", "synth",
                             "--hours", "2", "--seed", "7", "--out", str(out)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == cli.EXIT_USAGE
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: SEARESPONSE_LOGLEVEL must name a logging level "
        "(DEBUG, INFO, WARNING, ERROR or CRITICAL), got 'bogus'"]
    assert not out.exists()


class TestWeatherCommand:
    def test_synth_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "w"
        code = cli.main(["weather", "synth", "--hours", "48", "--seed", "7", "--out", str(out)])
        assert code == 0
        records = load_weather(out / "weather.csv")
        assert len(records) == 48
        manifest = _read_manifest(out)
        assert manifest["command"] == "weather synth"
        assert manifest["seeds"] == {"seed": 7}
        assert "wall_seconds" in manifest

    def test_manifest_records_library_versions(self, tmp_path):
        out = tmp_path / "w"
        assert cli.main(["weather", "synth", "--hours", "2", "--seed", "7", "--out", str(out)]) == 0
        assert _read_manifest(out)["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "a"
        cli.main(["weather", "synth", "--hours", "32", "--seed", "9", "--out", str(out)])
        first_csv = (out / "weather.csv").read_bytes()
        first_manifest = _read_manifest(out)
        cli.main(["weather", "synth", "--hours", "32", "--seed", "9",
                  "--out", str(out), "--force"])
        assert (out / "weather.csv").read_bytes() == first_csv
        second_manifest = _read_manifest(out)
        for m in (first_manifest, second_manifest):
            m.pop("started_at")
            m.pop("wall_seconds")
            m["config"].pop("force")
        assert first_manifest == second_manifest

    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    def test_seed_at_the_u64_ends_runs(self, tmp_path, seed):
        out = tmp_path / "w"
        assert cli.main(["weather", "synth", "--hours", "2", "--seed", seed,
                         "--out", str(out)]) == 0
        assert _read_manifest(out)["seeds"] == {"seed": int(seed)}

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5"])
    def test_seed_outside_u64_is_usage_error(self, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as err:
            cli.main(["weather", "synth", "--hours", "2", "--seed", seed,
                      "--out", str(tmp_path / "w")])
        assert err.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()

    def test_zero_hours_is_usage_error(self, tmp_path):
        code = cli.main(["weather", "synth", "--hours", "0", "--seed", "1",
                         "--out", str(tmp_path / "w")])
        assert code == 2

    def test_load_validates_and_reemits(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("index,hs,tp,vw\n0,3.2,11.3,1.2\n")
        out = tmp_path / "out"
        assert cli.main(["weather", "load", "--path", str(src), "--out", str(out)]) == 0
        assert len(load_weather(out / "weather.csv")) == 1

    def test_load_bad_file_is_data_error(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("index,hs,tp,vw\n0,-3.2,11.3,1.2\n")
        code = cli.main(["weather", "load", "--path", str(src), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_index_beyond_int64_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("index,hs,tp,vw\n12345678901234567890,3.2,11.3,1.2\n")
        out = tmp_path / "o"
        assert cli.main(["weather", "load", "--path", str(src), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {src}: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["weather", "load", "--path", "IN"],
        ["qoi", "--source", "simulator", "--weather", "IN", "--k", "1", "--m", "1", "--seed", "1"],
        ["qoi", "--source", "surrogate", "--bundle", "BUNDLE", "--weather", "IN",
         "--k", "1", "--m", "1", "--seed", "1"],
    ], ids=["weather-load", "qoi-simulator", "qoi-surrogate"])
    def test_header_only_file_is_data_error(self, tmp_path, capsys, bundle_path, argv):
        src = tmp_path / "in.csv"
        src.write_text("index,hs,tp,vw\n")
        argv = [{"IN": str(src), "BUNDLE": bundle_path}.get(a, a) for a in argv]
        out = tmp_path / "o"
        assert cli.main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == f"data error: {src}: no weather records\n"
        assert not out.exists()

    def test_existing_output_needs_force(self, tmp_path):
        out = tmp_path / "w"
        assert cli.main(["weather", "synth", "--hours", "8", "--seed", "1", "--out", str(out)]) == 0
        assert cli.main(["weather", "synth", "--hours", "8", "--seed", "1", "--out", str(out)]) == 2
        assert cli.main(["weather", "synth", "--hours", "8", "--seed", "1",
                         "--out", str(out), "--force"]) == 0


class TestForce:
    def test_force_keeps_files_it_did_not_write(self, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        (out / "thesis.tex").write_text("chapter 1")
        code = cli.main(["weather", "synth", "--hours", "8", "--seed", "1",
                         "--out", str(out), "--force"])
        assert code == 2
        assert sorted(p.name for p in out.iterdir()) == ["thesis.tex"]

    def test_force_clears_only_the_earlier_runs_outputs(self, tmp_path):
        out = tmp_path / "d"
        argv = ["weather", "synth", "--hours", "8", "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == 0
        (out / "thesis.tex").write_text("chapter 1")
        (out / "weather.csv").write_text("stale")
        (out / "manifest.json").write_text(
            (out / "manifest.json").read_text().replace('"n_records": 8', '"n_records": -1'))
        assert cli.main(argv + ["--force"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "thesis.tex",
                                                         "weather.csv"]
        assert (out / "thesis.tex").read_text() == "chapter 1"
        assert len(load_weather(out / "weather.csv")) == 8
        assert json.loads((out / "manifest.json").read_text())["n_records"] == 8

    def test_bad_arguments_leave_output_untouched(self, tmp_path, fast_config_path, weather_csv):
        out = tmp_path / "d"
        argv = ["qoi", "--source", "simulator", "--weather", weather_csv, "--k", "2",
                "--seed", "1", "--sim-config", fast_config_path, "--out", str(out)]
        assert cli.main(argv + ["--m", "1"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli.main(argv + ["--m", "0", "--force"]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_train_force_keeps_a_users_gp_file(self, tmp_path, table_path):
        out = tmp_path / "bb"
        argv = ["train", "--table", table_path, "--family", "rayleigh", "--restarts", "1",
                "--seed", "5", "--out", str(out)]
        assert cli.main(argv) == 0
        (out / "gp_notes.json").write_text("{}")
        for _ in range(2):
            assert cli.main(argv + ["--force"]) == 0
        assert (out / "gp_notes.json").read_text() == "{}"
        assert sorted(Path(p).name for p in _read_manifest(out)["outputs"]) == [
            "bundle.json", "gp_l_count.json", "gp_sigma.json"]


@pytest.mark.parametrize("argv", [
    "weather synth --hours 6 --seed 1",
    "weather load --path {weather_csv}",
    "trainset --n 5 --m 2 --seed 3 --sim-config {fast_config_path}",
    "train --table {table_path} --family rayleigh --restarts 1 --seed 5",
    "eval --table {table_path} --bundle {bundle_path}",
    "qoi --source simulator --weather {weather_csv} --k 2 --m 2 --seed 7 "
    "--sim-config {fast_config_path}",
    "qoi --source surrogate --weather {weather_csv} --k 2 --m 2 --seed 7 --bundle {bundle_path}",
    "compare {qoi_run} {qoi_run}",
], ids=["weather-synth", "weather-load", "trainset", "train", "eval", "qoi-simulator",
        "qoi-surrogate", "compare"])
def test_manifest_lists_what_force_replaces(tmp_path, argv, weather_csv, fast_config_path,
                                            table_path, bundle_path, qoi_run):
    """Every command's manifest lists exactly the files it wrote, and a
    --force rerun replaces those and keeps a user's file."""
    out = tmp_path / "out"
    argv = argv.format(weather_csv=weather_csv, fast_config_path=fast_config_path,
                       table_path=table_path, bundle_path=bundle_path,
                       qoi_run=qoi_run).split() + ["--out", str(out)]

    def data_files():
        return {p.name: p.read_bytes() for p in out.iterdir()
                if p.name not in ("manifest.json", "gp_notes.json")}

    assert cli.main(argv) == 0
    first = data_files()
    assert sorted(Path(p).name for p in _read_manifest(out)["outputs"]) == sorted(first)
    (out / "gp_notes.json").write_text("{}")
    assert cli.main(argv + ["--force"]) == 0
    assert (out / "gp_notes.json").read_text() == "{}"
    assert data_files() == first
    assert sorted(Path(p).name for p in _read_manifest(out)["outputs"]) == sorted(first)


class TestUnreadableInputs:
    """Input paths that are directories or binary files, and tables that
    hold NaN or infinity, are data errors."""

    def _train(self, tmp_path, table):
        return cli.main(["train", "--table", str(table), "--family", "rayleigh",
                         "--seed", "1", "--out", str(tmp_path / "b")])

    def test_train_table_is_directory(self, tmp_path):
        (tmp_path / "dir").mkdir()
        assert self._train(tmp_path, tmp_path / "dir") == 3

    def test_train_table_is_binary(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(bytes(range(256)))
        assert self._train(tmp_path, path) == 3

    def test_train_table_non_finite(self, tmp_path, table_path, capsys):
        lines = Path(table_path).read_text().splitlines(keepends=True)
        header = lines[0].strip().split(",")
        for line, column, value in ((2, "gumbel_mu", "nan"), (3, "l_mean", "inf")):
            fields = lines[line - 1].rstrip("\n").split(",")
            fields[header.index(column)] = value
            lines[line - 1] = ",".join(fields) + "\n"
        (tmp_path / "table.csv").write_text("".join(lines))
        assert self._train(tmp_path, tmp_path / "table.csv") == 3
        assert "line 2: non-finite value 'nan' in column gumbel_mu" in capsys.readouterr().err

    def test_train_table_half_filled_family(self, tmp_path, table_path, capsys):
        lines = Path(table_path).read_text().splitlines(keepends=True)
        column = lines[0].strip().split(",").index("rayleigh_sigma_std")
        fields = lines[1].rstrip("\n").split(",")
        fields[column] = ""
        lines[1] = ",".join(fields) + "\n"
        (tmp_path / "table.csv").write_text("".join(lines))
        assert self._train(tmp_path, tmp_path / "table.csv") == 3
        assert not (tmp_path / "b").exists()
        assert "line 2: rayleigh columns must be all set or all empty" in capsys.readouterr().err

    def test_weather_load_path_is_directory(self, tmp_path):
        (tmp_path / "dir").mkdir()
        assert cli.main(["weather", "load", "--path", str(tmp_path / "dir"),
                         "--out", str(tmp_path / "w")]) == 3


class TestTrainsetCommand:
    def test_smoke_run_has_positive_scales(self, tmp_path, fast_config_path):
        out = tmp_path / "t"
        code = cli.main(["trainset", "--n", "6", "--m", "2", "--seed", "3",
                         "--sim-config", fast_config_path, "--out", str(out)])
        assert code == 0
        table = load_training_table(out / "training_table.csv")
        assert len(table.test) == 6
        assert (table.means[DistFamily.RAYLEIGH] > 0).all()
        assert set(table.test.tolist()) == {True, False}
        manifest = _read_manifest(out)
        assert manifest["n_rows"] == 6
        assert manifest["n_train"] + manifest["n_test"] == 6 and manifest["n_test"] >= 1
        assert manifest["dropped_fits"] == {"gumbel": 0, "rayleigh": 0, "weibull": 0}

    def test_dropped_fits_reach_the_manifest(self, tmp_path, fast_config_path, monkeypatch):
        # Gumbel and Weibull fail on design point 2 only.
        failing = sample_uniform_inputs(6, seed=3).record(2)
        real_simulate, real_fit, current = distfit.simulate, distfit.fit_runs, []

        def simulate(record, cfg, seeds):
            current[:] = [record]
            return real_simulate(record, cfg, seeds)

        def fit_runs(family, runs):
            if family is not DistFamily.RAYLEIGH and current == [failing]:
                raise DomainError("scripted failure")
            return real_fit(family, runs)

        monkeypatch.setattr(distfit, "simulate", simulate)
        monkeypatch.setattr(distfit, "fit_runs", fit_runs)
        out = tmp_path / "t"
        assert cli.main(["trainset", "--n", "6", "--m", "2", "--seed", "3",
                         "--sim-config", fast_config_path, "--out", str(out)]) == 0
        assert _read_manifest(out)["dropped_fits"] == {"gumbel": 1, "rayleigh": 0, "weibull": 1}
        cells = (out / "training_table.csv").read_text().splitlines()[3].split(",")
        assert cells[3:7] == [""] * 4 and all(cells[7:9]) and cells[9:13] == [""] * 4

    def test_m_of_one_is_usage_error(self, tmp_path, fast_config_path):
        code = cli.main(["trainset", "--n", "4", "--m", "1", "--seed", "3",
                         "--sim-config", fast_config_path, "--out", str(tmp_path / "t")])
        assert code == 2

    def test_design_off_the_grid_fails_before_any_point_runs(self, tmp_path, monkeypatch, capsys):
        # pi/dt = 6.28 rad/s on the default grid; design point 1 has tp = 0.81 s.
        calls = []
        original = simulator.wave_spectrum
        monkeypatch.setattr(simulator, "wave_spectrum",
                            lambda *a: calls.append(a) or original(*a))
        out = tmp_path / "t"
        code = cli.main(["trainset", "--n", "40", "--m", "3", "--seed", "11",
                         "--box-tp", "0.5", "4", "--out", str(out)])
        assert code == 2
        assert calls == []
        assert not out.exists()
        assert "design point 1: peak frequency 7.7357 rad/s above top of grid" in capsys.readouterr().err


class TestTrainCommand:
    def test_bundle_layout_rayleigh(self, bundle_path):
        bundle = load_surrogate(bundle_path)
        assert tuple(bundle.models) == ("sigma", "l_count")
        files = json.loads(open(f"{bundle_path}/bundle.json").read())["files"]
        assert set(files) == {"sigma", "l_count"}

    def test_gumbel_bundle_files(self, tmp_path, table_path):
        out = tmp_path / "g"
        code = cli.main(["train", "--table", table_path, "--family", "gumbel",
                         "--restarts", "2", "--seed", "5", "--out", str(out)])
        assert code == 0
        names = sorted(p.name for p in out.glob("gp_*.json"))
        assert names == ["gp_beta.json", "gp_l_count.json", "gp_mu.json"]

    def test_reload_reproduces_predictions(self, bundle_path, table_path):
        bundle = load_surrogate(bundle_path)
        reloaded = load_surrogate(bundle_path)
        x = np.array([4.0, 10.0, 5.0])
        [mean_a], [std_a] = predict_batch(bundle.models["sigma"], x)
        [mean_b], [std_b] = predict_batch(reloaded.models["sigma"], x)
        assert abs(mean_a - mean_b) <= 1e-10
        assert abs(std_a - std_b) <= 1e-10

    def test_search_with_no_factorizable_candidate_is_numeric_error(self, tmp_path, table_path,
                                                                     monkeypatch, capsys):
        def unfactorizable(k_matrix, noise_variances):
            raise NumericError("covariance factorization failed")

        monkeypatch.setattr(gp, "_factorize", unfactorizable)
        out = tmp_path / "b"
        assert cli.main(["train", "--table", table_path, "--family", "rayleigh", "--restarts", "2",
                         "--seed", "5", "--out", str(out)]) == 4
        assert "hyperparameter search failed" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_family_is_usage_error(self, table_path, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["train", "--table", table_path, "--family", "cauchy",
                      "--seed", "1", "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_mode_is_not_a_train_flag(self, table_path, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["train", "--table", table_path, "--family", "rayleigh", "--mode", "point",
                      "--seed", "1", "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        assert not (tmp_path / "x").exists()


class TestEvalCommand:
    def test_eval_writes_per_target_reports(self, tmp_path, table_path, bundle_path):
        out = tmp_path / "e"
        code = cli.main(["eval", "--table", table_path, "--bundle", bundle_path,
                         "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "eval_summary.json").read_text())
        assert set(summary["targets"]) == {"sigma", "l_count"}
        assert (out / "eval_sigma.csv").exists()
        assert (out / "eval_l_count.csv").exists()
        for stats in summary["targets"].values():
            assert stats["rmse"] >= 0.0
            assert 0.0 <= stats["coverage95"] <= 1.0

    def test_include_noise_widens_only_the_std(self, tmp_path, table_path, bundle_path):
        # The same bundle and table with and without --include-noise: the
        # truths and means keep their bytes; each std and coverage can only grow.
        plain, noisy = tmp_path / "plain", tmp_path / "noisy"
        for out, flags in ((plain, []), (noisy, ["--include-noise"])):
            assert cli.main(["eval", "--table", table_path, "--bundle", bundle_path,
                             "--out", str(out), *flags]) == 0
        for target in ("sigma", "l_count"):
            plain_rows, noisy_rows = (
                [line.split(",") for line in (out / f"eval_{target}.csv").read_text().splitlines()]
                for out in (plain, noisy))
            assert noisy_rows[0] == ["true", "pred_mean", "pred_std"]
            assert [row[:2] for row in noisy_rows] == [row[:2] for row in plain_rows]
            plain_std, noisy_std = (np.array([float(row[2]) for row in rows[1:]])
                                    for rows in (plain_rows, noisy_rows))
            assert (noisy_std >= plain_std).all() and (noisy_std > plain_std).any()
        plain_summary, noisy_summary = (json.loads((out / "eval_summary.json").read_text())
                                        for out in (plain, noisy))
        assert noisy_summary["n_test"] == plain_summary["n_test"]
        for target, stats in plain_summary["targets"].items():
            assert noisy_summary["targets"][target]["coverage95"] >= stats["coverage95"]

    def test_test_rows_without_fits_are_counted(self, tmp_path, table_path, bundle_path,
                                                caplog):
        table = load_training_table(table_path)
        rayleigh = DistFamily.RAYLEIGH
        row = np.flatnonzero(table.test & table.usable(rayleigh))[0]
        table.means[rayleigh][row] = table.stds[rayleigh][row] = np.nan
        write_training_table(tmp_path / "table.csv", table)
        out = tmp_path / "e"
        assert cli.main(["eval", "--table", str(tmp_path / "table.csv"), "--bundle", bundle_path,
                         "--out", str(out)]) == 0
        without_fits = int((table.test & ~table.usable(rayleigh)).sum())
        assert without_fits >= 1
        assert _read_manifest(out)["test_rows_without_fits"] == without_fits
        summary = json.loads((out / "eval_summary.json").read_text())
        assert summary["n_test"] == int(table.test.sum()) - without_fits
        assert f"{without_fits} test rows have no rayleigh fits" in caplog.text

    def test_warning_names_the_cli_logger_when_run_as_module(self, tmp_path, table_path,
                                                             bundle_path):
        table = load_training_table(table_path)
        rayleigh = DistFamily.RAYLEIGH
        row = np.flatnonzero(table.test & table.usable(rayleigh))[0]
        table.means[rayleigh][row] = table.stds[rayleigh][row] = np.nan
        write_training_table(tmp_path / "table.csv", table)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        env.pop("SEARESPONSE_LOGLEVEL", None)
        result = subprocess.run([sys.executable, "-m", "searesponse.cli", "eval",
                                 "--table", str(tmp_path / "table.csv"), "--bundle", bundle_path,
                                 "--out", str(tmp_path / "e")],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "WARNING searesponse.cli: " in result.stderr
        assert "left out of the evaluation" in result.stderr
        assert "__main__" not in result.stderr

    def test_missing_bundle_is_data_error_without_outputs(self, tmp_path, table_path):
        out = tmp_path / "e"
        code = cli.main(["eval", "--table", table_path, "--bundle", str(tmp_path / "nope"),
                         "--out", str(out)])
        assert code == 3
        assert not list(out.glob("eval_*"))
        assert not (out / "manifest.json").exists()


class TestQoiCommand:
    def test_simulator_smoke(self, tmp_path, fast_config_path, weather_csv):
        out = tmp_path / "q"
        code = cli.main(["qoi", "--source", "simulator", "--weather", weather_csv, "--k", "3",
                         "--m", "2", "--seed", "11", "--sim-config", fast_config_path,
                         "--out", str(out)])
        assert code == 0
        samples = (out / "yk_samples.csv").read_text().strip().splitlines()
        assert len(samples) == 3  # header + 2 realizations
        manifest = _read_manifest(out)
        assert manifest["seeds"] == {"seed": 11}
        assert manifest["inputs"] == [weather_csv, fast_config_path]
        assert manifest["config"]["mode"] is None
        assert manifest["workers"] == min(usable_cpus(), 6)

    def test_weather_is_required(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["qoi", "--source", "simulator", "--m", "1", "--seed", "1",
                      "--out", str(tmp_path / "q")])
        assert err.value.code == 2

    def test_surrogate_smoke_k1_m1(self, tmp_path, bundle_path, weather_csv):
        out = tmp_path / "q"
        code = cli.main(["qoi", "--source", "surrogate", "--k", "1", "--m", "1",
                         "--weather", weather_csv, "--seed", "2", "--bundle", bundle_path,
                         "--out", str(out)])
        assert code == 0
        assert _read_manifest(out)["config"]["mode"] == "sample"

    @pytest.mark.parametrize("tp,outside", [(12.0, 0), (1.5, 1)])
    def test_hours_outside_the_training_box_reach_the_manifest(self, tmp_path, caplog,
                                                                 bundle_path, tp, outside):
        # The training design covers tp in (4, 20) s; a 1.5 s hour lies
        # outside it, where the GPs extrapolate.
        weather = tmp_path / "weather.csv"
        write_weather(weather, Weather(np.arange(1), np.array([[6.0, tp, 15.0]])))
        out = tmp_path / "q"
        with caplog.at_level(logging.WARNING, logger="searesponse.cli"):
            code = cli.main(["qoi", "--source", "surrogate", "--k", "1", "--m", "1",
                             "--weather", str(weather), "--seed", "2", "--bundle", bundle_path,
                             "--out", str(out)])
        assert code == 0
        assert _read_manifest(out)["hours_outside_training_box"] == outside
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ([f"{weather}: 1 of 1 hours lie outside the training inputs' box "
                             f"of {bundle_path}, where the surrogate extrapolates"]
                            if outside else [])

    def test_simulator_manifest_has_no_training_box(self, qoi_run):
        assert "hours_outside_training_box" not in _read_manifest(Path(qoi_run))

    def test_each_mode_draws_its_own_reproducible_samples(self, tmp_path, bundle_path,
                                                          weather_csv):
        samples = {}
        for mode in ("point", "sample", "frozen"):
            out = tmp_path / mode
            argv = ["qoi", "--source", "surrogate", "--k", "2", "--m", "3", "--mode", mode,
                    "--weather", weather_csv, "--seed", "2", "--bundle", bundle_path,
                    "--out", str(out)]
            assert cli.main(argv) == 0
            samples[mode] = (out / "yk_samples.csv").read_bytes()
            assert _read_manifest(out)["config"]["mode"] == mode
            assert cli.main(argv + ["--force"]) == 0
            assert (out / "yk_samples.csv").read_bytes() == samples[mode]
        assert len(set(samples.values())) == 3

    @pytest.mark.parametrize("content", ["{not json", "[1, 2]"])
    def test_corrupt_bundle_json_is_data_error(self, tmp_path, bundle_path, weather_csv, content):
        bundle = tmp_path / "b"
        bundle.mkdir()
        for f in Path(bundle_path).glob("gp_*.json"):
            (bundle / f.name).write_bytes(f.read_bytes())
        (bundle / "bundle.json").write_text(content)
        code = cli.main(["qoi", "--source", "surrogate", "--k", "1", "--m", "1",
                         "--weather", weather_csv, "--seed", "2", "--bundle", str(bundle),
                         "--out", str(tmp_path / "q")])
        assert code == 3

    def _qoi_with_gp_sigma(self, tmp_path, bundle_path, weather_csv, text):
        """Surrogate qoi on a copy of the bundle whose gp_sigma.json holds text."""
        bundle = tmp_path / "b"
        shutil.copytree(bundle_path, bundle)
        (bundle / "gp_sigma.json").write_text(text)
        return cli.main(["qoi", "--source", "surrogate", "--k", "1", "--m", "1",
                         "--weather", weather_csv, "--seed", "2", "--bundle", str(bundle),
                         "--out", str(tmp_path / "q")])

    def test_gp_model_not_an_object_is_data_error(self, tmp_path, bundle_path, weather_csv):
        assert self._qoi_with_gp_sigma(tmp_path, bundle_path, weather_csv, "[]") == 3

    def test_gp_model_bad_kernel_is_data_error(self, tmp_path, bundle_path, weather_csv, capsys):
        payload = json.loads((Path(bundle_path) / "gp_sigma.json").read_text())
        payload["kernel"]["signal_variance"] = 0.0
        assert self._qoi_with_gp_sigma(tmp_path, bundle_path, weather_csv,
                                       json.dumps(payload)) == 3
        assert "signal_variance must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("path,value", [
        (("kernel", "signal_variance"), float("nan")),
        (("kernel", "lengthscales", 1), float("inf")),
        (("train_targets", 0), float("nan")),
        (("noise_variances", 2), float("inf")),
        (("standardization", "input_scale", 0), float("nan")),
        (("standardization", "target_scale"), float("inf")),
        (("noise_variances", 0), -0.05),
        (("standardization", "input_scale", 1), 0.0),
        (("standardization", "target_scale"), -1.0),
    ], ids=["signal_variance", "lengthscale", "target", "noise", "input_scale", "target_scale",
            "negative_noise", "zero_input_scale", "negative_target_scale"])
    def test_gp_model_bad_value_is_data_error(self, tmp_path, bundle_path, weather_csv,
                                              capsys, path, value):
        payload = json.loads((Path(bundle_path) / "gp_sigma.json").read_text())
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert self._qoi_with_gp_sigma(tmp_path, bundle_path, weather_csv,
                                       json.dumps(payload)) == 3  # NaN / Infinity tokens
        assert "gp_sigma.json: malformed model file" in capsys.readouterr().err
        assert not (tmp_path / "q").exists()

    def test_surrogate_without_bundle_is_usage_error(self, tmp_path, weather_csv):
        code = cli.main(["qoi", "--source", "surrogate", "--k", "1", "--m", "1", "--weather",
                         weather_csv, "--seed", "2", "--out", str(out := tmp_path / "q")])
        assert code == 2
        assert not (out / "summary.json").exists()

    def test_weather_file_input(self, tmp_path, fast_config_path):
        wout = tmp_path / "w"
        cli.main(["weather", "synth", "--hours", "6", "--seed", "5", "--out", str(wout)])
        out = tmp_path / "q"
        code = cli.main(["qoi", "--source", "simulator", "--weather", str(wout / "weather.csv"),
                         "--k", "2", "--m", "1", "--seed", "3",
                         "--sim-config", fast_config_path, "--out", str(out)])
        assert code == 0

    def test_weather_off_the_grid_fails_before_any_hour_runs(self, tmp_path, fast_config_path,
                                                               monkeypatch, capsys):
        # pi/dt = 6.28 rad/s on the fast grid; tp = 0.9 s peaks at 6.98 rad/s.
        inputs = np.tile([2.0, 9.0, 5.0], (5, 1))
        inputs[4, 1] = 0.9
        write_weather(tmp_path / "weather.csv", Weather(np.arange(5), inputs))
        calls = []
        original = simulator.wave_spectrum
        monkeypatch.setattr(simulator, "wave_spectrum",
                            lambda *a: calls.append(a) or original(*a))
        code = cli.main(["qoi", "--source", "simulator", "--weather", str(tmp_path / "weather.csv"),
                         "--k", "2", "--m", "3", "--seed", "3",
                         "--sim-config", fast_config_path, "--out", str(tmp_path / "q")])
        assert code == 2
        assert calls == []
        assert "hour 4: peak frequency 6.9813 rad/s above top of grid" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("dt", float("nan")), ("duration", float("inf")),
                                           ("omega0", float("nan"))])
    def test_non_finite_sim_config_is_data_error(self, tmp_path, fast_config_path, weather_csv,
                                                 capsys, key, value):
        raw = json.loads(Path(fast_config_path).read_text())
        raw[key] = value
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw))  # NaN / Infinity tokens, which json accepts
        code = cli.main(["qoi", "--source", "simulator", "--weather", weather_csv, "--k", "2",
                         "--m", "1", "--seed", "1", "--sim-config", str(path),
                         "--out", str(tmp_path / "q")])
        assert code == 3
        assert f"non-finite values for ['{key}']" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path, fast_config_path, weather_csv):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(["qoi", "--source", "simulator", "--weather", weather_csv, "--k", "2",
                      "--m", "2", "--seed", "13", "--sim-config", fast_config_path,
                      "--out", str(out)])
            outs.append(out)
        for fname in ("yk_samples.csv", "rank_summary.csv", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestBundleInputs:
    """qoi and eval end with exit 3 on a bundle whose GPs do not take the
    three weather inputs or hold a per-row array that is not 1-D, or whose
    bundle.json has an older version."""

    def _run(self, command, tmp_path, bundle, weather_csv, table_path):
        out = tmp_path / "out"
        if command == "qoi":
            argv = ["qoi", "--source", "surrogate", "--k", "1", "--m", "1", "--weather",
                    weather_csv, "--seed", "2", "--bundle", str(bundle), "--out", str(out)]
        else:
            argv = ["eval", "--table", table_path, "--bundle", str(bundle), "--out", str(out)]
        code = cli.main(argv)
        assert not out.exists()
        return code

    def _copy(self, tmp_path, bundle_path, name, edit):
        bundle = tmp_path / "b"
        shutil.copytree(bundle_path, bundle)
        payload = json.loads((bundle / name).read_text())
        edit(payload)
        (bundle / name).write_text(json.dumps(payload))
        return bundle

    @staticmethod
    def _cut_inputs(payload):
        payload["train_inputs"] = [row[:2] for row in payload["train_inputs"]]

    @staticmethod
    def _two_input_gp(payload):
        TestBundleInputs._cut_inputs(payload)
        payload["kernel"]["lengthscales"] = payload["kernel"]["lengthscales"][:2]
        for key in ("input_mean", "input_scale"):
            payload["standardization"][key] = payload["standardization"][key][:2]

    @pytest.mark.parametrize("command", ["qoi", "eval"])
    def test_inputs_not_matching_lengthscales(self, tmp_path, bundle_path, weather_csv,
                                              table_path, capsys, command):
        bundle = self._copy(tmp_path, bundle_path, "gp_sigma.json", self._cut_inputs)
        assert self._run(command, tmp_path, bundle, weather_csv, table_path) == 3
        assert "gp_sigma.json: malformed model file: train_inputs of shape" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["qoi", "eval"])
    def test_gp_with_two_inputs(self, tmp_path, bundle_path, weather_csv, table_path, capsys,
                                command):
        bundle = self._copy(tmp_path, bundle_path, "gp_sigma.json", self._two_input_gp)
        assert self._run(command, tmp_path, bundle, weather_csv, table_path) == 3
        assert "the sigma GP takes 2 inputs" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["train_targets", "noise_variances"])
    @pytest.mark.parametrize("command", ["qoi", "eval"])
    def test_per_row_array_not_1d(self, tmp_path, bundle_path, weather_csv, table_path, capsys,
                                  command, key):
        bundle = self._copy(tmp_path, bundle_path, "gp_sigma.json",
                            lambda payload: payload.update({key: [[v] for v in payload[key]]}))
        assert self._run(command, tmp_path, bundle, weather_csv, table_path) == 3
        assert ("gp_sigma.json: malformed model file: train_targets and noise_variances need "
                "one entry per train_inputs row") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["qoi", "eval"])
    def test_version_1_bundle(self, tmp_path, bundle_path, weather_csv, table_path, capsys,
                              command):
        bundle = self._copy(tmp_path, bundle_path, "bundle.json",
                            lambda payload: payload.update(format_version=1, mode="sample"))
        assert self._run(command, tmp_path, bundle, weather_csv, table_path) == 3
        assert "unsupported bundle version 1; run train again" in capsys.readouterr().err


@pytest.mark.parametrize("source,extra", [
    ("simulator", ["--bundle", "BUNDLE"]),
    ("simulator", ["--mode", "point"]),
    ("surrogate", ["--bundle", "BUNDLE", "--sim-config", "CONFIG"]),
], ids=["simulator-bundle", "simulator-mode", "surrogate-sim-config"])
def test_qoi_flag_its_source_never_reads_is_usage_error(tmp_path, capsys, bundle_path,
                                                         fast_config_path, weather_csv,
                                                         source, extra):
    extra = [{"BUNDLE": bundle_path, "CONFIG": fast_config_path}.get(a, a) for a in extra]
    out = tmp_path / "q"
    code = cli.main(["qoi", "--source", source, "--weather", weather_csv, "--k", "1", "--m", "1",
                     "--seed", "2", *extra, "--out", str(out)])
    assert code == 2
    assert "does not apply to --source " + source in capsys.readouterr().err
    assert not out.exists()


class TestCompareCommand:
    def test_identical_directories_zero_difference(self, tmp_path, fast_config_path, weather_csv):
        run = tmp_path / "run"
        cli.main(["qoi", "--source", "simulator", "--weather", weather_csv, "--k", "3", "--m", "2",
                  "--seed", "11", "--sim-config", fast_config_path, "--out", str(run)])
        out = tmp_path / "cmp"
        code = cli.main(["compare", str(run), str(run), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["relative_mean_difference"] == 0.0
        assert report["closest_rank"] == 3
        assert report["band_overlap_fraction"] == 1.0
        assert (out / "rank_comparison.csv").exists()
        assert (out / "yk_samples_combined.csv").exists()

    def test_different_runs_band_flags_and_combined_samples(self, tmp_path, fast_config_path,
                                                            weather_csv, bundle_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["qoi", "--source", "surrogate", "--bundle", bundle_path, "--weather",
                         weather_csv, "--k", "4", "--m", "5", "--seed", "3", "--out", str(a)]) == 0
        assert cli.main(["qoi", "--source", "simulator", "--weather", weather_csv, "--k", "4",
                         "--m", "3", "--seed", "11", "--sim-config", fast_config_path,
                         "--out", str(b)]) == 0
        out = tmp_path / "cmp"
        assert cli.main(["compare", str(a), str(b), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        ranks = np.genfromtxt(out / "rank_comparison.csv", delimiter=",", names=True)
        assert list(ranks["rank"]) == [1, 2, 3, 4]
        inside = (ranks["b_p25"] <= ranks["a_mean"]) & (ranks["a_mean"] <= ranks["b_p975"])
        np.testing.assert_array_equal(ranks["a_within_b_band"], inside)
        assert ranks["a_within_b_band"].mean() == report["band_overlap_fraction"]
        assert report["relative_mean_difference"] != 0.0
        combined = (out / "yk_samples_combined.csv").read_text().splitlines()
        assert combined[0] == "source,realization,yk"
        assert [line.split(",")[0] for line in combined[1:]] == ["a"] * 5 + ["b"] * 3

    def test_missing_directory_is_data_error(self, tmp_path):
        code = cli.main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                         "--out", str(tmp_path / "c")])
        assert code == 3


class TestCompareInputs:
    """compare ends with exit 3 on result files that do not hold their
    summary's k ranks and M realizations."""

    @pytest.fixture()
    def run(self, tmp_path, fast_config_path, weather_csv):
        run = tmp_path / "run"
        assert cli.main(["qoi", "--source", "simulator", "--weather", weather_csv, "--k", "3",
                         "--m", "2", "--seed", "11", "--sim-config", fast_config_path,
                         "--out", str(run)]) == 0
        return run

    def _compare(self, tmp_path, run):
        return cli.main(["compare", str(run), str(run), "--out", str(tmp_path / "cmp")])

    def test_short_rank_summary(self, tmp_path, run):
        path = run / "rank_summary.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        assert self._compare(tmp_path, run) == 3

    def test_short_yk_samples(self, tmp_path, run):
        path = run / "yk_samples.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        assert self._compare(tmp_path, run) == 3

    @pytest.mark.parametrize("name,numbers,expected", [
        ("rank_summary.csv", ("7", "7", "-2"), "1..3"),
        ("yk_samples.csv", ("1", "0"), "0..1"),
    ])
    def test_misnumbered_rows(self, tmp_path, run, capsys, name, numbers, expected):
        path = run / name
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(n + row[row.index(","):] for n, row in zip(numbers, rows)))
        assert self._compare(tmp_path, run) == 3
        assert not (tmp_path / "cmp").exists()
        assert capsys.readouterr().err == (
            f"data error: {path}: first column must count {expected} in order\n")

    def test_unparsable_value(self, tmp_path, run):
        path = run / "rank_summary.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "1,abc,1.0,2.0\n"
        path.write_text("".join(lines))
        assert self._compare(tmp_path, run) == 3

    def test_non_finite_yk(self, tmp_path, run, capsys):
        (run / "yk_samples.csv").write_text("realization,yk\n0,nan\n1,1.0\n")
        assert self._compare(tmp_path, run) == 3
        assert capsys.readouterr().err == (
            f"data error: {run / 'yk_samples.csv'}: line 2: non-finite value 'nan' in column yk\n")

    def test_zero_reference_mean(self, tmp_path, run):
        (run / "yk_samples.csv").write_text("realization,yk\n0,0.0\n1,0.0\n")
        assert self._compare(tmp_path, run) == 3
