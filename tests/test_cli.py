import filecmp
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import sohpred
from sohpred import blas, cli, ingest, pipeline, ssa
from sohpred.hiselect import HI_NAMES, HISeries, rank_his
from sohpred.neuralnet import DivergenceError


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def tiny_config(tmp_path):
    cfg = {
        "synth": {"kind": "cycles", "n_cycles": 40, "sample_period_s": 6.0},
        "experiment": {
            "split": {"mode": "fraction", "start_fraction": 0.25},
            "window_length": 4,
            "seeds": [0],
            "network": {
                "gru_units": [8, 8, 8, 8],
                "dropout_rates": [0.02, 0.02, 0.02, 0.02],
            },
            "training": {"max_epochs": 40, "learning_rate": 0.01, "batch_size": 8},
        },
        "ssa": {
            "pop_size": 3,
            "max_iter": 2,
            "ranges": {"units": [6, 24], "epochs": [10, 20]},
        },
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.fixture(scope="module")
def cli_import_modules(tmp_path_factory):
    """The modules a fresh ``import sohpred.cli`` loads, from the checked-out ``src``."""
    src = Path(sohpred.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    probe = (
        "import sys, sohpred.cli; "
        "print(sohpred.cli.__file__); "
        "print(*sorted(sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=tmp_path_factory.mktemp("import"), env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    loaded_from, modules = done.stdout.splitlines()
    assert Path(loaded_from).resolve().parents[1] == src
    return modules.split()


def test_cli_import_loads_no_scipy(cli_import_modules):
    """SciPy is a test oracle only: importing the CLI must not load any of it."""
    assert [m for m in cli_import_modules if m.split(".")[0] == "scipy"] == []


def test_cli_import_loads_no_process_pool(cli_import_modules):
    """Only a search with ``--jobs`` above 1 pays for the process-pool imports."""
    assert "concurrent.futures.process" not in cli_import_modules
    assert [m for m in cli_import_modules if m.split(".")[0] == "multiprocessing"] == []


@pytest.mark.parametrize("command", ["synth", "extract", "train", "predict"])
def test_jobs_offered_only_where_a_search_runs(command, capsys):
    with pytest.raises(SystemExit) as exc:
        required = ["--model", "m.bin"] if command == "predict" else []
        cli.build_parser().parse_args([command, *required, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hpo", "fleet"])
def test_jobs_accepted_by_search_commands(command):
    assert cli.build_parser().parse_args([command, "--jobs", "2"]).jobs == 2


def chain_synth_extract(tmp_path, tiny_config):
    data = tmp_path / "data"
    ext = tmp_path / "ext"
    assert run_cli("synth", "--config", tiny_config, "--out", data) == 0
    assert run_cli("extract", "--config", tiny_config, "--dataset", data / "cycles.csv", "--out", ext) == 0
    return data, ext


class TestSynthExtract:
    def test_extract_emits_all_seven_indicators(self, tmp_path, tiny_config):
        _, ext = chain_synth_extract(tmp_path, tiny_config)
        header = (ext / "features.csv").read_text().splitlines()[1]
        assert header == "cycle,cf,pf,mf,wf,kur,area,peak"
        corr_names = {
            line.split(",")[0]
            for line in (ext / "correlation.csv").read_text().splitlines()[2:]
        }
        assert corr_names == {"MF", "PF", "CF", "WF", "Kur", "Area", "Peak"}

    def test_outputs_reference_manifest_hash(self, tmp_path, tiny_config):
        _, ext = chain_synth_extract(tmp_path, tiny_config)
        manifest = json.loads((ext / "manifest.json").read_text())
        for name in ("features.csv", "correlation.csv", "hi_top.csv"):
            first = (ext / name).read_text().splitlines()[0]
            assert first == f"# manifest {manifest['hash']}"

    def test_rerun_identical_outputs(self, tmp_path, tiny_config):
        data = tmp_path / "data"
        run_cli("synth", "--config", tiny_config, "--out", data)
        ext_a, ext_b = tmp_path / "ea", tmp_path / "eb"
        run_cli("extract", "--config", tiny_config, "--dataset", data / "cycles.csv", "--out", ext_a)
        run_cli("extract", "--config", tiny_config, "--dataset", data / "cycles.csv", "--out", ext_b)
        for name in ("features.csv", "correlation.csv", "hi_top.csv", "capacity.csv"):
            assert (ext_a / name).read_bytes() == (ext_b / name).read_bytes()

    def test_ranking_svds_run_on_one_blas_thread(self, tmp_path, tiny_config, monkeypatch):
        if blas.openblas_threads() is None:
            pytest.skip("NumPy's OpenBLAS offers no thread setter here")
        get, _ = blas.openblas_threads()
        data = tmp_path / "data"
        assert run_cli("synth", "--config", tiny_config, "--out", data) == 0
        seen, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: seen.append(get()) or svd(*a, **kw))
        before = get()
        assert run_cli("extract", "--config", tiny_config, "--dataset", data / "cycles.csv",
                       "--out", tmp_path / "ext") == 0
        # one SVD per candidate indicator, each on one thread, and the count restored
        assert seen == [1] * 7 and get() == before

    def test_ranked_correlation_ranks_before_correlating(self, tmp_path, tiny_config):
        data, ext = chain_synth_extract(tmp_path, tiny_config)
        cfg = yaml.safe_load(tiny_config.read_text())
        cfg["extract"] = {"ranked_correlation": True}
        ranked_config = tmp_path / "ranked.yaml"
        ranked_config.write_text(yaml.safe_dump(cfg))
        ranked = tmp_path / "ranked"
        assert run_cli("extract", "--config", ranked_config, "--dataset", data / "cycles.csv",
                       "--out", ranked) == 0

        def coefficients(out):
            rows = (out / "correlation.csv").read_text().splitlines()[2:]
            return {name: float(coeff) for name, coeff, _ in (row.split(",") for row in rows)}

        # the candidates and SOH as the run wrote them, ranked as the key asks
        features = np.loadtxt(ranked / "features.csv", delimiter=",", skiprows=2, ndmin=2)
        columns = ["cycle", "CF", "PF", "MF", "WF", "Kur", "Area", "Peak"]
        candidates = [HISeries(name, features[:, i]) for i, name in enumerate(columns) if i]
        capacity = np.loadtxt(ranked / "capacity.csv", delimiter=",", skiprows=2, ndmin=2)
        soh = ingest.SOHSeries(tuple(capacity[:, 0].astype(int)), capacity[:, 2])
        expected = dict(rank_his(candidates, soh, ranked_correlation=True).entries)
        assert coefficients(ranked) == pytest.approx(expected, rel=1e-9)
        default = coefficients(ext)
        assert all(default[name] != pytest.approx(expected[name], rel=1e-6) for name in ("Kur", "MF"))

    @pytest.mark.parametrize("second, message", [
        (np.linspace(3.5, 3.62, 200), "cycle 2: window 21 exceeds curve length 13"),
        (np.full(200, 3.7), "cycle 2: voltage non-monotone: fewer than 2 distinct points survive"),
    ])
    def test_cycle_without_a_curve_names_file_and_cycle(self, tmp_path, capsys, second, message):
        # a 0.12 V span gives 13 points, too few for the 21-point smoothing window
        lines = ["cycle,time_s,voltage_v,charge_ah,capacity_ah"]
        for cycle, volts in enumerate([np.linspace(3.0, 4.0, 200), second, np.linspace(3.0, 4.0, 200)], 1):
            charge = np.linspace(0.0, 0.7, volts.size)
            lines += [f"{cycle},{2 * i},{v},{q},0.7" for i, (v, q) in enumerate(zip(volts.tolist(), charge.tolist()))]
        dataset = tmp_path / "cell.csv"
        dataset.write_text("\n".join(lines) + "\n")
        assert run_cli("extract", "--dataset", dataset, "--out", tmp_path / "ext") == 1
        assert capsys.readouterr().err == f"error: {dataset}: {message}\n"
        assert not (tmp_path / "ext").exists()

    def test_missing_dataset_flag_is_usage_error(self, tiny_config, capsys):
        assert run_cli("extract", "--config", tiny_config) == 1
        assert "dataset" in capsys.readouterr().err

    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit):
            run_cli("frobnicate")


class TestTrainPredict:
    def test_train_then_predict(self, tmp_path, tiny_config):
        _, ext = chain_synth_extract(tmp_path, tiny_config)
        model_dir = tmp_path / "model"
        assert run_cli("train", "--config", tiny_config, "--hi-table", ext / "hi_top.csv", "--out", model_dir) == 0
        assert (model_dir / "model.bin").exists()
        assert (model_dir / "scaler.yaml").exists()
        pred_dir = tmp_path / "pred"
        assert run_cli(
            "predict", "--config", tiny_config, "--model", model_dir / "model.bin",
            "--hi-table", ext / "hi_top.csv", "--out", pred_dir,
        ) == 0
        lines = (pred_dir / "predictions.csv").read_text().splitlines()
        assert lines[1] == "index,true_soh,predicted_soh,cycle"
        assert len(lines) > 10

    def test_report_cycles_join_the_indicator_table(self, tmp_path, tiny_config):
        _, ext = chain_synth_extract(tmp_path, tiny_config)
        model_dir = tmp_path / "model"
        assert run_cli("train", "--config", tiny_config, "--hi-table", ext / "hi_top.csv", "--out", model_dir) == 0
        table = {int(r[0]): r[2] for r in
                 (ln.split(",") for ln in (ext / "hi_top.csv").read_text().splitlines()[2:])}
        lines = (model_dir / "report.csv").read_text().splitlines()
        assert lines[1] == "index,true_soh,predicted_soh,cycle"
        rows = [ln.split(",") for ln in lines[2:]]
        assert [int(r[3]) for r in rows] == [int(r[0]) + 1 for r in rows]  # cycles start at 1
        assert [table[int(r[3])] for r in rows] == [r[1] for r in rows]

    def test_predict_uses_the_conditioning_it_was_trained_under(self, tmp_path, tiny_config):
        # trained without denoising; predict gets no --config, so nothing but
        # scaler.yaml can tell it to skip the denoising step
        cfg = yaml.safe_load(Path(tiny_config).read_text())
        cfg["experiment"]["denoise"] = False
        raw = tmp_path / "raw.yaml"
        raw.write_text(yaml.safe_dump(cfg))
        _, ext = chain_synth_extract(tmp_path, tiny_config)
        model_dir = tmp_path / "model"
        assert run_cli("train", "--config", raw, "--hi-table", ext / "hi_top.csv", "--out", model_dir) == 0
        assert yaml.safe_load((model_dir / "scaler.yaml").read_text())["denoise_rank"] is None

        lines = (ext / "hi_top.csv").read_text().splitlines()
        rows = lines[2:]
        k = pipeline.SplitSpec.fraction(0.25).boundary(len(rows))
        test_table = tmp_path / "test_rows.csv"
        test_table.write_text("\n".join(lines[:2] + rows[k:]) + "\n")
        pred_dir = tmp_path / "pred"
        assert run_cli(
            "predict", "--model", model_dir / "model.bin", "--hi-table", test_table, "--out", pred_dir
        ) == 0

        def column(path, name):
            table = path.read_text().splitlines()[1:]
            at = table[0].split(",").index(name)
            return [line.split(",")[at] for line in table[1:]]

        reported = column(model_dir / "report.csv", "predicted_soh")
        assert len(reported) == len(rows) - k - 3  # window 4
        assert column(pred_dir / "predictions.csv", "predicted_soh") == reported

    def test_scaler_without_conditioning_rule_rejected(self, tmp_path, tiny_config, capsys):
        _, ext = chain_synth_extract(tmp_path, tiny_config)
        model_dir = tmp_path / "model"
        assert run_cli("train", "--config", tiny_config, "--hi-table", ext / "hi_top.csv", "--out", model_dir) == 0
        scaler = model_dir / "scaler.yaml"
        payload = yaml.safe_load(scaler.read_text())
        del payload["denoise_rank"]
        scaler.write_text(yaml.safe_dump(payload))
        code = run_cli(
            "predict", "--model", model_dir / "model.bin",
            "--hi-table", ext / "hi_top.csv", "--out", tmp_path / "p",
        )
        assert code == 1
        assert f"error: {scaler}: malformed scaler file (missing 'denoise_rank')" in capsys.readouterr().err

    def test_predict_missing_model_errors(self, tmp_path, tiny_config, capsys):
        _, ext = chain_synth_extract(tmp_path, tiny_config)
        code = run_cli(
            "predict", "--config", tiny_config, "--model", tmp_path / "missing.bin",
            "--hi-table", ext / "hi_top.csv", "--out", tmp_path / "p",
        )
        assert code == 1
        assert "model file not found" in capsys.readouterr().err

    def test_bounds_violations_enumerated(self, tmp_path, tiny_config, capsys):
        cfg = yaml.safe_load(Path(tiny_config).read_text())
        cfg["experiment"]["network"]["dropout_rates"] = [0.9, 0.02, 0.45, 0.02]
        cfg["experiment"]["training"]["learning_rate"] = 0.2
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(cfg))
        _, ext = chain_synth_extract(tmp_path, tiny_config)
        code = run_cli("train", "--config", bad, "--hi-table", ext / "hi_top.csv", "--out", tmp_path / "m")
        assert code == 1
        err = capsys.readouterr().err
        assert "dropout_rates[1]" in err and "dropout_rates[3]" in err
        assert "learning_rate" in err


class TestInputErrors:
    @pytest.fixture
    def hi_table(self, tmp_path):
        rows = [f"{i},{0.5 + 0.01 * i!r},{1.0 - 0.002 * i!r}" for i in range(40)]
        path = tmp_path / "hi.csv"
        path.write_text("\n".join(["# manifest x", "index,MF,soh", *rows]) + "\n")
        return path

    def test_short_row_names_file_and_line(self, tmp_path, tiny_config, hi_table, capsys):
        lines = hi_table.read_text().splitlines()
        lines[6] = "4,0.54"
        hi_table.write_text("\n".join(lines) + "\n")
        code = run_cli("train", "--config", tiny_config, "--hi-table", hi_table, "--out", tmp_path / "m")
        assert code == 1
        assert f"{hi_table}, line 7: expected 3 fields" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("4,nan,0.99", "non-finite MF value 'nan'"),
        ("4,inf,0.99", "non-finite MF value 'inf'"),
        ("4,1e400,0.99", "non-finite MF value '1e400'"),
        ("4,0.54,nan", "SOH 'nan' outside (0, 1.05]"),
        ("4,0.54,1e400", "SOH '1e400' outside (0, 1.05]"),
        ("4,0.54,0", "SOH '0' outside (0, 1.05]"),
        ("4,0.54,1.2", "SOH '1.2' outside (0, 1.05]"),
    ])
    def test_bad_value_names_file_and_line(self, tmp_path, tiny_config, hi_table, capsys, row, message):
        lines = hi_table.read_text().splitlines()
        lines[6] = row
        hi_table.write_text("\n".join(lines) + "\n")
        code = run_cli("train", "--config", tiny_config, "--hi-table", hi_table, "--out", tmp_path / "m")
        assert code == 1
        assert f"{hi_table}, line 7: {message}" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_unknown_indicator_names_file_and_line(self, tmp_path, tiny_config, hi_table, capsys):
        lines = hi_table.read_text().splitlines()
        lines[1] = "index,XX,soh"
        hi_table.write_text("\n".join(lines) + "\n")
        code = run_cli("train", "--config", tiny_config, "--hi-table", hi_table, "--out", tmp_path / "m")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {hi_table}, line 2: unknown HI name 'XX', expected one of {HI_NAMES}\n"
        )
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("reorder, line, message", [
        (lambda rows: rows[::-1], 4, "index 38 does not follow 39"),
        (lambda rows: rows + rows[-1:], 43, "index 39 does not follow 39"),
    ], ids=["descending", "repeated-last-row"])
    def test_indices_must_increase(self, tmp_path, tiny_config, hi_table, capsys, reorder, line, message):
        lines = hi_table.read_text().splitlines()
        hi_table.write_text("\n".join(lines[:2] + reorder(lines[2:])) + "\n")
        code = run_cli("train", "--config", tiny_config, "--hi-table", hi_table, "--out", tmp_path / "m")
        assert code == 1
        assert f"{hi_table}, line {line}: {message}" in capsys.readouterr().err

    def test_concat_candidate_form_rejected(self, tmp_path, tiny_config, hi_table, capsys):
        cfg = yaml.safe_load(Path(tiny_config).read_text())
        cfg["experiment"]["network"]["candidate_form"] = "concat"
        bad = tmp_path / "concat.yaml"
        bad.write_text(yaml.safe_dump(cfg))
        code = run_cli("train", "--config", bad, "--hi-table", hi_table, "--out", tmp_path / "m")
        assert code == 1
        assert "candidate_form 'concat' is not supported" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_ssa_tuned_network_needs_a_search(self, tmp_path, tiny_config, hi_table, capsys):
        cfg = yaml.safe_load(Path(tiny_config).read_text())
        cfg["experiment"]["network"] = "ssa-tuned"
        bad = tmp_path / "tuned.yaml"
        bad.write_text(yaml.safe_dump(cfg))
        code = run_cli("train", "--config", bad, "--hi-table", hi_table, "--out", tmp_path / "m")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: experiment.network = ssa-tuned needs a search (hpo or fleet)\n"
        )
        assert not (tmp_path / "m").exists()

    def test_divergence_reported_without_traceback(self, tmp_path, tiny_config, hi_table, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergenceError("non-finite loss at epoch 3, batch offset 8")

        monkeypatch.setattr(pipeline, "train", diverge)
        code = run_cli("train", "--config", tiny_config, "--hi-table", hi_table, "--out", tmp_path / "m")
        assert code == 1
        assert "error: non-finite loss at epoch 3" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("command", ["extract", "fleet"])
    def test_no_dataset_names_both_settings(self, tmp_path, capsys, monkeypatch, command):
        # an empty working directory: neither command may fall back to it
        monkeypatch.chdir(tmp_path)
        assert run_cli(command) == 1
        assert "error: a dataset is required (--dataset or dataset.path)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestHpo:
    def test_tiny_search_completes_within_bounds(self, tmp_path, tiny_config):
        _, ext = chain_synth_extract(tmp_path, tiny_config)
        out = tmp_path / "hpo"
        assert run_cli("hpo", "--config", tiny_config, "--hi-table", ext / "hi_top.csv", "--out", out) == 0
        best = yaml.safe_load((out / "best_config.yaml").read_text())
        units = best["experiment"]["network"]["gru_units"]
        assert all(6 <= u <= 24 for u in units)
        assert 10 <= best["experiment"]["training"]["max_epochs"] <= 20
        history = (out / "ssa_history.csv").read_text().splitlines()
        assert history[1].startswith("iteration,best_fitness,evaluations,failures,pos0")
        assert history[1].endswith(",pos10,repeats")
        assert len(history) == 2 + 2 + 1  # comment+header, init record, 2 iterations
        assert [line.split(",")[2:4] for line in history[2:]] == [["3", "0"]] * 3

    def test_jobs_do_not_change_any_output_file(self, tmp_path, tiny_config):
        _, ext = chain_synth_extract(tmp_path, tiny_config)
        outs = {}
        for jobs in (1, 2):
            outs[jobs] = tmp_path / f"hpo-jobs{jobs}"
            assert run_cli("hpo", "--config", tiny_config, "--hi-table", ext / "hi_top.csv",
                           "--jobs", jobs, "--out", outs[jobs]) == 0
        names = sorted(p.name for p in outs[1].iterdir())
        assert sorted(p.name for p in outs[2].iterdir()) == names
        for name in ("report.csv", "summary.csv", "ssa_history.csv", "model.bin",
                     "scaler.yaml", "best_config.yaml", "manifest.json"):
            assert name in names
        match, mismatch, errors = filecmp.cmpfiles(outs[1], outs[2], names, shallow=False)
        assert (mismatch, errors) == ([], [])

    def test_one_search_trains_its_winner_for_every_seed(self, tmp_path, tiny_config, monkeypatch):
        _, ext = chain_synth_extract(tmp_path, tiny_config)
        cfg = yaml.safe_load(tiny_config.read_text())
        cfg["experiment"]["seeds"] = seeds = [0, 1, 2]
        config = tmp_path / "seeds.yaml"
        config.write_text(yaml.safe_dump(cfg))
        real_optimize, real_train = ssa.optimize, pipeline.train
        searches, fitness_trainings, seed_trainings = [], [], []

        def counted_optimize(*args, **kwargs):
            searches.append(args[1])
            return real_optimize(*args, **kwargs)

        def recorded_train(spec, training, batch):
            fitted, losses = real_train(spec, training, batch)
            if training.seed in seeds:
                seed_trainings.append((training, fitted))
            else:  # a search candidate, trained under the derived fitness seed
                fitness_trainings.append(training)
            return fitted, losses

        monkeypatch.setattr(ssa, "optimize", counted_optimize)
        monkeypatch.setattr(pipeline, "train", recorded_train)
        out = tmp_path / "hpo"
        assert run_cli("hpo", "--config", config, "--hi-table", ext / "hi_top.csv",
                       "--jobs", 1, "--out", out) == 0
        assert len(searches) == 1
        history = [line.split(",") for line in (out / "ssa_history.csv").read_text().splitlines()[2:]]
        scored = sum(int(row[2]) - int(row[-1]) for row in history)  # evaluations - repeats
        assert len(fitness_trainings) == scored
        best = yaml.safe_load((out / "best_config.yaml").read_text())["experiment"]
        assert [training.seed for training, _ in seed_trainings] == seeds
        for training, fitted in seed_trainings:
            assert list(fitted.gru_units) == best["network"]["gru_units"]
            assert list(fitted.dropout_rates) == best["network"]["dropout_rates"]
            assert {k: getattr(training, k) for k in best["training"]} == best["training"]

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_an_error(self, tmp_path, tiny_config, jobs, capsys):
        _, ext = chain_synth_extract(tmp_path, tiny_config)
        code = run_cli("hpo", "--config", tiny_config, "--hi-table", ext / "hi_top.csv",
                       "--jobs", jobs, "--out", tmp_path / "hpo")
        assert code == 1
        assert f"error: jobs must be at least 1, got {jobs}" in capsys.readouterr().err

    def test_lost_worker_is_an_error(self, tmp_path, tiny_config, capsys, monkeypatch):
        _, ext = chain_synth_extract(tmp_path, tiny_config)
        parent = os.getpid()
        real_train = pipeline.train

        def dies_in_workers(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train", dies_in_workers)
        code = run_cli("hpo", "--config", tiny_config, "--hi-table", ext / "hi_top.csv",
                       "--jobs", "2", "--out", tmp_path / "hpo")
        assert code == 1
        assert "error: the search lost a worker process" in capsys.readouterr().err


class TestFleetCommand:
    def test_fleet_end_to_end(self, tmp_path):
        cfg = {
            "synth": {"kind": "fleet", "n_vehicles": 3, "n_months": 16, "events_per_month": 4},
            "fleet": {"train_vehicle": "V01", "start_index": 2},
            "experiment": {
                "window_length": 4,
                "seeds": [0],
                "network": {"gru_units": [8, 8, 8, 8], "dropout_rates": [0.02] * 4},
                "training": {"max_epochs": 120, "learning_rate": 0.01, "batch_size": 8},
            },
        }
        path = tmp_path / "fleet.yaml"
        path.write_text(yaml.safe_dump(cfg))
        data = tmp_path / "data"
        assert run_cli("synth", "--config", path, "--out", data) == 0
        out = tmp_path / "out"
        assert run_cli("fleet", "--config", path, "--dataset", data, "--out", out) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 2 + 2  # comment+header then V02, V03
        assert (out / "fleet_V02_report.csv").exists()
        assert (out / "monthly.csv").exists()

    def fleet_run(self, tmp_path, stat):
        """A fleet run with ``fleet.stat: stat`` on data synthesized without it."""
        cfg = {
            "synth": {"kind": "fleet", "n_vehicles": 2, "n_months": 12, "events_per_month": 4},
            "fleet": {"train_vehicle": "V01", "start_index": 2, "stat": stat},
            "experiment": {
                "window_length": 4,
                "seeds": [0],
                "network": {"gru_units": [4, 4, 4, 4], "dropout_rates": [0.02] * 4},
                "training": {"max_epochs": 5, "learning_rate": 0.01, "batch_size": 8},
            },
        }
        path = tmp_path / "synth.yaml"
        path.write_text(yaml.safe_dump({"synth": cfg["synth"]}))
        data = tmp_path / "data"
        assert run_cli("synth", "--config", path, "--out", data) == 0
        path = tmp_path / "fleet.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "out"
        return run_cli("fleet", "--config", path, "--dataset", data, "--out", out), out

    def test_search_records_its_search(self, tmp_path):
        cfg = {
            "synth": {"kind": "fleet", "n_vehicles": 3, "n_months": 12, "events_per_month": 3},
            "experiment": {"window_length": 4, "seeds": [0], "network": "ssa-tuned"},
            "ssa": {"pop_size": 2, "max_iter": 1, "ranges": {"units": [4, 6], "epochs": [5, 8]}},
        }
        path = tmp_path / "fleet.yaml"
        path.write_text(yaml.safe_dump(cfg))
        data = tmp_path / "data"
        assert run_cli("synth", "--config", path, "--out", data) == 0
        searched = tmp_path / "searched"
        assert run_cli("fleet", "--config", path, "--dataset", data, "--out", searched) == 0
        history = (searched / "ssa_history.csv").read_text().splitlines()
        assert history[1].startswith("iteration,best_fitness,evaluations,failures,pos0")
        assert len(history) == 2 + 2  # comment+header, init record, 1 iteration

        # the network best_config.yaml names, given as such, gives the same reports
        best = yaml.safe_load((searched / "best_config.yaml").read_text())["experiment"]
        cfg["experiment"].update(best)
        del cfg["ssa"]
        path.write_text(yaml.safe_dump(cfg))
        given = tmp_path / "given"
        assert run_cli("fleet", "--config", path, "--dataset", data, "--out", given) == 0
        for vid in ("V02", "V03"):
            name = f"fleet_{vid}_report.csv"
            assert (given / name).read_text().splitlines()[1:] == \
                (searched / name).read_text().splitlines()[1:]

    def test_mean_stat_feeds_mean_capacities_into_soh(self, tmp_path):
        code, out = self.fleet_run(tmp_path, "mean")
        assert code == 0
        rows = [ln.split(",") for ln in (out / "monthly.csv").read_text().splitlines()[2:]]
        means = np.array([float(r[4]) for r in rows if r[0] == "V02"])
        medians = np.array([float(r[3]) for r in rows if r[0] == "V02"])
        report = [ln.split(",") for ln in (out / "fleet_V02_report.csv").read_text().splitlines()[2:]]
        index = [int(r[0]) for r in report]
        months = [int(r[1]) for r in rows if r[0] == "V02"]
        assert [int(r[3]) for r in report] == [months[i] for i in index]
        true_soh = np.array([float(r[1]) for r in report])
        assert true_soh == pytest.approx((means / means.max())[index], rel=1e-12)
        assert not np.allclose(true_soh, (medians / medians.max())[index], rtol=1e-6)

    def test_unknown_stat_fails_before_any_file_is_parsed(self, tmp_path, capsys, monkeypatch):
        def no_parsing(*args, **kwargs):
            raise AssertionError("a fleet file was parsed")

        monkeypatch.setattr(cli.ingest, "parse_fleet_file", no_parsing)
        code, _ = self.fleet_run(tmp_path, "bogus")
        assert code == 1
        assert capsys.readouterr().err == (f"error: {tmp_path / 'fleet.yaml'}: fleet.stat: "
                                           "expected Literal['median', 'mean'], got 'bogus'\n")


def assert_no_child_left():
    """Every process the run started has been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFleetFanOut:
    """With --jobs above 1 the other vehicles' logs are read on forked workers while
    this process trains; outputs and errors must be those of the serial run."""

    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fleet")
        cfg = {
            "synth": {"kind": "fleet", "n_vehicles": 4, "n_months": 12, "events_per_month": 3},
            "experiment": {
                "window_length": 4,
                "seeds": [0, 1],
                "network": {"gru_units": [4, 4, 4, 4], "dropout_rates": [0.02] * 4},
                "training": {"max_epochs": 6, "learning_rate": 0.01, "batch_size": 4},
            },
        }
        config = root / "fleet.yaml"
        config.write_text(yaml.safe_dump(cfg))
        assert run_cli("synth", "--config", config, "--out", root / "data") == 0
        return config, root / "data"

    def broken_copy(self, tmp_path, fleet, bad=(), train_vehicle=None, until=None):
        """The fleet with a bad row in each vehicle of ``bad``, and each log of ``until`` cut
        before the vehicle's timestamp there; returns (config, data, bad lines)."""
        config, data = fleet
        copy = tmp_path / "data"
        copy.mkdir()
        lines = {}
        for path in sorted(data.glob("fleet_*.csv")):
            rows = path.read_text().splitlines()
            vid = path.stem.removeprefix("fleet_")
            if until and vid in until:
                rows = rows[:1] + [r for r in rows[1:] if float(r.split(",")[0]) < until[vid]]
            if vid in bad:
                rows[40] = "1500000320.0,-73.0,not-a-volt,30.0"
                lines[vid] = f"error: {copy / path.name}:41:"
            (copy / path.name).write_text("\n".join(rows) + "\n")
        if train_vehicle is not None:
            cfg = yaml.safe_load(config.read_text())
            cfg["fleet"] = {"train_vehicle": train_vehicle}
            config = tmp_path / "fleet.yaml"
            config.write_text(yaml.safe_dump(cfg))
        return config, copy, lines

    def fleet_errors(self, tmp_path, config, data, capsys, jobs_values=("1", "2")):
        """stderr of a failing fleet run per --jobs value; none may leave an output directory."""
        errors = {}
        for jobs in jobs_values:
            out = tmp_path / f"out-jobs{jobs}"
            assert run_cli("fleet", "--config", config, "--dataset", data, "--jobs", jobs,
                           "--out", out) == 1
            assert_no_child_left()
            assert not out.exists()
            errors[jobs] = capsys.readouterr().err
        return errors

    def test_outputs_identical_for_any_jobs(self, tmp_path, fleet):
        config, data = fleet
        outs = {}
        for jobs in ("1", "2", None):
            outs[jobs] = tmp_path / f"out-{jobs}"
            extra = () if jobs is None else ("--jobs", jobs)
            assert run_cli("fleet", "--config", config, "--dataset", data, *extra,
                           "--out", outs[jobs]) == 0
            assert_no_child_left()
        names = sorted(p.name for p in outs["1"].iterdir())
        assert "fleet_V04_report.csv" in names and "monthly.csv" in names
        for jobs in ("2", None):
            assert sorted(p.name for p in outs[jobs].iterdir()) == names
            _, mismatch, errors = filecmp.cmpfiles(outs["1"], outs[jobs], names, shallow=False)
            assert (mismatch, errors) == ([], [])

    @pytest.mark.parametrize("bad, train_vehicle, reported", [
        (("V03",), None, "V03"),  # read on a worker
        (("V01",), None, "V01"),  # the training vehicle, read here
        (("V02", "V03"), None, "V02"),  # the earlier file wins
        (("V01", "V02"), "V02", "V01"),  # a worker's earlier file wins over the training vehicle's
    ])
    def test_bad_row_reported_as_in_a_serial_run(self, tmp_path, fleet, capsys, bad,
                                                 train_vehicle, reported):
        config, data, lines = self.broken_copy(tmp_path, fleet, bad, train_vehicle)
        errors = self.fleet_errors(tmp_path, config, data, capsys)
        assert errors["2"] == errors["1"]
        assert errors["2"].startswith(lines[reported] + " bad row")

    def test_read_error_wins_over_divergence(self, tmp_path, fleet, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergenceError("non-finite loss at epoch 0, batch offset 0")

        monkeypatch.setattr(pipeline, "train", diverge)
        config, data, lines = self.broken_copy(tmp_path, fleet, ("V04",))
        errors = self.fleet_errors(tmp_path, config, data, capsys)
        assert errors["2"] == errors["1"]
        assert errors["2"].startswith(lines["V04"])

        config, data = fleet  # no bad row: the divergence is reported
        for jobs in ("1", "2"):
            out = tmp_path / f"diverged-jobs{jobs}"
            assert run_cli("fleet", "--config", config, "--dataset", data, "--jobs", jobs,
                           "--out", out) == 1
            assert_no_child_left()
            assert "error: non-finite loss at epoch 0" in capsys.readouterr().err
            assert not out.exists()

    def test_slow_readers_keep_file_order(self, tmp_path, fleet, capsys, monkeypatch):
        parent = os.getpid()
        real_parse = cli.ingest.parse_fleet_file
        read_here = []

        def slow_in_workers(path, *args, **kwargs):
            if os.getpid() == parent:
                read_here.append(Path(path).name)
            else:
                time.sleep(1.0)  # training ends while the readers are still on their first logs
            return real_parse(path, *args, **kwargs)

        monkeypatch.setattr(cli.ingest, "parse_fleet_file", slow_in_workers)
        config, data, lines = self.broken_copy(tmp_path, fleet, ("V02",))
        for vid in ("V05", "V06", "V07"):
            (data / f"fleet_{vid}.csv").write_text((data / "fleet_V03.csv").read_text())
        rows = (data / "fleet_V07.csv").read_text().splitlines()
        rows[40] = "1500000320.0,-73.0,not-a-volt,30.0"
        (data / "fleet_V07.csv").write_text("\n".join(rows) + "\n")
        errors = self.fleet_errors(tmp_path, config, data, capsys, jobs_values=("2",))
        assert errors["2"].startswith(lines["V02"] + " bad row")
        # --jobs 2: this process reads the training vehicle's log only
        assert read_here == ["fleet_V01.csv"]

    def test_missing_training_vehicle_reported_as_in_a_serial_run(self, tmp_path, fleet, capsys):
        config, data, _ = self.broken_copy(tmp_path, fleet, train_vehicle="V99")
        errors = self.fleet_errors(tmp_path, config, data, capsys)
        assert errors["2"] == errors["1"]
        assert errors["2"] == "error: training vehicle 'V99' not in dataset\n"

    def test_missing_training_vehicle_reported_before_a_bad_row(self, tmp_path, fleet, capsys):
        config, data, _ = self.broken_copy(tmp_path, fleet, ("V01",), train_vehicle="V99")
        errors = self.fleet_errors(tmp_path, config, data, capsys)
        assert errors == {jobs: "error: training vehicle 'V99' not in dataset\n" for jobs in "12"}

    # the synthetic fleet's first charge; a month's charges start 10,000 s apart
    # and months 30 days apart
    FIRST_CHARGE = 1_500_000_000

    @pytest.mark.parametrize("cut, reported", [
        (("V03",), "V03"),  # read on a worker
        (("V01",), "V01"),  # the training vehicle, read here
        (("V02", "V04"), "V02"),  # the earlier file wins
    ])
    def test_log_without_a_usable_month_is_named(self, tmp_path, fleet, capsys, cut, reported):
        two_charges = {vid: self.FIRST_CHARGE + 2 * 10_000 for vid in cut}  # a month needs 3
        config, data, _ = self.broken_copy(tmp_path, fleet, until=two_charges)
        errors = self.fleet_errors(tmp_path, config, data, capsys)
        assert errors["2"] == errors["1"]
        assert errors["2"] == (f"error: {data / f'fleet_{reported}.csv'}: no month has "
                               f"{ingest.MIN_MONTHLY_EVENTS} or more usable charging events\n")

    def test_vehicle_with_too_few_months_is_named(self, tmp_path, fleet, capsys):
        two_months = {"V02": self.FIRST_CHARGE + 2 * 30 * 86400}
        config, data, _ = self.broken_copy(tmp_path, fleet, until=two_months)
        errors = self.fleet_errors(tmp_path, config, data, capsys)
        assert errors["2"] == errors["1"]
        assert errors["2"] == "error: vehicle V02: split leaves an empty region: boundary 2 of 2\n"

    def test_lost_worker_is_an_error(self, tmp_path, fleet, capsys, monkeypatch):
        parent = os.getpid()
        real_parse = cli.ingest.parse_fleet_file

        def dies_in_workers(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(cli.ingest, "parse_fleet_file", dies_in_workers)
        config, data = fleet
        code = run_cli("fleet", "--config", config, "--dataset", data, "--jobs", "2",
                       "--out", tmp_path / "out")
        assert code == 1
        assert_no_child_left()
        assert "error: the fleet lost a worker process" in capsys.readouterr().err
