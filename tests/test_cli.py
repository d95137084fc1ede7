"""End-to-end CLI behavior through cli_main; one subprocess checks what a
fresh interpreter imports."""

import dataclasses
import inspect
import json
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from losstrace import cli, data, experiment, filtering, models
from losstrace.cli import cli_main
from losstrace.errors import ConfigError, NumericError, ToolkitError
from losstrace.experiment import SweepConfig


def run_cli(*argv):
    return cli_main(list(argv))


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "bench"
    code = run_cli(
        "generate", "--out", str(out), "--channels", "2", "--length", "600",
        "--periods", "30", "--anomaly-types", "spike", "--anomaly-rate", "0.05",
        "--seed", "3",
    )
    assert code == 0
    return out


SWEEP_CONFIG = {
    "dataset": {
        "synthetic": {
            "channels": 2, "length": 600, "periods": [30],
            "noise_sigma": 0.3, "anomaly_types": ["spike"],
            "anomaly_rate": 0.05, "seed": 0,
        }
    },
    "model_kinds": ["reconstruction"],
    "methods": ["vanilla", "combined"],
    "ratios": [0.0, 0.1],
    "repetitions": 2,
    "window": 6,
    "train_stride": 6,
    "hidden_sizes": [4],
    "trial_epochs": 2,
    "train": {"epochs": 3, "batch_size": 16, "patience": 2},
}


def sweep_config(tmp_path, **extra):
    cfg = {**SWEEP_CONFIG, **extra}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


def contaminated_dataset(dataset_dir, tmp_path):
    """A sweep's CSV dataset whose training series holds the test split's
    labelled anomalies, copied in at the same timesteps."""
    train = (dataset_dir / "train.csv").read_text().splitlines(keepends=True)
    test = (dataset_dir / "test.csv").read_text().splitlines(keepends=True)
    train = [a if a.endswith(",1\n") else t for t, a in zip(train, test)]
    train_csv = tmp_path / "contaminated.csv"
    train_csv.write_text("".join(train))
    return {"train_csv": str(train_csv), "test_csv": str(dataset_dir / "test.csv")}


def test_no_scipy_import(tmp_path):
    script = (
        "import sys\n"
        "import losstrace\n"
        "from losstrace.cli import cli_main\n"
        f"assert cli_main(['generate', '--out', {str(tmp_path)!r}, "
        "'--length', '200', '--periods', '20', '--seed', '1']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


class TestGenerate:
    def test_writes_loadable_files(self, dataset_dir):
        train = data.load_csv(str(dataset_dir / "train.csv"))
        test = data.load_csv(str(dataset_dir / "test.csv"))
        assert train.length == 600 and test.length == 600
        assert train.labels.sum() == 0
        assert test.labels.sum() > 0

    def test_deterministic(self, tmp_path):
        args = ["generate", "--channels", "2", "--length", "600",
                "--periods", "30", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert (a / "test.csv").read_bytes() == (b / "test.csv").read_bytes()

    def test_bad_config_is_nonzero(self, tmp_path):
        code = run_cli("generate", "--out", str(tmp_path / "x"),
                       "--length", "10", "--periods", "30", "--seed", "1")
        assert code != 0

    def test_segments_longer_than_the_series(self, tmp_path, capsys):
        # level shifts are 20-60 steps long: only the short draws fit 30 steps
        code = run_cli("generate", "--out", str(tmp_path / "x"), "--length", "30",
                       "--periods", "3", "--anomaly-types", "level_shift",
                       "--seed", "0")
        assert code == 0 and (tmp_path / "x" / "test.csv").exists()
        # frequency changes are at least 30 steps long: none fits 20 steps
        capsys.readouterr()
        code = run_cli("generate", "--out", str(tmp_path / "y"), "--length", "20",
                       "--periods", "2", "--anomaly-types", "frequency_change",
                       "--seed", "0")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: could not place anomaly segments")
        assert err.count("\n") == 1

    def test_negative_seed_is_one_error_line(self, tmp_path, capsys):
        code = run_cli("generate", "--out", str(tmp_path / "x"),
                       "--length", "600", "--periods", "30", "--seed", "-1")
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "x").exists()


class TestTrainEvaluate:
    def test_train_writes_checkpoint_and_report(self, dataset_dir, tmp_path):
        ckpt = tmp_path / "model.npz"
        report = tmp_path / "report.json"
        code = run_cli(
            "train", "--train-csv", str(dataset_dir / "train.csv"),
            "--window", "6", "--stride", "6", "--hidden", "4",
            "--method", "combined", "--trial-epochs", "2", "--epochs", "3",
            "--seed", "5", "--checkpoint", str(ckpt), "--report", str(report),
        )
        assert code == 0
        model, norm, names = models.load_checkpoint(str(ckpt))
        assert model.kind == "reconstruction" and norm is not None
        assert names == ["c0", "c1"]
        rep = json.loads(report.read_text())
        assert rep["method"] == "combined" and rep["tau"] == 0.2
        assert len(rep["discard"]) > 0

    def test_method_aliases(self, dataset_dir, tmp_path):
        for alias in ("m", "v"):
            ckpt = tmp_path / f"{alias}.npz"
            report = tmp_path / f"{alias}.json"
            code = run_cli(
                "train", "--train-csv", str(dataset_dir / "train.csv"),
                "--window", "6", "--stride", "6", "--hidden", "4",
                "--method", alias, "--trial-epochs", "2", "--epochs", "2",
                "--seed", "5", "--checkpoint", str(ckpt),
                "--report", str(report),
            )
            assert code == 0
            assert json.loads(report.read_text())["method"] == f"{alias}_only"

    def test_evaluate_prints_metrics(self, dataset_dir, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        run_cli(
            "train", "--train-csv", str(dataset_dir / "train.csv"),
            "--window", "6", "--stride", "6", "--hidden", "4",
            "--method", "vanilla", "--epochs", "3", "--seed", "5",
            "--checkpoint", str(ckpt),
        )
        scores_out = tmp_path / "scores.csv"
        code = run_cli("evaluate", "--test-csv", str(dataset_dir / "test.csv"),
                       "--checkpoint", str(ckpt),
                       "--scores-out", str(scores_out))
        assert code == 0
        out = capsys.readouterr().out
        assert "auc=" in out and "best_f1=" in out
        lines = scores_out.read_text().splitlines()
        assert lines[0] == "score,label"
        assert len(lines) == 601

    @pytest.mark.parametrize("labeled", [True, False])
    def test_scores_file_reads_back_exactly(self, labeled, dataset_dir, tmp_path):
        ckpt = tmp_path / "model.npz"
        assert run_cli(
            "train", "--train-csv", str(dataset_dir / "train.csv"),
            "--window", "6", "--stride", "6", "--hidden", "4",
            "--method", "vanilla", "--epochs", "2", "--seed", "5",
            "--checkpoint", str(ckpt),
        ) == 0
        test = data.load_csv(str(dataset_dir / "test.csv"))
        if not labeled:
            test = data.MultivariateSeries(test.values, None, test.channel_names)
        test_csv = tmp_path / "test.csv"
        data.write_csv(test, str(test_csv))
        scores_out = tmp_path / "scores.csv"
        assert run_cli("evaluate", "--test-csv", str(test_csv),
                       "--checkpoint", str(ckpt),
                       "--scores-out", str(scores_out)) == 0
        model, norm, _ = models.load_checkpoint(str(ckpt))
        expected = models.anomaly_scores(model, data.apply_normalizer(norm, test))
        back = data.load_csv(str(scores_out))
        assert back.channel_names == ["score"]
        assert np.array_equal(back.values[:, 0].view(np.int64),
                              expected.view(np.int64))
        if labeled:
            assert np.array_equal(back.labels, test.labels)
        else:
            assert back.labels is None

    @pytest.mark.parametrize("window, stride, count", [
        ("600", "1", 1), ("590", "3", 4),
    ])
    def test_too_few_windows(self, window, stride, count, dataset_dir,
                             tmp_path, capsys):
        train_csv = dataset_dir / "train.csv"
        capsys.readouterr()
        code = run_cli("train", "--train-csv", str(train_csv),
                       "--window", window, "--stride", stride,
                       "--seed", "1", "--checkpoint", str(tmp_path / "m.npz"))
        err = capsys.readouterr().err
        assert code == 1
        need = int(window) + 4 * int(stride)
        assert err == (
            f"error: {train_csv}: 600 timesteps give {count} window(s) of "
            f"length {window} at stride {stride}; training needs at least 5 "
            f"windows, that is at least {need} timesteps\n")
        assert not (tmp_path / "m.npz").exists()

    def test_too_few_windows_after_discarding(self, dataset_dir, tmp_path,
                                              capsys):
        capsys.readouterr()
        code = run_cli("train", "--train-csv", str(dataset_dir / "train.csv"),
                       "--window", "588", "--stride", "3", "--trial-epochs", "2",
                       "--seed", "1", "--checkpoint", str(tmp_path / "m.npz"))
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: discarding 2 of 5 windows leaves 3; the final "
                       "fit needs at least 5\n")

    def test_utf8_bom_in_training_csv(self, dataset_dir, tmp_path, capsys):
        """A training CSV saved with a byte-order mark trains the checkpoint
        of the file without one, and evaluate on a test CSV without one
        does not warn about channel names."""
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (dataset_dir / "train.csv").read_bytes())
        entries = []
        for train_csv in (dataset_dir / "train.csv", bom):
            ckpt = tmp_path / f"{train_csv.stem}.npz"
            assert run_cli(
                "train", "--train-csv", str(train_csv),
                "--window", "6", "--stride", "6", "--hidden", "4",
                "--method", "combined", "--trial-epochs", "2", "--epochs", "2",
                "--seed", "5", "--checkpoint", str(ckpt),
            ) == 0
            with np.load(ckpt) as npz:
                entries.append({k: (npz[k].dtype.str, npz[k].tobytes())
                                for k in npz.files})
        assert entries[0] == entries[1]
        capsys.readouterr()
        assert run_cli("evaluate", "--test-csv", str(dataset_dir / "test.csv"),
                       "--checkpoint", str(ckpt)) == 0
        assert capsys.readouterr().err == ""

    def test_evaluate_warns_about_other_channel_names(self, dataset_dir, tmp_path,
                                                      capsys):
        ckpt = tmp_path / "m.npz"
        assert run_cli(
            "train", "--train-csv", str(dataset_dir / "train.csv"),
            "--window", "6", "--stride", "6", "--hidden", "4",
            "--method", "vanilla", "--epochs", "1", "--seed", "1",
            "--checkpoint", str(ckpt),
        ) == 0
        header, *rows = (dataset_dir / "test.csv").read_text().splitlines(keepends=True)
        assert header == "c0,c1,label\n"
        renamed = tmp_path / "renamed.csv"
        renamed.write_text("".join(["x,y,label\n", *rows]))
        capsys.readouterr()
        assert run_cli("evaluate", "--test-csv", str(renamed),
                       "--checkpoint", str(ckpt)) == 0
        out, err = capsys.readouterr()
        assert err == ("warning: channel names differ from checkpoint "
                       "(['x', 'y'] vs ['c0', 'c1'])\n")
        assert out.startswith("auc=")

    def test_evaluate_channel_mismatch_fails(self, dataset_dir, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        run_cli(
            "train", "--train-csv", str(dataset_dir / "train.csv"),
            "--window", "6", "--stride", "6", "--hidden", "4",
            "--method", "vanilla", "--epochs", "2", "--seed", "5",
            "--checkpoint", str(ckpt),
        )
        wide = tmp_path / "wide.csv"
        rng = np.random.default_rng(0)
        series = data.MultivariateSeries(rng.normal(size=(50, 3)))
        data.write_csv(series, str(wide))
        code = run_cli("evaluate", "--test-csv", str(wide),
                       "--checkpoint", str(ckpt))
        assert code != 0
        assert "channels" in capsys.readouterr().err


class TestFailuresExitOne:
    """Bad input paths and files end in exit code 1 and one error line."""

    @pytest.fixture()
    def checkpoint(self, dataset_dir, tmp_path):
        ckpt = tmp_path / "model.npz"
        assert run_cli(
            "train", "--train-csv", str(dataset_dir / "train.csv"),
            "--window", "6", "--stride", "6", "--hidden", "4",
            "--method", "vanilla", "--epochs", "1", "--seed", "5",
            "--checkpoint", str(ckpt),
        ) == 0
        return ckpt

    @staticmethod
    def assert_failed(code, capsys):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_train_csv(self, tmp_path, capsys):
        code = run_cli("train", "--train-csv", str(tmp_path / "missing.csv"),
                       "--seed", "1", "--checkpoint", str(tmp_path / "m.npz"))
        self.assert_failed(code, capsys)

    def test_unwritable_checkpoint_path(self, dataset_dir, tmp_path, capsys):
        code = run_cli("train", "--train-csv", str(dataset_dir / "train.csv"),
                       "--window", "6", "--stride", "6", "--hidden", "4",
                       "--method", "vanilla", "--epochs", "1", "--seed", "1",
                       "--checkpoint", str(tmp_path / "no" / "m.npz"))
        self.assert_failed(code, capsys)

    @pytest.mark.parametrize("parent", ["missing", "a_file"])
    @pytest.mark.parametrize("flag", ["--checkpoint", "--report"])
    def test_output_path_is_refused_before_training(self, flag, parent,
                                                     dataset_dir, tmp_path,
                                                     capsys, monkeypatch):
        """An output path whose directory does not exist, or is a file, ends
        train before it trains: no checkpoint or report is written."""
        calls = []

        def counted(*args):
            calls.append(args)
            return filtering.robust_train(*args)

        monkeypatch.setattr(cli, "robust_train", counted)
        out = tmp_path / "out"
        out.mkdir()
        (out / "a_file").write_text("")
        paths = {"--checkpoint": out / "m.npz", "--report": out / "r.json"}
        paths[flag] = bad = out / parent / "x"
        capsys.readouterr()
        code = run_cli("train", "--train-csv", str(dataset_dir / "train.csv"),
                       "--window", "6", "--stride", "6", "--hidden", "4",
                       "--epochs", "1", "--trial-epochs", "1", "--seed", "1",
                       "--checkpoint", str(paths["--checkpoint"]),
                       "--report", str(paths["--report"]))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {bad}: {bad.parent} is not a directory\n")
        assert calls == []
        assert os.listdir(out) == ["a_file"]

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "no_w1", "empty"])
    def test_corrupt_checkpoint(self, damage, checkpoint, dataset_dir, capsys):
        raw = checkpoint.read_bytes()
        if damage == "garbage":
            checkpoint.write_bytes(b"not a checkpoint")
        elif damage == "truncated":
            checkpoint.write_bytes(raw[: len(raw) // 2])
        elif damage == "empty":
            checkpoint.write_bytes(b"")
        else:
            with np.load(checkpoint) as archive:
                arrays = {k: archive[k] for k in archive.files if k != "w1"}
            with open(checkpoint, "wb") as fh:
                np.savez(fh, **arrays)
        capsys.readouterr()
        code = run_cli("evaluate", "--test-csv", str(dataset_dir / "test.csv"),
                       "--checkpoint", str(checkpoint))
        self.assert_failed(code, capsys)

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    @pytest.mark.parametrize("key", ["window", "channels", "horizon", "seed"])
    @pytest.mark.parametrize("value", [16.0, True, "x", None],
                             ids=["float", "true", "string", "null"])
    def test_non_integer_checkpoint_metadata(self, kind, key, value, dataset_dir,
                                             tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        models.save_checkpoint(
            models.build_model(kind, 6, 2, horizon=2, hidden_sizes=(4,)), str(ckpt))
        with np.load(ckpt) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = {**json.loads(str(arrays["meta"])), key: value}
        with open(ckpt, "wb") as fh:
            np.savez(fh, **dict(arrays, meta=np.array(json.dumps(meta))))
        capsys.readouterr()
        code = run_cli("evaluate", "--test-csv", str(dataset_dir / "test.csv"),
                       "--checkpoint", str(ckpt))
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error: {ckpt}: checkpoint metadata '{key}' must be "
                       f"an integer, got {json.dumps(value)}\n")

    @pytest.mark.parametrize("damage, message", [
        ("not_object", "checkpoint metadata is not an object"),
        ("version", "unsupported checkpoint version 99"),
        ("not_json", "malformed checkpoint: Expecting property name enclosed "
                     "in double quotes: line 1 column 2 (char 1)"),
        ("repeated_key", "malformed checkpoint: key 'window' appears more "
                         "than once"),
    ])
    def test_bad_checkpoint_metadata(self, damage, message, checkpoint,
                                     dataset_dir, tmp_path, capsys):
        with np.load(checkpoint) as archive:
            arrays = {k: archive[k] for k in archive.files}
        stored = str(arrays["meta"])
        meta = {"not_object": "[1]", "not_json": "{",
                "repeated_key": f'{stored[:-1]}, "window": 6}}',
                "version": json.dumps({**json.loads(stored),
                                       "version": 99})}[damage]
        with open(checkpoint, "wb") as fh:
            np.savez(fh, **dict(arrays, meta=np.array(meta)))
        scores = tmp_path / "scores.csv"
        capsys.readouterr()
        code = run_cli("evaluate", "--test-csv", str(dataset_dir / "test.csv"),
                       "--checkpoint", str(checkpoint), "--scores-out", str(scores))
        assert code == 1
        assert capsys.readouterr().err == f"error: {checkpoint}: {message}\n"
        assert not scores.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    @pytest.mark.parametrize("scores_out", [False, True])
    def test_overflowing_losses_are_one_error_line(self, kind, scores_out,
                                                   dataset_dir, tmp_path, capsys):
        """Losses that overflow end evaluate in one NumericError line, with
        no numpy warning, whether or not the scores are written."""
        model = models.build_model(kind, 6, 2, horizon=2, hidden_sizes=(4,))
        model.net.flat[:] = 1e200
        ckpt = tmp_path / "model.npz"
        models.save_checkpoint(model, str(ckpt))
        argv = ["evaluate", "--test-csv", str(dataset_dir / "test.csv"),
                "--checkpoint", str(ckpt)]
        if scores_out:
            argv += ["--scores-out", str(tmp_path / "scores.csv")]
        capsys.readouterr()
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == (
            "error: anomaly scores are not finite: the model's losses overflow\n")
        assert not (tmp_path / "scores.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    @pytest.mark.parametrize("rate, method, message", [
        ("1e300", "vanilla", "training diverged in epoch 1: the parameters are "
                             "no longer finite"),
        ("1e300", "combined", "training diverged in epoch 1: the parameters are "
                              "no longer finite"),
        ("1e100", "combined", "m or v is not finite: the trial losses overflow"),
        ("1e100", "vanilla", r"training diverged: the best validation loss "
                             r"\S+e\+\d+ is above the untrained model's \d\S*"),
        ("1e154", "combined", "trace losses must be finite and non-negative"),
        # every validation loss overflows, or (prediction) their mean does
        ("1e154", "vanilla", r"training diverged: the best validation loss "
                             r"inf is above the untrained model's \d\S*"),
    ], ids=["diverging_vanilla", "diverging_combined", "overflowing_metrics",
            "diverged_final_fit", "overflowing_trial_losses",
            "overflowing_validation_losses"])
    def test_numeric_failure_in_training_is_one_error_line(
            self, kind, rate, method, message, dataset_dir, tmp_path, capsys):
        """Parameters that stop being finite, trial losses whose m or v
        overflow, or a final fit that ends worse than it started, end train
        in one error line, with no numpy warning and no checkpoint or
        report written."""
        ckpt, report = tmp_path / "model.npz", tmp_path / "report.json"
        capsys.readouterr()
        assert run_cli(
            "train", "--train-csv", str(dataset_dir / "train.csv"),
            "--model", kind, "--window", "6", "--stride", "3", "--hidden", "4",
            "--learning-rate", rate, "--method", method, "--seed", "0",
            "--checkpoint", str(ckpt), "--report", str(report)) == 1
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
        assert not ckpt.exists() and not report.exists()

    def test_unwritable_scores_path_names_it(self, checkpoint, dataset_dir,
                                             tmp_path, capsys):
        target = tmp_path / "nodir" / "x.csv"
        capsys.readouterr()
        code = run_cli("evaluate", "--test-csv", str(dataset_dir / "test.csv"),
                       "--checkpoint", str(checkpoint),
                       "--scores-out", str(target))
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"

    def test_missing_test_csv(self, checkpoint, tmp_path, capsys):
        capsys.readouterr()
        code = run_cli("evaluate", "--test-csv", str(tmp_path / "none.csv"),
                       "--checkpoint", str(checkpoint))
        self.assert_failed(code, capsys)

    # a numpy warning would surface as an exception, not a stderr line
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry, damage", [
        ("norm_std", lambda std: std.reshape(-1, 1)),
        ("norm_std", lambda std: -np.ones_like(std)),
        ("norm_std", np.zeros_like),
        ("norm_std", lambda std: np.full_like(std, 1e-9)),
        ("norm_std", lambda std: np.full_like(std, np.inf)),
        ("norm_mean", lambda mean: np.full_like(mean, np.nan)),
        ("norm_mean", lambda mean: mean[:1]),
    ], ids=["std_column", "std_negative", "std_zero", "std_below_floor",
            "std_inf", "mean_nan", "mean_short"])
    def test_malformed_normalizer(self, entry, damage, checkpoint, dataset_dir,
                                  capsys):
        with np.load(checkpoint) as archive:
            arrays = {k: archive[k] for k in archive.files}
        arrays[entry] = damage(arrays[entry])
        with open(checkpoint, "wb") as fh:
            np.savez(fh, **arrays)
        capsys.readouterr()
        code = run_cli("evaluate", "--test-csv", str(dataset_dir / "test.csv"),
                       "--checkpoint", str(checkpoint))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {checkpoint}: normalizer ")
        assert err.count("\n") == 1

    # numpy raises ValueError, not MemoryError, for a shape it cannot index
    @pytest.mark.parametrize("argv", [
        ["train", "--model", "prediction", "--hidden", str(10**30)],
        ["train", "--hidden", "8", "--trial-epochs", str(10**30)],
        ["generate", "--channels", str(10**24)],
    ], ids=["prediction_hidden", "trial_epochs", "generate_channels"])
    def test_unindexable_size_is_one_error_line(self, argv, dataset_dir,
                                                tmp_path, capsys):
        if argv[0] == "train":
            argv = argv + ["--train-csv", str(dataset_dir / "train.csv"),
                           "--checkpoint", str(tmp_path / "m.npz")]
        else:
            argv = argv + ["--out", str(tmp_path / "big")]
        capsys.readouterr()
        assert run_cli(*argv, "--seed", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestSweepFailsBeforeWriting:
    """Dataset, label and architecture errors, and a damaged results.csv,
    end a sweep in exit code 1 with one error line before any file is
    written."""

    @staticmethod
    def assert_failed(code, capsys, *needles):
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        for needle in needles:
            assert needle in err

    @staticmethod
    def sweep(cfg, out):
        return run_cli("sweep", "--config", str(cfg), "--seed", "7",
                       "--out", str(out))

    def assert_aborted(self, cfg, tmp_path, capsys, *needles):
        out = tmp_path / "out"
        capsys.readouterr()
        self.assert_failed(self.sweep(cfg, out), capsys, *needles)
        assert not out.exists()

    def test_missing_train_csv(self, dataset_dir, tmp_path, capsys):
        cfg = sweep_config(tmp_path, dataset={
            "train_csv": str(tmp_path / "missing.csv"),
            "test_csv": str(dataset_dir / "test.csv"),
        })
        self.assert_aborted(cfg, tmp_path, capsys, "missing.csv")

    def test_test_csv_without_label_column(self, dataset_dir, tmp_path, capsys):
        unlabeled = tmp_path / "unlabeled.csv"
        lines = (dataset_dir / "test.csv").read_text().splitlines()
        assert lines[0].endswith(",label")
        unlabeled.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                     for line in lines))
        cfg = sweep_config(tmp_path, dataset={
            "train_csv": str(dataset_dir / "train.csv"),
            "test_csv": str(unlabeled),
        })
        self.assert_aborted(cfg, tmp_path, capsys, "unlabeled.csv", "label")

    def test_channel_count_mismatch_names_both_files(self, dataset_dir,
                                                      tmp_path, capsys):
        test = data.load_csv(str(dataset_dir / "test.csv"))
        wide = tmp_path / "wide.csv"
        data.write_csv(data.MultivariateSeries(
            np.hstack([test.values, test.values[:, :1]]), test.labels,
            ["c0", "c1", "c2"]), str(wide))
        train_csv = str(dataset_dir / "train.csv")
        cfg = sweep_config(tmp_path, dataset={"train_csv": train_csv,
                                              "test_csv": str(wide)})
        self.assert_aborted(cfg, tmp_path, capsys,
                            f"{wide}: test series has 3 channels",
                            f"training series {train_csv} has 2")

    def test_one_class_test_labels(self, tmp_path, capsys):
        cfg = sweep_config(tmp_path, dataset={"synthetic": {
            "channels": 2, "length": 600, "periods": [30],
            "anomaly_rate": 0.0, "seed": 0,
        }})
        self.assert_aborted(cfg, tmp_path, capsys, "test labels hold only [0]")

    def test_flagged_training_windows_with_contamination(self, dataset_dir,
                                                          tmp_path, capsys):
        dataset = contaminated_dataset(dataset_dir, tmp_path)
        cfg = sweep_config(tmp_path, dataset=dataset)
        self.assert_aborted(cfg, tmp_path, capsys, dataset["train_csv"],
                            "training windows are flagged anomalous")

    @pytest.mark.parametrize("extra", [
        {"hidden_sizes": [32]},  # bottleneck 32 >= window 6 x 2 channels
        {"model_kinds": ["prediction"], "horizon": 6},  # horizon >= window 6
    ])
    def test_impossible_architecture(self, extra, tmp_path, capsys):
        self.assert_aborted(sweep_config(tmp_path, **extra), tmp_path, capsys)

    @pytest.mark.parametrize("extra, needle", [
        ({"dataset": {"synthetic": [1]}}, "'synthetic' must be an object"),
        ({"hidden_sizes": 4}, "'hidden_sizes' must be a list of integers"),
        ({"methods": 5}, "'methods' must be a list of strings"),
        ({"ratios": 0.1}, "'ratios' must be a list of numbers"),
        ({"window": 2.5}, "'window' must be an integer"),
        # ranges, checked as early
        ({"tau": 1.5}, "tau must be in (0, 1)"),
        ({"tau": 1e-17}, "tau 1e-17 is too small: 1 - tau rounds to 1"),
        ({"train": {"learning_rate": float("inf")}},
         "learning rate must be finite and > 0, got inf"),
        ({"dataset": {"synthetic": {"length": 600, "periods": [30],
                                    "noise_sigma": float("inf")}}},
         "noise sigma must be finite and >= 0, got inf"),
        # values only cutting windows or building a model can check
        ({"window": 0}, "window length must be >= 1"),
        ({"train_stride": 0}, "stride must be >= 1"),
        ({"window": 601}, "exceeds series length 600"),
        ({"hidden_sizes": []}, "need at least one hidden layer size"),
        ({"hidden_sizes": [0]}, "layer sizes must be positive integers"),
        ({"dataset": {"synthetic": {"length": 600, "periods": [30],
                                    "seed": -1}}},
         "seed must be >= 0, got -1"),
        # 600 timesteps at window 6 and stride 150 give 4 windows
        ({"train_stride": 150}, "training needs at least 5 windows"),
        # a repeated grid entry would run its cells again
        ({"model_kinds": ["reconstruction", "reconstruction"],
          "methods": ["vanilla", "combined", "combined"],
          "ratios": [0.0, 0.1, 0.1]},
         "model_kinds lists reconstruction more than once"),
        ({"methods": ["vanilla", "combined", "combined"]},
         "methods lists combined more than once"),
        ({"methods": ["m", "m_only"]}, "methods lists m_only more than once"),
        ({"ratios": [0.0, 0.1, 0.1]}, "ratios lists 0.1 more than once"),
        ({"ratios": [0.1, 0.1000001]}, "ratios lists 0.1 more than once (as %g)"),
    ], ids=["synthetic", "hidden_sizes", "methods", "ratios", "window", "tau",
            "tau_too_small", "learning_rate_inf", "noise_sigma_inf", "window_0",
            "train_stride_0", "window_too_long", "no_hidden_layer", "hidden_size_0",
            "seed_negative", "train_windows_too_few", "repeated_grid",
            "repeated_methods", "repeated_method_alias", "repeated_ratios",
            "repeated_ratios_as_g"])
    def test_bad_config_value_creates_nothing(self, extra, needle, tmp_path, capsys):
        self.assert_aborted(sweep_config(tmp_path, **extra), tmp_path, capsys,
                            needle)

    def test_unknown_method(self, tmp_path, capsys):
        cfg = sweep_config(tmp_path, methods=["vanilla", "bogus"])
        self.assert_aborted(cfg, tmp_path, capsys,
                            "methods must be a non-empty subset of ")

    SYNTHETIC = SWEEP_CONFIG["dataset"]["synthetic"]

    # one value out of range for each rule a config file can break
    @pytest.mark.parametrize("extra, message", [
        ({"tau": 1.5}, "tau must be in (0, 1), got 1.5"),
        ({"trial_epochs": 0}, "trial epochs must be >= 1, got 0"),
        ({"train": {"epochs": 0}}, "epochs must be >= 1, got 0"),
        ({"train": {"learning_rate": 0}},
         "learning rate must be finite and > 0, got 0"),
        ({"repetitions": 0}, "repetitions must be >= 1, got 0"),
        ({"ratios": [0.3]},
         "ratios must be a non-empty subset of [0, 0.2], got (0.3,)"),
        ({"methods": ["m", "m_only"]}, "methods lists m_only more than once"),
        ({"dataset": {"synthetic": {**SYNTHETIC, "anomaly_rate": 0.9}}},
         "anomaly rate must be in [0, 0.3], got 0.9"),
        ({"dataset": {"synthetic": SYNTHETIC, "train_csv": "train.csv"}},
         "configure exactly one dataset source: synthetic or CSV paths"),
        ({"methods": ["vanilla", "bogus"]},
         f"methods must be a non-empty subset of {filtering.METHODS}, "
         f"got ('vanilla', 'bogus')"),
    ], ids=["tau", "trial_epochs", "epochs", "learning_rate", "repetitions",
            "ratios", "method_alias_twice", "anomaly_rate", "two_sources",
            "unknown_method"])
    def test_config_error_names_the_file(self, extra, message, tmp_path, capsys):
        cfg = sweep_config(tmp_path, **extra)
        capsys.readouterr()
        assert self.sweep(cfg, tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, key", [
        ([], "window"), (["train"], "epochs"), (["dataset"], "synthetic"),
        (["dataset", "synthetic"], "seed")], ids=["config", "train", "dataset",
                                                  "synthetic"])
    def test_repeated_key(self, block, key, tmp_path, capsys):
        obj = SWEEP_CONFIG
        for name in block:
            obj = obj[name]
        # the object's own JSON, with key written again before its "}"
        text = json.dumps(obj)
        repeated = f"{text[:-1]}, {json.dumps(key)}: {json.dumps(obj[key])}}}"
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(SWEEP_CONFIG).replace(text, repeated, 1))
        self.assert_aborted(cfg, tmp_path, capsys,
                            f"error: {cfg}: invalid JSON: key {key!r} appears "
                            f"more than once")

    def test_results_csv_with_another_header(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        results = out / "results.csv"
        results.write_text("model,method,ratio\n")
        capsys.readouterr()
        self.assert_failed(self.sweep(sweep_config(tmp_path), out), capsys,
                           f"{results}: unexpected results header "
                           f"['model', 'method', 'ratio']")
        assert results.read_text() == "model,method,ratio\n"
        assert list(out.iterdir()) == [results]

    @pytest.mark.parametrize("config", ["sweep.json", "missing.json"])
    def test_negative_seed_names_the_flag_not_the_file(self, config, tmp_path,
                                                        capsys):
        """--seed is checked before the config is read, so a config that
        does not exist gives the seed error too."""
        sweep_config(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("sweep", "--config", str(tmp_path / config), "--seed", "-1",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: base seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["directory", "below_a_file"])
    def test_unreadable_config_path(self, where, tmp_path, capsys):
        cfg = tmp_path if where == "directory" else sweep_config(tmp_path) / "x.json"
        self.assert_aborted(cfg, tmp_path, capsys, f"error: cannot read {cfg}: ")

    def test_out_below_a_regular_file(self, tmp_path, capsys):
        cfg = sweep_config(tmp_path)
        out = cfg / "out"
        capsys.readouterr()
        self.assert_failed(self.sweep(cfg, out), capsys,
                           f"error: cannot read {out / 'results.csv'}: ")
        assert sorted(os.listdir(tmp_path)) == ["sweep.json"]

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b'{"dataset": "\xff"}')
        self.assert_aborted(cfg, tmp_path, capsys, str(cfg), "not UTF-8 text")

    def test_out_dir_key(self, tmp_path, capsys):
        cfg = sweep_config(tmp_path, out_dir=str(tmp_path / "cfg_out"))
        self.assert_aborted(cfg, tmp_path, capsys, "unknown config keys ['out_dir']")
        assert not (tmp_path / "cfg_out").exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one(self, workers, tmp_path, capsys):
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_cli("sweep", "--config", str(sweep_config(tmp_path)),
                       "--seed", "7", "--out", str(out), "--workers", workers)
        self.assert_failed(code, capsys, f"workers must be >= 1, got {workers}")
        assert not out.exists()

    # one stored cell replaced: (data row, column, text, expected message)
    CELL_DAMAGE = {
        "non_numeric_auc": (1, 4, "not-a-number", "row 1"),
        # values no sweep writes
        "auc_above_one": (1, 4, "7.5", "row 1: auc 7.5 is not in [0, 1]"),
        "auc_nan": (2, 4, "nan", "row 2: auc nan is not in [0, 1]"),
        "auc_negative": (1, 4, "-0.5", "row 1: auc -0.5 is not in [0, 1]"),
        "f1_inf": (1, 5, "inf", "row 1: best_f1 inf is not in [0, 1]"),
        "coverage_above_one": (2, 6, "1.5", "row 2: coverage 1.5 is not in [0, 1]"),
        "discard_negative": (1, 7, "-1", "row 1: discard_size -1 is negative"),
        "f1_na": (2, 5, "NA", "row 2: auc and best_f1 must be both NA or both"),
        "auc_na": (1, 4, "NA", "row 1: auc and best_f1 must be both NA or both"),
    }

    @pytest.mark.parametrize("damage", ["truncated_row", "extra_cell",
                                        "not_utf8", *CELL_DAMAGE])
    def test_damaged_results_csv(self, damage, tmp_path, capsys):
        cfg = sweep_config(tmp_path, methods=["vanilla"], ratios=[0.0])
        out = tmp_path / "out"
        assert self.sweep(cfg, out) == 0
        results = out / "results.csv"
        lines = results.read_text().splitlines()
        assert len(lines) == 3  # header and two repetitions
        if damage == "truncated_row":
            text = "\n".join(lines)[: -(len(lines[2]) // 2)]
        elif damage == "not_utf8":
            text = "\n".join(lines[:2]) + "\n\udcff\n"
        elif damage == "extra_cell":
            text = "\n".join([lines[0], lines[1] + ",1", lines[2]]) + "\n"
        else:
            row, column, cell, _ = self.CELL_DAMAGE[damage]
            cells = lines[row].split(",")
            cells[column] = cell
            lines[row] = ",".join(cells)
            text = "\n".join(lines) + "\n"
        damaged = text.encode("utf-8", "surrogateescape")
        results.write_bytes(damaged)
        capsys.readouterr()
        where = {"truncated_row": "row 2", "not_utf8": "not a readable CSV",
                 "extra_cell": "row 1",
                 **{k: v[3] for k, v in self.CELL_DAMAGE.items()}}
        self.assert_failed(self.sweep(cfg, out), capsys, str(results),
                           where[damage])
        assert results.read_bytes() == damaged


class TestSweepCommand:
    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_library_sweep_writes_the_command_files(self, source, dataset_dir,
                                                    tmp_path):
        """run_sweep writes manifest.json, results.csv and summary.csv, byte
        for byte as the sweep command does with the same config and seed."""
        extra = {} if source == "synthetic" else {"dataset": {
            "train_csv": str(dataset_dir / "train.csv"),
            "test_csv": str(dataset_dir / "test.csv")}}
        cfg = sweep_config(tmp_path, **extra)
        assert run_cli("sweep", "--config", str(cfg), "--seed", "7",
                       "--out", str(tmp_path / "command")) == 0
        experiment.run_sweep(experiment.load_sweep_config(str(cfg), 7),
                             raw_path=str(tmp_path / "library" / "results.csv"))
        files = ["manifest.json", "results.csv", "summary.csv"]
        for out in ("command", "library"):
            assert sorted(os.listdir(tmp_path / out)) == files
        for name in files:
            assert ((tmp_path / "library" / name).read_bytes()
                    == (tmp_path / "command" / name).read_bytes())

    def test_byte_identical_reruns(self, tmp_path):
        cfg = sweep_config(tmp_path)
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        assert run_cli("sweep", "--config", str(cfg), "--seed", "7",
                       "--out", str(out_a)) == 0
        assert run_cli("sweep", "--config", str(cfg), "--seed", "7",
                       "--out", str(out_b)) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_record_timing_changes_only_wall_time(self, tmp_path, monkeypatch):
        """--record-timing writes an ok row's wall time with three decimals
        and a failed row's as NA, every other cell as an untimed run does;
        a re-run into the finished directory runs no cell and rewrites
        results.csv byte for byte."""
        def no_trace(*args):
            raise NumericError("no trace")

        cfg = str(sweep_config(tmp_path))
        sweep = partial(run_cli, "sweep", "--config", cfg, "--seed", "7", "--out")
        with monkeypatch.context() as patch:  # every combined cell fails
            patch.setattr(experiment, "record_trial_traces", no_trace)
            assert sweep(str(tmp_path / "untimed")) == 0
            assert sweep(str(tmp_path / "timed"), "--record-timing") == 0
        tables = [(tmp_path / out / "results.csv").read_text().splitlines()
                  for out in ("untimed", "timed")]
        header, *rows = (line.split(",") for line in tables[1])
        assert header[-1] == "wall_time_s" and len(rows) == 8
        for row, untimed in zip(rows, tables[0][1:]):
            assert ",".join(row[:-1] + ["NA"]) == untimed
            if row[1] == "combined":
                assert row[4] == row[-1] == "NA"  # auc
            else:
                assert re.fullmatch(r"\d+\.\d{3}", row[-1]), row[-1]

        results = tmp_path / "timed" / "results.csv"
        assert sweep(str(tmp_path / "timed"), "--record-timing") == 0  # retried
        finished = results.read_bytes()
        assert b",NA\n" not in finished

        def no_cell(*args):
            raise AssertionError("a finished sweep ran a cell")

        monkeypatch.setattr(experiment, "_run_group_task", no_cell)
        assert sweep(str(tmp_path / "timed"), "--record-timing") == 0
        assert results.read_bytes() == finished

    def test_flagged_training_windows_at_ratio_zero(self, dataset_dir,
                                                    tmp_path):
        cfg = sweep_config(tmp_path, ratios=[0.0],
                           dataset=contaminated_dataset(dataset_dir, tmp_path))
        out = tmp_path / "res"
        assert run_cli("sweep", "--config", str(cfg), "--seed", "7",
                       "--out", str(out)) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 5  # header, 2 methods x 2 repetitions
        assert all(line.split(",")[4] != "NA" for line in lines[1:])  # auc

    def test_diverging_cells_are_na_rows_without_warnings(self, tmp_path):
        """Every cell of a diverging sweep is an NA row whose logged error
        names the epoch, and stderr holds no numpy warning, pooled or not."""
        cfg = sweep_config(tmp_path, model_kinds=list(models.MODEL_KINDS),
                           train={**SWEEP_CONFIG["train"], "learning_rate": 1e300})
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        stderr = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            done = subprocess.run(
                [sys.executable, "-m", "losstrace.cli", "sweep", "--config",
                 str(cfg), "--seed", "7", "--out", str(out), "--workers", workers],
                env=env, capture_output=True, text=True, check=True)
            rows = (out / "results.csv").read_text().splitlines()[1:]
            assert len(rows) == 16
            assert all(row.split(",")[4] == "NA" for row in rows)  # auc
            lines = done.stderr.splitlines()
            assert len(lines) == len(rows) + 1  # one per cell, then the hint
            assert all(": training diverged in epoch " in line
                       for line in lines[:-1])
            assert "RuntimeWarning" not in done.stderr
            stderr.append(done.stderr)
        assert stderr[0] == stderr[1]

    def test_unknown_config_key_fails_without_writes(self, tmp_path):
        cfg = sweep_config(tmp_path, bogus_key=1)
        out = tmp_path / "never"
        code = run_cli("sweep", "--config", str(cfg), "--seed", "7",
                       "--out", str(out))
        assert code != 0
        assert not out.exists()

    def test_invalid_config_value_fails_without_writes(self, tmp_path):
        cfg = sweep_config(tmp_path, ratios=[0.9])
        out = tmp_path / "never"
        assert run_cli("sweep", "--config", str(cfg), "--seed", "7",
                       "--out", str(out)) != 0
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert run_cli("sweep", "--config", str(tmp_path / "nope.json"),
                       "--seed", "1", "--out", str(tmp_path / "o")) != 0

    def test_seed_is_mandatory(self, tmp_path):
        cfg = sweep_config(tmp_path)
        assert run_cli("sweep", "--config", str(cfg),
                       "--out", str(tmp_path / "o")) != 0

    def test_out_is_mandatory(self, tmp_path):
        cfg = sweep_config(tmp_path)
        assert run_cli("sweep", "--config", str(cfg), "--seed", "7") == 2

    def test_help_lists_run_settings_only(self, capsys):
        assert run_cli("sweep", "--help") == 0
        flags = {word.strip("[],") for word in capsys.readouterr().out.split()
                 if word.strip("[],").startswith("--")}
        assert flags == {"--help", "--config", "--seed", "--out", "--workers",
                         "--record-timing"}

    # the grid settings come from the config file only
    @pytest.mark.parametrize("flag, value", [
        ("--ratios", "0.0"), ("--repetitions", "1"), ("--methods", "vanilla"),
        ("--model-kinds", "reconstruction"), ("--tau", "0.2"),
        ("--trial-epochs", "2"),
    ])
    def test_grid_flag_is_rejected(self, flag, value, tmp_path):
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", str(sweep_config(tmp_path)),
                       "--seed", "7", "--out", str(out), flag, value) == 2
        assert not out.exists()


class TestSweepManifest:
    """A sweep writes manifest.json beside results.csv, and resumes a
    results.csv only under the configuration its manifest records."""

    @staticmethod
    def csv_config(tmp_path, dataset_dir, name, trial_epochs, epochs):
        path = tmp_path / name
        path.write_text(json.dumps({
            "dataset": {"train_csv": str(dataset_dir / "train.csv"),
                        "test_csv": str(dataset_dir / "test.csv")},
            "model_kinds": ["reconstruction"], "methods": ["vanilla", "combined"],
            "ratios": [0.0], "repetitions": 1, "window": 6, "train_stride": 3,
            "hidden_sizes": [4], "trial_epochs": trial_epochs,
            "train": {"epochs": epochs}}))
        return str(path)

    def test_other_configuration_is_refused(self, dataset_dir, tmp_path, capsys):
        first = self.csv_config(tmp_path, dataset_dir, "first.json", 2, 3)
        other = self.csv_config(tmp_path, dataset_dir, "other.json", 9, 40)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run_cli("sweep", "--config", first, "--seed", "1", "--out", str(out)) == 0
        stored = {f.name: f.read_bytes() for f in out.iterdir()}
        assert sorted(stored) == ["manifest.json", "results.csv", "summary.csv"]
        capsys.readouterr()
        assert run_cli("sweep", "--config", other, "--seed", "1", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {out}: its results come from another sweep configuration "
            f"('config.trial_epochs' differs from manifest.json); re-run with the "
            f"same config and base seed, or write to another output directory\n")
        assert {f.name: f.read_bytes() for f in out.iterdir()} == stored
        # the refused rows are not the other configuration's
        assert run_cli("sweep", "--config", other, "--seed", "1",
                       "--out", str(fresh)) == 0
        assert (fresh / "results.csv").read_bytes() != stored["results.csv"]

    @pytest.mark.parametrize("key", ["base_seed", "config.repetitions",
                                     "config.train.epochs", "csv_sha256.train_csv"])
    def test_first_differing_key_is_named(self, key, dataset_dir, tmp_path, capsys):
        config = Path(self.csv_config(tmp_path, dataset_dir, "c.json", 2, 3))
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(config), "--out", str(out)]
        assert run_cli(*argv, "--seed", "1") == 0
        results = (out / "results.csv").read_bytes()
        seed, cfg = "1", json.loads(config.read_text())
        if key == "base_seed":
            seed = "2"
        elif key == "config.repetitions":
            cfg["repetitions"] = 2
        elif key == "config.train.epochs":
            cfg["train"]["epochs"] = 2
        else:  # one more timestep in the training series
            train = dataset_dir / "train.csv"
            text = train.read_text()
            train.write_text(text + text.splitlines()[-1] + "\n")
        config.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run_cli(*argv, "--seed", seed) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: ") and err.count("\n") == 1
        assert f"({key!r} differs from manifest.json)" in err
        assert (out / "results.csv").read_bytes() == results

    @pytest.mark.parametrize("rerun", [["--workers", "2"], ["--record-timing"]])
    def test_run_settings_are_not_configuration(self, rerun, tmp_path, monkeypatch):
        cfg = str(sweep_config(tmp_path))
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--seed", "7", "--out", str(out)) == 0
        stored = {f.name: f.read_bytes() for f in out.iterdir()}
        calls = []
        monkeypatch.setattr(experiment, "_run_group_task",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(experiment, "prepare_data",
                            lambda *args: calls.append(args))
        assert run_cli("sweep", "--config", cfg, "--seed", "7", "--out", str(out),
                       *rerun) == 0
        assert calls == []
        assert {f.name: f.read_bytes() for f in out.iterdir()} == stored

    def test_manifest_with_a_repeated_key_is_refused(self, tmp_path, capsys):
        cfg = str(sweep_config(tmp_path))
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--seed", "7", "--out", str(out)) == 0
        manifest = out / "manifest.json"
        text = manifest.read_text()
        assert '"base_seed": 7,' in text
        manifest.write_text(text.replace('"base_seed": 7,',
                                         '"base_seed": 7, "base_seed": 7,', 1))
        stored = {f.name: f.read_bytes() for f in out.iterdir()}
        capsys.readouterr()
        assert run_cli("sweep", "--config", cfg, "--seed", "7", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {manifest}: not a readable manifest: key 'base_seed' "
            f"appears more than once\n")
        assert {f.name: f.read_bytes() for f in out.iterdir()} == stored

    def test_results_without_manifest_are_adopted(self, tmp_path, monkeypatch,
                                                  caplog):
        cfg = str(sweep_config(tmp_path))
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--seed", "7", "--out", str(out)) == 0
        manifest = (out / "manifest.json").read_bytes()
        results = (out / "results.csv").read_bytes()
        (out / "manifest.json").unlink()
        lines = results.decode().splitlines(keepends=True)
        (out / "results.csv").write_text("".join(lines[:-1]))  # one row to run
        calls = []
        run_group = experiment._run_group_task

        def counted(task, bundle):
            _cfg, kind, ratio, _rep, methods = task
            calls.append((kind, ratio, methods))
            return run_group(task, bundle)

        monkeypatch.setattr(experiment, "_run_group_task", counted)
        with caplog.at_level(logging.WARNING, logger="losstrace.experiment"):
            assert run_cli("sweep", "--config", cfg, "--seed", "7",
                           "--out", str(out)) == 0
        assert [r.getMessage() for r in caplog.records] == [
            f"{out / 'results.csv'}: no manifest.json beside it, so the "
            f"configuration of its 7 stored rows cannot be checked; they are kept"]
        assert calls == [("reconstruction", 0.1, ("combined",))]
        assert (out / "results.csv").read_bytes() == results
        assert (out / "manifest.json").read_bytes() == manifest


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["m", "m_only", "vanilla", "combined", "prediction",
                       "reconstruction", "spike"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8)


@st.composite
def near_sweep_configs(draw):
    """SWEEP_CONFIG with a few of its keys, at any level, removed or given
    an arbitrary JSON value; unknown keys are added the same way."""
    cfg = json.loads(json.dumps(SWEEP_CONFIG))
    blocks = [cfg, cfg["train"], cfg["dataset"], cfg["dataset"]["synthetic"]]
    for _ in range(draw(st.integers(1, 3))):
        block = draw(st.sampled_from(blocks))
        key = draw(st.sampled_from(sorted(block) + ["bogus", "out_dir",
                                                    "train_csv", "test_csv"]))
        if draw(st.booleans()):
            block.pop(key, None)
        else:
            block[key] = draw(JSON_VALUES)
    return cfg


class TestLoadSweepConfig:
    """Any file loads to a SweepConfig or fails with a ToolkitError whose
    message fits on the one `error:` line the command prints."""

    @staticmethod
    def check(path, content: bytes, base_seed: int = 7):
        path.write_bytes(content)
        try:
            assert isinstance(experiment.load_sweep_config(str(path), base_seed),
                              SweepConfig)
        except ToolkitError as exc:
            message = str(exc)
            assert message and "\n" not in message
            message.encode("utf-8")  # printable to stderr

    # a value of each config key's JSON type for the fields whose default
    # is None; the other fields' defaults are of their own type
    RIGHT_VALUES = {"synthetic": SWEEP_CONFIG["dataset"]["synthetic"],
                    "train_csv": "train.csv", "test_csv": "test.csv"}

    @staticmethod
    def place(cfg: dict, name: str, value) -> dict:
        """cfg with the key of SweepConfig field name set to value, at the
        level the config file puts it; a CSV path makes a CSV dataset."""
        cfg = json.loads(json.dumps(cfg))
        group = next((g for g, names in experiment.CONFIG_GROUPS.items()
                      if name in names), None)
        if group == "dataset" and name != "synthetic":
            cfg["dataset"] = {"train_csv": "train.csv", "test_csv": "test.csv"}
        elif group == "dataset":
            cfg["dataset"] = {}
        (cfg if group is None else cfg.setdefault(group, {}))[name] = value
        return cfg

    def load(self, tmp_path, cfg):
        path = tmp_path / "fields.json"
        path.write_text(json.dumps(cfg))
        return experiment.load_sweep_config(str(path), 7)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SweepConfig)
                                      if f.name != "base_seed"])
    def test_every_sweep_config_field_is_a_key(self, name, tmp_path):
        value = self.RIGHT_VALUES.get(name, getattr(SweepConfig, name))
        value = json.loads(json.dumps(value))
        loaded = getattr(self.load(tmp_path, self.place(SWEEP_CONFIG, name, value)),
                         name)
        if name == "synthetic":
            assert loaded == data.SyntheticConfig(**{
                k: tuple(v) if isinstance(v, list) else v for k, v in value.items()})
        else:
            assert loaded == (tuple(value) if isinstance(value, list) else value)
        with pytest.raises(ConfigError, match=rf"'{name}' must be (an?|a list of) "
                                               rf"\w+, got true$"):
            self.load(tmp_path, self.place(SWEEP_CONFIG, name, True))

    @pytest.mark.parametrize("name", [f.name for f in
                                      dataclasses.fields(data.SyntheticConfig)])
    def test_every_synthetic_config_field_is_a_key(self, name, tmp_path):
        defaults = json.loads(json.dumps(dataclasses.asdict(data.SyntheticConfig())))
        cfg = self.place(SWEEP_CONFIG, "synthetic", defaults)
        assert self.load(tmp_path, cfg).synthetic == data.SyntheticConfig()
        cfg["dataset"]["synthetic"][name] = True
        with pytest.raises(ConfigError, match=rf"synthetic value '{name}' must be "
                                               rf"(an?|a list of) \w+, got true$"):
            self.load(tmp_path, cfg)

    def test_dataset_of_two_sources(self, tmp_path):
        cfg = json.loads(json.dumps(SWEEP_CONFIG))
        cfg["dataset"]["train_csv"] = "train.csv"
        path = tmp_path / "fields.json"
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"{path}: configure exactly one dataset source: synthetic or "
                f"CSV paths") + "$"):
            self.load(tmp_path, cfg)

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_manifest_config_loads_back(self, source, dataset_dir, tmp_path):
        """The config a manifest records, written as a config file, loads
        back to the SweepConfig it records."""
        dataset = ({"synthetic": data.SyntheticConfig(channels=2, length=600,
                                                      periods=(30,), seed=4)}
                   if source == "synthetic" else
                   {"train_csv": str(dataset_dir / "train.csv"),
                    "test_csv": str(dataset_dir / "test.csv")})
        cfg = SweepConfig(9, **dataset, model_kinds=("prediction",),
                          methods=("combined", "vanilla"), ratios=(0.0, 0.05),
                          repetitions=2, tau=0.15, trial_epochs=3, window=8,
                          horizon=2, hidden_sizes=(6, 3), train_stride=4,
                          epochs=7, batch_size=32, learning_rate=0.002, patience=3)
        path = tmp_path / "recorded.json"
        path.write_text(json.dumps(experiment.sweep_manifest(cfg)["config"]))
        assert experiment.load_sweep_config(str(path), cfg.base_seed) == cfg

    @pytest.mark.parametrize("config", ["sweep.json", "missing.json"])
    def test_negative_base_seed_is_checked_before_the_file(self, config, tmp_path):
        sweep_config(tmp_path)
        with pytest.raises(ConfigError, match=r"^base seed must be >= 0, got -1$"):
            experiment.load_sweep_config(str(tmp_path / config), -1)

    @pytest.mark.parametrize("where", ["directory", "below_a_file"])
    def test_unreadable_path_is_a_config_error(self, where, tmp_path):
        path = tmp_path if where == "directory" else sweep_config(tmp_path) / "x.json"
        with pytest.raises(ConfigError, match="^" + re.escape(f"cannot read {path}: ")):
            experiment.load_sweep_config(str(path), 7)

    def test_utf8_bom_is_skipped(self, tmp_path):
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_text(json.dumps(SWEEP_CONFIG), encoding="utf-8")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert (experiment.load_sweep_config(str(bom), 7)
                == experiment.load_sweep_config(str(plain), 7))

    @settings(max_examples=200, deadline=None)
    @given(content=st.binary(max_size=64))
    @example(content=b'{"dataset": "\xff"}')
    @example(content=b"[" * 100_000)  # nested deeper than the parser recurses
    @example(content=b'{"repetitions": ' + b"1" * 5000 + b"}")  # too long an int
    def test_any_bytes(self, content, tmp_path_factory):
        self.check(tmp_path_factory.getbasetemp() / "any-bytes.json", content)

    @settings(max_examples=200, deadline=None)
    @given(document=JSON_VALUES)
    def test_any_json_document(self, document, tmp_path_factory):
        self.check(tmp_path_factory.getbasetemp() / "any-document.json",
                   json.dumps(document).encode())

    @settings(max_examples=300, deadline=None)
    @given(cfg=near_sweep_configs(), base_seed=st.integers(-1, 2**64))
    @example(cfg=SWEEP_CONFIG, base_seed=7)
    def test_near_valid_configs(self, cfg, base_seed, tmp_path_factory):
        self.check(tmp_path_factory.getbasetemp() / "near-valid.json",
                   json.dumps(cfg).encode(), base_seed)


@pytest.fixture(scope="module")
def finished_sweep(tmp_path_factory):
    """A finished sweep of SWEEP_CONFIG: (its config, its results.csv)."""
    base = tmp_path_factory.mktemp("finished")
    config = sweep_config(base)
    assert run_cli("sweep", "--config", str(config), "--seed", "7",
                   "--out", str(base / "out")) == 0
    return experiment.load_sweep_config(str(config), 7), base / "out" / "results.csv"


@st.composite
def near_manifests(draw, manifest):
    """manifest with a few of its entries, at any level, removed or given
    an arbitrary JSON value; unknown entries are added the same way."""
    manifest = json.loads(json.dumps(manifest))
    blocks = [manifest, manifest["config"], manifest["config"]["train"],
              manifest["config"]["dataset"],
              manifest["config"]["dataset"]["synthetic"]]
    for _ in range(draw(st.integers(1, 3))):
        block = draw(st.sampled_from(blocks))
        key = draw(st.sampled_from(sorted(block) + ["bogus"]))
        if draw(st.booleans()):
            block.pop(key, None)
        else:
            block[key] = draw(JSON_VALUES)
    return json.dumps(manifest).encode()


class TestStoredManifest:
    """Any stored manifest.json other than the run's own ends the resume in
    a ToolkitError that fits on one line, and leaves results.csv as it was."""

    @staticmethod
    def check(finished_sweep, content: bytes):
        cfg, results = finished_sweep
        stored = results.read_bytes()
        (results.parent / "manifest.json").write_bytes(content)
        try:
            experiment.run_sweep(cfg, raw_path=str(results))
        except ToolkitError as exc:
            assert str(exc) and "\n" not in str(exc)
        else:
            assert json.loads(content) == experiment.sweep_manifest(cfg)
        assert results.read_bytes() == stored

    @settings(max_examples=100, deadline=None)
    @given(content=st.binary(max_size=64))
    @example(content=b"\xff")
    @example(content=b"[" * 100_000)  # nested deeper than the parser recurses
    @example(content=b'{"base_seed": ' + b"1" * 5000 + b"}")  # too long an int
    @example(content=b"null")
    @example(content=b"[]")
    def test_any_bytes(self, content, finished_sweep):
        self.check(finished_sweep, content)

    @settings(max_examples=100, deadline=None)
    @given(document=JSON_VALUES)
    def test_any_json_document(self, document, finished_sweep):
        self.check(finished_sweep, json.dumps(document).encode())

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_near_valid_manifests(self, data, finished_sweep):
        manifest = experiment.sweep_manifest(finished_sweep[0])
        self.check(finished_sweep, data.draw(near_manifests(manifest)))

    def test_own_manifest_resumes(self, finished_sweep):
        self.check(finished_sweep,
                   json.dumps(experiment.sweep_manifest(finished_sweep[0])).encode())


def test_dead_pool_worker_is_one_error_line(tmp_path, monkeypatch, capsys):
    """A worker that dies ends the sweep with exit 1 and one error line;
    nothing is written and stored results stay as they were."""
    cfg = sweep_config(tmp_path)
    stored = tmp_path / "stored"
    assert run_cli("sweep", "--config", str(cfg), "--seed", "7",
                   "--out", str(stored)) == 0
    # drop a row of a ratio-0 group and one of a ratio-0.1 group: the re-run
    # has two groups to send to two workers
    lines = (stored / "results.csv").read_text().splitlines(keepends=True)
    (stored / "results.csv").write_text("".join(lines[:2] + lines[3:-1]))
    before = {f: (stored / f).read_bytes() for f in ("results.csv", "summary.csv")}
    run_group = experiment._run_group_task

    def dies_at_ratio_0_1(task, bundle):
        if task[2] > 0:
            os._exit(3)
        return run_group(task, bundle)

    # forked workers inherit the patch
    monkeypatch.setattr(experiment, "_run_group_task", dies_at_ratio_0_1)
    for out in (stored, tmp_path / "fresh"):
        capsys.readouterr()
        code = run_cli("sweep", "--config", str(cfg), "--seed", "7",
                       "--out", str(out), "--workers", "2")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: a sweep worker process died")
        assert err.count("\n") == 1
    assert {f: (stored / f).read_bytes() for f in before} == before
    assert not list((tmp_path / "fresh").glob("*"))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="finds the pool workers through /proc")
def test_ctrl_c_during_pooled_sweep(tmp_path):
    """SIGINT to a pooled sweep's process group: exit 130, one error line
    (no worker traceback), and the stored results.csv untouched."""
    cfg = sweep_config(
        tmp_path, model_kinds=["reconstruction", "prediction"], repetitions=4,
        ratios=[0.0, 0.1, 0.2], train={"epochs": 40, "patience": 40},
        dataset={"synthetic": {**SWEEP_CONFIG["dataset"]["synthetic"],
                               "length": 3000}})
    out = tmp_path / "res"
    out.mkdir()
    stored = ",".join(experiment.RAW_HEADER) + "\n"
    (out / "results.csv").write_text(stored)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "losstrace.cli", "sweep", "--config", str(cfg),
         "--seed", "7", "--out", str(out), "--workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)

    def workers():
        count = 0
        for entry in os.listdir("/proc"):
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:  # not a process, or one that has ended
                continue
            count += int(stat.rsplit(")", 1)[1].split()[1]) == proc.pid
        return count

    try:
        deadline = time.monotonic() + 60
        while workers() < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.3)  # let the workers get into their first groups
        assert proc.poll() is None, "the sweep ended before the signal"
        os.killpg(proc.pid, signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    # each message names the whole outcome, so a failure under load says
    # which of the four went wrong and what the sweep printed
    outcome = f"exit {proc.returncode}; stderr: {stderr!r}; stdout: {stdout!r}"
    assert proc.returncode == 130, outcome
    assert stderr == "error: interrupted\n", outcome
    assert stdout == "", outcome
    assert (out / "results.csv").read_text() == stored, outcome


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the pool workers must inherit the patched group task")
def test_ctrl_c_leaves_idle_pool_worker_quiet(tmp_path):
    """SIGINT while one pool worker runs a group and the other waits for
    work: the idle worker prints no KeyboardInterrupt traceback."""
    cfg = sweep_config(tmp_path, repetitions=1)
    done = tmp_path / "instant_group_done"
    # the ratio-0 group returns at once; the ratio-0.1 group runs until
    # the signal stops it
    script = (
        "import sys, time\n"
        "from pathlib import Path\n"
        "from losstrace import cli, experiment\n"
        "def task(task, bundle):\n"
        "    if task[2] > 0:\n"
        "        time.sleep(60)\n"
        f"    Path({str(done)!r}).touch()\n"
        "    return []\n"
        "experiment._run_group_task = task\n"
        "sys.exit(cli.cli_main(sys.argv[1:]))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "sweep", "--config", str(cfg), "--seed",
         "7", "--out", str(tmp_path / "res"), "--workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not done.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.5)  # let the worker that ran it go back to waiting
        assert proc.poll() is None, "the sweep ended before the signal"
        os.killpg(proc.pid, signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    outcome = f"exit {proc.returncode}; stderr: {stderr!r}; stdout: {stdout!r}"
    assert "Traceback" not in stderr, outcome
    assert proc.returncode == 130, outcome


def start_pooled_sweep(script, tmp_path, **extra):
    """Popen of a 2-worker sweep of sweep_config(tmp_path, **extra) under
    `python -c script`, in a process group of its own."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen(
        [sys.executable, "-c", script, "sweep", "--config",
         str(sweep_config(tmp_path, **extra)), "--seed", "7", "--out",
         str(tmp_path / "res"), "--workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)


def interrupt_when(proc, ready):
    """Send SIGINT to proc's process group once ready() holds; return
    (stdout, stderr, seconds from the signal to the exit)."""
    try:
        deadline = time.monotonic() + 60
        while not ready() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert proc.poll() is None, "the sweep ended before the signal"
        os.killpg(proc.pid, signal.SIGINT)
        sent = time.monotonic()
        stdout, stderr = proc.communicate(timeout=60)
        return stdout, stderr, time.monotonic() - sent
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the pool workers must inherit the patched group task")
def test_ctrl_c_starts_no_queued_group(tmp_path):
    """SIGINT while both pool workers run a group and two more groups wait:
    the sweep ends at once with one error line, and no queued group runs."""
    markers = tmp_path / "started"
    markers.mkdir()
    script = (
        "import sys, time\n"
        "from pathlib import Path\n"
        "from losstrace import cli, experiment\n"
        "def task(task, bundle):\n"
        f"    Path({str(markers)!r}, f'{{task[2]:g}}_{{task[3]}}').touch()\n"
        "    time.sleep(20)\n"
        "    return []\n"
        "experiment._run_group_task = task\n"
        "sys.exit(cli.cli_main(sys.argv[1:]))\n"
    )
    # 2 ratios x 2 repetitions: four groups for two workers
    proc = start_pooled_sweep(script, tmp_path)
    stdout, stderr, seconds = interrupt_when(
        proc, lambda: len(list(markers.iterdir())) >= 2)
    outcome = (f"exit {proc.returncode} after {seconds:.2f} s; stderr: "
               f"{stderr!r}; started: {sorted(p.name for p in markers.iterdir())}")
    assert proc.returncode == 130, outcome
    assert stderr == "error: interrupted\n", outcome
    assert len(list(markers.iterdir())) == 2, outcome
    assert seconds < 5, outcome


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the pool workers must inherit the patched initializer")
def test_ctrl_c_during_worker_startup_is_one_error_line(tmp_path):
    """SIGINT while the pool workers start, before their initializer has
    run: exit 130 and one error line, no worker traceback."""
    starting = tmp_path / "worker_starting"
    script = (
        "import sys, time\n"
        "from pathlib import Path\n"
        "from losstrace import cli, experiment\n"
        "init_worker = experiment._init_worker\n"
        "def slow_init(bundle):\n"
        f"    Path({str(starting)!r}).touch()\n"
        "    time.sleep(2)\n"
        "    init_worker(bundle)\n"
        "experiment._init_worker = slow_init\n"
        "sys.exit(cli.cli_main(sys.argv[1:]))\n"
    )
    proc = start_pooled_sweep(script, tmp_path, repetitions=1)
    stdout, stderr, seconds = interrupt_when(proc, starting.exists)
    outcome = (f"exit {proc.returncode} after {seconds:.2f} s; stderr: "
               f"{stderr!r}; stdout: {stdout!r}")
    assert proc.returncode == 130, outcome
    assert stderr == "error: interrupted\n", outcome


def test_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys):
    def too_big(args):
        raise MemoryError("Unable to allocate 72.8 TiB")

    monkeypatch.setattr(cli, "_cmd_generate", too_big)
    capsys.readouterr()
    assert run_cli("generate", "--out", str(tmp_path), "--seed", "1") == 1
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 72.8 TiB\n")


def test_ctrl_c_is_one_error_line(tmp_path, monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_generate", interrupted)
    capsys.readouterr()
    assert run_cli("generate", "--out", str(tmp_path), "--seed", "1") == 130
    assert capsys.readouterr().err == "error: interrupted\n"


def test_ctrl_c_while_parsing_is_one_error_line(monkeypatch, capsys):
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_build_parser", interrupted)
    capsys.readouterr()
    assert run_cli("generate", "--out", "o", "--seed", "1") == 130
    assert capsys.readouterr().err == "error: interrupted\n"


def test_other_value_errors_still_raise(tmp_path, monkeypatch):
    """Only numpy's two size errors read as out of memory."""
    def broken(args):
        raise ValueError("setting an array element with a sequence")

    monkeypatch.setattr(cli, "_cmd_generate", broken)
    with pytest.raises(ValueError, match="with a sequence"):
        run_cli("generate", "--out", str(tmp_path), "--seed", "1")


def test_flag_defaults_are_the_dataclass_defaults():
    """Each run-setting default is declared once, by the dataclass or
    module that owns the setting; the flags, SweepConfig and build_model
    read it from there."""
    parser = cli._build_parser()
    gen = parser.parse_args(["generate", "--out", "o", "--seed", "0"])
    for f in dataclasses.fields(data.SyntheticConfig):
        if f.name != "seed":
            assert getattr(gen, f.name) == f.default, f.name
    train = parser.parse_args(["train", "--train-csv", "t.csv", "--seed", "0",
                               "--checkpoint", "m.npz"])
    rtc = filtering.RobustTrainConfig(models.TrainConfig())
    sweep = SweepConfig(0, synthetic=data.SyntheticConfig())
    expected = {
        "window": sweep.window, "horizon": sweep.horizon,
        "hidden": sweep.hidden_sizes, "stride": sweep.train_stride,
        "method": rtc.method, "tau": rtc.tau, "trial_epochs": rtc.trial_epochs,
        "epochs": rtc.train.epochs, "batch_size": rtc.train.batch_size,
        "learning_rate": rtc.train.learning_rate, "patience": rtc.train.patience,
    }
    assert {k: getattr(train, k) for k in expected} == expected
    assert (sweep.tau, sweep.trial_epochs) == (rtc.tau, rtc.trial_epochs)
    assert sweep.train_config("combined", 0).train == dataclasses.replace(
        rtc.train, seed=0)
    assert train.epochs == sweep.epochs == models.TrainConfig().epochs == 40
    build = inspect.signature(models.build_model).parameters
    assert (build["horizon"].default, build["hidden_sizes"].default) == (
        sweep.horizon, sweep.hidden_sizes) == (train.horizon, train.hidden)


class TestArgParsing:
    def test_unknown_flag(self):
        assert run_cli("train", "--bogus") != 0

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") != 0

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_non_integer_hidden_size(self, tmp_path, capsys):
        ckpt = tmp_path / "m.npz"
        assert run_cli("train", "--train-csv", str(tmp_path / "t.csv"),
                       "--hidden", "4,x", "--seed", "1",
                       "--checkpoint", str(ckpt)) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert errors == ["losstrace train: error: argument --hidden: expected "
                          "comma-separated integers, got '4,x'"]
        assert not list(tmp_path.iterdir())
