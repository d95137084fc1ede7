"""End-to-end CLI behavior through cli_main; one subprocess checks what a
fresh interpreter imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from losstrace import data, models
from losstrace.cli import cli_main


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


def sweep_config(tmp_path, **extra):
    cfg = {
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
    cfg.update(extra)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


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


MALLINFO_SCRIPT = """
import ctypes, sys
import numpy as np
from losstrace.cli import cli_main

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
if not hasattr(libc, "mallinfo2"):
    print("no mallinfo2")
    sys.exit()
libc.mallinfo2.restype = MallInfo2
if sys.argv[1] == "cli":
    assert cli_main(["generate", "--out", sys.argv[2], "--length", "200",
                     "--periods", "20", "--seed", "1"]) == 0
freed = np.ones(1 << 20)  # 8 MiB, a mapped block
del freed
before = libc.mallinfo2().hblks
kept = np.ones(1 << 18)  # 2 MiB
print(libc.mallinfo2().hblks - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc only")
def test_cli_maps_large_arrays_after_larger_frees(tmp_path):
    """After an 8 MiB block is freed glibc serves 2 MiB from the heap, where
    freed blocks stay resident; under cli_main it maps them still."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    mapped = {}
    for mode in ("plain", "cli"):
        done = subprocess.run(
            [sys.executable, "-c", MALLINFO_SCRIPT, mode, str(tmp_path / mode)],
            env=env, capture_output=True, text=True, check=True)
        mapped[mode] = done.stdout.splitlines()[-1]
    if mapped["plain"] == "no mallinfo2":
        pytest.skip("the C library has no mallinfo2")
    assert mapped == {"plain": "0", "cli": "1"}


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

    def test_missing_test_csv(self, checkpoint, tmp_path, capsys):
        capsys.readouterr()
        code = run_cli("evaluate", "--test-csv", str(tmp_path / "none.csv"),
                       "--checkpoint", str(checkpoint))
        self.assert_failed(code, capsys)


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
        assert not (out / "results.csv").exists()
        assert not (out / "summary.csv").exists()

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

    def test_one_class_test_labels(self, tmp_path, capsys):
        cfg = sweep_config(tmp_path, dataset={"synthetic": {
            "channels": 2, "length": 600, "periods": [30],
            "anomaly_rate": 0.0, "seed": 0,
        }})
        self.assert_aborted(cfg, tmp_path, capsys, "test labels hold only [0]")

    @pytest.mark.parametrize("extra", [
        {"hidden_sizes": [32]},  # bottleneck 32 >= window 6 x 2 channels
        {"model_kinds": ["prediction"], "horizon": 6},  # horizon >= window 6
    ])
    def test_impossible_architecture(self, extra, tmp_path, capsys):
        self.assert_aborted(sweep_config(tmp_path, **extra), tmp_path, capsys)

    @pytest.mark.parametrize("damage", ["truncated_row", "extra_cell",
                                        "non_numeric_auc", "not_utf8"])
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
        else:
            cells = lines[1].split(",")
            if damage == "extra_cell":
                cells.append("1")
            else:
                cells[4] = "not-a-number"
            text = "\n".join([lines[0], ",".join(cells), lines[2]]) + "\n"
        damaged = text.encode("utf-8", "surrogateescape")
        results.write_bytes(damaged)
        capsys.readouterr()
        where = {"truncated_row": "row 2", "not_utf8": "not a readable CSV"}
        self.assert_failed(self.sweep(cfg, out), capsys, str(results),
                           where.get(damage, "row 1"))
        assert results.read_bytes() == damaged


class TestSweepCommand:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = sweep_config(tmp_path)
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        assert run_cli("sweep", "--config", str(cfg), "--seed", "7",
                       "--out", str(out_a)) == 0
        assert run_cli("sweep", "--config", str(cfg), "--seed", "7",
                       "--out", str(out_b)) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_flag_overrides(self, tmp_path):
        cfg = sweep_config(tmp_path)
        out = tmp_path / "res"
        assert run_cli("sweep", "--config", str(cfg), "--seed", "7",
                       "--out", str(out), "--ratios", "0.0",
                       "--repetitions", "1", "--methods", "vanilla") == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one row

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = sweep_config(tmp_path)
        out = tmp_path / "env_out"
        monkeypatch.setenv("LOSSTRACE_OUT_DIR", str(out))
        assert run_cli("sweep", "--config", str(cfg), "--seed", "7",
                       "--ratios", "0.0", "--repetitions", "1",
                       "--methods", "vanilla") == 0
        assert (out / "results.csv").exists()

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


class TestArgParsing:
    def test_unknown_flag(self):
        assert run_cli("train", "--bogus") != 0

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") != 0

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0
