"""Sweep runner: planning, per-cell determinism, CSV round trips,
aggregation, resumability, pool workers."""

import argparse
import builtins
import ctypes
import dataclasses
import logging
import os
import tracemalloc
import types
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from losstrace import cli, data, experiment, filtering, metrics, models
from losstrace.data import SyntheticConfig
from losstrace.errors import ConfigError, ToolkitError
from losstrace.seeding import derive_seed


def tiny_config(**overrides):
    defaults = dict(
        base_seed=42,
        synthetic=SyntheticConfig(
            channels=2, length=600, periods=(30,), noise_sigma=0.3,
            anomaly_types=("spike",), anomaly_rate=0.05, seed=0,
        ),
        model_kinds=("reconstruction",),
        methods=("vanilla", "combined"),
        ratios=(0.0, 0.1),
        repetitions=2,
        window=6,
        train_stride=6,
        hidden_sizes=(4,),
        trial_epochs=2,
        epochs=3,
        batch_size=16,
        patience=2,
    )
    defaults.update(overrides)
    return experiment.SweepConfig(**defaults)


ALL_METHODS = ("vanilla", "m_only", "v_only", "combined")


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_seed(1, "a", 0.1, 3) == derive_seed(1, "a", 0.1, 3)

    def test_frozen_value(self):
        # guards against accidental changes to the derivation scheme, which
        # would silently break sweep resumability
        assert derive_seed(0, "probe") == 2724256618423675720

    def test_groups_get_distinct_seeds_shared_by_their_methods(self):
        cfg = tiny_config(model_kinds=("reconstruction", "prediction"),
                          methods=ALL_METHODS)
        plan = experiment.plan_cells(cfg)
        by_group = {}
        for kind, method, ratio, rep in plan:
            seed = experiment.cell_seed(cfg, kind, method, ratio, rep)
            by_group.setdefault((kind, ratio, rep), set()).add(seed)
        assert len(by_group) == 2 * 2 * 2
        assert all(len(seeds) == 1 for seeds in by_group.values())
        assert len(set.union(*by_group.values())) == len(by_group)
        keys = {(kind, method, experiment.cell_seed(cfg, kind, method, ratio, rep))
                for kind, method, ratio, rep in plan}
        assert len(keys) == len(plan)

    def test_type_tagging(self):
        assert derive_seed(1) != derive_seed("1")
        assert derive_seed(1) != derive_seed(1.0)


class TestPlanning:
    def test_default_grid_size(self):
        cfg = tiny_config(
            model_kinds=("reconstruction", "prediction"),
            methods=("vanilla", "m_only", "v_only", "combined"),
            ratios=experiment.DEFAULT_RATIOS,
            repetitions=5,
        )
        assert len(experiment.plan_cells(cfg)) == 2 * 4 * 11 * 5 == 440

    def test_default_ratio_grid(self):
        assert [round(r * 100) for r in experiment.DEFAULT_RATIOS] == [
            0, 1, 2, 3, 4, 6, 8, 10, 13, 16, 20,
        ]

    def test_protocol_defaults(self):
        cfg = experiment.SweepConfig(
            base_seed=0, synthetic=SyntheticConfig(channels=1, length=600,
                                                   periods=(30,), seed=0),
        )
        assert cfg.repetitions == 5
        assert cfg.tau == 0.2
        assert cfg.trial_epochs == 10
        assert cfg.ratios == experiment.DEFAULT_RATIOS
        assert cfg.methods == ("vanilla", "m_only", "v_only", "combined")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(ratios=(0.5,))
        with pytest.raises(ConfigError):
            tiny_config(methods=("bogus",))
        with pytest.raises(ConfigError):
            tiny_config(repetitions=0)
        with pytest.raises(ConfigError):
            tiny_config(synthetic=None)  # no dataset source at all
        # ratios that stay distinct when written with %g
        assert tiny_config(ratios=(0.1, 0.100001)).ratios == (0.1, 0.100001)


class TestRunCell:
    @staticmethod
    def _snapshot(row):
        return (row.model, row.method, row.ratio, row.seed, row.auc,
                row.best_f1, row.coverage, row.discard_size)

    def test_deterministic(self):
        cfg = tiny_config()
        bundle = experiment.prepare_data(cfg)
        a = experiment.run_cell(cfg, "reconstruction", "combined", 0.1, 0, bundle)
        b = experiment.run_cell(cfg, "reconstruction", "combined", 0.1, 0, bundle)
        assert self._snapshot(a) == self._snapshot(b)  # wall time may differ
        assert 0.0 <= a.auc <= 1.0
        assert 0.0 <= a.best_f1 <= 1.0

    def test_coverage_na_rules(self):
        cfg = tiny_config()
        bundle = experiment.prepare_data(cfg)
        vanilla = experiment.run_cell(cfg, "reconstruction", "vanilla", 0.1, 0, bundle)
        assert vanilla.coverage is None
        zero = experiment.run_cell(cfg, "reconstruction", "combined", 0.0, 0, bundle)
        assert zero.coverage is None
        both = experiment.run_cell(cfg, "reconstruction", "combined", 0.1, 0, bundle)
        assert both.coverage is not None

    def test_errors_carry_cell_identity(self):
        cfg = tiny_config()
        bundle = experiment.prepare_data(cfg)
        bundle = dataclasses.replace(  # empty anomaly pool
            bundle, pool=bundle.pool.subset(np.empty(0, np.int64)))
        row = experiment.run_cell(cfg, "reconstruction", "combined", 0.1, 0, bundle)
        assert not row.ok
        assert row.error == ("cell model=reconstruction method=combined "
                             "ratio=0.1 rep=0: non-zero contamination needs a "
                             "non-empty anomaly pool")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_scores_return_na_row(self, monkeypatch):
        """Scores that are not finite make the cell's NA row through the
        NumericError of anomaly_scores, with no numpy warning."""
        cfg = tiny_config()
        bundle = experiment.prepare_data(cfg)
        real_robust_train = experiment.robust_train

        def overflowing(*args):
            model, report = real_robust_train(*args)
            model.net.flat[:] = 1e200
            return model, report

        monkeypatch.setattr(experiment, "robust_train", overflowing)
        row = experiment.run_cell(cfg, "reconstruction", "vanilla", 0.0, 0, bundle)
        assert not row.ok
        assert row.error == ("cell model=reconstruction method=vanilla ratio=0 "
                             "rep=0: anomaly scores are not finite: the model's "
                             "losses overflow")

    def test_failures_return_na_rows(self, monkeypatch):
        """A ToolkitError or any other Exception inside a cell returns the
        cell's NA row; KeyboardInterrupt propagates."""
        cfg = tiny_config()
        bundle = experiment.prepare_data(cfg)
        seed = experiment.cell_seed(cfg, "reconstruction", "combined", 0.1, 0)
        name = "cell model=reconstruction method=combined ratio=0.1 rep=0"
        for fault, error in ((ConfigError("bad value"), f"{name}: bad value"),
                             (RuntimeError("boom"), f"{name}: unexpected error\n"
                                                    "Traceback (most recent call last):")):
            def faulty(*args, fault=fault):
                raise fault

            monkeypatch.setattr(experiment, "robust_train", faulty)
            row = experiment.run_cell(cfg, "reconstruction", "combined", 0.1, 0, bundle)
            assert (row.model, row.method, row.ratio, row.seed) == (
                "reconstruction", "combined", 0.1, seed)
            assert (row.auc, row.best_f1, row.coverage, row.discard_size,
                    row.wall_time_s) == (None,) * 5
            assert row.error.startswith(error)
        assert row.error.endswith("RuntimeError: boom")

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "robust_train", interrupted)
        with pytest.raises(KeyboardInterrupt):
            experiment.run_cell(cfg, "reconstruction", "combined", 0.1, 0, bundle)


    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_scores_the_bundle_windows(self, kind, monkeypatch):
        """run_cell scores the windows of the bundle's test series, through
        the one scoring path that evaluate takes too."""
        cfg = tiny_config(model_kinds=(kind,), horizon=2)
        bundle = experiment.prepare_data(cfg)
        scored = []

        def recording(model, series):
            scores = models.anomaly_scores(model, series)
            scored.append((model, series, scores))
            return scores

        monkeypatch.setattr(experiment, "anomaly_scores", recording)
        row = experiment.run_cell(cfg, kind, "combined", 0.1, 0, bundle)
        [(model, series, scores)] = scored
        assert series is bundle.test
        expected = models.anomaly_scores(model, bundle.test)
        assert scores.tobytes() == expected.tobytes()
        assert row.auc == metrics.auc_roc(expected, bundle.test.labels)


class TestPrepareData:
    def test_one_class_test_labels_rejected(self):
        cfg = tiny_config(
            synthetic=SyntheticConfig(
                channels=2, length=600, periods=(30,), anomaly_rate=0.0, seed=0,
            )
        )  # clean test set: no cell could compute an AUC
        with pytest.raises(ConfigError, match="test labels hold only"):
            experiment.prepare_data(cfg)

    def test_holds_no_copy_of_the_test_windows(self):
        """The bundle holds the series and the anomaly pool, not the w-fold
        copy of every stride-1 test window (2.3 MB here)."""
        cfg = tiny_config(synthetic=dataclasses.replace(
            tiny_config().synthetic, length=3000), window=48, train_stride=48)
        experiment.prepare_data(cfg)  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bundle = experiment.prepare_data(cfg)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the normalized training and test series, of one length each
        series = 2 * bundle.test.values.nbytes
        assert held <= 2 * (series + bundle.pool.data.nbytes)

    @pytest.mark.parametrize("test_header", ["x,y,label", "c0,c1,label"])
    def test_warns_when_csv_channel_names_differ(self, tmp_path, caplog,
                                                 test_header):
        train, test = data.generate_synthetic(tiny_config().synthetic)
        train_csv, test_csv = str(tmp_path / "train.csv"), str(tmp_path / "test.csv")
        data.write_csv(train, train_csv)
        data.write_csv(test, test_csv)
        header, body = Path(test_csv).read_text().split("\n", 1)
        assert header == "c0,c1,label" and train.channel_names == ["c0", "c1"]
        Path(test_csv).write_text(f"{test_header}\n{body}")
        cfg = tiny_config(synthetic=None, train_csv=train_csv, test_csv=test_csv)
        with caplog.at_level(logging.WARNING, logger="losstrace.experiment"):
            experiment.prepare_data(cfg)
        if test_header == header:
            assert not caplog.records
            return
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert record.getMessage() == (
            f"channel names differ: {train_csv} has ['c0', 'c1'], "
            f"{test_csv} has ['x', 'y']")


class TestSweep:
    def test_row_count_and_order(self, tmp_path):
        cfg = tiny_config()
        result = experiment.run_sweep(cfg)
        assert len(result.rows) == len(experiment.plan_cells(cfg))
        keys = [(r.model, r.method, r.ratio) for r in result.rows]
        assert keys == sorted(
            keys, key=lambda k: (("reconstruction",).index(k[0]),
                                 ("vanilla", "combined").index(k[1]), k[2])
        )

    def test_raw_csv_round_trip(self, tmp_path):
        cfg = tiny_config()
        result = experiment.run_sweep(cfg)
        path = tmp_path / "results.csv"
        experiment.write_results(result, str(path))
        back = experiment.read_results_if_exists(str(path))
        assert [
            (r.model, r.method, r.ratio, r.seed, r.auc, r.best_f1, r.coverage,
             r.discard_size, r.wall_time_s)
            for r in back
        ] == [
            (r.model, r.method, r.ratio, r.seed, r.auc, r.best_f1, r.coverage,
             r.discard_size, r.wall_time_s)
            for r in result.rows
        ]
        header = path.read_text().splitlines()[0]
        assert header == "model,method,ratio,seed,auc,best_f1,coverage,discard_size,wall_time_s"

    def test_summary_matches_recomputation(self, tmp_path):
        cfg = tiny_config(repetitions=3)
        result = experiment.run_sweep(cfg)
        summary = experiment.summarize(result)
        assert len(summary) == 1 * 2 * 2  # kinds x methods x ratios
        for s in summary:
            rows = [
                r for r in result.rows
                if (r.model, r.method, r.ratio) == (s.model, s.method, s.ratio)
            ]
            aucs = [r.auc for r in rows]
            assert abs(s.auc_mean - np.mean(aucs)) <= 1e-12
            assert abs(s.auc_std - np.std(aucs)) <= 1e-12
            f1s = [r.best_f1 for r in rows]
            assert abs(s.f1_mean - np.mean(f1s)) <= 1e-12
            assert abs(s.f1_std - np.std(f1s)) <= 1e-12
            covs = [r.coverage for r in rows if r.coverage is not None]
            if covs:
                assert abs(s.coverage_mean - np.mean(covs)) <= 1e-12
            else:
                assert s.coverage_mean is None

    def test_summary_csv_header_and_ratios(self, tmp_path):
        cfg = tiny_config()
        result = experiment.run_sweep(cfg)
        path = tmp_path / "summary.csv"
        experiment.write_summary(result, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ("model,method,ratio,auc_mean,auc_std,f1_mean,"
                            "f1_std,coverage_mean,coverage_std")
        ratios = sorted({line.split(",")[2] for line in lines[1:]})
        assert ratios == ["0", "0.1"]

    def test_resume_skips_completed_and_matches_bytes(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "results.csv"
        result = experiment.run_sweep(cfg, raw_path=str(path))
        experiment.write_results(result, str(path))
        full = path.read_bytes()

        # drop two rows, resume, and compare bytes
        lines = full.decode().splitlines()
        path.write_text("\n".join(lines[:3] + lines[5:]) + "\n")
        resumed = experiment.run_sweep(cfg, raw_path=str(path))
        experiment.write_results(resumed, str(path))
        assert path.read_bytes() == full

    def test_resume_matches_rows_whose_ratio_text_is_rounded(self, tmp_path,
                                                               monkeypatch):
        # results.csv stores ratios with %g: 0.123456789 is written 0.123457
        cfg = tiny_config(ratios=(0.123456789,), methods=("vanilla",))
        path = tmp_path / "results.csv"
        result = experiment.run_sweep(cfg)
        experiment.write_results(result, str(path))
        experiment.write_summary(result, str(tmp_path / "a.csv"))
        full = path.read_bytes()
        assert b",0.123457," in full

        def never(*args, **kwargs):
            raise AssertionError("a completed cell was recomputed")

        monkeypatch.setattr(experiment, "_run_group_task", never)
        resumed = experiment.run_sweep(cfg, raw_path=str(path))
        assert [r.ratio for r in resumed.rows] == [0.123456789] * 2
        experiment.write_results(resumed, str(path))
        experiment.write_summary(resumed, str(tmp_path / "b.csv"))
        assert path.read_bytes() == full
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()

    def test_failed_cells_keep_na_and_sweep_continues(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        path = tmp_path / "results.csv"
        clean = experiment.run_sweep(cfg, raw_path=str(path))
        experiment.write_results(clean, str(path))
        reference = path.read_bytes()
        path.unlink()

        seed = experiment.cell_seed(cfg, "reconstruction", "combined", 0.1, 0)
        real_robust_train = experiment.robust_train

        def flaky(factory, windows, config, trace=None):
            if (config.method == "combined"
                    and config.train.seed == derive_seed(seed, "train")):
                raise ConfigError("synthetic fault")
            return real_robust_train(factory, windows, config, trace)

        monkeypatch.setattr(experiment, "robust_train", flaky)
        result = experiment.run_sweep(cfg, raw_path=str(path))
        bad = [r for r in result.rows if not r.ok]
        assert len(bad) == 1 and bad[0].error and "synthetic fault" in bad[0].error
        experiment.write_results(result, str(path))
        text = path.read_text()
        assert text.count("NA,NA,NA,NA,NA") == 1

        # resuming with the fault gone retries exactly the failed cell and
        # reproduces the clean sweep byte for byte
        monkeypatch.setattr(experiment, "robust_train", real_robust_train)
        resumed = experiment.run_sweep(cfg, raw_path=str(path))
        experiment.write_results(resumed, str(path))
        assert path.read_bytes() == reference

    def test_unexpected_error_fails_one_cell_of_its_group(self, tmp_path,
                                                            monkeypatch, caplog):
        cfg = tiny_config(methods=ALL_METHODS)
        path = tmp_path / "results.csv"
        clean = experiment.run_sweep(cfg, raw_path=str(path))
        experiment.write_results(clean, str(path))
        reference = path.read_bytes()
        path.unlink()

        # m_only is the first filtering method of its group: v_only and
        # combined must still train on the trace recorded for it
        seed = experiment.cell_seed(cfg, "reconstruction", "m_only", 0.1, 0)
        real_robust_train = experiment.robust_train

        def faulty(factory, windows, config, trace=None):
            if (config.method == "m_only"
                    and config.train.seed == derive_seed(seed, "train")):
                raise RuntimeError("synthetic fault")
            return real_robust_train(factory, windows, config, trace)

        monkeypatch.setattr(experiment, "robust_train", faulty)
        with caplog.at_level(logging.ERROR, logger="losstrace.experiment"):
            result = experiment.run_sweep(cfg, raw_path=str(path))
        bad = [r for r in result.rows if not r.ok]
        assert len(bad) == 1
        assert (bad[0].model, bad[0].method, bad[0].ratio, bad[0].seed) == (
            "reconstruction", "m_only", 0.1, seed)
        assert "RuntimeError: synthetic fault" in bad[0].error
        assert "Traceback" in caplog.text and "synthetic fault" in caplog.text
        assert [r for r in result.rows if r.ok] == [
            r for r in clean.rows if (r.method, r.ratio, r.seed) != (
                "m_only", 0.1, seed)]
        experiment.write_results(result, str(path))

        monkeypatch.setattr(experiment, "robust_train", real_robust_train)
        resumed = experiment.run_sweep(cfg, raw_path=str(path))
        experiment.write_results(resumed, str(path))
        assert path.read_bytes() == reference

    def test_resume_recomputes_one_cell_of_a_group(self, tmp_path, monkeypatch):
        cfg = tiny_config(methods=ALL_METHODS)
        path = tmp_path / "results.csv"
        experiment.write_results(experiment.run_sweep(cfg), str(path))
        full = path.read_bytes()
        seed = experiment.cell_seed(cfg, "reconstruction", "m_only", 0.1, 1)
        lines = full.decode().splitlines(keepends=True)
        kept = [line for line in lines
                if not line.startswith(f"reconstruction,m_only,0.1,{seed},")]
        assert len(kept) == len(lines) - 1
        path.write_text("".join(kept))

        calls = []
        real_run_group = experiment._run_group_task

        def counted(task, bundle):
            _cfg, kind, ratio, rep, methods = task
            calls.append((kind, methods, ratio, rep))
            return real_run_group(task, bundle)

        monkeypatch.setattr(experiment, "_run_group_task", counted)
        resumed = experiment.run_sweep(cfg, raw_path=str(path))
        assert calls == [("reconstruction", ("m_only",), 0.1, 1)]
        experiment.write_results(resumed, str(path))
        assert path.read_bytes() == full

    @pytest.mark.parametrize("methods, walls", [
        (ALL_METHODS, [100.0, 10.0, 0.0, 0.0]),
        (("combined", "vanilla"), [110.0, 0.0]),
    ], ids=["vanilla_first", "filtering_first"])
    def test_first_cells_carry_the_shared_work(self, methods, walls,
                                               monkeypatch):
        """A group's first cell carries the contamination in its wall time,
        its first filtering cell the trial phase, and later cells neither:
        a clock that only the two shared steps advance reads exactly that."""
        now = [0.0]

        def advancing(fn, seconds):
            def timed(*args, **kwargs):
                now[0] += seconds
                return fn(*args, **kwargs)
            return timed

        monkeypatch.setattr(experiment, "time",
                            types.SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(experiment, "inject_contamination", advancing(
            experiment.inject_contamination, 100.0))
        monkeypatch.setattr(experiment, "record_trial_traces", advancing(
            experiment.record_trial_traces, 10.0))
        cfg = tiny_config(methods=methods, ratios=(0.1,), repetitions=1)
        result = experiment.run_sweep(cfg, record_timing=True)
        assert [r.method for r in result.rows] == list(methods)
        assert [r.wall_time_s for r in result.rows] == walls

    @pytest.mark.filterwarnings("error")
    def test_diverged_final_fit_is_an_na_row(self, caplog):
        """A final fit that ends worse than it started fails its cell, for
        either model kind, and the sweep goes on."""
        cfg = tiny_config(model_kinds=models.MODEL_KINDS, methods=("vanilla",),
                          ratios=(0.0,), repetitions=1, learning_rate=1e100)
        with caplog.at_level(logging.ERROR, logger="losstrace.experiment"):
            result = experiment.run_sweep(cfg)
        assert [(r.model, r.ok) for r in result.rows] == [
            (kind, False) for kind in models.MODEL_KINDS]
        for row in result.rows:
            assert row.error.startswith(
                f"cell model={row.model} method=vanilla ratio=0 rep=0: training "
                f"diverged: the best validation loss ")
            assert row.error in caplog.text

    def test_resume_warns_about_unplanned_rows(self, tmp_path, caplog):
        cfg = tiny_config()
        path = tmp_path / "results.csv"
        experiment.write_results(experiment.run_sweep(cfg), str(path))
        full = path.read_bytes()
        # rows whose seeds no planned cell has, as in a file written when
        # seeds still depended on the method
        header, *rows = full.decode().splitlines()
        moved = []
        for row in rows:
            model, method, ratio, seed, rest = row.split(",", 4)
            moved.append(",".join([model, method, ratio,
                                   str(derive_seed(int(seed), method)), rest]))
        path.write_text("\n".join([header, *moved]) + "\n")
        with caplog.at_level(logging.WARNING, logger="losstrace.experiment"):
            resumed = experiment.run_sweep(cfg, raw_path=str(path))
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert str(path) in warnings[0].getMessage()
        assert f"dropped {len(rows)} stored rows" in warnings[0].getMessage()
        experiment.write_results(resumed, str(path))
        assert path.read_bytes() == full

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="losstrace.experiment"):
            experiment.run_sweep(cfg, raw_path=str(path))
        assert not caplog.records

    @pytest.mark.parametrize("writer", [
        "write_results", "write_summary", "write_csv", "save_checkpoint",
        "report", "scores_out",
    ])
    def test_failed_write_keeps_previous_file(self, writer, tmp_path,
                                              monkeypatch):
        result = experiment.run_sweep(tiny_config(ratios=(0.0, 0.1)))
        series = data.MultivariateSeries(
            np.random.default_rng(0).normal(size=(30, 2)),
            np.tile([0, 1, 0], 10), ["a", "b"])
        model = models.build_model("reconstruction", 4, 2, hidden_sizes=(3,))
        checkpoint, test_csv = str(tmp_path / "model.npz"), str(tmp_path / "test.csv")
        models.save_checkpoint(model, checkpoint)
        data.write_csv(series, test_csv)
        report = filtering.select_discard(np.arange(10.0), np.arange(10.0)[::-1], 0.2)
        write = {
            "write_results": lambda p: experiment.write_results(result, p),
            "write_summary": lambda p: experiment.write_summary(result, p),
            "write_csv": lambda p: data.write_csv(series, p),
            "save_checkpoint": lambda p: models.save_checkpoint(model, p),
            "report": report.write,
            "scores_out": lambda p: cli._cmd_evaluate(argparse.Namespace(
                test_csv=test_csv, checkpoint=checkpoint, scores_out=p)),
        }[writer]
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        path = out_dir / "target"
        write(str(path))
        before = path.read_bytes()
        assert os.listdir(out_dir) == ["target"]

        real_open, writes = builtins.open, []

        class FailingFile:
            """A file on which every write after the first fails."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, chunk):
                writes.append(chunk)
                if len(writes) > 1:
                    raise OSError("disk full")
                return self.fh.write(chunk)

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return FailingFile(fh) if "w" in mode else fh

        monkeypatch.setattr(builtins, "open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            write(str(path))
        monkeypatch.undo()
        assert len(writes) > 1
        assert path.read_bytes() == before
        assert os.listdir(out_dir) == ["target"]

    def test_parallel_matches_serial(self):
        cfg = tiny_config(ratios=(0.0, 0.1), repetitions=1)
        serial = experiment.run_sweep(cfg, workers=1)
        parallel = experiment.run_sweep(cfg, workers=2)
        assert serial.rows == parallel.rows

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_rows_equal_cells_run_alone(self, workers, monkeypatch):
        cfg = tiny_config(model_kinds=("reconstruction", "prediction"),
                          methods=ALL_METHODS)
        bundle = experiment.prepare_data(cfg)
        alone = {}
        for coord in experiment.plan_cells(cfg):
            row = experiment.run_cell(cfg, *coord, bundle)
            assert row.ok
            alone[(row.model, row.method, row.ratio, row.seed)] = (
                dataclasses.replace(row, wall_time_s=None))
        assert len(alone) == 32

        traces = []
        real_record = experiment.record_trial_traces

        def counted(*args, **kwargs):
            traces.append(args)
            return real_record(*args, **kwargs)

        def second_trial(*args, **kwargs):
            raise AssertionError("robust_train recorded its own trace")

        monkeypatch.setattr(experiment, "record_trial_traces", counted)
        monkeypatch.setattr(filtering, "record_trial_traces", second_trial)
        result = experiment.run_sweep(cfg, workers=workers)
        assert {(r.model, r.method, r.ratio, r.seed): r
                for r in result.rows} == alone
        if workers == 1:  # one trial phase per (kind, ratio, rep) group
            assert len(traces) == 2 * 2 * 2

    def test_zero_ratio_filtering_discards_quantile_share(self):
        # filtering on clean data still discards the quantile-mandated count
        # and completes without error
        cfg = tiny_config(ratios=(0.0,), repetitions=1,
                          methods=("m_only", "v_only", "combined"))
        bundle = experiment.prepare_data(cfg)
        n = len(bundle.train_windows)
        import math
        per_metric = n - math.ceil(0.8 * n)
        for method in cfg.methods:
            row = experiment.run_cell(cfg, "reconstruction", method, 0.0, 0, bundle)
            assert row.ok
            if method in ("m_only", "v_only"):
                assert row.discard_size == per_metric
            else:
                assert per_metric <= row.discard_size <= 2 * per_metric


def _blas_function(action):
    """The get or set thread-count function of the OpenBLAS bundled with
    numpy, or None; found apart from experiment's own lookup."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_{}_num_threads64_",
                       "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            fn = getattr(handle, symbol.format(action), None)
            if fn is not None:
                return fn
    return None


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    get = _blas_function("get")
    if get is None:
        return None
    get.restype = ctypes.c_int
    return int(get())


def _worker_blas_threads(_):
    return _blas_threads()


@pytest.fixture
def caller_threads():
    """Give the caller two BLAS threads where it can have them (one on a
    one-core machine); yields the count, which is restored after."""
    before = _blas_threads()
    if before is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    _blas_function("set")(ctypes.c_int(2))
    yield _blas_threads()
    _blas_function("set")(ctypes.c_int(before))


def probe_blas_threads(monkeypatch, counts):
    """Record the BLAS thread count at every training epoch and every loss
    pass (validation and scoring) that models runs."""
    for name in ("train_epoch", "sample_losses"):
        real = getattr(models, name)

        def probed(*args, _real=real, **kwargs):
            counts.append(_blas_threads())
            return _real(*args, **kwargs)

        monkeypatch.setattr(models, name, probed)


class TestOneBlasThread:
    """Every process that trains or scores runs BLAS on one thread, and a
    caller gets its own thread count back."""

    def test_serial_sweep(self, caller_threads, monkeypatch):
        counts = []
        probe_blas_threads(monkeypatch, counts)
        result = experiment.run_sweep(tiny_config(), workers=1)
        assert all(r.ok for r in result.rows)
        assert len(counts) > len(result.rows) and set(counts) == {1}
        assert _blas_threads() == caller_threads

    @pytest.mark.parametrize("error", [KeyboardInterrupt, ToolkitError])
    def test_serial_sweep_that_raises(self, error, caller_threads, monkeypatch):
        def raising(*args, **kwargs):
            assert _blas_threads() == 1
            raise error("stop")

        monkeypatch.setattr(models, "train_epoch", raising)
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                experiment.run_sweep(tiny_config(), workers=1)
        else:  # a cell's ToolkitError becomes its NA row
            rows = experiment.run_sweep(tiny_config(), workers=1).rows
            assert rows and not any(r.ok for r in rows)
        assert _blas_threads() == caller_threads

    def test_cli_commands(self, tmp_path, caller_threads, monkeypatch):
        counts = []
        probe_blas_threads(monkeypatch, counts)
        bench, model = tmp_path / "bench", str(tmp_path / "model.npz")
        commands = [
            ["generate", "--out", str(bench), "--channels", "2", "--length", "600",
             "--periods", "30", "--anomaly-types", "spike", "--seed", "3"],
            ["train", "--train-csv", str(bench / "train.csv"), "--window", "6",
             "--stride", "6", "--hidden", "4", "--trial-epochs", "2",
             "--epochs", "2", "--seed", "1", "--checkpoint", model],
            ["evaluate", "--test-csv", str(bench / "test.csv"),
             "--checkpoint", model],
        ]
        for argv in commands:
            assert cli.cli_main(argv) == 0
            assert _blas_threads() == caller_threads
        assert len(counts) > 2 and set(counts) == {1}

    @pytest.mark.parametrize("error, code", [(KeyboardInterrupt, 130),
                                             (ToolkitError, 1)])
    def test_cli_command_that_raises(self, error, code, caller_threads,
                                     monkeypatch):
        inside = []

        def raising(args):
            inside.append(_blas_threads())
            raise error("stop")

        monkeypatch.setattr(cli, "_cmd_generate", raising)
        assert cli.cli_main(["generate", "--out", "unused", "--seed", "1"]) == code
        assert inside == [1]
        assert _blas_threads() == caller_threads

    def test_without_openblas_nothing_changes(self, caller_threads, monkeypatch):
        monkeypatch.setattr(experiment, "_openblas_threads", lambda: None)
        with experiment.one_blas_thread():
            assert _blas_threads() == caller_threads


class TestPoolWorkers:
    def test_workers_run_one_blas_thread(self, caller_threads):
        bundle = experiment.prepare_data(tiny_config())
        with ProcessPoolExecutor(max_workers=2,
                                 initializer=experiment._init_worker,
                                 initargs=(bundle,)) as pool:
            counts = set(pool.map(_worker_blas_threads, range(2)))
        assert counts == {1}
        assert _blas_threads() == caller_threads

    @pytest.mark.parametrize("workers, cells, started", [
        (8, 2, [2]),  # capped at the pending cells
        (2, 4, [2]),
        (5, 1, []),  # one cell runs in this process
        (1, 4, []),
    ])
    def test_pool_starts_one_worker_per_pending_cell(self, workers, cells,
                                                     started, monkeypatch):
        """A forking pool starts max_workers processes at the first submit,
        so max_workers follows the pending cells; each worker gets only the
        bundle."""
        seen = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                seen.append(max_workers)
                assert len(initargs) == 1
                monkeypatch.setattr(experiment, "_worker_bundle", initargs[0])

            def submit(self, fn, task):
                future = Future()
                future.set_result(fn(task))
                return future

            def shutdown(self, cancel_futures):
                pass

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
        cfg = tiny_config(methods=("vanilla",), ratios=(0.0,), repetitions=cells)
        result = experiment.run_sweep(cfg, workers=workers)
        assert len(result.rows) == cells and all(r.ok for r in result.rows)
        assert seen == started
