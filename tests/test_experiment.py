"""Sweep runner: planning, per-cell determinism, CSV round trips,
aggregation, resumability, pool workers."""

import ctypes
import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from losstrace import experiment
from losstrace.data import SyntheticConfig
from losstrace.errors import ConfigError
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


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_seed(1, "a", 0.1, 3) == derive_seed(1, "a", 0.1, 3)

    def test_frozen_value(self):
        # guards against accidental changes to the derivation scheme, which
        # would silently break sweep resumability
        assert derive_seed(0, "probe") == 2724256618423675720

    def test_distinct_cells_get_distinct_seeds(self):
        cfg = tiny_config()
        seeds = [
            experiment.cell_seed(cfg, kind, method, ratio, rep)
            for (kind, method, ratio, rep) in experiment.plan_cells(cfg)
        ]
        assert len(seeds) == len(set(seeds))

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
        with pytest.raises(ConfigError, match="ratio=0.1"):
            experiment.run_cell(cfg, "reconstruction", "combined", 0.1, 0, bundle)


class TestPrepareData:
    def test_one_class_test_labels_rejected(self):
        cfg = tiny_config(
            synthetic=SyntheticConfig(
                channels=2, length=600, periods=(30,), anomaly_rate=0.0, seed=0,
            )
        )  # clean test set: no cell could compute an AUC
        with pytest.raises(ConfigError, match="test labels hold only"):
            experiment.prepare_data(cfg)


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

        monkeypatch.setattr(experiment, "run_cell", never)
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

        real_run_cell = experiment.run_cell

        def flaky(cfg, kind, method, ratio, rep, data=None):
            if method == "combined" and ratio == 0.1 and rep == 0:
                raise ConfigError("synthetic fault")
            return real_run_cell(cfg, kind, method, ratio, rep, data)

        monkeypatch.setattr(experiment, "run_cell", flaky)
        result = experiment.run_sweep(cfg, raw_path=str(path))
        bad = [r for r in result.rows if not r.ok]
        assert len(bad) == 1 and bad[0].error and "synthetic fault" in bad[0].error
        experiment.write_results(result, str(path))
        text = path.read_text()
        assert text.count("NA,NA,NA,NA,NA") == 1

        # resuming with the fault gone retries exactly the failed cell and
        # reproduces the clean sweep byte for byte
        monkeypatch.setattr(experiment, "run_cell", real_run_cell)
        resumed = experiment.run_sweep(cfg, raw_path=str(path))
        experiment.write_results(resumed, str(path))
        assert path.read_bytes() == reference

    @pytest.mark.parametrize("write", [experiment.write_results,
                                       experiment.write_summary])
    def test_failed_write_keeps_previous_file(self, write, tmp_path,
                                              monkeypatch):
        result = experiment.run_sweep(tiny_config(ratios=(0.0, 0.1)))
        path = tmp_path / "out.csv"
        write(result, str(path))
        before = path.read_bytes()
        assert os.listdir(tmp_path) == ["out.csv"]

        real_fmt, calls = experiment._fmt, []

        def failing_fmt(*args):
            calls.append(args)
            if len(calls) == 10:  # header and first row already written
                raise OSError("disk full")
            return real_fmt(*args)

        monkeypatch.setattr(experiment, "_fmt", failing_fmt)
        with pytest.raises(OSError, match="disk full"):
            write(result, str(path))
        assert len(calls) == 10
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_parallel_matches_serial(self):
        cfg = tiny_config(ratios=(0.0, 0.1), repetitions=1)
        serial = experiment.run_sweep(cfg, workers=1)
        parallel = experiment.run_sweep(cfg, workers=2)
        assert serial.rows == parallel.rows

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


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _worker_blas_threads(_):
    return _blas_threads()


class TestPoolWorkers:
    def test_workers_share_the_cores_as_blas_threads(self):
        parent = _blas_threads()
        if parent is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        cores = len(os.sched_getaffinity(0))
        bundle = experiment.prepare_data(tiny_config())
        with ProcessPoolExecutor(max_workers=2,
                                 initializer=experiment._init_worker,
                                 initargs=(bundle, cores)) as pool:
            counts = set(pool.map(_worker_blas_threads, range(2)))
        assert counts == {1}
        assert _blas_threads() == parent
