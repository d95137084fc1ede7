"""Loss-trace filtering: metric oracles, quantile rule, discard selection,
robust-training pipeline semantics."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losstrace import data, filtering, models, nn
from losstrace.errors import ConfigError, FilterError, NumericError
from losstrace.seeding import derive_seed


# ---------------------------------------------------------------------------
# independent oracles (plain Python, no numpy reductions)

def brute_mean_of_epochs(row):
    epochs = row[1:]
    return sum(epochs) / len(epochs)


def brute_std_of_deltas(row):
    deltas = [row[i] - row[i - 1] for i in range(1, len(row))]
    mean = sum(deltas) / len(deltas)
    var = sum((d - mean) ** 2 for d in deltas) / len(deltas)
    return math.sqrt(var)


def brute_quantile(values, q):
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1]


def random_trace(rng, n=None, epochs=None):
    n = n or int(rng.integers(1, 50))
    epochs = epochs or int(rng.integers(1, 20))
    return filtering.LossTrace(rng.uniform(0.0, 10.0, size=(n, epochs + 1)))


def make_factory(w=4, d=2, hidden=(3,)):
    def factory(seed):
        return models.build_model("reconstruction", w, d, hidden_sizes=hidden,
                                  seed=seed)
    return factory


def window_loss(model, window):
    """Single-window reconstruction loss through nn.forward and
    nn.mse_per_sample, kept independent of models.sample_losses."""
    flat = window.reshape(-1)
    return nn.mse_per_sample(nn.forward(model.net, flat), flat)


def toy_windows(n=40, w=4, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return data.WindowSet(
        w, rng.normal(size=(n, w, d)), np.zeros(n, dtype=np.int8),
        np.arange(n, dtype=np.int64),
    )


class TestLossTrace:
    def test_shape_and_accessors(self):
        trace = filtering.LossTrace(np.ones((7, 4), dtype=np.int64))
        assert trace.losses.shape == (7, 4) and trace.losses.dtype == np.float64

    def test_needs_at_least_one_epoch(self):
        with pytest.raises(FilterError):
            filtering.LossTrace(np.ones((7, 1)))

    def test_rejects_negative_losses(self):
        with pytest.raises(FilterError):
            filtering.LossTrace(np.array([[1.0, -0.1]]))


def trial_config(trial_epochs, **train):
    return filtering.RobustTrainConfig(train=models.TrainConfig(**train),
                                       trial_epochs=trial_epochs)


class TestRecordTrialTraces:
    def test_single_epoch_trace_has_two_columns(self):
        ws = toy_windows(n=12)
        trace = filtering.record_trial_traces(
            make_factory(), ws, trial_config(1, seed=3)
        )
        assert trace.losses.shape == (12, 2)

    def test_deterministic(self):
        ws = toy_windows(n=15)
        cfg = trial_config(4, seed=5)
        a = filtering.record_trial_traces(make_factory(), ws, cfg)
        b = filtering.record_trial_traces(make_factory(), ws, cfg)
        assert a.losses.tobytes() == b.losses.tobytes()

    def test_method_and_tau_do_not_change_the_trace(self):
        """The premise of one trace per sweep group: only the windows, the
        trial epochs and the training settings make the trace."""
        ws = toy_windows(n=20, seed=10)
        base = trial_config(3, epochs=1, batch_size=8, seed=31)
        expected = filtering.record_trial_traces(make_factory(), ws, base)
        for method in filtering.METHODS:
            for tau in (0.05, 0.2, 0.5):
                cfg = dataclasses.replace(base, method=method, tau=tau)
                trace = filtering.record_trial_traces(make_factory(), ws, cfg)
                assert trace.losses.tobytes() == expected.losses.tobytes()
        other_seed = trial_config(3, epochs=1, batch_size=8, seed=32)
        assert (filtering.record_trial_traces(make_factory(), ws, other_seed)
                .losses.tobytes() != expected.losses.tobytes())

    @pytest.mark.filterwarnings("error")
    def test_overflowing_losses_are_fatal_without_a_warning(self):
        """Trial losses that overflow end in the trace's FilterError, with
        no numpy warning from the loss passes."""
        cfg = trial_config(3, batch_size=8, learning_rate=1e154, seed=0)
        with pytest.raises(FilterError, match="^trace losses must be finite"):
            filtering.record_trial_traces(make_factory(w=6, hidden=(4,)),
                                          toy_windows(n=40, w=6, seed=5), cfg)

    def test_columns_match_manual_recomputation(self):
        ws = toy_windows(n=10, seed=2)
        n_epochs = 3
        trace = filtering.record_trial_traces(
            make_factory(), ws,
            trial_config(n_epochs, batch_size=4, learning_rate=1e-2, seed=7))

        # the trial phase trains with the seed derived for it
        cfg = models.TrainConfig(batch_size=4, learning_rate=1e-2,
                                 seed=derive_seed(7, "trial"))
        model = make_factory()(cfg.seed)
        state = nn.init_optimizer(model.net, cfg.learning_rate)
        expected0 = [window_loss(model, ws.data[i]) for i in range(10)]
        assert np.allclose(trace.losses[:, 0], expected0, atol=1e-12, rtol=1e-12)
        for epoch in range(n_epochs):
            models.train_epoch(model, state, ws, cfg, epoch)
            expected = [window_loss(model, ws.data[i]) for i in range(10)]
            assert np.allclose(trace.losses[:, epoch + 1], expected,
                               atol=1e-12, rtol=1e-12)


class TestMetricM:
    def test_constant_epochs(self):
        trace = filtering.LossTrace(np.array([[5.0, 1.0, 1.0, 1.0]]))
        assert filtering.metric_m(trace)[0] == 1.0

    def test_arithmetic_mean_excludes_initial_column(self):
        trace = filtering.LossTrace(np.array([[9.0, 3.0, 2.0, 1.0]]))
        assert filtering.metric_m(trace)[0] == 2.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            trace = random_trace(rng)
            m = filtering.metric_m(trace)
            for i in range(len(trace.losses)):
                assert abs(m[i] - brute_mean_of_epochs(trace.losses[i].tolist())) <= 1e-12


class TestMetricV:
    def test_constant_delta_gives_zero(self):
        trace = filtering.LossTrace(np.array([[4.0, 3.0, 2.0, 1.0]]))
        assert filtering.metric_v(trace)[0] == 0.0

    def test_oscillating_row(self):
        trace = filtering.LossTrace(np.array([[1.0, 2.0, 1.0, 2.0]]))
        # deltas [1, -1, 1]: population std = sqrt(8/9)
        assert abs(filtering.metric_v(trace)[0] - math.sqrt(8.0 / 9.0)) <= 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            trace = random_trace(rng)
            v = filtering.metric_v(trace)
            for i in range(len(trace.losses)):
                assert abs(v[i] - brute_std_of_deltas(trace.losses[i].tolist())) <= 1e-12

    def test_affine_trace_never_oscillates(self):
        # rows affine in the epoch index (dyadic coefficients: exact floats)
        n_epochs = 6
        idx = np.arange(n_epochs + 1)
        rows = [a * idx + b for a in (0.25, 0.5, 1.5) for b in (2.0, 3.75)]
        trace = filtering.LossTrace(np.stack(rows))
        assert np.all(filtering.metric_v(trace) == 0.0)


class TestQuantileThreshold:
    def test_rank_example(self):
        values = np.arange(1.0, 11.0)
        assert filtering.quantile_threshold(values, 0.8) == 8.0

    def test_all_equal(self):
        for q in (0.1, 0.5, 0.9):
            assert filtering.quantile_threshold(np.full(7, 3.3), q) == 3.3

    def test_empty_rejected(self):
        with pytest.raises(FilterError):
            filtering.quantile_threshold(np.array([]), 0.5)

    def test_level_out_of_range(self):
        with pytest.raises(FilterError):
            filtering.quantile_threshold(np.ones(3), 1.0)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            values = rng.normal(size=n)
            q = float(rng.uniform(0.01, 0.99))
            assert filtering.quantile_threshold(values, q) == brute_quantile(
                values.tolist(), q
            )


class TestSelectDiscard:
    def test_order_statistic_rule(self):
        m = np.arange(1.0, 11.0)
        v = np.zeros(10)
        report = filtering.select_discard(m, v, tau=0.2, method="m_only")
        assert report.discard.tolist() == [8, 9]  # values 9 and 10
        assert report.threshold_m == 8.0

    def test_vanilla_discards_nothing(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ConfigError, match="'vanilla'"):
            filtering.select_discard(rng.normal(size=20), rng.normal(size=20),
                                     tau=0.2, method="vanilla")
        cfg = filtering.RobustTrainConfig(
            train=models.TrainConfig(epochs=1, batch_size=8, seed=2),
            tau=0.15, method="vanilla")
        _, report = filtering.robust_train(make_factory(), toy_windows(n=20), cfg)
        assert report.to_dict() == filtering.FilterReport("vanilla", 0.15).to_dict()
        assert report.discard.size == 0 and report.discard.dtype == np.int64

    def test_identical_metrics_union_is_single_set(self):
        m = np.arange(1.0, 11.0)
        report = filtering.select_discard(m, m.copy(), tau=0.2, method="combined")
        assert report.discard.tolist() == report.s_m.tolist()
        assert report.s_m.tolist() == report.s_v.tolist()

    def test_union_semantics(self):
        rng = np.random.default_rng(5)
        m, v = rng.normal(size=30), rng.normal(size=30)
        combined = filtering.select_discard(m, v, 0.2, "combined")
        s_m = set(filtering.select_discard(m, v, 0.2, "m_only").discard.tolist())
        s_v = set(filtering.select_discard(m, v, 0.2, "v_only").discard.tolist())
        assert set(combined.discard.tolist()) == s_m | s_v
        assert max(len(s_m), len(s_v)) <= combined.discard.size <= len(s_m) + len(s_v)

    def test_cardinality_with_distinct_values(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 80))
            tau = float(rng.uniform(0.05, 0.6))
            m = rng.permutation(n).astype(float)  # distinct
            report = filtering.select_discard(m, np.zeros(n), tau, "m_only")
            assert report.s_m.size == n - math.ceil((1.0 - tau) * n)

    def test_discarding_everything_is_fatal(self):
        # each metric keeps its own max-rank element, but the union covers all
        m = np.array([1.0, 2.0])
        v = np.array([2.0, 1.0])
        with pytest.raises(FilterError):
            filtering.select_discard(m, v, tau=0.5, method="combined")

    @pytest.mark.parametrize("metric, value", [
        ("v", np.inf), ("m", np.inf), ("m", np.nan)])
    def test_nonfinite_metric_is_fatal(self, metric, value):
        m, v = np.arange(5.0), np.arange(5.0)
        {"m": m, "v": v}[metric][3] = value
        with pytest.raises(FilterError, match="^m or v is not finite"):
            filtering.select_discard(m, v, tau=0.2, method="combined")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_trace_is_fatal_without_a_warning(self):
        """Finite losses whose updates overflow the std give inf v, silently."""
        trace = filtering.LossTrace(np.array([[1.0, 1e200, 1.0]] * 3))
        v = filtering.metric_v(trace)
        assert np.isposinf(v).all()
        with pytest.raises(FilterError, match="^m or v is not finite"):
            filtering.select_discard(filtering.metric_m(trace), v, tau=0.2)

    def test_ties_at_threshold_are_retained(self):
        m = np.array([1.0, 2.0, 2.0, 2.0, 2.0])
        report = filtering.select_discard(m, np.zeros(5), tau=0.2, method="m_only")
        assert report.discard.size == 0  # threshold is 2.0, nothing exceeds it

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        a=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
        b=st.integers(min_value=-100, max_value=100),
    )
    def test_monotone_affine_invariance(self, seed, a, b):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        # values on a half-unit grid keep a*x + b exact
        m = rng.integers(-2000, 2000, size=n) / 2.0
        v = rng.integers(-2000, 2000, size=n) / 2.0
        base = filtering.select_discard(m, v, 0.2, "m_only")
        scaled = filtering.select_discard(a * m + b / 2.0, v, 0.2, "m_only")
        assert base.s_m.tolist() == scaled.s_m.tolist()


class TestRobustTrain:
    def test_vanilla_is_exactly_the_final_phase(self):
        ws = toy_windows(n=24, seed=3)
        factory = make_factory()
        cfg = filtering.RobustTrainConfig(
            train=models.TrainConfig(epochs=5, batch_size=8, seed=11),
            method="vanilla",
        )
        model, report = filtering.robust_train(factory, ws, cfg)
        assert report.discard.size == 0 and report.m is None
        direct, _ = filtering.final_fit(factory, ws, cfg.train, np.arange(24))
        for p, q in zip(model.net.parameters(), direct.net.parameters()):
            assert p.tobytes() == q.tobytes()

    def test_final_fit_returns_the_fit_result(self, monkeypatch):
        ws = toy_windows(n=24, seed=3)
        train = models.TrainConfig(epochs=6, batch_size=8, patience=2, seed=11)
        fits = []

        def recorded(*args, **kwargs):
            fits.append(models.fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(filtering, "fit", recorded)
        model, result = filtering.final_fit(make_factory(), ws, train,
                                            np.arange(24))
        assert len(fits) == 1 and result is fits[0]
        assert result.epochs_run == len(result.val_history) >= 1
        assert 0 <= result.best_epoch < result.epochs_run

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind, rate", [
        *((kind, 1e100) for kind in models.MODEL_KINDS),
        ("reconstruction", 1e154),  # every validation loss overflows: inf
    ])
    def test_final_fit_refuses_a_diverged_fit(self, kind, rate):
        """A learning rate that makes every epoch worse, with parameters
        that stay finite, raises NumericError naming both losses, and no
        numpy warning when the validation losses overflow."""
        ws = toy_windows(n=40, w=6, seed=5)

        def factory(seed):
            return models.build_model(kind, 6, 2, hidden_sizes=(4,), seed=seed)

        train = models.TrainConfig(epochs=3, batch_size=8, learning_rate=rate,
                                   seed=0)
        with pytest.raises(NumericError) as raised:
            filtering.final_fit(factory, ws, train, np.arange(40))
        best, untrained = re.fullmatch(
            r"training diverged: the best validation loss (\S+) is above "
            r"the untrained model's (\S+)", str(raised.value)).groups()
        assert float(best) > 1e100 and 0 < float(untrained) < 10

    def test_deterministic(self):
        ws = toy_windows(n=30, seed=4)
        cfg = filtering.RobustTrainConfig(
            train=models.TrainConfig(epochs=4, batch_size=8, seed=13),
            trial_epochs=3,
            method="combined",
        )
        a, ra = filtering.robust_train(make_factory(), ws, cfg)
        b, rb = filtering.robust_train(make_factory(), ws, cfg)
        assert ra.discard.tolist() == rb.discard.tolist()
        for p, q in zip(a.net.parameters(), b.net.parameters()):
            assert p.tobytes() == q.tobytes()

    def test_trial_and_final_models_use_different_seeds(self):
        seeds = []

        def factory(seed):
            seeds.append(seed)
            return models.build_model("reconstruction", 4, 2, hidden_sizes=(3,),
                                      seed=seed)

        ws = toy_windows(n=20, seed=5)
        cfg = filtering.RobustTrainConfig(
            train=models.TrainConfig(epochs=2, batch_size=8, seed=17),
            trial_epochs=2,
            method="combined",
        )
        filtering.robust_train(factory, ws, cfg)
        assert len(seeds) == 2 and seeds[0] != seeds[1]

    def test_discarded_windows_do_not_influence_model(self):
        ws = toy_windows(n=25, seed=6)
        cfg = filtering.RobustTrainConfig(
            train=models.TrainConfig(epochs=4, batch_size=8, seed=19),
            trial_epochs=3,
            method="combined",
        )
        model_a, report = filtering.robust_train(make_factory(), ws, cfg)
        assert report.discard.size > 0
        retained = np.setdiff1d(np.arange(25), report.discard)
        # the returned model is a pure function of the retained windows:
        # overwrite every discarded window with junk and rebuild the final
        # phase from the same retained set; parameters must be bit-identical
        poisoned = data.WindowSet(
            ws.window, ws.data.copy(), ws.flags.copy(), ws.origins.copy()
        )
        poisoned.data[report.discard] = 1e6
        rebuilt, _ = filtering.final_fit(make_factory(), poisoned, cfg.train,
                                         retained)
        for p, q in zip(model_a.net.parameters(), rebuilt.net.parameters()):
            assert p.tobytes() == q.tobytes()

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    @pytest.mark.parametrize("method", filtering.METHODS)
    def test_checkpoint_matches_physically_reduced_reference(
            self, kind, method, tmp_path):
        """robust_train on overlapping window views writes the checkpoint of
        the copying final phase: the retained windows copied out, that copy
        split 4:1 into two more copies, the fit run on the training copy."""
        rng = np.random.default_rng(5)
        t = np.arange(240, dtype=np.float64)[:, None]
        values = np.sin(t / np.array([5.0, 9.0])) + 0.2 * rng.normal(size=(240, 2))
        series = data.MultivariateSeries(values)
        ws = data.make_windows(series, 6, 2)  # stride below the window
        assert np.shares_memory(ws.data, series.values)

        def factory(seed):
            return models.build_model(kind, 6, 2, horizon=2, hidden_sizes=(5,),
                                      seed=seed)

        cfg = filtering.RobustTrainConfig(
            train=models.TrainConfig(epochs=4, batch_size=16, patience=2,
                                     seed=29),
            trial_epochs=3, method=method)
        model, report = filtering.robust_train(factory, ws, cfg)

        copied = data.WindowSet(6, np.ascontiguousarray(ws.data), ws.flags,
                                ws.origins)
        kept = copied.subset(np.setdiff1d(np.arange(len(ws)), report.discard))
        if method != filtering.VANILLA:
            trace = filtering.record_trial_traces(factory, copied, cfg)
            expected = filtering.select_discard(
                filtering.metric_m(trace), filtering.metric_v(trace), cfg.tau,
                method)
            assert report.discard.tolist() == expected.discard.tolist()
            assert report.discard.size > 0
        split_rng = np.random.default_rng(
            derive_seed(cfg.train.seed, "train-val-split"))
        val_pos = np.sort(split_rng.choice(len(kept), size=round(len(kept) / 5),
                                           replace=False))
        train_pos = np.setdiff1d(np.arange(len(kept)), val_pos)
        reference = factory(derive_seed(cfg.train.seed, "final-model"))
        final_cfg = dataclasses.replace(
            cfg.train, seed=derive_seed(cfg.train.seed, "final-train"))
        models.fit(reference, kept.subset(train_pos), final_cfg,
                   val_windows=kept.subset(val_pos))

        models.save_checkpoint(model, str(tmp_path / "robust.npz"))
        models.save_checkpoint(reference, str(tmp_path / "reference.npz"))
        assert ((tmp_path / "robust.npz").read_bytes()
                == (tmp_path / "reference.npz").read_bytes())

    def test_discard_covers_planted_outliers(self):
        rng = np.random.default_rng(8)
        n = 50
        wdata = rng.normal(size=(n, 4, 2)) * 0.1
        planted = {3, 17, 31, 44, 49}
        for i in planted:
            wdata[i] += rng.normal(6.0, 1.0, size=(4, 2))
        ws = data.WindowSet(4, wdata, np.zeros(n, dtype=np.int8),
                            np.arange(n, dtype=np.int64))
        cfg = filtering.RobustTrainConfig(
            train=models.TrainConfig(epochs=5, batch_size=16, seed=23),
            tau=0.2,
            trial_epochs=5,
            method="combined",
        )
        _, report = filtering.robust_train(make_factory(), ws, cfg)
        assert planted <= set(report.discard.tolist())

    def test_given_trace_reproduces_the_trial_phase(self):
        ws = toy_windows(n=30, seed=9)
        cfg = filtering.RobustTrainConfig(
            train=models.TrainConfig(epochs=3, batch_size=8, seed=29),
            trial_epochs=3,
            method="combined",
        )
        trace = filtering.record_trial_traces(make_factory(), ws, cfg)
        assert trace.losses.shape == (30, 4)
        for method in ("m_only", "v_only", "combined"):
            alone_cfg = dataclasses.replace(cfg, method=method)
            alone, alone_report = filtering.robust_train(make_factory(), ws,
                                                         alone_cfg)

            def no_trial(*args, **kwargs):
                raise AssertionError("the trial phase ran again")

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(filtering, "record_trial_traces", no_trial)
                reused, reused_report = filtering.robust_train(
                    make_factory(), ws, alone_cfg, trace=trace)
            assert reused.net.flat.tobytes() == alone.net.flat.tobytes()
            assert reused_report.to_dict() == alone_report.to_dict()
            assert "trace" not in reused_report.to_dict()

    @pytest.mark.parametrize("shape", [(29, 4), (31, 4), (30, 3), (30, 5)])
    def test_trace_of_the_wrong_shape_rejected(self, shape):
        ws = toy_windows(n=30, seed=9)
        cfg = filtering.RobustTrainConfig(
            train=models.TrainConfig(epochs=1, batch_size=8, seed=29),
            trial_epochs=3,
        )
        trace = filtering.LossTrace(np.ones(shape))
        with pytest.raises(FilterError, match=r"trace must be \(30, 4\)"):
            filtering.robust_train(make_factory(), ws, cfg, trace=trace)

    def test_report_serialization(self, tmp_path):
        m = np.arange(1.0, 11.0)
        report = filtering.select_discard(m, m[::-1].copy(), 0.2, "combined")
        path = tmp_path / "report.json"
        report.write(str(path))
        import json

        loaded = json.loads(path.read_text())
        assert loaded["method"] == "combined"
        assert loaded["tau"] == 0.2
        assert loaded["threshold_m"] == 8.0
        assert loaded["s_m"] == [8, 9]
        assert loaded["s_v"] == [0, 1]
        assert loaded["discard"] == [0, 1, 8, 9]

    def test_report_file_text(self, tmp_path):
        """The exact file: keys in field order, indent 2, null and []."""
        report = filtering.FilterReport(
            "combined", 0.25, m=np.array([0.5, 3.0]), v=np.array([2.5, 0.0]),
            threshold_m=1.25, threshold_v=0.125, s_m=np.array([1]),
            s_v=np.array([0]), discard=np.array([0, 1]))
        report.write(str(tmp_path / "combined.json"))
        assert (tmp_path / "combined.json").read_text() == (
            '{\n  "method": "combined",\n  "tau": 0.25,\n'
            '  "m": [\n    0.5,\n    3.0\n  ],\n'
            '  "v": [\n    2.5,\n    0.0\n  ],\n'
            '  "threshold_m": 1.25,\n  "threshold_v": 0.125,\n'
            '  "s_m": [\n    1\n  ],\n  "s_v": [\n    0\n  ],\n'
            '  "discard": [\n    0,\n    1\n  ]\n}\n')
        filtering.FilterReport("vanilla", 0.2).write(str(tmp_path / "vanilla.json"))
        assert (tmp_path / "vanilla.json").read_text() == (
            '{\n  "method": "vanilla",\n  "tau": 0.2,\n  "m": null,\n'
            '  "v": null,\n  "threshold_m": null,\n  "threshold_v": null,\n'
            '  "s_m": [],\n  "s_v": [],\n  "discard": []\n}\n')

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            filtering.RobustTrainConfig(train=models.TrainConfig(), tau=0.0)
        with pytest.raises(ConfigError):
            filtering.RobustTrainConfig(train=models.TrainConfig(), trial_epochs=0)
        with pytest.raises(ConfigError):
            filtering.RobustTrainConfig(train=models.TrainConfig(), method="best")

    @pytest.mark.parametrize("tau", [1e-17, 2.0**-54])
    def test_tau_too_small_for_a_quantile(self, tau):
        """select_discard thresholds at the 1 - tau quantile, so 1 - tau
        must stay below 1: tau above 2**-54."""
        with pytest.raises(ConfigError, match=f"^tau {tau} is too small: "
                                              f"1 - tau rounds to 1$"):
            filtering.RobustTrainConfig(train=models.TrainConfig(), tau=tau)
        tau = math.nextafter(2.0**-54, 1.0)
        cfg = filtering.RobustTrainConfig(train=models.TrainConfig(), tau=tau)
        report = filtering.select_discard(np.arange(5.0), np.arange(5.0), cfg.tau)
        assert report.discard.size == 0

    def test_protocol_defaults(self):
        cfg = filtering.RobustTrainConfig(train=models.TrainConfig())
        assert cfg.tau == 0.2
        assert cfg.trial_epochs == 10
        assert cfg.method == "combined"
