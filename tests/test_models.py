"""Reconstruction/prediction model tests: losses, training semantics,
scoring, checkpointing."""

import json

import numpy as np
import pytest

from losstrace import data, models, nn
from losstrace.errors import ConfigError, ParseError, ShapeError, TrainingError


def toy_series(t=200, d=2, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    base = np.sin(2 * np.pi * np.arange(t) / 25.0)[:, None] * np.ones(d)
    values = base + 0.1 * rng.normal(size=(t, d))
    return data.MultivariateSeries(values, labels)


def toy_windows(n=40, w=6, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return data.WindowSet(
        w, rng.normal(size=(n, w, d)), np.zeros(n, dtype=np.int8),
        np.arange(n, dtype=np.int64),
    )


def identity_reconstruction_model(w, d):
    size = w * d
    net = nn.DenseNet([nn.DenseLayer(np.eye(size), np.zeros(size), "identity")])
    return models.TsadModel(models.RECONSTRUCTION, net, w, d)


class TestBuildModel:
    def test_reconstruction_sizes(self):
        m = models.build_model("reconstruction", 12, 2, hidden_sizes=(8,), seed=0)
        assert [l.weights.shape for l in m.net.layers] == [(24, 8), (8, 24)]

    def test_prediction_sizes(self):
        m = models.build_model("prediction", 5, 1, horizon=1, hidden_sizes=(3,))
        assert m.net.input_size == 4 and m.net.output_size == 1

    def test_horizon_equal_to_window_rejected(self):
        with pytest.raises(ConfigError):
            models.build_model("prediction", 5, 1, horizon=5)

    def test_bottleneck_must_be_strict(self):
        with pytest.raises(ConfigError):
            models.build_model("reconstruction", 4, 2, hidden_sizes=(8,))
        with pytest.raises(ConfigError):
            models.build_model("reconstruction", 4, 2, hidden_sizes=(16, 12))
        # overcomplete layers are fine as long as the bottleneck is strict
        m = models.build_model("reconstruction", 4, 2, hidden_sizes=(16, 4))
        assert m.net.input_size == 8

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            models.build_model("density", 4, 2)


def window_loss(model, window):
    """Single-window reference loss, kept independent of sample_losses:
    nn.forward and nn.mse_per_sample on the window's flattened input and
    target."""
    split = model.window - model.horizon
    x = window[:split].reshape(-1)
    y = window[split:].reshape(-1) if model.kind == models.PREDICTION else x
    return nn.mse_per_sample(nn.forward(model.net, x), y)


def one_window_loss(model, window):
    return float(models.sample_losses(model, window[None, :, :])[0])


class TestSampleLoss:
    def test_identity_model_zero_loss(self):
        m = identity_reconstruction_model(3, 2)
        rng = np.random.default_rng(1)
        for _ in range(5):
            window = rng.normal(size=(3, 2))
            assert window_loss(m, window) == 0.0
            assert one_window_loss(m, window) == 0.0

    def test_zero_net_zero_window(self):
        net = nn.DenseNet([nn.DenseLayer(np.zeros((4, 4)), np.zeros(4), "identity")])
        m = models.TsadModel(models.RECONSTRUCTION, net, 2, 2)
        assert window_loss(m, np.zeros((2, 2))) == 0.0
        assert one_window_loss(m, np.zeros((2, 2))) == 0.0

    def test_composes_forward_and_mse(self):
        rng = np.random.default_rng(2)
        m = models.build_model("reconstruction", 4, 3, hidden_sizes=(5,), seed=3)
        for _ in range(10):
            window = rng.normal(size=(4, 3))
            flat = window.reshape(-1)
            expected = nn.mse_per_sample(nn.forward(m.net, flat), flat)
            assert window_loss(m, window) == expected
            assert abs(one_window_loss(m, window) - expected) <= 1e-12

    def test_prediction_loss_composition(self):
        rng = np.random.default_rng(4)
        m = models.build_model("prediction", 6, 2, horizon=2, hidden_sizes=(5,), seed=1)
        window = rng.normal(size=(6, 2))
        x = window[:4].reshape(-1)
        y = window[4:].reshape(-1)
        expected = nn.mse_per_sample(nn.forward(m.net, x), y)
        assert window_loss(m, window) == expected
        assert abs(one_window_loss(m, window) - expected) <= 1e-12

    def test_shape_error(self):
        m = identity_reconstruction_model(3, 2)
        with pytest.raises(ShapeError):
            one_window_loss(m, np.zeros((2, 2)))

    def test_batched_losses_match_loop(self):
        ws = toy_windows(n=30, w=4, d=2)
        m = models.build_model("reconstruction", 4, 2, hidden_sizes=(3,), seed=7)
        batched = models.sample_losses(m, ws)
        looped = [window_loss(m, ws.data[i]) for i in range(len(ws))]
        assert np.allclose(batched, looped, atol=1e-12, rtol=1e-12)


class TestLossPassSlices:
    """sample_losses runs in equal slices of at most LOSS_PASS_ROWS windows.
    Exact equality with one pass is left to the benchmark digests: which
    BLAS kernel a slice gets depends on the CPU."""

    @pytest.mark.parametrize("kind", [models.RECONSTRUCTION, models.PREDICTION])
    @pytest.mark.parametrize("n", [1, 5, 6, 11, 23])
    def test_slices_match_one_pass(self, kind, n, monkeypatch):
        m = models.build_model(kind, 4, 2, horizon=1, hidden_sizes=(3,), seed=7)
        ws = toy_windows(n=n, w=4, d=2, seed=n)
        whole = models.sample_losses(m, ws)
        rows = []
        forward_batch = nn.forward_batch

        def recording(net, x):
            rows.append(len(x))
            return forward_batch(net, x)

        monkeypatch.setattr(nn, "forward_batch", recording)
        monkeypatch.setattr(models, "LOSS_PASS_ROWS", 5)
        sliced = models.sample_losses(m, ws)
        looped = [window_loss(m, ws.data[i]) for i in range(n)]
        np.testing.assert_allclose(sliced, whole, rtol=1e-12)
        np.testing.assert_allclose(sliced, looped, rtol=1e-12, atol=1e-12)
        assert sum(rows) == n and max(rows) <= 5
        if n > 5:
            assert min(rows) >= 5 // 2

    def test_sliced_scores_match(self, monkeypatch):
        m = models.build_model("prediction", 6, 2, horizon=2, hidden_sizes=(4,), seed=2)
        series = toy_series(t=50, d=2, seed=3)
        whole = models.anomaly_scores(m, series)
        monkeypatch.setattr(models, "LOSS_PASS_ROWS", 5)  # 45 windows, 9 slices
        np.testing.assert_allclose(models.anomaly_scores(m, series), whole,
                                   rtol=1e-12)


class TestTrainEpoch:
    def test_empty_mask_rejected(self):
        ws = toy_windows()
        m = models.build_model("reconstruction", 6, 2, hidden_sizes=(4,))
        cfg = models.TrainConfig(seed=1)
        state = nn.init_optimizer(m.net)
        with pytest.raises(TrainingError):
            models.train_epoch(m, state, ws, cfg, epoch=0, mask=[])

    def test_mask_out_of_range(self):
        ws = toy_windows(n=10)
        m = models.build_model("reconstruction", 6, 2, hidden_sizes=(4,))
        state = nn.init_optimizer(m.net)
        with pytest.raises(TrainingError):
            models.train_epoch(m, state, ws, models.TrainConfig(seed=1), 0, mask=[10])

    @pytest.mark.parametrize("w,d", [(5, 2), (6, 3)])
    def test_windows_of_wrong_shape_rejected(self, w, d):
        m = models.build_model("reconstruction", 6, 2, hidden_sizes=(4,))
        state = nn.init_optimizer(m.net)
        before = m.net.flat.copy()
        with pytest.raises(ShapeError):
            models.train_epoch(m, state, toy_windows(n=10, w=w, d=d),
                               models.TrainConfig(seed=1), 0)
        assert m.net.flat.tobytes() == before.tobytes() and state.step == 0

    def test_masked_equals_physically_reduced(self):
        rng = np.random.default_rng(8)
        for case in range(10):
            n = int(rng.integers(8, 30))
            ws = toy_windows(n=n, w=4, d=2, seed=case)
            keep = sorted(
                rng.choice(n, size=int(rng.integers(2, n)), replace=False).tolist()
            )
            cfg = models.TrainConfig(
                epochs=3, batch_size=5, learning_rate=1e-2, seed=case
            )

            masked = models.build_model("reconstruction", 4, 2,
                                        hidden_sizes=(3,), seed=100 + case)
            state_m = nn.init_optimizer(masked.net, cfg.learning_rate)
            reduced = models.build_model("reconstruction", 4, 2,
                                         hidden_sizes=(3,), seed=100 + case)
            state_r = nn.init_optimizer(reduced.net, cfg.learning_rate)
            sub = ws.subset(keep)
            for epoch in range(cfg.epochs):
                models.train_epoch(masked, state_m, ws, cfg, epoch, mask=keep)
                models.train_epoch(reduced, state_r, sub, cfg, epoch)
            for p, q in zip(masked.net.parameters(), reduced.net.parameters()):
                assert p.tobytes() == q.tobytes()

    def test_deterministic(self):
        ws = toy_windows(n=25, w=4, d=2)

        def run():
            m = models.build_model("reconstruction", 4, 2, hidden_sizes=(3,), seed=5)
            state = nn.init_optimizer(m.net, 1e-3)
            cfg = models.TrainConfig(seed=3)
            for epoch in range(4):
                models.train_epoch(m, state, ws, cfg, epoch)
            return [p.tobytes() for p in m.net.parameters()]

        assert run() == run()

    def test_loss_decreases_on_tiny_dataset(self):
        series = toy_series(t=120, d=2, seed=3)
        ws = data.make_windows(series, 6, 2)
        m = models.build_model("reconstruction", 6, 2, hidden_sizes=(6,), seed=2)
        cfg = models.TrainConfig(epochs=50, batch_size=16, learning_rate=1e-3, seed=1)
        state = nn.init_optimizer(m.net, cfg.learning_rate)
        before = models.sample_losses(m, ws).mean()
        for epoch in range(cfg.epochs):
            models.train_epoch(m, state, ws, cfg, epoch)
        after = models.sample_losses(m, ws).mean()
        assert after < before

    def test_halves_loss_on_clean_synthetic(self):
        cfg = data.SyntheticConfig(channels=2, length=420, periods=(30,),
                                   noise_sigma=0.1, anomaly_rate=0.0, seed=6)
        train, _ = data.generate_synthetic(cfg)
        norm = data.fit_normalizer(train)
        ws = data.make_windows(data.apply_normalizer(norm, train), 8, 2)
        assert len(ws) >= 200
        m = models.build_model("reconstruction", 8, 2, hidden_sizes=(8,), seed=4)
        tcfg = models.TrainConfig(epochs=50, batch_size=32, learning_rate=1e-3, seed=2)
        state = nn.init_optimizer(m.net, tcfg.learning_rate)
        epoch0 = models.sample_losses(m, ws).mean()
        for epoch in range(tcfg.epochs):
            models.train_epoch(m, state, ws, tcfg, epoch)
        assert models.sample_losses(m, ws).mean() < 0.5 * epoch0


class TestFit:
    def test_early_stopping_restores_best(self):
        series = toy_series(t=160, d=1, seed=9)
        ws = data.make_windows(series, 6, 1)
        train_ws, val_ws = data.split_train_val(ws, seed=4)
        m = models.build_model("reconstruction", 6, 1, hidden_sizes=(4,), seed=3)
        cfg = models.TrainConfig(epochs=60, batch_size=16, learning_rate=5e-3,
                                 patience=3, seed=2)
        result = models.fit(m, train_ws, cfg, val_windows=val_ws)
        assert result.epochs_run <= cfg.epochs
        best = min(result.val_history)
        # restored parameters reproduce the best recorded validation loss
        assert abs(models.sample_losses(m, val_ws).mean() - best) <= 1e-12


class TestAnomalyScores:
    def test_identity_model_scores_zero(self):
        m = identity_reconstruction_model(4, 2)
        series = toy_series(t=60, d=2, seed=1)
        scores = models.anomaly_scores(m, series)
        assert scores.shape == (60,)
        assert np.all(scores == 0.0)

    def test_constant_series_constant_model(self):
        w, d = 5, 2
        size = w * d
        net = nn.DenseNet([nn.DenseLayer(np.zeros((size, size)),
                                         np.full(size, 0.7), "identity")])
        m = models.TsadModel(models.RECONSTRUCTION, net, w, d)
        series = data.MultivariateSeries(np.full((40, d), 0.3))
        scores = models.anomaly_scores(m, series)
        assert np.allclose(scores, scores[0])

    def test_matches_brute_force_max(self):
        rng = np.random.default_rng(12)
        m = models.build_model("reconstruction", 5, 2, hidden_sizes=(4,), seed=6)
        series = data.MultivariateSeries(rng.normal(size=(48, 2)))
        scores = models.anomaly_scores(m, series)
        ws = data.make_windows(series, 5, 1)
        losses = [window_loss(m, ws.data[i]) for i in range(len(ws))]
        expected = np.full(48, np.nan)
        for j, origin in enumerate(ws.origins):
            for t in range(origin, origin + 5):
                if np.isnan(expected[t]) or losses[j] > expected[t]:
                    expected[t] = losses[j]
        assert not np.isnan(expected).any()
        assert np.allclose(scores, expected, atol=1e-12, rtol=1e-12)

    def test_series_shorter_than_window(self):
        m = identity_reconstruction_model(8, 1)
        with pytest.raises(ShapeError):
            models.anomaly_scores(m, data.MultivariateSeries(np.zeros((5, 1))))

    def test_channel_mismatch(self):
        m = identity_reconstruction_model(4, 2)
        with pytest.raises(ShapeError):
            models.anomaly_scores(m, data.MultivariateSeries(np.zeros((20, 3))))

    def test_prediction_model_scores(self):
        m = models.build_model("prediction", 6, 2, horizon=2, hidden_sizes=(4,), seed=2)
        series = toy_series(t=50, d=2, seed=3)
        scores = models.anomaly_scores(m, series)
        assert scores.shape == (50,)
        assert np.isfinite(scores).all()


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        m = models.build_model("prediction", 7, 3, horizon=2,
                               hidden_sizes=(6, 4), seed=13)
        norm = data.Normalizer(np.array([1.0, 2.0, 3.0]), np.array([1.5, 1.0, 0.5]))
        path = tmp_path / "model.npz"
        models.save_checkpoint(m, str(path), normalizer=norm,
                               channel_names=["a", "b", "c"])
        loaded, norm2, names = models.load_checkpoint(str(path))
        assert loaded.kind == m.kind
        assert (loaded.window, loaded.channels, loaded.horizon) == (7, 3, 2)
        assert names == ["a", "b", "c"]
        for p, q in zip(loaded.net.parameters(), m.net.parameters()):
            assert p.tobytes() == q.tobytes()
        assert norm2.mean.tobytes() == norm.mean.tobytes()
        assert norm2.std.tobytes() == norm.std.tobytes()

    def test_scores_identical_after_reload(self, tmp_path):
        m = models.build_model("reconstruction", 5, 2, hidden_sizes=(4,), seed=21)
        series = toy_series(t=40, d=2, seed=2)
        path = tmp_path / "model.npz"
        models.save_checkpoint(m, str(path))
        loaded, norm, names = models.load_checkpoint(str(path))
        assert norm is None and names is None
        a = models.anomaly_scores(m, series)
        b = models.anomaly_scores(loaded, series)
        assert a.tobytes() == b.tobytes()

    def test_unreadable_or_incomplete_files(self, tmp_path):
        m = models.build_model("reconstruction", 5, 2, hidden_sizes=(4,), seed=21)
        good = tmp_path / "good.npz"
        models.save_checkpoint(m, str(good))
        with np.load(good) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(str(arrays["meta"]))
        del meta["activations"]
        broken = [tmp_path / n for n in ("truncated", "garbage", "empty",
                                         "plain.npy", "no_b1", "no_meta",
                                         "no_activations")]
        broken[0].write_bytes(good.read_bytes()[:200])
        broken[1].write_bytes(b"not a checkpoint")
        broken[2].write_bytes(b"")
        np.save(broken[3], np.zeros(3))
        for path, entries in zip(broken[4:], (
            {k: v for k, v in arrays.items() if k != "b1"},
            {k: v for k, v in arrays.items() if k != "meta"},
            dict(arrays, meta=np.array(json.dumps(meta))),
        )):
            with open(path, "wb") as fh:
                np.savez(fh, **entries)
        for path in broken:
            with pytest.raises(ParseError):
                models.load_checkpoint(str(path))
        with pytest.raises(ConfigError, match="cannot read"):
            models.load_checkpoint(str(tmp_path / "missing.npz"))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, meta=np.array('{"format": "other"}'))
        with pytest.raises(ConfigError):
            models.load_checkpoint(str(path))
