"""Engine tests: initialization, forward/backward against independent
oracles, optimizer behavior, and the flat parameter layout against a
per-layer reference engine."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from losstrace import data, models, nn
from losstrace.errors import ConfigError, NumericError, ShapeError


def naive_forward(net, x):
    """Independent re-implementation: explicit loops, no numpy matmul."""
    acts = {"tanh": np.tanh, "relu": lambda z: max(z, 0.0), "identity": lambda z: z}
    current = [float(v) for v in x]
    for layer in net.layers:
        n_in, n_out = layer.weights.shape
        nxt = []
        for j in range(n_out):
            z = float(layer.bias[j])
            for i in range(n_in):
                z += current[i] * float(layer.weights[i, j])
            nxt.append(float(acts[layer.activation](z)))
        current = nxt
    return np.array(current)


def random_net(rng, sizes=None, activations=None):
    if sizes is None:
        depth = rng.integers(2, 5)
        sizes = [int(rng.integers(1, 7)) for _ in range(depth)]
    if activations is None:
        activations = [
            str(rng.choice(["tanh", "relu", "identity"]))
            for _ in range(len(sizes) - 1)
        ]
    return nn.init_network(sizes, activations, seed=int(rng.integers(2**31)))


class TestInitNetwork:
    def test_same_seed_bit_identical(self):
        a = nn.init_network([4, 2, 4], seed=7)
        b = nn.init_network([4, 2, 4], seed=7)
        for la, lb in zip(a.layers, b.layers):
            assert la.weights.tobytes() == lb.weights.tobytes()
            assert la.bias.tobytes() == lb.bias.tobytes()

    def test_single_size_rejected(self):
        with pytest.raises(ConfigError):
            nn.init_network([4])

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ConfigError):
            nn.init_network([4, 0, 4])
        with pytest.raises(ConfigError):
            nn.init_network([])

    def test_xavier_bound(self):
        net = nn.init_network([8, 3, 8], seed=1)
        for layer in net.layers:
            fan_in, fan_out = layer.weights.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(layer.weights).max() <= limit
            assert np.all(layer.bias == 0.0)

    def test_activation_count_must_match(self):
        with pytest.raises(ConfigError):
            nn.init_network([4, 2, 4], activations=["tanh"])


class TestForward:
    def test_identity_layer(self):
        net = nn.DenseNet([nn.DenseLayer(np.eye(2), np.zeros(2), "identity")])
        assert np.array_equal(nn.forward(net, np.array([1.0, 2.0])), [1.0, 2.0])

    def test_zero_weights_yield_activated_bias(self):
        b = np.array([0.5, -0.3, 2.0])
        net = nn.DenseNet([nn.DenseLayer(np.zeros((2, 3)), b, "tanh")])
        out = nn.forward(net, np.array([3.0, -1.0]))
        assert np.allclose(out, np.tanh(b), atol=0, rtol=0)

    def test_dimension_mismatch(self):
        net = nn.init_network([4, 2], seed=0)
        with pytest.raises(ShapeError):
            nn.forward(net, np.ones(3))

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            net = random_net(rng)
            x = rng.normal(size=net.input_size)
            assert np.allclose(
                nn.forward(net, x), naive_forward(net, x), atol=1e-12
            )

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, sizes=[5, 4, 3])
        xs = rng.normal(size=(8, 5))
        batched = nn.forward_batch(net, xs)
        for i in range(8):
            assert np.allclose(batched[i], nn.forward(net, xs[i]), atol=1e-12)


class TestMsePerSample:
    def test_equal_vectors(self):
        assert nn.mse_per_sample([1.0, 1.0], [1.0, 1.0]) == 0.0

    def test_simple_value(self):
        assert nn.mse_per_sample([0.0, 0.0], [2.0, 0.0]) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            nn.mse_per_sample([1.0], [1.0, 2.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(1, 20))
            p, t = rng.normal(size=k), rng.normal(size=k)
            expected = sum((float(a) - float(b)) ** 2 for a, b in zip(p, t)) / k
            assert abs(nn.mse_per_sample(p, t) - expected) <= 1e-12

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_nonnegative_and_zero_iff_equal(self, values):
        v = np.array(values)
        assert nn.mse_per_sample(v, v) == 0.0
        shifted = v + 1.0
        assert nn.mse_per_sample(v, shifted) > 0.0


def finite_difference_grads(net, x, target, h=1e-4):
    """Central finite differences of mse_per_sample(forward(net, x), target)
    with respect to every parameter."""

    def loss():
        return nn.mse_per_sample(nn.forward(net, x), target)

    grads = []
    for layer in net.layers:
        for arr in (layer.weights, layer.bias):
            g = np.zeros_like(arr)
            flat = arr.ravel()
            gflat = g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                down = loss()
                flat[i] = orig
                gflat[i] = (up - down) / (2 * h)
            grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


class TestBackward:
    def test_zero_residual_zero_gradients(self):
        net = nn.DenseNet([nn.DenseLayer(np.eye(3), np.zeros(3), "identity")])
        x = np.array([0.3, -0.2, 1.5])
        grads = nn.backward(net, x, x)  # prediction equals target
        for gw, gb in grads:
            assert np.all(gw == 0.0)
            assert np.all(gb == 0.0)

    def test_linear_layer_hand_derivation(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        net = nn.DenseNet([nn.DenseLayer(w.copy(), b.copy(), "identity")])
        x = rng.normal(size=3)
        t = rng.normal(size=2)
        pred = x @ w + b
        k = 2
        expected_gw = 2.0 * np.outer(x, pred - t) / k
        expected_gb = 2.0 * (pred - t) / k
        (gw, gb), = nn.backward(net, x, t)
        assert np.allclose(gw, expected_gw, atol=1e-12)
        assert np.allclose(gb, expected_gb, atol=1e-12)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            net = random_net(rng)
            x = rng.normal(size=net.input_size)
            t = rng.normal(size=net.output_size)
            analytic = [g for pair in nn.backward(net, x, t) for g in pair]
            numeric = finite_difference_grads(net, x, t)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_shape_errors(self):
        net = nn.init_network([4, 2], seed=0)
        with pytest.raises(ShapeError):
            nn.backward(net, np.ones(3), np.ones(2))
        with pytest.raises(ShapeError):
            nn.backward(net, np.ones(4), np.ones(3))


class TestOptimizer:
    def test_zero_gradient_leaves_parameters(self):
        net = nn.init_network([3, 2], seed=1)
        before = [p.copy() for p in net.parameters()]
        state = nn.init_optimizer(net)
        nn._adam(net, state)  # init_optimizer starts from a zero gradient
        for p, q in zip(net.parameters(), before):
            assert np.array_equal(p, q)
        assert state.step == 1

    def test_descent_direction_on_square(self):
        # one step on f(w) = w^2 from w = 1 moves toward zero
        net = nn.DenseNet([nn.DenseLayer(np.array([[1.0]]), np.zeros(1), "identity")])
        state = nn.init_optimizer(net, learning_rate=1e-3)
        state.grad[:] = [2.0, 0.0]  # d(w^2)/dw at w=1, then the bias
        nn._adam(net, state)
        w = float(net.layers[0].weights[0, 0])
        assert 0.0 < w < 1.0

    def test_quadratic_convergence(self):
        # 200 Adam steps on f(w1, w2) = w1^2 + w2^2
        net = nn.DenseNet(
            [nn.DenseLayer(np.array([[1.0], [-0.7]]), np.zeros(1), "identity")]
        )
        state = nn.init_optimizer(net, learning_rate=0.1)
        for _ in range(200):
            (gw, _), = state.grads
            np.multiply(net.layers[0].weights, 2.0, out=gw)
            nn._adam(net, state)
        loss = float((net.layers[0].weights ** 2).sum())
        assert loss < 1e-3

    def test_nonfinite_gradient_raises(self):
        net = nn.init_network([2, 2], seed=0)
        state = nn.init_optimizer(net)
        state.grads[0][0][...] = np.nan
        with pytest.raises(NumericError):
            nn._adam(net, state)

    def test_deterministic_training_trajectory(self):
        def run():
            rng = np.random.default_rng(9)
            net = nn.init_network([4, 3, 4], seed=2)
            state = nn.init_optimizer(net, learning_rate=1e-2)
            xs = rng.normal(size=(16, 4))
            for i in range(25):
                nn.train_step(net, state, xs, xs)
            return [p.tobytes() for p in net.parameters()]

        assert run() == run()

    def test_one_small_step_decreases_loss(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            net = random_net(rng)
            xs = rng.normal(size=(6, net.input_size))
            ts = rng.normal(size=(6, net.output_size))

            def batch_loss():
                preds = nn.forward_batch(net, xs)
                return float(np.mean((preds - ts) ** 2))

            before = batch_loss()
            state = nn.init_optimizer(net, learning_rate=1e-6)
            nn.train_step(net, state, xs, ts)
            assert batch_loss() <= before + 1e-12


# ---------------------------------------------------------------------------
# Per-layer reference engine: backprop and Adam on separate per-layer arrays,
# one numpy expression per step of the update. The flat engine must match it
# bit for bit.


def ref_layers(net):
    return [[l.weights.copy(), l.bias.copy(), l.activation] for l in net.layers]


# the reference's own out-of-place activations: its z and a are always
# separate arrays, while the engine computes a in place on z
REF_ACTIVATIONS = {"tanh": np.tanh, "relu": lambda z: np.maximum(z, 0.0),
                   "identity": lambda z: z.copy()}


def ref_forward_cached(layers, x):
    acts, zs = [x], []
    for w, b, act in layers:
        z = acts[-1] @ w + b
        zs.append(z)
        acts.append(REF_ACTIVATIONS[act](z))
    return zs, acts


def ref_backward_batch(layers, x, targets):
    zs, acts = ref_forward_cached(layers, x)
    batch, k = targets.shape
    delta = 2.0 * (acts[-1] - targets) / (k * batch)
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        w, _, act = layers[i]
        if act == "tanh":
            slope = 1.0 - acts[i + 1] * acts[i + 1]
        elif act == "relu":
            slope = (zs[i] > 0.0).astype(np.float64)
        else:
            slope = np.ones_like(zs[i])
        delta = delta * slope
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = delta @ w.T
    return grads


class RefAdam:
    def __init__(self, layers, learning_rate):
        self.lr, self.b1, self.b2, self.eps, self.t = learning_rate, 0.9, 0.999, 1e-8, 0
        self.m = [np.zeros_like(a) for w, b, _ in layers for a in (w, b)]
        self.v = [np.zeros_like(a) for w, b, _ in layers for a in (w, b)]

    def step(self, layers, grads):
        self.t += 1
        b1, b2, t = self.b1, self.b2, self.t
        params = [a for w, b, _ in layers for a in (w, b)]
        flat = [g for pair in grads for g in pair]
        for p, g, m, v in zip(params, flat, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def assert_same_parameters(net, layers):
    for layer, (w, b, _) in zip(net.layers, layers):
        assert layer.weights.tobytes() == w.tobytes()
        assert layer.bias.tobytes() == b.tobytes()


# depths 2-4, every activation in some hidden and some output position
ORACLE_ACTIVATIONS = [
    ["tanh", "identity"],
    ["relu", "tanh"],
    ["identity", "relu"],
    ["tanh", "relu", "identity"],
    ["relu", "identity", "tanh"],
    ["tanh", "tanh", "relu", "identity"],
]


class TestFlatEngineMatchesReference:
    @pytest.mark.parametrize("case", range(len(ORACLE_ACTIVATIONS)))
    def test_minibatch_steps_bit_identical(self, case):
        activations = ORACLE_ACTIVATIONS[case]
        rng = np.random.default_rng(case)
        sizes = [int(rng.integers(2, 9)) for _ in range(len(activations) + 1)]
        n, batch = 53, 8  # the last batch of each pass holds 5 samples
        xs = rng.normal(size=(n, sizes[0]))
        ts = rng.normal(size=(n, sizes[-1]))
        stepped = nn.init_network(sizes, activations, seed=int(rng.integers(1000)))
        layers = ref_layers(stepped)
        state = nn.init_optimizer(stepped, 1e-2)
        ref = RefAdam(layers, 1e-2)
        steps = 0
        while steps < 56:
            for start in range(0, n, batch):
                x, t = xs[start:start + batch], ts[start:start + batch]
                ref.step(layers, ref_backward_batch(layers, x, t))
                nn.train_step(stepped, state, x, t)
                steps += 1
        assert_same_parameters(stepped, layers)
        assert state.step == steps

    def test_fit_with_early_stopping_bit_identical(self):
        rng = np.random.default_rng(4)
        values = np.sin(np.arange(170) / 4.0)[:, None] + 0.6 * rng.normal(size=(170, 1))
        ws = data.make_windows(data.MultivariateSeries(values), 6, 1)
        train_rows, val_rows = data.split_train_val(np.arange(len(ws)), seed=4)
        val_ws = ws.subset(val_rows)
        model = models.build_model("reconstruction", 6, 1, hidden_sizes=(4,), seed=3)
        cfg = models.TrainConfig(epochs=60, batch_size=16, learning_rate=2e-2,
                                 patience=3, seed=2)
        layers = ref_layers(model.net)
        ref = RefAdam(layers, cfg.learning_rate)

        def ref_val_loss():
            flat = val_ws.data.reshape(len(val_ws), -1)
            diff = ref_forward_cached(layers, flat)[1][-1] - flat
            return float(np.mean(np.mean(diff * diff, axis=1)))

        best_val, best_epoch, best, history = np.inf, -1, None, []
        for epoch in range(cfg.epochs):
            perm = np.random.default_rng([cfg.seed, epoch]).permutation(train_rows.size)
            order = train_rows[perm]
            for start in range(0, order.size, cfg.batch_size):
                x = ws.data[order[start:start + cfg.batch_size]]
                x = x.reshape(x.shape[0], -1)
                ref.step(layers, ref_backward_batch(layers, x, x))
            history.append(ref_val_loss())
            if history[-1] < best_val:
                best_val, best_epoch = history[-1], epoch
                best = [[w.copy(), b.copy(), act] for w, b, act in layers]
            elif epoch - best_epoch >= cfg.patience:
                break

        result = models.fit(model, ws, cfg, val_windows=val_ws, mask=train_rows)
        assert result.epochs_run == len(history) < cfg.epochs  # stopped early
        assert result.best_epoch == best_epoch < result.epochs_run - 1
        assert result.val_history == history
        assert_same_parameters(model.net, best)


def oracle_model(kind, activations, seed):
    """A (window 5, 2 channels, horizon 2) model of the given kind whose net
    has these activations."""
    window, channels, horizon = 5, 2, (2 if kind == models.PREDICTION else 0)
    n_in, n_out = models._io_sizes(kind, window, channels, horizon)
    rng = np.random.default_rng(seed)
    hidden = [int(rng.integers(2, 9)) for _ in activations[1:]]
    net = nn.init_network([n_in, *hidden, n_out], activations, seed=seed)
    return models.TsadModel(kind, net, window, channels, horizon)


def ref_sample_losses(model, batch, rows):
    """Out-of-place per-sample losses, over the equal slices of at most
    rows windows that sample_losses cuts."""
    layers = ref_layers(model.net)
    split = model.window - model.horizon
    losses = []
    for part in np.array_split(batch, max(1, math.ceil(len(batch) / rows))):
        n = len(part)
        if model.kind == models.RECONSTRUCTION:
            x = y = part.reshape(n, -1)
        else:
            x, y = part[:, :split].reshape(n, -1), part[:, split:].reshape(n, -1)
        diff = ref_forward_cached(layers, x)[1][-1] - y
        losses.append(np.mean(diff * diff, axis=1))
    return np.concatenate(losses)


class TestLeanLossPasses:
    """forward_batch computes every activation in place on its
    pre-activation, and sample_losses subtracts the targets in place; an
    out-of-place reference must give the same bits, and the inputs must
    come back untouched."""

    @pytest.mark.parametrize("case", range(len(ORACLE_ACTIVATIONS)))
    def test_forward_batch_bit_identical(self, case):
        activations = ORACLE_ACTIVATIONS[case]
        rng = np.random.default_rng(case)
        sizes = [int(rng.integers(2, 9)) for _ in range(len(activations) + 1)]
        net = nn.init_network(sizes, activations, seed=case)
        x = rng.normal(size=(37, sizes[0]))
        before = x.copy()
        out = nn.forward_batch(net, x)
        assert out.tobytes() == ref_forward_cached(ref_layers(net), x)[1][-1].tobytes()
        assert x.tobytes() == before.tobytes() and not np.shares_memory(out, x)

    @pytest.mark.parametrize("rows", [models.LOSS_PASS_ROWS, 5])  # 5: 5 slices
    @pytest.mark.parametrize("case", range(len(ORACLE_ACTIVATIONS)))
    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_sample_losses_bit_identical(self, kind, case, rows, monkeypatch):
        model = oracle_model(kind, ORACLE_ACTIVATIONS[case], seed=case)
        batch = np.random.default_rng(case).normal(size=(23, 5, 2))
        before = batch.copy()
        monkeypatch.setattr(models, "LOSS_PASS_ROWS", rows)
        losses = models.sample_losses(model, batch)
        assert losses.tobytes() == ref_sample_losses(model, batch, rows).tobytes()
        assert batch.tobytes() == before.tobytes()


class TestFlatLayout:
    def test_layers_are_views_of_flat(self):
        net = nn.init_network([5, 3, 4], seed=2)
        assert net.flat.shape == (5 * 3 + 3 + 3 * 4 + 4,)
        packed = np.concatenate([p.ravel() for p in net.parameters()])
        assert packed.tobytes() == net.flat.tobytes()
        for p in net.parameters():
            assert p.flags.c_contiguous and np.shares_memory(p, net.flat)

    def test_pickled_and_deep_copied_nets_keep_the_layout(self):
        net = nn.init_network([4, 3, 4], seed=6)
        for clone in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
            assert clone.flat.tobytes() == net.flat.tobytes()
            assert clone.seed == net.seed
            for p in clone.parameters():
                assert np.shares_memory(p, clone.flat)
            assert not np.shares_memory(clone.flat, net.flat)

    def test_views_track_flat_after_step(self):
        rng = np.random.default_rng(1)
        net = nn.init_network([4, 3, 2], seed=1)
        state = nn.init_optimizer(net, 1e-2)
        x, t = rng.normal(size=(6, 4)), rng.normal(size=(6, 2))
        before = net.flat.copy()
        nn.train_step(net, state, x, t)
        assert net.flat.tobytes() != before.tobytes()
        packed = np.concatenate([p.ravel() for p in net.parameters()])
        assert packed.tobytes() == net.flat.tobytes()

    def test_backward_results_are_not_overwritten(self):
        rng = np.random.default_rng(3)
        net = nn.init_network([3, 4, 2], seed=3)
        first = nn.backward(net, rng.normal(size=3), rng.normal(size=2))
        kept = [g.copy() for pair in first for g in pair]
        second = nn.backward(net, rng.normal(size=3), rng.normal(size=2))
        for g, k in zip((g for pair in first for g in pair), kept):
            assert g.tobytes() == k.tobytes()
        for g in (g for pair in first for g in pair):
            for h in (h for pair in second for h in pair):
                assert not np.shares_memory(g, h)

    def test_train_epoch_state_must_mirror_layers(self):
        # [4, 3, 4] and [3, 4, 3] both hold 31 parameters in other layer shapes
        model = models.build_model("reconstruction", 2, 2, hidden_sizes=(3,), seed=0)
        other = nn.init_optimizer(nn.init_network([3, 4, 3], seed=0))
        assert other.grad.size == model.net.flat.size == 31
        windows = data.make_windows(
            data.MultivariateSeries(np.random.default_rng(0).normal(size=(12, 2))), 2)
        with pytest.raises(ShapeError):
            models.train_epoch(model, other, windows, models.TrainConfig(seed=0), 0)
        assert other.step == 0

    def test_checkpoint_round_trip_keeps_flat_layout(self, tmp_path):
        rng = np.random.default_rng(8)
        model = models.build_model("reconstruction", 4, 2, hidden_sizes=(3,), seed=8)
        path = tmp_path / "model.npz"
        models.save_checkpoint(model, str(path))
        loaded, _, _ = models.load_checkpoint(str(path))
        assert loaded.net.flat.tobytes() == model.net.flat.tobytes()
        for p in loaded.net.parameters():
            assert np.shares_memory(p, loaded.net.flat)
        x = rng.normal(size=(7, 8))
        for net in (model.net, loaded.net):
            nn.train_step(net, nn.init_optimizer(net), x, x)
        assert loaded.net.flat.tobytes() == model.net.flat.tobytes()
