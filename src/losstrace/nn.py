"""Minimal deterministic dense-network engine with per-sample MSE losses.

Everything is float64 numpy. A network is a list of (weights, bias,
activation) layers whose parameters live in one contiguous vector,
``DenseNet.flat``, in the order W0, b0, W1, b1, ...: each layer's weights and
bias are reshaped views into it. The optimizer keeps the gradient and the
Adam moments in vectors of the same layout, so a training step writes its
gradients into one preallocated buffer and updates every parameter with a
handful of whole-vector operations. Gradients are exact reverse-mode
derivatives of the per-sample mean-squared error, so they can be checked
against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

ACTIVATIONS = ("tanh", "relu", "identity")
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and offset


def _act(name: str, z: np.ndarray) -> None:
    """Apply the activation to the pre-activation z in place."""
    if name == "tanh":
        np.tanh(z, out=z)
    elif name == "relu":
        np.maximum(z, 0.0, out=z)


def _act_grad(name: str, a: np.ndarray) -> np.ndarray | None:
    """Derivative of the activation, from its output a; None for the
    identity, whose derivative is 1 (multiplying by 1.0 is exact, so
    skipping it changes no result). relu's a > 0 holds exactly where its
    pre-activation is > 0."""
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (a > 0.0).astype(np.float64)
    return None


@dataclass
class DenseLayer:
    weights: np.ndarray  # (n_in, n_out)
    bias: np.ndarray  # (n_out,)
    activation: str

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("layer weights must be 2-D and bias 1-D")
        if self.weights.shape[1] != self.bias.shape[0]:
            raise ShapeError(
                f"bias length {self.bias.shape[0]} does not match "
                f"{self.weights.shape[1]} output units"
            )
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise NumericError("non-finite layer parameters")


Gradients = list[tuple[np.ndarray, np.ndarray]]


@dataclass
class DenseNet:
    """A chain of dense layers that owns its layers' parameters.

    Construction copies every layer's weights and bias into the flat vector
    and rebinds them to views of it, so writing to ``flat`` or to a layer
    array changes both.
    """

    layers: list[DenseLayer]
    seed: int = 0
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.weights.shape[1] != nxt.weights.shape[0]:
                raise ShapeError(
                    f"layer output size {prev.weights.shape[1]} does not chain "
                    f"into next input size {nxt.weights.shape[0]}"
                )
        self.flat = np.empty(sum(l.weights.size + l.bias.size for l in self.layers))
        for layer, (w, b) in zip(self.layers, self.layer_views(self.flat)):
            w[...] = layer.weights
            b[...] = layer.bias
            layer.weights, layer.bias = w, b

    @property
    def input_size(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def output_size(self) -> int:
        return self.layers[-1].weights.shape[1]

    def layer_views(self, vector: np.ndarray) -> Gradients:
        """Per-layer (weights, bias) views into a vector laid out like flat."""
        views: Gradients = []
        start = 0
        for layer in self.layers:
            n_in, n_out = layer.weights.shape
            stop = start + n_in * n_out
            views.append((vector[start:stop].reshape(n_in, n_out),
                          vector[stop:stop + n_out]))
            start = stop + n_out
        return views

    def parameters(self) -> list[np.ndarray]:
        """Parameter list [W0, b0, W1, b1, ...] (views, not copies)."""
        params: list[np.ndarray] = []
        for layer in self.layers:
            params.append(layer.weights)
            params.append(layer.bias)
        return params

    def __setstate__(self, state: dict) -> None:
        # pickle and copy.deepcopy copy flat and every layer array apart;
        # make the layers views of the copied flat vector again
        self.__dict__.update(state)
        for layer, (w, b) in zip(self.layers, self.layer_views(self.flat)):
            layer.weights, layer.bias = w, b


def init_network(
    layer_sizes: list[int],
    activations: list[str] | None = None,
    seed: int = 0,
) -> DenseNet:
    """Build a dense net with Xavier-uniform weights and zero biases.

    Weights of each layer are drawn from U(-limit, limit) with
    limit = sqrt(6 / (fan_in + fan_out)). The same seed always yields a
    bit-identical network. Default activations are tanh on hidden layers
    and identity on the output layer.
    """
    if len(layer_sizes) < 2:
        raise ConfigError("need at least an input and an output size")
    if any(int(s) != s or s <= 0 for s in layer_sizes):
        raise ConfigError(f"layer sizes must be positive integers: {layer_sizes}")
    n_links = len(layer_sizes) - 1
    if activations is None:
        activations = ["tanh"] * (n_links - 1) + ["identity"]
    if len(activations) != n_links:
        raise ConfigError(
            f"expected {n_links} activations for {len(layer_sizes)} sizes, "
            f"got {len(activations)}"
        )
    rng = np.random.default_rng(seed)
    layers = []
    for n_in, n_out, act in zip(layer_sizes, layer_sizes[1:], activations):
        limit = np.sqrt(6.0 / (n_in + n_out))
        weights = rng.uniform(-limit, limit, size=(n_in, n_out))
        layers.append(DenseLayer(weights, np.zeros(n_out), act))
    return DenseNet(layers, seed=seed)


def _forward_cached(net: DenseNet, x: np.ndarray) -> list[np.ndarray]:
    """Forward pass keeping every layer's activations for backprop; each is
    computed in place on its pre-activation, which is not kept.

    Returns acts, where acts[0] is the input and acts[-1] the output.
    """
    acts = [x]
    for layer in net.layers:
        a = acts[-1] @ layer.weights
        a += layer.bias
        _act(layer.activation, a)
        acts.append(a)
    return acts


def forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != net.input_size:
        raise ShapeError(
            f"input of length {x.shape[0] if x.ndim == 1 else x.shape} "
            f"does not match network input size {net.input_size}"
        )
    return _forward_cached(net, x)[-1]


def forward_batch(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a (batch, input_size) matrix of inputs; the
    result is a fresh array the caller may overwrite."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_size:
        raise ShapeError(
            f"batch shape {x.shape} does not match network input size "
            f"{net.input_size}"
        )
    return _forward_cached(net, x)[-1]


def mse_per_sample(prediction: np.ndarray, target: np.ndarray) -> float:
    """Mean of squared componentwise differences of two equal-length vectors."""
    prediction = np.asarray(prediction, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if prediction.shape != target.shape or prediction.ndim != 1:
        raise ShapeError(
            f"prediction shape {prediction.shape} != target shape {target.shape}"
        )
    if prediction.shape[0] < 1:
        raise ShapeError("vectors must have length >= 1")
    diff = prediction - target
    return float(np.mean(diff * diff))


def _backprop(
    net: DenseNet, x: np.ndarray, targets: np.ndarray, grads: Gradients
) -> None:
    """Backprop of the batch-mean per-sample MSE, written into grads.

    The one backprop routine: backward and train_step both call it.
    """
    acts = _forward_cached(net, x)
    batch, k = targets.shape
    delta = acts[-1] - targets
    delta *= 2.0
    delta /= k * batch
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        slope = _act_grad(layer.activation, acts[i + 1])
        if slope is not None:
            delta *= slope
        gw, gb = grads[i]
        np.matmul(acts[i].T, delta, out=gw)
        np.sum(delta, axis=0, out=gb)
        if i > 0:
            delta = delta @ layer.weights.T


def backward(net: DenseNet, x: np.ndarray, target: np.ndarray) -> Gradients:
    """Exact gradients of mse_per_sample(forward(net, x), target).

    Returns one (weight_grad, bias_grad) pair per layer, in fresh arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != net.input_size:
        raise ShapeError(f"input length {x.shape} != network input {net.input_size}")
    if target.ndim != 1 or target.shape[0] != net.output_size:
        raise ShapeError(
            f"target length {target.shape} != network output {net.output_size}"
        )
    grads = net.layer_views(np.empty_like(net.flat))
    _backprop(net, x[None, :], target[None, :], grads)
    return grads


def _check_mirrors(net: DenseNet, grads: Gradients) -> None:
    if len(grads) != len(net.layers):
        raise ShapeError("gradient shapes do not mirror network parameters")
    for (gw, gb), layer in zip(grads, net.layers):
        if gw.shape != layer.weights.shape or gb.shape != layer.bias.shape:
            raise ShapeError("gradient shapes do not mirror network parameters")


@dataclass
class OptimizerState:
    """Adaptive-moment (Adam) optimizer state for one network.

    m, v and the gradient buffer grad are vectors in the layout of the
    network's flat parameters; grads holds per-layer views into grad.
    """

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    grads: Gradients
    step: int = 0
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
        self.scratch = np.empty((2, self.m.size))


def init_optimizer(net: DenseNet, learning_rate: float = 1e-3) -> OptimizerState:
    grad = np.zeros_like(net.flat)
    return OptimizerState(learning_rate, np.zeros_like(net.flat),
                          np.zeros_like(net.flat), grad, net.layer_views(grad))


def train_step(net: DenseNet, state: OptimizerState, x: np.ndarray,
               y: np.ndarray) -> None:
    """One minibatch Adam step on the batch-mean per-sample MSE of (x, y).

    Backpropagates into state.grads and updates the parameters in place.
    Nothing is converted or checked here: the caller guarantees float64
    batches that fit the network and a state built for it (train_epoch
    checks both once per epoch).
    """
    _backprop(net, x, y, state.grads)
    _adam(net, state)


def _adam(net: DenseNet, state: OptimizerState) -> None:
    """The Adam kernel on whole flat vectors, from the gradient in state.grad.

    Per element it applies, in this order, m = b1*m + (1-b1)*g,
    v = b2*v + ((1-b2)*g)*g and p -= (lr * (m / (1-b1^t))) /
    (sqrt(v / (1-b2^t)) + eps), then advances the step counter; b1, b2
    and eps are BETA1, BETA2 and EPS.
    """
    g = state.grad
    if not np.isfinite(g).all():
        raise NumericError("non-finite gradient")
    state.step += 1
    t = state.step
    b1, b2 = BETA1, BETA2
    m, v = state.m, state.v
    a, b = state.scratch
    np.multiply(g, 1.0 - b1, out=a)
    m *= b1
    m += a
    np.multiply(g, 1.0 - b2, out=a)
    a *= g
    v *= b2
    v += a
    np.divide(m, 1.0 - b1**t, out=a)
    a *= state.learning_rate
    np.divide(v, 1.0 - b2**t, out=b)
    np.sqrt(b, out=b)
    b += EPS
    a /= b
    net.flat -= a
