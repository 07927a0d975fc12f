"""Minimal dense feed-forward networks with explicit forward/backward passes.

Everything is float64 numpy. Networks are plain value objects: ``sgd_step``
returns an updated copy, and nothing here keeps hidden state, so instances
are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import TrainingDivergenceError

ACTIVATIONS = ("relu", "identity")


@dataclass
class Layer:
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"layer weights must be 2-D, got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match weight rows {self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class DenseNet:
    layers: list[Layer]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer dims do not compose: {prev.out_dim} -> {nxt.in_dim}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def copy(self) -> "DenseNet":
        return DenseNet(
            [Layer(l.weights.copy(), l.bias.copy(), l.activation) for l in self.layers]
        )

    def all_finite(self) -> bool:
        return all(
            np.all(np.isfinite(l.weights)) and np.all(np.isfinite(l.bias))
            for l in self.layers
        )


@dataclass
class TrainConfig:
    learning_rate: float
    batch_size: int
    epochs: int
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


@dataclass
class GradientBundle:
    """Per-layer gradients, shape-matched to the owning network.

    ``input_grad`` carries the loss gradient with respect to the network
    input, which is what lets one network's backward pass chain into
    another's.
    """

    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]
    input_grad: np.ndarray = field(default=None)  # type: ignore[assignment]

    def matches(self, net: DenseNet) -> bool:
        return len(self.weight_grads) == len(net.layers) and all(
            wg.shape == l.weights.shape and bg.shape == l.bias.shape
            for wg, bg, l in zip(self.weight_grads, self.bias_grads, net.layers)
        )

    def scaled(self, factor: float) -> "GradientBundle":
        return GradientBundle(
            [wg * factor for wg in self.weight_grads],
            [bg * factor for bg in self.bias_grads],
            None if self.input_grad is None else self.input_grad * factor,
        )

    def add_(self, other: "GradientBundle") -> "GradientBundle":
        for wg, og in zip(self.weight_grads, other.weight_grads):
            wg += og
        for bg, og in zip(self.bias_grads, other.bias_grads):
            bg += og
        return self

    @staticmethod
    def zeros_like(net: DenseNet) -> "GradientBundle":
        return GradientBundle(
            [np.zeros_like(l.weights) for l in net.layers],
            [np.zeros_like(l.bias) for l in net.layers],
        )


def dense_net(
    dims: Sequence[int],
    seed: int | np.random.Generator = 0,
    hidden_activation: str = "relu",
    output_activation: str = "identity",
) -> DenseNet:
    """Build a network with the given layer widths.

    Weights are drawn uniformly from +-sqrt(6 / (fan_in + fan_out)), biases
    start at zero; everything is reproducible from the seed.
    """
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        act = output_activation if i == len(dims) - 2 else hidden_activation
        layers.append(Layer(w, np.zeros(fan_out), act))
    return DenseNet(layers)


def _apply_activation(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    return z


def _activation_grad(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return (z > 0).astype(np.float64)
    return np.ones_like(z)


def _check_input(net: DenseNet, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != net.input_dim:
        raise ValueError(
            f"input shape {x.shape} incompatible with network input dim {net.input_dim}"
        )
    return x


def forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Forward pass; accepts a single vector or a (batch, in_dim) matrix."""
    x = _check_input(net, x)
    a = x
    for layer in net.layers:
        z = a @ layer.weights.T + layer.bias
        a = _apply_activation(z, layer.activation)
    return a


def _forward_cached(net: DenseNet, x: np.ndarray):
    """Forward pass keeping pre-activations and activations for backprop."""
    pre, post = [], [x]
    a = x
    for layer in net.layers:
        z = a @ layer.weights.T + layer.bias
        a = _apply_activation(z, layer.activation)
        pre.append(z)
        post.append(a)
    return pre, post


def relu_pattern(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Sign pattern of every relu pre-activation, flattened.

    Two evaluations with different patterns straddle a kink, where finite
    differences of the loss are meaningless.
    """
    x = _check_input(net, x)
    pre, _ = _forward_cached(net, x)
    parts = [
        (z > 0).ravel()
        for z, layer in zip(pre, net.layers)
        if layer.activation == "relu"
    ]
    if not parts:
        return np.zeros(0, dtype=bool)
    return np.concatenate(parts)


def backward(net: DenseNet, x: np.ndarray, upstream: np.ndarray) -> GradientBundle:
    """Gradients of a scalar loss given d(loss)/d(output).

    For batched input the per-example contributions are summed, i.e. the
    result is the gradient of ``sum_i loss_i`` when ``upstream[i]`` is the
    gradient for example i.
    """
    x = _check_input(net, x)
    upstream = np.asarray(upstream, dtype=np.float64)
    expected = (net.output_dim,) if x.ndim == 1 else (x.shape[0], net.output_dim)
    if upstream.shape != expected:
        raise ValueError(
            f"upstream gradient shape {upstream.shape}, expected {expected}"
        )

    batched = x.ndim == 2
    pre, post = _forward_cached(net, x)
    weight_grads: list[np.ndarray] = [None] * len(net.layers)  # type: ignore[list-item]
    bias_grads: list[np.ndarray] = [None] * len(net.layers)  # type: ignore[list-item]

    delta = upstream
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        delta = delta * _activation_grad(pre[i], layer.activation)
        a_prev = post[i]
        if batched:
            weight_grads[i] = delta.T @ a_prev
            bias_grads[i] = delta.sum(axis=0)
        else:
            weight_grads[i] = np.outer(delta, a_prev)
            bias_grads[i] = delta.copy()
        delta = delta @ layer.weights
    return GradientBundle(weight_grads, bias_grads, input_grad=delta)


def sgd_step(net: DenseNet, grads: GradientBundle, cfg: TrainConfig) -> DenseNet:
    """One SGD update: w <- w - lr * (grad + weight_decay * w).

    Finiteness is checked once, on the updated weights: a non-finite
    gradient always yields a non-finite weight, so it is caught there too.
    """
    if not grads.matches(net):
        raise ValueError("gradient shapes do not match the network")
    layers = []
    for layer, wg, bg in zip(net.layers, grads.weight_grads, grads.bias_grads):
        w = layer.weights - cfg.learning_rate * (wg + cfg.weight_decay * layer.weights)
        b = layer.bias - cfg.learning_rate * (bg + cfg.weight_decay * layer.bias)
        layers.append(Layer(w, b, layer.activation))
    new_net = DenseNet(layers)
    if not new_net.all_finite():
        raise TrainingDivergenceError("non-finite weights after sgd_step (gradient or update)")
    return new_net


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ValueError("softmax of an empty vector")
    if not np.all(np.isfinite(logits)):
        raise ValueError("softmax requires finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _iter_params(net: DenseNet):
    for li, layer in enumerate(net.layers):
        for idx in np.ndindex(layer.weights.shape):
            yield li, "weights", idx
        for idx in np.ndindex(layer.bias.shape):
            yield li, "bias", idx


@dataclass
class FiniteDifferenceReport:
    max_rel_error: float
    n_checked: int
    n_skipped: int


def finite_difference_check(
    net: DenseNet,
    loss_fn: Callable[[DenseNet], tuple],
    epsilon: float = 1e-6,
    full_report: bool = False,
):
    """Compare analytic gradients against central finite differences.

    ``loss_fn(net)`` must return ``(loss, GradientBundle)`` and may return a
    third element: an integer/bool array encoding every discrete choice made
    while evaluating the loss (relu signs, argmax indices). Parameters whose
    +-epsilon perturbations land on different patterns sit across a kink and
    are skipped rather than compared.

    Returns the maximum over checked parameters of
    ``|analytic - central| / max(1, |central|)``.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")

    out = loss_fn(net)
    _, analytic = out[0], out[1]
    if not analytic.matches(net):
        raise ValueError("analytic gradient shapes do not match the network")

    work = net.copy()
    max_err = 0.0
    n_checked = 0
    n_skipped = 0
    for li, attr, idx in _iter_params(work):
        arr = getattr(work.layers[li], attr)
        original = arr[idx]

        arr[idx] = original + epsilon
        out_plus = loss_fn(work)
        arr[idx] = original - epsilon
        out_minus = loss_fn(work)
        arr[idx] = original

        if len(out_plus) > 2 and not np.array_equal(out_plus[2], out_minus[2]):
            n_skipped += 1
            continue

        central = (out_plus[0] - out_minus[0]) / (2.0 * epsilon)
        grads = analytic.weight_grads if attr == "weights" else analytic.bias_grads
        a = grads[li][idx]
        err = abs(a - central) / max(1.0, abs(central))
        max_err = max(max_err, err)
        n_checked += 1

    if full_report:
        return FiniteDifferenceReport(max_err, n_checked, n_skipped)
    return max_err
