"""Minimal dense feed-forward networks with explicit forward/backward passes.

Everything is float64 numpy. A network is three things: one contiguous
parameter vector, ``DenseNet.params`` (layer by layer, the weight matrix in
row-major order, then the bias); its ``layout``, every layer's shape and
offsets in that vector; and every layer's activation. The passes take each
layer's weight and bias as views into the vector at the layout's offsets.
``DenseNet.from_layers`` builds a network from a list of ``Layer`` objects
and packs their arrays into a new vector, so a network never shares memory
with the arrays it was built from; ``net.layers`` turns the vector back
into ``Layer`` views, for readers outside the passes such as checkpoints.
Gradients use the same layout: ``backward`` writes every layer's gradient
into one vector, ``GradientBundle.flat``, and ``sgd_step`` updates the
whole parameter vector in one expression,
``w - lr * (grad * scale + weight_decay * w)``.

Networks are plain value objects. ``sgd_step`` and ``DenseNet.copy`` return
a network over a new vector, with the same layout and activations, and
leave their input untouched; early stopping keeps its best weights by
holding on to an earlier network, so it relies on this. Nothing here keeps
hidden state, so instances are safe to share across threads.

Every pass takes a ``(batch, in_dim)`` matrix, one row per example; one
example is a one-row batch. Both forward passes run the same layer step,
``z = a @ w.T``, then ``z += b`` and the relu in place, and differ only in
what they keep. ``forward_cached`` keeps the checked input and every
layer's output; use it when gradients follow, and hand its list to
``backward`` and ``relu_pattern``, which then run no forward of their own.
Neither needs the pre-activations: a relu output ``max(z, 0)`` is positive
exactly where ``z`` is, NaN included, so each reads its relu masks as
``output > 0``. ``forward`` drops each layer's output as soon as the next
layer has consumed it; use it for inference and for losses without
gradients (validation), where holding every layer of a large batch would
only raise peak memory.

``forward`` also runs a large batch in row blocks (``row_blocks``): fixed
blocks of ``BLOCK_ROWS`` rows from the top, so that one block's activations
stay in cache instead of streaming every layer of the whole batch through
memory. Each row's output does not depend on the batch around it in exact
arithmetic, but the BLAS matrix product may take a different kernel path
for a short block, and then the low bits of a row change. Full blocks and
a tail of at least half a block reproduce the whole-batch bits (checked on
numpy 2.4 with OpenBLAS 0.3.31, Haswell kernels); a shorter tail does not
always, so it joins the block before it. A batch under
``1.5 * BLOCK_ROWS`` rows therefore runs as one block.
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
    """One layer as a network is built from or read by outside code."""

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


# Per layer: (out_dim, in_dim, weights start, bias start, bias end) in the
# flat parameter vector.
Layout = tuple[tuple[int, int, int, int, int], ...]


def _views(flat: np.ndarray, layout: Layout) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every layer's (weights, bias) as views into ``flat``."""
    return [
        (flat[w0:b0].reshape(out_dim, in_dim), flat[b0:end])
        for out_dim, in_dim, w0, b0, end in layout
    ]


@dataclass
class DenseNet:
    """A network over ``params``, laid out by ``layout``, one activation per
    layer. The fields are taken as given: build a network with
    ``from_layers`` or ``dense_net``, and derive one from another only with
    a vector of the same size."""

    params: np.ndarray
    layout: Layout
    activations: tuple[str, ...]

    @classmethod
    def from_layers(cls, layers: Sequence[Layer]) -> "DenseNet":
        """Check that ``layers`` compose and pack them into a new vector."""
        if not layers:
            raise ValueError("a network needs at least one layer")
        spans, start = [], 0
        for layer in layers:
            out_dim, in_dim = layer.weights.shape
            if spans and spans[-1][0] != in_dim:
                raise ValueError(f"layer dims do not compose: {spans[-1][0]} -> {in_dim}")
            bias_start = start + out_dim * in_dim
            spans.append((out_dim, in_dim, start, bias_start, bias_start + out_dim))
            start = bias_start + out_dim
        params = np.concatenate([a.ravel() for l in layers for a in (l.weights, l.bias)])
        return cls(params, tuple(spans), tuple(l.activation for l in layers))

    @property
    def layers(self) -> list[Layer]:
        """Every layer over views into ``params``, built on each read; for
        readers outside the passes, which use ``layout`` instead."""
        return [
            Layer(w, b, act)
            for (w, b), act in zip(_views(self.params, self.layout), self.activations)
        ]

    @property
    def input_dim(self) -> int:
        return self.layout[0][1]

    @property
    def output_dim(self) -> int:
        return self.layout[-1][0]

    def copy(self) -> "DenseNet":
        return DenseNet(self.params.copy(), self.layout, self.activations)


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
    """Gradients in the owning network's flat layout.

    ``flat[i]`` is the gradient of ``net.params[i]``. ``input_grad`` carries
    the loss gradient with respect to the network input, which is what lets
    one network's backward pass chain into another's; it is ``None`` unless
    ``backward`` was asked for it.
    """

    flat: np.ndarray
    layout: Layout
    input_grad: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.flat = np.asarray(self.flat, dtype=np.float64)
        size = self.layout[-1][4] if self.layout else 0
        if self.flat.shape != (size,):
            raise ValueError(
                f"flat gradient shape {self.flat.shape} does not fit a layout of {size} parameters"
            )

    def matches(self, net: DenseNet) -> bool:
        return self.layout == net.layout


def dense_net(dims: Sequence[int], seed: int | np.random.Generator = 0) -> DenseNet:
    """Build a network with the given layer widths: relu hidden layers and
    an identity output layer.

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
        act = "identity" if i == len(dims) - 2 else "relu"
        layers.append(Layer(w, np.zeros(fan_out), act))
    return DenseNet.from_layers(layers)


def _check_input(net: DenseNet, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(
            f"input shape {x.shape} incompatible with network input dim {net.input_dim}"
        )
    return x


BLOCK_ROWS = 2048


def row_blocks(n: int) -> list[slice]:
    """Row slices that cover ``range(n)`` in order: blocks of ``BLOCK_ROWS``
    rows from the top, where a tail shorter than ``BLOCK_ROWS // 2`` rows
    joins the block before it. Every block but a sole one has at least
    ``BLOCK_ROWS // 2`` rows; ``n < 1.5 * BLOCK_ROWS`` gives one block."""
    count = max(1, (n + BLOCK_ROWS // 2) // BLOCK_ROWS)
    starts = [i * BLOCK_ROWS for i in range(count)]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _layer(a: np.ndarray, w: np.ndarray, b: np.ndarray, activation: str) -> np.ndarray:
    """One layer's output on rows ``a``, computed in place on a new array."""
    z = a @ w.T
    z += b
    if activation == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Forward pass of a (batch, in_dim) matrix, in ``row_blocks``."""
    x = _check_input(net, x)
    layers = list(zip(_views(net.params, net.layout), net.activations))
    out = np.empty((len(x), net.output_dim))
    for rows in row_blocks(len(x)):
        a = x[rows]
        for (w, b), activation in layers:
            a = _layer(a, w, b, activation)
        out[rows] = a
    return out


Activations = list[np.ndarray]


def forward_cached(net: DenseNet, x: np.ndarray) -> Activations:
    """Forward pass keeping what backprop needs: the checked input, then
    every layer's output, so the last entry equals ``forward(net, x)``."""
    outs = [_check_input(net, x)]
    for (w, b), activation in zip(_views(net.params, net.layout), net.activations):
        outs.append(_layer(outs[-1], w, b, activation))
    return outs


def relu_pattern(net: DenseNet, outs: Activations) -> np.ndarray:
    """Sign pattern of every relu pre-activation, flattened.

    ``outs`` is ``forward_cached(net, x)``; a relu output is positive
    exactly where its pre-activation is. Two evaluations with different
    patterns straddle a kink, where finite differences of the loss are
    meaningless.
    """
    parts = [
        (a > 0).ravel()
        for a, activation in zip(outs[1:], net.activations)
        if activation == "relu"
    ]
    if not parts:
        return np.zeros(0, dtype=bool)
    return np.concatenate(parts)


def backward(
    net: DenseNet, outs: Activations, upstream: np.ndarray, want_input_grad: bool = False
) -> GradientBundle:
    """Gradients of a scalar loss given d(loss)/d(output).

    ``outs`` is ``forward_cached(net, x)`` for the input the loss was
    computed on; a relu layer passes the gradient where its output is
    positive. The per-example contributions are summed, i.e. the result
    is the gradient of ``sum_i loss_i`` when ``upstream[i]`` is the gradient
    for example i: a weight gradient is ``delta.T @ input`` and a bias
    gradient ``ones @ delta``, both BLAS products. The gradient with respect
    to the input, one more product with the first layer's weights, is
    computed only with ``want_input_grad``; otherwise ``input_grad`` is
    ``None``.
    """
    if len(outs) != len(net.layout) + 1:
        raise ValueError(
            f"outputs of {len(outs) - 1} layers for a {len(net.layout)}-layer network"
        )
    # Contiguous, so the matmuls below take the same BLAS path whether the
    # caller passes an array or a column view of one.
    upstream = np.ascontiguousarray(upstream, dtype=np.float64)
    expected = (outs[0].shape[0], net.output_dim)
    if upstream.shape != expected:
        raise ValueError(
            f"upstream gradient shape {upstream.shape}, expected {expected}"
        )

    flat = np.empty(net.params.size)
    weights = _views(net.params, net.layout)
    grads = _views(flat, net.layout)
    ones = np.ones(len(upstream))
    delta = upstream
    for i in reversed(range(len(net.layout))):
        if net.activations[i] == "relu":
            # Below the top layer ``delta`` is this call's own array; the
            # upstream gradient is the caller's.
            if delta is upstream:
                delta = delta * (outs[i + 1] > 0)
            else:
                delta *= outs[i + 1] > 0
        w_grad, b_grad = grads[i]
        np.matmul(delta.T, outs[i], out=w_grad)
        np.matmul(ones, delta, out=b_grad)
        if i or want_input_grad:
            delta = delta @ weights[i][0]
    return GradientBundle(flat, net.layout, delta if want_input_grad else None)


def sgd_step(
    net: DenseNet, grads: GradientBundle, cfg: TrainConfig, scale: float = 1.0
) -> DenseNet:
    """One SGD update of the flat parameters:
    w <- w - lr * (grad * scale + weight_decay * w).

    Returns a network over a new vector and leaves ``net`` untouched.
    Finiteness is checked on the updated vector: a non-finite gradient
    always yields a non-finite value there, so it is caught too.
    """
    if not grads.matches(net):
        raise ValueError("gradient shapes do not match the network")
    w = net.params
    new = w - cfg.learning_rate * (grads.flat * scale + cfg.weight_decay * w)
    if not np.isfinite(new).all():
        raise TrainingDivergenceError("non-finite weights after sgd_step (gradient or update)")
    return DenseNet(new, net.layout, net.activations)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by its max for stability.

    Logits are not validated: a non-finite logit yields non-finite
    probabilities, so in training it reaches the loss check and raises
    ``TrainingDivergenceError`` there.
    """
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class FiniteDifferenceReport:
    max_rel_error: float
    n_checked: int
    n_skipped: int


def finite_difference_check(
    net: DenseNet,
    loss_fn: Callable[[DenseNet], tuple],
    epsilon: float = 1e-6,
) -> FiniteDifferenceReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn(net)`` must return ``(loss, GradientBundle)`` and may return a
    third element: an integer/bool array encoding every discrete choice made
    while evaluating the loss (relu signs, argmax indices). Parameters whose
    +-epsilon perturbations land on different patterns sit across a kink and
    are skipped rather than compared.

    The report's ``max_rel_error`` is the maximum over checked parameters
    of ``|analytic - central| / max(1, |central|)``.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")

    out = loss_fn(net)
    _, analytic = out[0], out[1]
    if not analytic.matches(net):
        raise ValueError("analytic gradient shapes do not match the network")

    work = net.copy()
    params = work.params
    max_err = 0.0
    n_checked = 0
    n_skipped = 0
    for i in range(params.size):
        original = params[i]

        params[i] = original + epsilon
        out_plus = loss_fn(work)
        params[i] = original - epsilon
        out_minus = loss_fn(work)
        params[i] = original

        if len(out_plus) > 2 and not np.array_equal(out_plus[2], out_minus[2]):
            n_skipped += 1
            continue

        central = (out_plus[0] - out_minus[0]) / (2.0 * epsilon)
        a = analytic.flat[i]
        err = abs(a - central) / max(1.0, abs(central))
        max_err = max(max_err, err)
        n_checked += 1

    return FiniteDifferenceReport(max_err, n_checked, n_skipped)
