"""Minimal dense feed-forward networks with explicit forward/backward passes.

Everything is float64 numpy. Every network has one architecture: each
layer but the last applies relu, and the last is linear. So a network is
two things: one contiguous parameter vector, ``DenseNet.params`` (layer by
layer, the weight matrix in row-major order, then the bias), and its
``layout``, every layer's shape and offsets in that vector. A network
builds every layer's weight and bias as views into the vector once, when
it is constructed (``DenseNet.views``), and the passes read those; a
``DenseNet`` is frozen, so ``params`` is never rebound under its views,
and a change to the vector's values is a change to the network.
``layout_of`` builds the one layout of a list of layer widths, input
first; ``dense_net`` and ``checkpoint.load_checkpoint`` both build theirs
with it, and a checkpoint stores a network as its vector and its widths. A
network may also be built over a slice of a longer vector: training packs
the classifier and the rejector into one vector.

A gradient is laid out as its network: ``backward`` writes every layer's
gradient into a destination ``DenseNet`` over the caller's gradient vector,
with the network's layout, through the destination's ``views``.
``sgd_step`` updates a parameter vector in place from a gradient vector of
the same layout, so one call can step every network packed into the
vector; it consumes the gradient. The passes write nothing but their own
results and the workspace they are given, so a network is safe to share
across threads while no step runs on it.

A ``Workspace`` holds one network's pass buffers: every layer's output and
backward delta, every hidden layer's relu mask and the ``ones`` of the bias
gradients. ``forward``, ``forward_cached``, ``backward`` and
``relu_pattern`` write into the leading rows of the one they are given, so
a loop that gives every pass the same workspace allocates no layer-sized
array per pass, and its results are the same bits. Without one, ``forward``
writes into new arrays and the others into a workspace built for the call.
Training builds one per network in each ``deferral._fit`` call; a workspace
belongs to that call alone and is never shared between threads.

Every pass takes a ``(batch, in_dim)`` matrix, one row per example; one
example is a one-row batch. Both forward passes run the same layer step,
``z = a @ w.T`` into a destination buffer, then ``z += b`` and, below the
last layer, the relu in place, and differ only in what they keep.
``forward_cached`` keeps the checked input and every layer's output; use it
when gradients follow, and hand its list to ``backward``, which runs no
forward of its own. It takes every hidden layer's relu mask from one
``relu_pattern`` call, which needs no pre-activations: a relu output
``max(z, 0)`` is positive exactly where ``z`` is, NaN included, so a mask
is ``output > 0``. ``forward`` keeps only the last layer's output, and holds
the others for one row block at a time; use it for inference and for
losses without gradients (validation), where holding every layer of a
large batch would only raise peak memory.

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
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import TrainingDivergenceError


class Layer(NamedTuple):
    """One layer's weights (out_dim, in_dim) and bias (out_dim,): views into
    a network's vector, as ``DenseNet.views`` holds them."""

    weights: np.ndarray
    bias: np.ndarray


# Per layer: (out_dim, in_dim, weights start, bias start, bias end) in the
# flat parameter vector.
Layout = tuple[tuple[int, int, int, int, int], ...]


def layout_of(widths: Sequence[int]) -> Layout:
    """The layout of a network with the given layer widths, input first:
    layer by layer, the weight matrix in row-major order, then the bias.
    Fewer than two widths, or a width that is not an integer >= 1 (a bool
    is not an integer), raises ``ValueError``."""
    if len(widths) < 2:
        raise ValueError(f"a network needs at least input and output widths, got {widths!r}")
    for width in widths:
        if isinstance(width, bool) or not isinstance(width, numbers.Integral) or width < 1:
            raise ValueError(f"layer widths must be integers >= 1, got {widths!r}")
    dims, spans, start = [int(width) for width in widths], [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        bias_start = start + fan_out * fan_in
        spans.append((fan_out, fan_in, start, bias_start, bias_start + fan_out))
        start = bias_start + fan_out
    return tuple(spans)


def _views(flat: np.ndarray, layout: Layout) -> tuple[Layer, ...]:
    """Every layer's (weights, bias) as views into ``flat``."""
    return tuple(
        Layer(flat[w0:b0].reshape(out_dim, in_dim), flat[b0:end])
        for out_dim, in_dim, w0, b0, end in layout
    )


def _layout_size(layout: Layout) -> int:
    return layout[-1][4] if layout else 0


@dataclass(frozen=True)
class DenseNet:
    """A network over ``params``, laid out by ``layout``: relu after every
    layer but the last, which is linear. ``views`` holds every layer's
    ``Layer(weights, bias)`` as views into ``params``, built once here.
    ``params`` must be a float64 vector of the layout's size, else
    ``ValueError``; the layout is taken as given: build one with
    ``layout_of``, or take an existing network's."""

    params: np.ndarray
    layout: Layout
    views: tuple[Layer, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = _layout_size(self.layout)
        if self.params.dtype != np.float64 or self.params.shape != (size,):
            raise ValueError(
                f"parameters of dtype {self.params.dtype} and shape {self.params.shape} "
                f"do not fit a float64 layout of {size} parameters"
            )
        object.__setattr__(self, "views", _views(self.params, self.layout))

    @property
    def layers(self) -> list[Layer]:
        """``list(self.views)``. It exists for ``bench/tracing.py``'s flop
        counter, which reads ``layer.weights``; the package reads ``views``."""
        return list(self.views)

    @property
    def input_dim(self) -> int:
        return self.layout[0][1]

    @property
    def output_dim(self) -> int:
        return self.layout[-1][0]


def _finite(value: numbers.Real) -> bool:
    """Whether ``value`` is a finite float64: NaN is not, and neither is an
    integer beyond the largest float64, which has no float value."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass
class TrainConfig:
    """SGD settings: ``learning_rate`` a finite number > 0, ``weight_decay``
    a finite number >= 0, and the integers ``batch_size`` >= 1, ``epochs``
    >= 0 and ``seed`` >= 0. An integer beyond the largest float64 is not
    finite. A bool is neither a number nor an integer, and a NumPy scalar is
    either. Any other value raises ``ValueError`` naming the field."""

    learning_rate: float
    batch_size: int
    epochs: int
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, kind in (
            ("learning_rate", numbers.Real), ("batch_size", numbers.Integral),
            ("epochs", numbers.Integral), ("weight_decay", numbers.Real),
            ("seed", numbers.Integral),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "a number" if kind is numbers.Real else "an integer"
                raise ValueError(f"{name!r} must be {noun}, got {value!r}")
        lr, wd = self.learning_rate, self.weight_decay
        if not (_finite(lr) and lr > 0):
            raise ValueError(f"'learning_rate' must be finite and > 0, got {lr!r}")
        if not (_finite(wd) and wd >= 0):
            raise ValueError(f"'weight_decay' must be finite and >= 0, got {wd!r}")
        if self.batch_size < 1:
            raise ValueError(f"'batch_size' must be >= 1, got {self.batch_size!r}")
        if self.epochs < 0:
            raise ValueError(f"'epochs' must be >= 0, got {self.epochs!r}")
        if self.seed < 0:
            raise ValueError(f"'seed' must be >= 0, got {self.seed!r}")


def dense_net(dims: Sequence[int], seed: int | np.random.Generator = 0) -> DenseNet:
    """A network with the layer widths ``dims``, input first, over a new
    vector laid out by ``layout_of(dims)``.

    Layer by layer, the weights are drawn uniformly from +-sqrt(6 / (fan_in
    + fan_out)) with one ``rng.uniform`` call of shape (fan_out, fan_in),
    and the biases are zero; everything is reproducible from the seed.
    """
    layout = layout_of(dims)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    net = DenseNet(np.zeros(_layout_size(layout)), layout)
    for weights, _ in net.views:
        fan_out, fan_in = weights.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights[...] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
    return net


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


@dataclass(frozen=True)
class Workspace:
    """Buffers that one network's passes write into instead of new arrays.

    Per layer, ``outs`` holds an output buffer and ``deltas`` a backward
    delta buffer as wide as the layer's input; per hidden layer, ``masks``
    holds a bool buffer as wide as its output, for its relu mask; ``ones``
    is the vector of the bias gradients' products. A pass on n rows uses the
    leading n rows of each buffer, contiguous views, so it runs the same
    BLAS products on the same shapes as on new arrays and gives the same
    bits. What a pass returns from a workspace is a view into it, valid
    until the next pass on the workspace. Build one with ``Workspace.of``.
    """

    outs: tuple[np.ndarray, ...]
    deltas: tuple[np.ndarray, ...]
    masks: tuple[np.ndarray, ...]
    ones: np.ndarray

    @classmethod
    def of(cls, net: DenseNet, batch_rows: int, forward_rows: int = 0) -> "Workspace":
        """A workspace for ``net``'s passes with gradients (``forward_cached``,
        ``backward``, ``relu_pattern``) on up to ``batch_rows`` rows, and for
        ``forward`` on ``forward_rows`` rows, which needs output buffers for
        its largest row block only. Deltas, masks and ``ones`` take
        ``batch_rows`` rows: only the passes with gradients use them."""
        rows = max(batch_rows, *(s.stop - s.start for s in row_blocks(forward_rows)))
        return cls(
            tuple(np.empty((rows, out_dim)) for out_dim, *_ in net.layout),
            tuple(np.empty((batch_rows, in_dim)) for _, in_dim, *_ in net.layout),
            tuple(np.empty((batch_rows, out_dim), bool) for out_dim, *_ in net.layout[:-1]),
            np.ones(batch_rows),
        )


def _layer(
    a: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool, out: np.ndarray
) -> np.ndarray:
    """One layer's output on rows ``a``, computed in place in ``out``."""
    np.matmul(a, w.T, out=out)
    out += b
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def forward(net: DenseNet, x: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Forward pass of a (batch, in_dim) matrix, in ``row_blocks``, into a
    new array. Each block's last layer is written into its rows of the
    result, and its hidden layers into ``ws``, or without one into new
    arrays, each dropped once the next layer has read it: inference makes
    one call per block, where building a workspace would cost more than it
    saves."""
    x = _check_input(net, x)
    layers = net.views
    last = len(layers) - 1
    out = np.empty((len(x), net.output_dim))
    for rows in row_blocks(len(x)):
        a = x[rows]
        n = len(a)
        for i, (w, b) in enumerate(layers):
            if i == last:
                dest = out[rows]
            elif ws is None:
                dest = np.empty((n, w.shape[0]))
            else:
                dest = ws.outs[i][:n]
            a = _layer(a, w, b, i < last, dest)
    return out


Activations = list[np.ndarray]


def forward_cached(net: DenseNet, x: np.ndarray, ws: Workspace | None = None) -> Activations:
    """Forward pass keeping what backprop needs: the checked input, then
    every layer's output, written into ``ws``, so the last entry equals
    ``forward(net, x)``."""
    outs = [_check_input(net, x)]
    n = len(outs[0])
    if ws is None:
        ws = Workspace.of(net, n)
    last = len(net.layout) - 1
    for i, (w, b) in enumerate(net.views):
        outs.append(_layer(outs[-1], w, b, i < last, ws.outs[i][:n]))
    return outs


def relu_pattern(
    net: DenseNet, outs: Activations, ws: Workspace | None = None
) -> list[np.ndarray]:
    """Every hidden layer's relu mask, ``output > 0``, as an (n, width) bool
    array written into the leading rows of its ``ws.masks`` buffer; a
    network without hidden layers has none. ``backward`` reads its masks
    from one call.

    ``outs`` is ``forward_cached(net, x)``; a relu output is positive
    exactly where its pre-activation is. Two evaluations with different
    masks straddle a kink, where finite differences of the loss are
    meaningless.
    """
    n = len(outs[0])
    if ws is None:
        ws = Workspace.of(net, n)
    return [np.greater(a, 0.0, out=mask[:n]) for a, mask in zip(outs[1:-1], ws.masks)]


def backward(
    net: DenseNet,
    outs: Activations,
    upstream: np.ndarray,
    out: DenseNet,
    want_input_grad: bool = False,
    ws: Workspace | None = None,
) -> np.ndarray | None:
    """Gradients of a scalar loss given d(loss)/d(output), written into
    ``out``, a ``DenseNet`` with the network's layout over the gradient
    vector (another layout raises ``ValueError``); ``out.params[i]`` becomes
    the gradient of ``net.params[i]``.

    ``outs`` is ``forward_cached(net, x)`` for the input the loss was
    computed on; a hidden layer passes the gradient where its relu output
    is positive, by the masks of one ``relu_pattern`` call. The per-example
    contributions are summed, i.e. the result is the gradient of ``sum_i
    loss_i`` when ``upstream[i]`` is the gradient for example i: a weight
    gradient is ``delta.T @ input`` and a bias gradient ``ones @ delta``,
    both BLAS products. Returns the gradient with respect to the input,
    which lets one network's backward pass chain into another's; it is one
    more product with the first layer's weights, computed only with
    ``want_input_grad``, and ``None`` otherwise. The deltas, the relu masks
    and ``ones`` are ``ws``'s, so the input gradient is a view into it.
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
    if out.layout != net.layout:
        raise ValueError("gradient destination layout does not match the network")

    n = len(upstream)
    if ws is None:
        ws = Workspace.of(net, n)
    masks = relu_pattern(net, outs, ws)
    ones = ws.ones[:n]
    delta = upstream
    for i in reversed(range(len(net.layout))):
        if i < len(masks):
            # below the linear top layer, ``delta`` is a workspace buffer
            delta *= masks[i]
        w_grad, b_grad = out.views[i]
        np.matmul(delta.T, outs[i], out=w_grad)
        np.matmul(ones, delta, out=b_grad)
        if i or want_input_grad:
            delta = np.matmul(delta, net.views[i][0], out=ws.deltas[i][:n])
    return delta if want_input_grad else None


def sgd_step(
    params: np.ndarray, grads: np.ndarray, cfg: TrainConfig, scale: float = 1.0
) -> None:
    """One SGD update of a parameter vector, in place:
    params <- params - lr * (grads * scale + weight_decay * params).

    ``grads`` is the gradient vector in the same layout; it is consumed, as
    the update is formed in it: ``grads *= scale``, ``grads += weight_decay
    * params``, ``grads *= lr``, ``params -= grads``, which gives the bits
    of the one expression above. One call steps every network whose
    parameters are slices of ``params``. Finiteness is checked once, on the
    updated vector: a non-finite gradient always yields a non-finite value
    there, so it is caught too, and raises ``TrainingDivergenceError``.
    """
    if grads.shape != params.shape:
        raise ValueError(
            f"gradient shape {grads.shape} does not match the parameters' {params.shape}"
        )
    grads *= scale
    grads += cfg.weight_decay * params
    grads *= cfg.learning_rate
    params -= grads
    if not np.isfinite(params).all():
        raise TrainingDivergenceError("non-finite weights after sgd_step (gradient or update)")


def softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's class softmax ``rho`` (rows, K), its max logit ``top`` and
    ``total = sum_k exp(logit_k - top)`` (rows,), from one exponential of
    the max-shifted logits. The row's logsumexp is ``top + log(total)``;
    training and evaluation read the (K+1)-way joint softmax through these
    three. Logits are not validated: a non-finite logit gives NaN, which the
    training loop's loss check and ``ScoredCases`` catch."""
    with np.errstate(over="ignore", invalid="ignore"):
        top = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - top)
        total = e.sum(axis=1, keepdims=True)
        return e / total, top[:, 0], total[:, 0]
