"""Gradient-checking helpers for the test suite; pytest does not collect
this module (its name has no ``test_`` prefix).

``finite_difference_check`` compares a network's analytic gradient with
central finite differences, skipping parameters whose perturbations straddle
a kink. ``zero_grads`` builds a gradient destination, a network's widths
over a zero vector, and ``grads_of`` runs ``backward`` into a new one.
``net_of`` packs a list of ``(weights, bias)`` pairs into a network, and
``layer_grads`` splits a gradient vector into its layers by counting
offsets from the widths itself, a reference independent of ``views``.
``call_core`` runs a training loss core, ``deferral._ea_l2d`` or
``deferral._pop_avg``, the way ``deferral._fit`` runs it, so the gradient
tests check the code training runs. A core returns only its two loss sums;
the kink pattern a check compares is built here (``kink_pattern``), from
each network's own ``forward_cached`` and ``relu_pattern`` passes.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from deferlab.deferral import _ea_l2d, rejector_inputs
from deferlab.nets import (
    DenseNet,
    backward,
    forward_cached,
    relu_pattern,
    softmax,
)

# The floating-point state ``deferral._fit`` runs the loss cores in;
# ``tests/test_deferral.py`` checks that the two agree.
FIT_ERRSTATE = {"over": "ignore", "invalid": "ignore"}


def net_of(pairs) -> DenseNet:
    """A network over a new vector that holds, layer by layer, the bytes of
    each ``(weights, bias)`` pair as float64, with the pairs' widths; a
    pair whose shapes do not fit those widths raises ``ValueError``."""
    pairs = [(np.asarray(w, np.float64), np.asarray(b, np.float64)) for w, b in pairs]
    net = DenseNet(
        np.concatenate([a.ravel() for pair in pairs for a in pair]),
        [pairs[0][0].shape[-1], *(b.size for _, b in pairs)],
    )
    for (w, b), view in zip(pairs, net.views):
        if (w.shape, b.shape) != (view.weights.shape, view.bias.shape):
            raise ValueError(f"layer shapes {w.shape}, {b.shape} do not compose")
    return net


def zero_grads(net: DenseNet) -> DenseNet:
    """A gradient destination for ``net``: its widths over a new zero vector."""
    return DenseNet(np.zeros_like(net.params), net.widths)


def layer_grads(grads: DenseNet, net: DenseNet) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every layer's (weight gradient, bias gradient): views into
    ``grads.params`` at offsets counted here from ``net.widths``, layer by
    layer the weights in row-major order, then the bias."""
    parts, start = [], 0
    for fan_in, fan_out in zip(net.widths, net.widths[1:]):
        bias = start + fan_out * fan_in
        parts.append(
            (grads.params[start:bias].reshape(fan_out, fan_in), grads.params[bias : bias + fan_out])
        )
        start = bias + fan_out
    return parts


def grads_of(net: DenseNet, outs, upstream) -> DenseNet:
    """``backward(net, outs, upstream, ...)`` into a new ``zero_grads(net)``,
    returned, for loss functions that hand their gradient to
    ``finite_difference_check``."""
    grads = zero_grads(net)
    backward(net, outs, upstream, grads)
    return grads


def joined_masks(masks) -> np.ndarray:
    """``relu_pattern``'s per-layer masks, flattened and joined in layer
    order into one new bool vector; empty for a network without hidden
    layers."""
    return np.concatenate([np.empty(0, bool), *(mask.ravel() for mask in masks)])


def _relu_signs(net: DenseNet, x):
    """``net``'s output on ``x`` and its joined relu masks, from passes of
    their own."""
    outs = forward_cached(net, x)
    return outs[-1], joined_masks(relu_pattern(net, outs))


def kink_pattern(core, classifier, rejector, features, aux) -> np.ndarray:
    """Every discrete choice ``core``'s loss makes on a batch, as one new
    int64 vector: the classifier's relu masks, then the rejector's on the
    rows it reads, then, for ``_ea_l2d``, each example's class-softmax
    argmax. ``_ea_l2d``'s rejector reads ``rejector_inputs`` built from
    that argmax and the posterior means ``aux``; ``_pop_avg``'s reads the
    features."""
    logits, clf_signs = _relu_signs(classifier, features)
    if core is not _ea_l2d:
        return np.concatenate([clf_signs, _relu_signs(rejector, features)[1]]).astype(np.int64)
    rho = softmax(logits)[0]
    kstar = np.argmax(rho, axis=1)
    rej_signs = _relu_signs(rejector, rejector_inputs(rho, kstar, aux))[1]
    return np.concatenate([clf_signs, rej_signs, kstar]).astype(np.int64)


def call_core(core, classifier, rejector, features, labels, aux, grads=True, ws=None):
    """``core(classifier, rejector, features, labels, aux, out, ws)`` under
    ``FIT_ERRSTATE``, with ``out`` two new zeroed gradient destinations, or
    ``None`` without ``grads``: ``(classifier_sum, deferral_sum,
    classifier_grads, rejector_grads, pattern)``, where the last three are
    ``None`` without ``grads``. ``pattern`` is ``kink_pattern``'s, built in
    the same floating-point state from passes of its own, so it does not
    depend on the workspaces ``ws``."""
    out = (zero_grads(classifier), zero_grads(rejector)) if grads else None
    with np.errstate(**FIT_ERRSTATE):
        classifier_sum, deferral_sum = core(classifier, rejector, features, labels, aux, out, ws)
        pattern = kink_pattern(core, classifier, rejector, features, aux) if grads else None
    return (classifier_sum, deferral_sum, *(out or (None, None)), pattern)


def _pattern(out: tuple) -> np.ndarray:
    """The pattern of a ``loss_fn`` result, which must be a 1-D bool or
    integer ndarray, else ``TypeError``."""
    pattern = out[2]
    if not (
        isinstance(pattern, np.ndarray)
        and pattern.ndim == 1
        and (pattern.dtype == bool or np.issubdtype(pattern.dtype, np.integer))
    ):
        raise TypeError(
            "a kink pattern must be a 1-D bool or integer ndarray, got "
            f"{type(pattern).__name__} {getattr(pattern, 'dtype', '')}".rstrip()
        )
    return pattern


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

    ``loss_fn(net)`` must return ``(loss, grads)``, ``grads`` a network
    with ``net``'s widths over the gradient vector, and may return a
    third element: a 1-D integer/bool ndarray encoding every discrete choice
    made while evaluating the loss (relu signs, argmax indices); any other
    pattern raises ``TypeError``, since comparing, say, two tuples of arrays
    would call every parameter a kink and check none. Parameters whose
    +-epsilon perturbations land on different patterns sit across a kink and
    are skipped rather than compared.

    The report's ``max_rel_error`` is the maximum over checked parameters
    of ``|analytic - central| / max(1, |central|)``.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")

    out = loss_fn(net)
    _, analytic = out[0], out[1]
    if len(out) > 2:
        _pattern(out)
    if analytic.widths != net.widths:
        raise ValueError("analytic gradient widths do not match the network's")

    work = DenseNet(net.params.copy(), net.widths)
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

        if len(out_plus) > 2 and not np.array_equal(_pattern(out_plus), _pattern(out_minus)):
            n_skipped += 1
            continue

        central = (out_plus[0] - out_minus[0]) / (2.0 * epsilon)
        a = analytic.params[i]
        err = abs(a - central) / max(1.0, abs(central))
        max_err = max(max_err, err)
        n_checked += 1

    return FiniteDifferenceReport(max_err, n_checked, n_skipped)
