"""Gradient-checking helpers for the test suite; pytest does not collect
this module (its name has no ``test_`` prefix).

``finite_difference_check`` compares a network's analytic gradient with
central finite differences, skipping parameters whose perturbations straddle
a kink. ``zero_grads`` builds a gradient destination, a network's layout
over a zero vector, and ``grads_of`` runs ``backward`` into a new one.
``call_core`` runs a training loss core, ``deferral._ea_l2d`` or
``deferral._pop_avg``, the way ``deferral._fit`` runs it, so the gradient
tests check the code training runs.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from deferlab.nets import DenseNet, backward

# The floating-point state ``deferral._fit`` runs the loss cores in;
# ``tests/test_deferral.py`` checks that the two agree.
FIT_ERRSTATE = {"over": "ignore", "invalid": "ignore"}


def zero_grads(net: DenseNet) -> DenseNet:
    """A gradient destination for ``net``: its layout over a new zero vector."""
    return DenseNet(np.zeros_like(net.params), net.layout)


def grads_of(net: DenseNet, outs, upstream) -> DenseNet:
    """``backward(net, outs, upstream, ...)`` into a new ``zero_grads(net)``,
    returned, for loss functions that hand their gradient to
    ``finite_difference_check``."""
    grads = zero_grads(net)
    backward(net, outs, upstream, grads)
    return grads


def call_core(core, classifier, rejector, features, labels, aux, grads=True, ws=None):
    """``core(classifier, rejector, features, labels, aux, out, ws)`` under
    ``FIT_ERRSTATE``, with ``out`` two new zeroed gradient destinations, or
    ``None`` without ``grads``: ``(classifier_sum, deferral_sum,
    classifier_grads, rejector_grads, pattern)``, where the last three are
    ``None`` without ``grads``. The core returns its pattern as parts
    (each network's relu signs, then ``_ea_l2d``'s classifier argmax);
    they are joined here into one int64 vector, a copy, so a pattern read
    from workspaces ``ws`` outlives the next call on them."""
    out = (zero_grads(classifier), zero_grads(rejector)) if grads else None
    with np.errstate(**FIT_ERRSTATE):
        classifier_sum, deferral_sum, parts = core(
            classifier, rejector, features, labels, aux, out, ws
        )
    pattern = None if parts is None else np.concatenate(parts).astype(np.int64)
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
    with ``net``'s layout over the gradient vector, and may return a
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
    if analytic.layout != net.layout:
        raise ValueError("analytic gradient layout does not match the network")

    work = DenseNet(net.params.copy(), net.layout)
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
