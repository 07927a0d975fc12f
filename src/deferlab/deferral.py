"""Joint classifier/rejector deferral: loss functions, gradients, training.

The rejector never sees expert identity. Its four inputs are the classifier's
softmax at the expert's expertise class, the classifier's top softmax value,
and the expert's posterior mean accuracy at the classifier's top class and at
the expertise class. The deferral logit joins the class logits in a
(K+1)-way softmax; the deferral half of the loss activates only on examples
whose true label is the expertise class, weighted by the expert's posterior
mean accuracy there, so no expert predictions on query data are needed.

The loss functions work on batches. ``ea_l2d_loss_grads`` evaluates the
whole expert cohort in one stacked step per batch: the experts enter only
through their (experts, K) matrix of posterior means, so the classifier runs
forward and backward once, and the rejector once on all (example, expert)
rows built by ``rejector_inputs``. The (K+1)-way joint softmax of every
pair is never built: its K class columns are the same for every expert, so
``_joint_terms`` factors it through the class softmax and logsumexp of each
example, and a batch costs O(experts * batch + batch * K). Both methods
train through one loop, ``_fit``; finite-difference checks call the loss
functions on one-row batches.

Each ea_l2d batch recounts the cohort's posterior means from a fresh
context subsample, all experts drawn at once by ``_ContextDraw``: one
uniform key per context item, and each expert's ``lam`` smallest keys.

The population-average baseline instead gates its deferral term on whether
the mode of all experts' query predictions matches the label, and its
deferral logit is a function of the raw input only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TrainingDivergenceError
from .experts import PriorElicitation, build_representation, posterior_means, prior_arrays
from .nets import (
    Activations,
    DenseNet,
    TrainConfig,
    backward,
    forward,
    forward_cached,
    relu_pattern,
    sgd_step,
)
from .simulate import ContextSet, Dataset


def mode_labels(prediction_matrix: np.ndarray, num_classes: int) -> np.ndarray:
    """Column-wise mode over experts; shape (experts, examples) -> (examples,)."""
    preds = np.asarray(prediction_matrix, dtype=np.int64)
    if preds.ndim != 2 or preds.shape[0] == 0:
        raise ValueError("prediction matrix must be (experts, examples) with >= 1 expert")
    if np.any(preds < 0) or np.any(preds >= num_classes):
        raise ValueError("prediction out of range")
    examples = preds.shape[1]
    # Row i of ``counts`` tallies column i's votes; argmax breaks ties to the
    # lowest class index.
    cells = np.arange(examples) * num_classes + preds
    counts = np.bincount(cells.ravel(), minlength=examples * num_classes)
    return np.argmax(counts.reshape(examples, num_classes), axis=1)


# --- batched loss/gradient machinery -------------------------------------


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")


def _class_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's class softmax ``rho`` (batch, K) and logsumexp ``lse``
    (batch,), from one exponential of the max-shifted logits. A non-finite
    logit gives NaN, which the training loop's loss check catches."""
    with np.errstate(over="ignore", invalid="ignore"):
        top = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - top)
        total = e.sum(axis=1, keepdims=True)
        return e / total, (top + np.log(total))[:, 0]


def _joint_terms(
    logits: np.ndarray,
    rho: np.ndarray,
    lse: np.ndarray,
    g: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Loss sums and gradients of every (expert, example) pair's (K+1)-way
    joint softmax, without building it.

    Pair (e, i) puts example i's class logits and the deferral logit
    ``g[e, i]`` into one softmax. With ``z = g - lse``, its deferral
    probability is sigmoid(z) and its class probabilities are
    ``rho * (1 - sigmoid(z))``, so -log q_y = lse - logit_y + softplus(z) and
    -log q_defer = softplus(-z). ``g`` and ``weights`` are (experts, batch);
    ``rho`` and ``lse`` come from ``_class_softmax(logits)``. Returns
    ``(classifier_sum, deferral_sum, d_g, d_logits)``:

    - classifier_sum = experts * sum_i (lse - logit_y) + sum softplus(z);
    - deferral_sum = sum w * softplus(-z) over the pairs with w > 0, so an
      inactive term stays zero even for an infinitely negative g;
    - d_g = (1 + w) sigmoid(z) - w, shape (experts, batch);
    - d_logits = rho * sum_e (1 + w)(1 - sigmoid(z)) - experts * onehot(y),
      shape (batch, K).

    Every term is a softplus, so a finite logit gives a finite loss however
    far apart the logits are.
    """
    experts, batch = g.shape
    rows = np.arange(batch)
    with np.errstate(over="ignore", invalid="ignore"):
        z = g - lse
        soft = np.logaddexp(0.0, z)
        active = weights > 0
        classifier_sum = float(experts * (lse - logits[rows, labels]).sum() + soft.sum())
        deferral_sum = float((weights[active] * np.logaddexp(0.0, -z[active])).sum())
        defer = np.exp(z - soft)
        d_g = (1.0 + weights) * defer - weights
        d_logits = rho * ((1.0 + weights) * np.exp(-soft)).sum(axis=0)[:, None]
    d_logits[rows, labels] -= experts
    return classifier_sum, deferral_sum, d_g, d_logits


def _forward_for(
    net: DenseNet, x: np.ndarray, want_grads: bool
) -> tuple[np.ndarray, Activations | None]:
    """Network output, plus every layer's cached output when gradients follow.

    Without gradients the plain ``forward`` runs, which keeps no per-layer
    arrays: validation batches are large and would otherwise raise peak
    memory for nothing. A layer that overflows raises no numpy warning: its
    infinite outputs make the loss non-finite, and the training loop
    reports that as divergence.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if want_grads:
            outs = forward_cached(net, x)
            return outs[-1], outs
        return forward(net, x), None


def rejector_inputs(rho: np.ndarray, kstar: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The four rejector inputs of every (expert, example) pair.

    ``rho`` is the class softmax (batch, K), ``kstar`` its row argmax and
    ``mu`` the posterior means (experts, K). Rows of the (experts * batch, 4)
    result are ordered expert-major; each row is (rho at the expertise
    class, rho at kstar, mu at kstar, mu at the expertise class), and
    expertise-class ties break to the lowest class index.
    """
    if rho.shape[1] != mu.shape[1]:
        raise ValueError("class softmax and posterior means must agree on the class count")
    experts, batch = len(mu), len(rho)
    estar = np.argmax(mu, axis=1)
    feats = np.empty((experts, batch, 4))
    feats[:, :, 0] = rho[:, estar].T
    feats[:, :, 1] = rho[np.arange(batch), kstar]
    feats[:, :, 2] = mu[:, kstar]
    feats[:, :, 3] = mu[np.arange(experts), estar][:, None]
    return feats.reshape(experts * batch, 4)


def ea_l2d_loss_grads(
    classifier: DenseNet,
    rejector: DenseNet,
    features: np.ndarray,
    labels: np.ndarray,
    mu: np.ndarray,
    want_grads: bool = True,
):
    """Loss sums and summed gradients across a batch for a whole cohort.

    Returns ``(classifier_sum, deferral_sum, classifier_grads,
    rejector_grads, pattern)``; without ``want_grads`` the last three are
    ``None``. ``features`` is (batch, dim); ``labels`` (batch,) must lie in
    [0, K), else ``ValueError``. ``mu`` holds the posterior mean accuracies,
    shape (experts, K); the sums run over every (example, expert) pair. No
    expert prediction on the batch is consumed.

    The classifier runs once. The rejector runs once on the
    (experts * batch, 4) block of every expert's inputs, rows ordered
    expert-major. The loss is the factored joint of ``_joint_terms``: each
    pair's (K+1)-way softmax is expressed through the example's class
    softmax ``rho`` and logsumexp, so no (experts * batch, K+1) array is
    built and a finite logit always gives a finite loss. Gradients flow
    into the rejector and into the classifier both directly through the
    class logits and through the class softmax feeding the rejector inputs;
    both routes are summed over experts before the one classifier backward
    pass. Each network runs forward once; its backward pass and relu
    pattern read the cached layer outputs, and only the rejector's backward
    computes an input gradient. The returned pattern encodes the discrete
    choices (relu signs of both networks, the classifier argmax) for
    finite-difference kink detection.
    """
    experts, num_classes = mu.shape
    _check_labels(labels, num_classes)
    batch = len(labels)
    logits, clf_acts = _forward_for(classifier, features, want_grads)
    rho, lse = _class_softmax(logits)
    kstar = np.argmax(rho, axis=1)
    estar = np.argmax(mu, axis=1)
    rej_out, rej_acts = _forward_for(rejector, rejector_inputs(rho, kstar, mu), want_grads)
    weights = np.where(labels == estar[:, None], mu[:, labels], 0.0)
    classifier_sum, deferral_sum, d_g, d_logits = _joint_terms(
        logits, rho, lse, rej_out.reshape(experts, batch), labels, weights
    )

    if not want_grads:
        return classifier_sum, deferral_sum, None, None, None

    rej_grads = backward(rejector, rej_acts, d_g.reshape(-1, 1), want_input_grad=True)
    d_feats = rej_grads.input_grad.reshape(experts, batch, 4)

    onehot_estar = np.zeros((experts, num_classes))
    onehot_estar[np.arange(experts), estar] = 1.0
    d_rho = d_feats[:, :, 0].T @ onehot_estar
    d_rho[np.arange(batch), kstar] += d_feats[:, :, 1].sum(axis=0)
    d_logits += rho * (d_rho - (d_rho * rho).sum(axis=1, keepdims=True))

    clf_grads = backward(classifier, clf_acts, d_logits)

    pattern = np.concatenate(
        [relu_pattern(classifier, clf_acts), relu_pattern(rejector, rej_acts), kstar]
    )
    return classifier_sum, deferral_sum, clf_grads, rej_grads, pattern


def pop_avg_loss_grads(
    classifier: DenseNet,
    rejector: DenseNet,
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    want_grads: bool = True,
):
    """The baseline's counterpart of ``ea_l2d_loss_grads``, with the same
    return tuple: the rejector consumes the raw features directly, and
    example i's deferral term is weighted by ``weights[i]``, 1 when the mode
    of the experts' predictions is its label and 0 otherwise. It is the
    one-expert case of the same factored joint loss."""
    _check_labels(labels, classifier.output_dim)
    logits, clf_acts = _forward_for(classifier, features, want_grads)
    rej_out, rej_acts = _forward_for(rejector, features, want_grads)
    rho, lse = _class_softmax(logits)
    classifier_sum, deferral_sum, d_g, d_logits = _joint_terms(
        logits, rho, lse, rej_out.T, labels, weights[None, :]
    )

    if not want_grads:
        return classifier_sum, deferral_sum, None, None, None

    rej_grads = backward(rejector, rej_acts, d_g.T)
    clf_grads = backward(classifier, clf_acts, d_logits)
    pattern = np.concatenate(
        [relu_pattern(classifier, clf_acts), relu_pattern(rejector, rej_acts)]
    ).astype(np.int64)
    return classifier_sum, deferral_sum, clf_grads, rej_grads, pattern


# --- training loops -------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_classifier_term: float
    train_deferral_term: float
    val_loss: float


@dataclass
class TrainResult:
    classifier: DenseNet
    rejector: DenseNet
    history: list[EpochStats]
    best_epoch: int | None = None


def _resolve_lambda(lam: int | None, contexts: Sequence[ContextSet]) -> np.ndarray:
    sizes = [len(c) for c in contexts]
    if lam is None:
        return np.array([math.ceil(s / 2) for s in sizes])
    if lam < 0:
        raise ValueError("context subsample size must be >= 0")
    if lam > min(sizes):
        raise ValueError(
            f"context subsample size {lam} exceeds the smallest context ({min(sizes)})"
        )
    return np.full(len(contexts), lam)


@dataclass(frozen=True)
class _ContextDraw:
    """A cohort's contexts laid out once for one batched subsample per batch.

    Row e of the (experts, C_max) blocks holds expert e's context items:
    ``slots`` their cells ``e * K + y``, ``correct`` whether each prediction
    was right, and ``pad`` marks the columns past the context. Row e of
    ``keep``, (experts, max subsample size), is true on its first ``lam_e``
    entries, expert e's subsample size; ``kth`` holds every distinct nonzero
    ``lam_e - 1``. ``alpha0``/``beta0`` are the cohort's prior arrays.
    """

    alpha0: np.ndarray
    beta0: np.ndarray
    slots: np.ndarray
    correct: np.ndarray
    pad: np.ndarray
    keep: np.ndarray
    kth: np.ndarray

    @classmethod
    def build(
        cls,
        contexts: Sequence[ContextSet],
        lams: np.ndarray,
        alpha0: np.ndarray,
        beta0: np.ndarray,
    ) -> "_ContextDraw":
        sizes = np.array([len(c) for c in contexts])
        shape = (len(contexts), int(sizes.max()))
        slots = np.zeros(shape, dtype=np.int64)
        correct = np.zeros(shape, dtype=bool)
        for e, c in enumerate(contexts):
            slots[e, : len(c)] = e * alpha0.shape[1] + c.labels
            correct[e, : len(c)] = c.predictions == c.labels
        pad = np.arange(shape[1]) >= sizes[:, None]
        keep = np.arange(lams.max()) < lams[:, None]
        # a set, not np.unique, which imports numpy.ma (about 1 MB) on first use
        kth = np.array(sorted({int(n) - 1 for n in lams if n > 0}), dtype=np.intp)
        return cls(alpha0, beta0, slots, correct, pad, keep, kth)

    def picks(self, rng: np.random.Generator) -> np.ndarray:
        """One uniform subset without replacement per expert, all from one
        ``rng.random`` draw: every item gets a uniform key, padding ``inf``,
        and row e takes its ``lam_e`` smallest keys, one ``argpartition``
        for every row. Returns (experts, max subsample size) columns; expert
        e's subset is ``picks[e][keep[e]]``."""
        keys = rng.random(self.pad.shape)
        keys[self.pad] = np.inf
        if not self.kth.size:
            return np.zeros(self.keep.shape, dtype=np.intp)
        return np.argpartition(keys, self.kth, axis=1)[:, : self.keep.shape[1]]

    def mu(self, rng: np.random.Generator) -> np.ndarray:
        """The cohort's posterior means on one fresh subsample, counted by
        ``posterior_means`` as ``build_representation`` counts them."""
        experts, width = self.pad.shape
        items = (self.picks(rng) + width * np.arange(experts)[:, None])[self.keep]
        return posterior_means(
            self.alpha0, self.beta0, self.slots.ravel()[items], self.correct.ravel()[items]
        )


def _fit(
    classifier: DenseNet,
    rejector: DenseNet,
    query: Dataset,
    cfg: TrainConfig,
    batch_loss,
    batch_aux,
    experts: int,
    val: Dataset,
    val_aux,
    patience: int | None,
) -> TrainResult:
    """The training loop both methods share.

    ``batch_loss`` is ``ea_l2d_loss_grads`` or ``pop_avg_loss_grads``; its
    last data argument comes from ``batch_aux(idx, rng)`` for the query rows ``idx``
    of a batch, and is ``val_aux`` on the validation set. Losses are summed
    over ``experts`` terms per example and averaged over all of them. Each
    epoch draws one permutation from the ``cfg.seed`` stream, then the
    batches draw their own picks from it in order. A non-finite loss raises
    ``TrainingDivergenceError`` naming the epoch and batch. Every epoch ends
    with the validation loss on ``val``. With ``patience``, training stops
    once it has not improved for more than ``patience`` epochs, and the best
    epoch's networks are returned.
    """
    rng = np.random.default_rng(cfg.seed)
    history: list[EpochStats] = []
    best_loss = math.inf
    best_epoch: int | None = None
    best_nets: tuple[DenseNet, DenseNet] | None = None
    stale = 0
    pair_count = len(query) * experts
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(query))
        c_sum = d_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch_c, batch_d, clf_grads, rej_grads, _ = batch_loss(
                classifier, rejector, query.features[idx], query.labels[idx],
                batch_aux(idx, rng),
            )
            if not math.isfinite(batch_c + batch_d):
                raise TrainingDivergenceError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            scale = 1.0 / (len(idx) * experts)
            classifier = sgd_step(classifier, clf_grads, cfg, scale)
            rejector = sgd_step(rejector, rej_grads, cfg, scale)
            c_sum += batch_c
            d_sum += batch_d

        val_c, val_d, *_ = batch_loss(
            classifier, rejector, val.features, val.labels, val_aux, want_grads=False
        )
        val_loss = (val_c + val_d) / (len(val) * experts)
        history.append(
            EpochStats(epoch, (c_sum + d_sum) / pair_count, c_sum / pair_count,
                       d_sum / pair_count, val_loss)
        )
        if val_loss < best_loss:
            best_loss = val_loss
            best_epoch = epoch
            best_nets = (classifier, rejector)  # sgd_step never mutates a network
            stale = 0
        else:
            stale += 1
        if patience is not None and stale > patience:
            break

    if patience is not None and best_nets is not None:
        classifier, rejector = best_nets
    return TrainResult(classifier, rejector, history, best_epoch)


def train(
    classifier: DenseNet,
    rejector: DenseNet,
    query: Dataset,
    contexts: Sequence[ContextSet],
    priors: Sequence[PriorElicitation | None],
    cfg: TrainConfig,
    val: Dataset,
    lam: int | None = None,
    patience: int | None = None,
) -> TrainResult:
    """Joint training loop over query batches and the expert cohort.

    ``priors`` has one entry per context, an elicitation or ``None`` for the
    uniform prior; their Beta parameters are built once as (experts, K)
    arrays. Every expert's context is laid out once as (experts, C_max)
    arrays (``_ContextDraw``). Each batch re-subsamples every expert's
    context to ``lam`` items (default: half the context) with one
    ``rng.random`` draw and one ``argpartition`` for the whole cohort,
    recounts the cohort's posterior means with two bincounts, averages the
    factored joint loss over (example, expert) pairs in one stacked
    forward/backward pass, and takes one SGD step on both networks.
    Early stopping monitors the validation loss computed with full-context
    posterior means, built by ``build_representation`` before the loop.
    """
    if len(query) == 0:
        raise ValueError("query data must be nonempty")
    if not contexts:
        raise ValueError("need at least one expert context set")
    if len(priors) != len(contexts):
        raise ValueError("priors must align with the expert contexts")
    lams = _resolve_lambda(lam, contexts)

    alpha0, beta0 = prior_arrays(priors, classifier.output_dim)
    full_mu = build_representation(
        alpha0, beta0, [c.labels for c in contexts], [c.predictions for c in contexts]
    )
    draw = _ContextDraw.build(contexts, lams, alpha0, beta0)

    return _fit(
        classifier, rejector, query, cfg, ea_l2d_loss_grads, lambda idx, rng: draw.mu(rng),
        len(contexts), val, full_mu, patience,
    )


def train_pop_avg(
    classifier: DenseNet,
    rejector: DenseNet,
    query: Dataset,
    query_predictions: np.ndarray,
    cfg: TrainConfig,
    val: Dataset,
    val_predictions: np.ndarray,
    patience: int | None = None,
) -> TrainResult:
    """Baseline training loop driven by the mode of expert predictions."""
    if len(query) == 0:
        raise ValueError("query data must be nonempty")
    num_classes = classifier.output_dim
    modes = mode_labels(query_predictions, num_classes)
    if len(modes) != len(query):
        raise ValueError("query predictions must align with the query data")
    weights = (modes == query.labels).astype(np.float64)
    val_weights = (mode_labels(val_predictions, num_classes) == val.labels).astype(np.float64)

    return _fit(
        classifier, rejector, query, cfg, pop_avg_loss_grads, lambda idx, rng: weights[idx], 1,
        val, val_weights, patience,
    )
