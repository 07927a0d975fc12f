"""Joint classifier/rejector deferral: loss functions, gradients, training.

The rejector never sees expert identity. Its four inputs are the classifier's
softmax at the expert's expertise class, the classifier's top softmax value,
and the expert's posterior mean accuracy at the classifier's top class and at
the expertise class. The deferral logit joins the class logits in a
(K+1)-way softmax; the deferral half of the loss activates only on examples
whose true label is the expertise class, weighted by the expert's posterior
mean accuracy there, so no expert predictions on query data are needed.

Training and validation evaluate the whole expert cohort in one stacked
step per batch (``_ea_stacked``): the experts enter only through their
(experts, K) matrix of posterior means, so the classifier runs forward and
backward once, and the rejector once on all (example, expert) rows. The
single-example ``ea_l2d_loss_grads`` is the same step with one expert.

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
from .experts import (
    BehaviouralRepresentation,
    PriorElicitation,
    posterior_means,
    prior_arrays,
)
from .nets import (
    DenseNet,
    TrainConfig,
    backward,
    forward,
    relu_pattern,
    sgd_step,
    softmax,
)
from .simulate import ContextSet, Dataset


@dataclass(frozen=True)
class RejectorInput:
    rho_expertise: float
    rho_max: float
    mu_at_kstar: float
    mu_expertise: float

    def __post_init__(self) -> None:
        if self.rho_max < self.rho_expertise:
            raise ValueError("rho_max must be >= rho_expertise")

    def as_vector(self) -> np.ndarray:
        return np.array(
            [self.rho_expertise, self.rho_max, self.mu_at_kstar, self.mu_expertise]
        )


@dataclass
class JointLogits:
    class_logits: np.ndarray
    deferral_logit: float

    def __post_init__(self) -> None:
        self.class_logits = np.asarray(self.class_logits, dtype=np.float64)
        if self.class_logits.ndim != 1 or self.class_logits.size == 0:
            raise ValueError("class_logits must be a nonempty vector")
        if not (np.all(np.isfinite(self.class_logits)) and math.isfinite(self.deferral_logit)):
            raise ValueError("logits must be finite")

    @property
    def num_classes(self) -> int:
        return len(self.class_logits)

    def stacked(self) -> np.ndarray:
        return np.append(self.class_logits, self.deferral_logit)


@dataclass(frozen=True)
class DeferralDecision:
    defer: bool
    predicted_class: int | None = None
    chosen_expert: int | None = None


@dataclass(frozen=True)
class LossBreakdown:
    classifier_term: float
    deferral_term: float
    total: float

    @staticmethod
    def of(classifier_term: float, deferral_term: float) -> "LossBreakdown":
        return LossBreakdown(classifier_term, deferral_term, classifier_term + deferral_term)


def assemble_rejector_inputs(
    class_softmax: np.ndarray, rep: BehaviouralRepresentation
) -> RejectorInput:
    """Extract the four rejector scalars from a class distribution and an
    expert representation; argmax ties break to the lowest class index."""
    rho = np.asarray(class_softmax, dtype=np.float64)
    if rho.ndim != 1 or len(rho) != rep.num_classes:
        raise ValueError("class softmax and representation must agree on the class count")
    if abs(rho.sum() - 1.0) > 1e-9 or np.any(rho < 0):
        raise ValueError("class softmax must be a probability vector")
    kstar = int(np.argmax(rho))
    estar = rep.expertise_class
    return RejectorInput(
        rho_expertise=float(rho[estar]),
        rho_max=float(rho[kstar]),
        mu_at_kstar=float(rep.mu[kstar]),
        mu_expertise=float(rep.mu[estar]),
    )


def deferral_logit(rejector: DenseNet, inputs: RejectorInput) -> float:
    if rejector.input_dim != 4 or rejector.output_dim != 1:
        raise ValueError("the deferral rejector must map 4 inputs to 1 logit")
    return float(forward(rejector, inputs.as_vector())[0])


def ea_l2d_loss(
    joint: JointLogits, true_label: int, rep: BehaviouralRepresentation
) -> LossBreakdown:
    """Cross entropy over the K+1 logits plus the gated deferral term.

    The deferral half activates only when the expert's expertise class equals
    the true label and is scaled by the expert's posterior mean accuracy on
    that label. Expert predictions are never consumed.
    """
    num_classes = joint.num_classes
    if not 0 <= true_label < num_classes:
        raise ValueError(f"true_label {true_label} out of range")
    if rep.num_classes != num_classes:
        raise ValueError("representation class count does not match the logits")
    q = softmax(joint.stacked())
    classifier_term = -math.log(q[true_label])
    weight = float(rep.mu[true_label]) if rep.expertise_class == true_label else 0.0
    deferral_term = weight * -math.log(q[num_classes])
    return LossBreakdown.of(classifier_term, deferral_term)


def mode_prediction(predictions: Sequence[int], num_classes: int) -> int:
    """Most frequent label; ties break to the lowest class index."""
    preds = np.asarray(predictions, dtype=np.int64)
    if preds.size == 0:
        raise ValueError("mode of an empty prediction list")
    if np.any(preds < 0) or np.any(preds >= num_classes):
        raise ValueError("prediction out of range")
    return int(np.argmax(np.bincount(preds, minlength=num_classes)))


def pop_avg_loss(
    joint: JointLogits, true_label: int, expert_predictions: Sequence[int]
) -> LossBreakdown:
    """Baseline loss: the deferral term is active when the mode of the
    experts' predictions matches the true label."""
    num_classes = joint.num_classes
    if not 0 <= true_label < num_classes:
        raise ValueError(f"true_label {true_label} out of range")
    mode = mode_prediction(expert_predictions, num_classes)
    q = softmax(joint.stacked())
    classifier_term = -math.log(q[true_label])
    deferral_term = (1.0 if mode == true_label else 0.0) * -math.log(q[num_classes])
    return LossBreakdown.of(classifier_term, deferral_term)


def decide(joint: JointLogits, expert_id: int | None = None) -> DeferralDecision:
    """Defer exactly when the deferral logit reaches the best class logit."""
    best = float(np.max(joint.class_logits))
    if joint.deferral_logit >= best:
        return DeferralDecision(defer=True, chosen_expert=expert_id)
    return DeferralDecision(defer=False, predicted_class=int(np.argmax(joint.class_logits)))


# --- batched loss/gradient machinery -------------------------------------


def _softmax_rows(m: np.ndarray) -> np.ndarray:
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _loss_sums(
    q: np.ndarray, labels: np.ndarray, weights: np.ndarray, num_classes: int
) -> tuple[float, float]:
    """Summed loss terms; an inactive deferral term stays zero even when the
    deferral probability underflows."""
    with np.errstate(divide="ignore"):
        classifier_sum = float(-np.log(q[np.arange(len(labels)), labels]).sum())
        defer_nll = -np.log(q[:, num_classes])
    deferral_sum = float((weights * np.where(weights > 0, defer_nll, 0.0)).sum())
    return classifier_sum, deferral_sum


def _joint_grad_rows(
    q: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """d/d(logits) of sum_i [-log q_y - w_i * log q_defer], rows = examples."""
    batch, width = q.shape
    d = (1.0 + weights)[:, None] * q
    d[np.arange(batch), labels] -= 1.0
    d[:, width - 1] -= weights
    return d


def _rejector_inputs(rho: np.ndarray, kstar: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The four rejector inputs of every (expert, example) pair.

    ``rho`` is the class softmax (batch, K), ``kstar`` its row argmax and
    ``mu`` the posterior means (experts, K). Rows of the (experts * batch, 4)
    result are ordered expert-major; expertise-class ties break to the
    lowest class index.
    """
    experts, batch = len(mu), len(rho)
    estar = np.argmax(mu, axis=1)
    feats = np.empty((experts, batch, 4))
    feats[:, :, 0] = rho[:, estar].T
    feats[:, :, 1] = rho[np.arange(batch), kstar]
    feats[:, :, 2] = mu[:, kstar]
    feats[:, :, 3] = mu[np.arange(experts), estar][:, None]
    return feats.reshape(experts * batch, 4)


def _ea_stacked(
    classifier: DenseNet,
    rejector: DenseNet,
    features: np.ndarray,
    labels: np.ndarray,
    mu: np.ndarray,
    want_grads: bool = True,
):
    """Loss sums and summed gradients across a batch for a whole cohort.

    ``mu`` holds the posterior mean accuracies, shape (experts, K); the sums
    run over every (example, expert) pair. The classifier runs once. The
    rejector runs once on the (experts * batch, 4) block of every expert's
    inputs, rows ordered expert-major. Gradients flow into the rejector and
    into the classifier both directly through the class logits and through
    the class softmax feeding the rejector inputs; both routes are summed
    over experts before the one classifier backward pass. The returned
    pattern encodes the discrete choices (relu signs of both networks, the
    classifier argmax) for finite-difference kink detection.
    """
    experts, num_classes = mu.shape
    batch = len(labels)
    logits = forward(classifier, features)
    rho = _softmax_rows(logits)
    kstar = np.argmax(rho, axis=1)
    estar = np.argmax(mu, axis=1)
    rows = np.arange(batch)
    feats = _rejector_inputs(rho, kstar, mu)
    g_defer = forward(rejector, feats)[:, 0]
    joint = np.empty((experts, batch, num_classes + 1))
    joint[:, :, :num_classes] = logits
    joint[:, :, num_classes] = g_defer.reshape(experts, batch)
    q = _softmax_rows(joint.reshape(experts * batch, num_classes + 1))

    pair_labels = np.tile(labels, experts)
    weights = np.where(labels == estar[:, None], mu[:, labels], 0.0).ravel()
    classifier_sum, deferral_sum = _loss_sums(q, pair_labels, weights, num_classes)

    if not want_grads:
        return classifier_sum, deferral_sum, None, None, None

    d_joint = _joint_grad_rows(q, pair_labels, weights)
    rej_grads = backward(rejector, feats, d_joint[:, num_classes:])
    d_feats = rej_grads.input_grad.reshape(experts, batch, 4)

    onehot_estar = np.zeros((experts, num_classes))
    onehot_estar[np.arange(experts), estar] = 1.0
    d_rho = d_feats[:, :, 0].T @ onehot_estar
    d_rho[rows, kstar] += d_feats[:, :, 1].sum(axis=0)
    d_logits = d_joint[:, :num_classes].reshape(experts, batch, num_classes).sum(axis=0)
    d_logits += rho * (d_rho - (d_rho * rho).sum(axis=1, keepdims=True))

    clf_grads = backward(classifier, features, d_logits)

    pattern = np.concatenate(
        [
            relu_pattern(classifier, features).astype(np.int64),
            relu_pattern(rejector, feats).astype(np.int64),
            kstar,
        ]
    )
    return classifier_sum, deferral_sum, clf_grads, rej_grads, pattern


def _pop_batch(
    classifier: DenseNet,
    rejector: DenseNet,
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    want_grads: bool = True,
):
    """Baseline batch: the rejector consumes the raw features directly."""
    num_classes = classifier.output_dim
    logits = forward(classifier, features)
    g_defer = forward(rejector, features)[:, 0]
    joint = np.column_stack([logits, g_defer])
    q = _softmax_rows(joint)

    classifier_sum, deferral_sum = _loss_sums(q, labels, weights, num_classes)

    if not want_grads:
        return classifier_sum, deferral_sum, None, None, None

    d_joint = _joint_grad_rows(q, labels, weights)
    rej_grads = backward(rejector, features, d_joint[:, num_classes][:, None])
    clf_grads = backward(classifier, features, d_joint[:, :num_classes])
    pattern = np.concatenate(
        [
            relu_pattern(classifier, features).astype(np.int64),
            relu_pattern(rejector, features).astype(np.int64),
        ]
    )
    return classifier_sum, deferral_sum, clf_grads, rej_grads, pattern


def ea_l2d_loss_grads(
    classifier: DenseNet,
    rejector: DenseNet,
    x: np.ndarray,
    true_label: int,
    rep: BehaviouralRepresentation,
):
    """Single-example loss with gradients for both networks.

    Returns ``(LossBreakdown, classifier_grads, rejector_grads, pattern)``
    where the pattern array encodes the discrete choices (relu signs and the
    classifier argmax) for finite-difference kink detection.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.array([true_label])
    cs, ds, cg, rg, pattern = _ea_stacked(classifier, rejector, x, labels, rep.mu[None, :])
    return LossBreakdown.of(cs, ds), cg, rg, pattern


def pop_avg_loss_grads(
    classifier: DenseNet,
    rejector: DenseNet,
    x: np.ndarray,
    true_label: int,
    expert_predictions: Sequence[int],
):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    mode = mode_prediction(expert_predictions, classifier.output_dim)
    weights = np.array([1.0 if mode == true_label else 0.0])
    labels = np.array([true_label])
    cs, ds, cg, rg, pattern = _pop_batch(classifier, rejector, x, labels, weights)
    return LossBreakdown.of(cs, ds), cg, rg, pattern


# --- training loops -------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_classifier_term: float
    train_deferral_term: float
    val_loss: float | None


@dataclass
class TrainResult:
    classifier: DenseNet
    rejector: DenseNet
    history: list[EpochStats]
    best_epoch: int | None = None


def _resolve_lambda(lam: int | None, contexts: Sequence[ContextSet]) -> list[int]:
    sizes = [len(c) for c in contexts]
    if lam is None:
        return [math.ceil(s / 2) for s in sizes]
    if lam < 0:
        raise ValueError("context subsample size must be >= 0")
    if lam > min(sizes):
        raise ValueError(
            f"context subsample size {lam} exceeds the smallest context ({min(sizes)})"
        )
    return [lam] * len(contexts)


def _mean_loss_ea(
    classifier: DenseNet, rejector: DenseNet, data: Dataset, mu: np.ndarray
) -> float:
    cs, ds, *_ = _ea_stacked(
        classifier, rejector, data.features, data.labels, mu, want_grads=False
    )
    return (cs + ds) / (len(data) * len(mu))


def _mean_loss_pop(
    classifier: DenseNet, rejector: DenseNet, data: Dataset, weights: np.ndarray
) -> float:
    cs, ds, *_ = _pop_batch(
        classifier, rejector, data.features, data.labels, weights, want_grads=False
    )
    return (cs + ds) / len(data)


def train(
    classifier: DenseNet,
    rejector: DenseNet,
    query: Dataset,
    contexts: Sequence[ContextSet],
    priors: Sequence[PriorElicitation | None] | None,
    cfg: TrainConfig,
    lam: int | None = None,
    val: Dataset | None = None,
    patience: int | None = None,
) -> TrainResult:
    """Joint training loop over query batches and the expert cohort.

    The prior Beta parameters are built once as (experts, K) arrays. Each
    batch re-subsamples every expert's context to ``lam`` items (default:
    half the context), recounts the posterior means of the whole cohort with
    one bincount, averages the loss over (example, expert) pairs in one
    stacked forward/backward pass, and takes one SGD step on both networks.
    Early stopping monitors the validation loss computed with full-context
    posterior means.
    """
    if len(query) == 0:
        raise ValueError("query data must be nonempty")
    if not contexts:
        raise ValueError("need at least one expert context set")
    num_classes = classifier.output_dim
    prior_list = list(priors) if priors is not None else [None] * len(contexts)
    if len(prior_list) != len(contexts):
        raise ValueError("priors must align with the expert contexts")
    lams = _resolve_lambda(lam, contexts)

    rng = np.random.default_rng(cfg.seed)
    alpha0, beta0 = prior_arrays(prior_list, num_classes)
    full_mu = posterior_means(
        alpha0, beta0, [c.labels for c in contexts], [c.predictions for c in contexts]
    )

    history: list[EpochStats] = []
    best_loss = math.inf
    best_epoch: int | None = None
    best_nets: tuple[DenseNet, DenseNet] | None = None
    stale = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(query))
        c_sum = d_sum = 0.0
        pair_count = 0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            feats = query.features[idx]
            labels = query.labels[idx]
            picks = [rng.choice(len(c), size=n, replace=False) for c, n in zip(contexts, lams)]
            mu = posterior_means(
                alpha0,
                beta0,
                [c.labels[i] for c, i in zip(contexts, picks)],
                [c.predictions[i] for c, i in zip(contexts, picks)],
            )
            batch_c, batch_d, clf_grads, rej_grads, _ = _ea_stacked(
                classifier, rejector, feats, labels, mu
            )
            if not math.isfinite(batch_c + batch_d):
                raise TrainingDivergenceError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            scale = 1.0 / (len(idx) * len(contexts))
            classifier = sgd_step(classifier, clf_grads.scaled(scale), cfg)
            rejector = sgd_step(rejector, rej_grads.scaled(scale), cfg)
            c_sum += batch_c
            d_sum += batch_d
            pair_count += len(idx) * len(contexts)

        val_loss = (
            _mean_loss_ea(classifier, rejector, val, full_mu) if val is not None else None
        )
        history.append(
            EpochStats(epoch, (c_sum + d_sum) / pair_count, c_sum / pair_count,
                       d_sum / pair_count, val_loss)
        )
        if val_loss is not None and val_loss < best_loss:
            best_loss = val_loss
            best_epoch = epoch
            best_nets = (classifier.copy(), rejector.copy())
            stale = 0
        else:
            stale += 1
        if patience is not None and val is not None and stale > patience:
            break

    if patience is not None and best_nets is not None:
        classifier, rejector = best_nets
    return TrainResult(classifier, rejector, history, best_epoch)


def mode_labels(prediction_matrix: np.ndarray, num_classes: int) -> np.ndarray:
    """Column-wise mode over experts; shape (experts, examples) -> (examples,)."""
    preds = np.asarray(prediction_matrix, dtype=np.int64)
    if preds.ndim != 2 or preds.shape[0] == 0:
        raise ValueError("prediction matrix must be (experts, examples) with >= 1 expert")
    return np.array(
        [mode_prediction(preds[:, i], num_classes) for i in range(preds.shape[1])],
        dtype=np.int64,
    )


def train_pop_avg(
    classifier: DenseNet,
    rejector: DenseNet,
    query: Dataset,
    query_predictions: np.ndarray,
    cfg: TrainConfig,
    val: Dataset | None = None,
    val_predictions: np.ndarray | None = None,
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
    if val is not None:
        if val_predictions is None:
            raise ValueError("validation data requires validation predictions")
        val_modes = mode_labels(val_predictions, num_classes)
        val_weights = (val_modes == val.labels).astype(np.float64)

    rng = np.random.default_rng(cfg.seed)
    history: list[EpochStats] = []
    best_loss = math.inf
    best_epoch: int | None = None
    best_nets: tuple[DenseNet, DenseNet] | None = None
    stale = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(query))
        c_sum = d_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            cs, ds, cg, rg, _ = _pop_batch(
                classifier, rejector, query.features[idx], query.labels[idx], weights[idx]
            )
            if not math.isfinite(cs + ds):
                raise TrainingDivergenceError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            scale = 1.0 / len(idx)
            classifier = sgd_step(classifier, cg.scaled(scale), cfg)
            rejector = sgd_step(rejector, rg.scaled(scale), cfg)
            c_sum += cs
            d_sum += ds

        val_loss = (
            _mean_loss_pop(classifier, rejector, val, val_weights) if val is not None else None
        )
        n = len(query)
        history.append(EpochStats(epoch, (c_sum + d_sum) / n, c_sum / n, d_sum / n, val_loss))
        if val_loss is not None and val_loss < best_loss:
            best_loss = val_loss
            best_epoch = epoch
            best_nets = (classifier.copy(), rejector.copy())
            stale = 0
        else:
            stale += 1
        if patience is not None and val is not None and stale > patience:
            break

    if patience is not None and best_nets is not None:
        classifier, rejector = best_nets
    return TrainResult(classifier, rejector, history, best_epoch)
