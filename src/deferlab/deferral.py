"""Joint classifier/rejector deferral: loss functions, gradients, training.

The rejector never sees expert identity. Its four inputs are the classifier's
softmax at the expert's expertise class, the classifier's top softmax value,
and the expert's posterior mean accuracy at the classifier's top class and at
the expertise class. The deferral logit joins the class logits in a
(K+1)-way softmax; the deferral half of the loss activates only on examples
whose true label is the expertise class, weighted by the expert's posterior
mean accuracy there, so no expert predictions on query data are needed.

The losses work on batches, and each method has one loss path, the core
that training runs: ``_ea_l2d`` or ``_pop_avg``. ``_ea_l2d`` evaluates the
whole expert cohort in one stacked step per batch: the experts enter only
through their (experts, K) matrix of posterior means, so the classifier runs
forward and backward once, and the rejector once on all (example, expert)
rows built by ``rejector_inputs``. The (K+1)-way joint softmax of every
pair is never built: its K class columns are the same for every expert, so
``_joint_terms`` factors it through the class softmax and logsumexp of each
example, and a batch costs O(experts * batch + batch * K). A core returns
its two loss sums and nothing else: training reads no more. Both methods
train through one loop, ``_fit``, which checks nothing per batch, runs
every pass in one workspace per network (``nets.Workspace``) and steps
both networks in place as one packed vector; the finite-difference checks
of the test suite call the same cores on one-row batches, and build the
relu and argmax kink pattern they compare from passes of their own.

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
    Workspace,
    backward,
    forward,
    forward_cached,
    sgd_step,
    softmax,
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


def _check_call(
    classifier: DenseNet, rejector: DenseNet, rejector_width: int, query: Dataset, val: Dataset
) -> None:
    """A training call's contract, checked once per call before any work,
    so the loss cores check nothing: the classifier reads as many inputs as
    the query and validation features have columns, the rejector reads
    ``rejector_width`` inputs and has one output, its deferral logit, and
    both splits are nonempty with labels in [0, K). Else ``ValueError``
    naming the network and both widths, or the split."""
    for name, data in (("query", query), ("validation", val)):
        if data.features.shape[1] != classifier.input_dim:
            raise ValueError(
                f"the classifier reads {classifier.input_dim} inputs but the {name} "
                f"features have {data.features.shape[1]} columns"
            )
    if rejector.input_dim != rejector_width:
        raise ValueError(
            f"the rejector reads {rejector.input_dim} inputs but this method gives it "
            f"{rejector_width}"
        )
    if rejector.output_dim != 1:
        raise ValueError(
            f"the rejector must have one output, its deferral logit; it has "
            f"{rejector.output_dim}"
        )
    num_classes = classifier.output_dim
    for name, data in (("query", query), ("validation", val)):
        if len(data) == 0:
            raise ValueError(f"{name} data must be nonempty")
        if data.labels.min() < 0 or data.labels.max() >= num_classes:
            raise ValueError(f"{name} labels must lie in [0, {num_classes})")


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
    ``rho`` comes from ``nets.softmax(logits)``, and ``lse`` is
    ``top + log(total)`` from its other two terms. Returns
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
    net: DenseNet, x: np.ndarray, cached: bool, ws: Workspace | None
) -> tuple[np.ndarray, Activations | None]:
    """Network output, plus every layer's cached output when ``cached``
    (gradients follow), both written into ``ws``.

    Without gradients the plain ``forward`` runs, which keeps one row
    block's layers at a time: validation batches are large, and holding
    every layer of one would raise peak memory for nothing.
    """
    if cached:
        outs = forward_cached(net, x, ws)
        return outs[-1], outs
    return forward(net, x, ws), None


# The width of an ea_l2d rejector's input: the four columns of ``rejector_inputs``.
REJECTOR_INPUTS = 4


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


def _ea_l2d(
    classifier: DenseNet,
    rejector: DenseNet,
    features: np.ndarray,
    labels: np.ndarray,
    mu: np.ndarray,
    out: tuple[DenseNet, DenseNet] | None = None,
    ws: tuple[Workspace, Workspace] | None = None,
):
    """The ea_l2d loss sums and summed gradients across a batch for a whole
    cohort.

    Returns ``(classifier_sum, deferral_sum)``. With ``out``, a pair of
    gradient destinations ``(classifier_grads, rejector_grads)``, each a
    ``DenseNet`` with its network's widths over a gradient vector, both
    summed gradients are written into them; without it only the loss sums
    are computed, as validation needs.
    With ``ws``, a pair ``(classifier_workspace, rejector_workspace)``,
    every pass writes into those buffers instead of new arrays (see
    ``nets.Workspace``), with the same bits.
    ``features`` is (batch, dim) and ``labels`` (batch,); ``mu``
    holds the posterior mean accuracies, shape (experts, K), and the sums
    run over every (example, expert) pair. No expert prediction on the
    batch is consumed: the experts enter only through ``mu``.

    The classifier runs once. The rejector runs once on the
    (experts * batch, 4) block of every expert's inputs, rows ordered
    expert-major. The loss is the factored joint of ``_joint_terms``: each
    pair's (K+1)-way softmax is expressed through the example's class
    softmax ``rho`` and logsumexp, so no (experts * batch, K+1) array is
    built and a finite logit always gives a finite loss. Gradients flow
    into the rejector and into the classifier both directly through the
    class logits and through the class softmax feeding the rejector inputs;
    both routes are summed over experts before the one classifier backward
    pass. Each network runs forward once; its backward pass reads the
    cached layer outputs, and only the rejector's backward computes an
    input gradient.

    Labels are not checked: the caller ensures they lie in [0, K), as
    ``train`` does once per call. The caller also enters the floating-point
    state the loss runs in, ``np.errstate(over="ignore", invalid="ignore")``,
    as ``_fit`` does around its whole loop.
    """
    experts, num_classes = mu.shape
    batch = len(labels)
    clf_ws, rej_ws = ws or (None, None)
    logits, clf_acts = _forward_for(classifier, features, out is not None, clf_ws)
    rho, top, total = softmax(logits)
    lse = top + np.log(total)
    kstar = np.argmax(rho, axis=1)
    estar = np.argmax(mu, axis=1)
    rej_inputs = rejector_inputs(rho, kstar, mu)
    rej_out, rej_acts = _forward_for(rejector, rej_inputs, out is not None, rej_ws)
    weights = np.where(labels == estar[:, None], mu[:, labels], 0.0)
    classifier_sum, deferral_sum, d_g, d_logits = _joint_terms(
        logits, rho, lse, rej_out.reshape(experts, batch), labels, weights
    )

    if out is None:
        return classifier_sum, deferral_sum

    clf_grads, rej_grads = out
    d_feats = backward(
        rejector, rej_acts, d_g.reshape(-1, 1), rej_grads, want_input_grad=True, ws=rej_ws
    ).reshape(experts, batch, 4)

    onehot_estar = np.zeros((experts, num_classes))
    onehot_estar[np.arange(experts), estar] = 1.0
    d_rho = d_feats[:, :, 0].T @ onehot_estar
    d_rho[np.arange(batch), kstar] += d_feats[:, :, 1].sum(axis=0)
    d_logits += rho * (d_rho - (d_rho * rho).sum(axis=1, keepdims=True))

    backward(classifier, clf_acts, d_logits, clf_grads, ws=clf_ws)
    return classifier_sum, deferral_sum


def _pop_avg(
    classifier: DenseNet,
    rejector: DenseNet,
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    out: tuple[DenseNet, DenseNet] | None = None,
    ws: tuple[Workspace, Workspace] | None = None,
):
    """The baseline's counterpart of ``_ea_l2d``, with the same return
    pair, ``out``, ``ws`` and caller contract: the rejector consumes the raw
    features directly, and example i's deferral term is weighted by
    ``weights[i]``, 1 when the mode of the experts' predictions is its label
    and 0 otherwise. It is the one-expert case of the same factored joint
    loss."""
    clf_ws, rej_ws = ws or (None, None)
    logits, clf_acts = _forward_for(classifier, features, out is not None, clf_ws)
    rej_out, rej_acts = _forward_for(rejector, features, out is not None, rej_ws)
    rho, top, total = softmax(logits)
    lse = top + np.log(total)
    classifier_sum, deferral_sum, d_g, d_logits = _joint_terms(
        logits, rho, lse, rej_out.T, labels, weights[None, :]
    )

    if out is None:
        return classifier_sum, deferral_sum

    clf_grads, rej_grads = out
    backward(rejector, rej_acts, d_g.T, rej_grads, ws=rej_ws)
    backward(classifier, clf_acts, d_logits, clf_grads, ws=clf_ws)
    return classifier_sum, deferral_sum


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

    ``batch_loss`` is ``_ea_l2d`` or ``_pop_avg``, the loss cores, whose
    labels the caller has checked and whose two sums are all a batch reads
    back; its last data argument comes from ``batch_aux(idx, rng)`` for the
    query rows ``idx`` of a batch, and is ``val_aux`` on the validation
    set. Losses are summed over ``experts`` terms per example and averaged
    over all of them; the rejector runs on one row per term. Each epoch
    draws one permutation from the ``cfg.seed`` stream, then the batches
    draw their own picks from it in order.

    Each network gets one ``Workspace`` for the call, and every training
    batch and every validation pass writes into it: the layer outputs,
    deltas, relu masks and ``ones`` of a batch are its buffers' leading
    rows, so no batch allocates a layer-sized array. A workspace belongs to
    this call alone and is never shared between threads. Its output buffers
    hold a full batch's rows or the largest row block of the validation
    rows, whichever is more; its deltas and masks a full batch's rows, as
    backward never runs on validation.

    Training works on one packed vector, the classifier's parameters then
    the rejector's, copied from the given networks, which stay untouched;
    both networks are views into it. Their gradients' destination is a
    gradient vector of the same size, with two networks over its slices
    built the same way: each batch's backward passes write into it, and one
    ``sgd_step`` updates the whole vector in place. A non-finite loss, or a
    non-finite weight after the update, raises ``TrainingDivergenceError``
    naming the epoch and batch, and for a weight which network. Every epoch
    ends with the validation loss on ``val``. With ``patience``, the vector
    is copied whenever the validation loss improves, training stops once it
    has not improved for more than ``patience`` epochs, and the best epoch's
    networks are returned. The returned networks own their vectors. The
    caller has checked the networks and the data (``_check_call``).
    """
    params = np.concatenate([classifier.params, rejector.params])
    grads = np.empty_like(params)
    split = classifier.params.size
    nets, grad_nets = (
        (DenseNet(v[:split], classifier.widths), DenseNet(v[split:], rejector.widths))
        for v in (params, grads)
    )
    batch_rows = min(cfg.batch_size, len(query))
    workspaces = (
        Workspace.of(classifier, batch_rows, len(val)),
        Workspace.of(rejector, batch_rows * experts, len(val) * experts),
    )
    rng = np.random.default_rng(cfg.seed)
    history: list[EpochStats] = []
    best_loss = math.inf
    best_epoch: int | None = None
    best_params: np.ndarray | None = None
    stale = 0
    pair_count = len(query) * experts
    # An overflow or an invalid operation raises no numpy warning: its
    # non-finite values make the loss or the updated weights non-finite,
    # and that is reported instead.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(query))
            c_sum = d_sum = 0.0
            for batch, start in enumerate(range(0, len(order), cfg.batch_size)):
                idx = order[start : start + cfg.batch_size]
                batch_c, batch_d = batch_loss(
                    *nets, query.features[idx], query.labels[idx], batch_aux(idx, rng),
                    grad_nets, workspaces,
                )
                if not math.isfinite(batch_c + batch_d):
                    raise TrainingDivergenceError(
                        f"non-finite loss at epoch {epoch}, batch {batch}"
                    )
                try:
                    sgd_step(params, grads, cfg, 1.0 / (len(idx) * experts))
                except TrainingDivergenceError:
                    bad = [
                        name for name, net in zip(("classifier", "rejector"), nets)
                        if not np.isfinite(net.params).all()
                    ]
                    raise TrainingDivergenceError(
                        f"non-finite {' and '.join(bad)} weights after the update at "
                        f"epoch {epoch}, batch {batch}"
                    ) from None
                c_sum += batch_c
                d_sum += batch_d

            val_c, val_d = batch_loss(
                *nets, val.features, val.labels, val_aux, None, workspaces
            )
            val_loss = (val_c + val_d) / (len(val) * experts)
            history.append(
                EpochStats(epoch, (c_sum + d_sum) / pair_count, c_sum / pair_count,
                           d_sum / pair_count, val_loss)
            )
            if val_loss < best_loss:
                best_loss = val_loss
                best_epoch = epoch
                stale = 0
                if patience is not None:
                    best_params = params.copy()
            else:
                stale += 1
            if patience is not None and stale > patience:
                break

    if best_params is not None:
        params = best_params
    return TrainResult(
        DenseNet(params[:split].copy(), classifier.widths),
        DenseNet(params[split:].copy(), rejector.widths),
        history,
        best_epoch,
    )


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
    forward/backward pass, and takes one SGD step on both networks, packed
    into one vector (see ``_fit``). The given networks stay untouched.
    Early stopping monitors the validation loss computed with full-context
    posterior means, built by ``build_representation`` before the loop.
    """
    _check_call(classifier, rejector, REJECTOR_INPUTS, query, val)
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
        classifier, rejector, query, cfg, _ea_l2d, lambda idx, rng: draw.mu(rng),
        len(contexts), val, full_mu, patience,
    )


def _mode_weights(preds: np.ndarray, data: Dataset, num_classes: int, name: str) -> np.ndarray:
    """1.0 where the mode of the experts' predictions is a row's label, else 0.0."""
    modes = mode_labels(preds, num_classes)
    if len(modes) != len(data):
        raise ValueError(
            f"{name} predictions have {len(modes)} columns, which must align with "
            f"the {len(data)} rows of the {name} data"
        )
    return (modes == data.labels).astype(np.float64)


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
    """Baseline training loop driven by the mode of expert predictions, which
    must have one column per row of ``query`` and of ``val``. Its rejector
    reads the raw features."""
    _check_call(classifier, rejector, query.features.shape[1], query, val)
    weights = _mode_weights(query_predictions, query, classifier.output_dim, "query")
    val_weights = _mode_weights(val_predictions, val, classifier.output_dim, "validation")

    return _fit(
        classifier, rejector, query, cfg, _pop_avg, lambda idx, rng: weights[idx], 1,
        val, val_weights, patience,
    )
