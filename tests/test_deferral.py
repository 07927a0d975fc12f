import dataclasses
import inspect
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deferlab.deferral
from deferlab.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from deferlab.deferral import (
    EpochStats,
    _ContextDraw,
    _ea_l2d,
    _pop_avg,
    _resolve_lambda,
    mode_labels,
    rejector_inputs,
    train,
    train_pop_avg,
)
from deferlab.errors import TrainingDivergenceError
from deferlab.evaluation import case_priorities
from deferlab.experts import PriorElicitation, build_representation, prior_arrays
from deferlab.nets import (
    DenseNet,
    TrainConfig,
    Workspace,
    dense_net,
    forward,
    row_blocks,
)
from deferlab.simulate import (
    ContextSet,
    Dataset,
    SyntheticTaskSpec,
    draw_context_set,
    expert_predict_batch,
    generate_gaussian_task,
    make_population,
)
from gradcheck import call_core, finite_difference_check, joined_masks, net_of


def rep_from_mu(mu_values):
    """One expert's posterior-mean row a / (a + b) from the Beta parameters
    a = 10 mu and b = 10 (1 - mu)."""
    mu = np.asarray(mu_values, dtype=np.float64)
    a, b = 10.0 * mu, 10.0 * (1.0 - mu)
    return a / (a + b)


def inputs_row(rho, rep):
    """The (1, 4) rejector inputs of one example and one expert:
    (rho at the expertise class, top rho, mu at the top class, mu at the
    expertise class)."""
    rho = np.asarray(rho, dtype=np.float64)[None, :]
    return rejector_inputs(rho, np.argmax(rho, axis=1), rep[None, :])


def constant_net(outputs, input_dim):
    """A one-layer net that outputs ``outputs`` exactly, whatever its input."""
    outputs = np.atleast_1d(np.asarray(outputs, dtype=np.float64))
    return net_of([(np.zeros((len(outputs), input_dim)), outputs)])


def joint_softmax(class_logits, deferral_logit):
    z = np.append(class_logits, deferral_logit)
    q = np.exp(z - z.max())
    return q / q.sum()


def mode_weight(predictions, true_label, num_classes):
    """The baseline's one-row deferral weight: 1 when the mode of one
    example's expert predictions is its label."""
    preds = np.asarray(predictions, dtype=np.int64)[:, None]
    return (mode_labels(preds, num_classes) == true_label).astype(np.float64)


def ea_loss(class_logits, deferral_logit, true_label, rep):
    """The ea_l2d (classifier, deferral) loss of a one-row batch whose joint
    logits are given."""
    clf, rej = constant_net(class_logits, 2), constant_net(deferral_logit, 4)
    return call_core(
        _ea_l2d, clf, rej, np.zeros((1, 2)), np.array([true_label]), rep[None, :]
    )[:2]


def pop_loss(class_logits, deferral_logit, true_label, predictions):
    clf, rej = constant_net(class_logits, 2), constant_net(deferral_logit, 2)
    weights = mode_weight(predictions, true_label, len(class_logits))
    return call_core(
        _pop_avg, clf, rej, np.zeros((1, 2)), np.array([true_label]), weights
    )[:2]


class TestAssembleRejectorInputs:
    def test_reference_example(self):
        rep = rep_from_mu([0.9, 0.5, 0.5])
        rho_expertise, rho_max, mu_at_kstar, mu_expertise = inputs_row([0.1, 0.7, 0.2], rep)[0]
        assert rho_expertise == pytest.approx(0.1)
        assert rho_max == pytest.approx(0.7)
        assert mu_at_kstar == pytest.approx(0.5)
        assert mu_expertise == pytest.approx(0.9)

    def test_one_hot_at_expertise_class(self):
        rep = rep_from_mu([0.9, 0.4, 0.4])
        rho_expertise, rho_max, mu_at_kstar, mu_expertise = inputs_row([1.0, 0.0, 0.0], rep)[0]
        assert rho_expertise == rho_max == 1.0
        assert mu_at_kstar == mu_expertise

    def test_low_confidence_contrast_case(self):
        # classifier puts nothing on the expertise class and the expert is
        # weak at the predicted class
        rep = rep_from_mu([0.9, 0.22, 0.5])
        rho_expertise, rho_max, mu_at_kstar, _ = inputs_row([0.0, 0.6, 0.4], rep)[0]
        assert rho_expertise == 0.0
        assert rho_max == pytest.approx(0.6)
        assert mu_at_kstar == pytest.approx(0.22)

    def test_argmax_tie_breaks_low(self):
        rep = rep_from_mu([0.5, 0.5, 0.9])
        _, rho_max, mu_at_kstar, _ = inputs_row([0.4, 0.4, 0.2], rep)[0]
        assert rho_max == pytest.approx(0.4)
        assert mu_at_kstar == pytest.approx(0.5)

    def test_dimension_mismatch_rejected(self):
        rep = rep_from_mu([0.5, 0.5])
        with pytest.raises(ValueError, match="class count"):
            inputs_row([0.2, 0.3, 0.5], rep)


class TestDeferralLogit:
    def test_zero_rejector_outputs_zero(self):
        rejector = net_of([(np.zeros((8, 4)), np.zeros(8)), (np.zeros((1, 8)), np.zeros(1))])
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.dirichlet(np.ones(3))
            assert forward(rejector, inputs_row(q, rep_from_mu([0.6, 0.5, 0.4])))[0, 0] == 0.0

    def test_identical_representations_identical_logits(self):
        rejector = dense_net([4, 32, 32, 1], 5)
        rng = np.random.default_rng(6)
        rep_a = rep_from_mu([0.8, 0.3, 0.55])
        rep_b = rep_from_mu([0.8, 0.3, 0.55])
        for _ in range(100):
            rho = rng.dirichlet(np.ones(3))
            ga = forward(rejector, inputs_row(rho, rep_a))
            gb = forward(rejector, inputs_row(rho, rep_b))
            assert ga[0, 0] == gb[0, 0]

    def test_wrong_input_dim_rejected(self):
        with pytest.raises(ValueError):
            forward(dense_net([3, 1], 0), inputs_row([0.5, 0.5], rep_from_mu([0.5, 0.5])))


class TestPermutationInvariance:
    def test_joint_relabeling_leaves_inputs_unchanged(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = int(rng.integers(3, 8))
            rho = rng.dirichlet(np.ones(k))
            params = rng.uniform(1, 9, size=(k, 2))  # (alpha_k, beta_k) per class
            rep = params[:, 0] / (params[:, 0] + params[:, 1])
            base = inputs_row(rho, rep)

            perm = rng.permutation(k)
            rho_p = np.empty(k)
            rho_p[perm] = rho
            params_p = np.empty_like(params)
            params_p[perm] = params
            rep_p = params_p[:, 0] / (params_p[:, 0] + params_p[:, 1])
            permuted = inputs_row(rho_p, rep_p)

            assert np.array_equal(permuted, base)
            assert np.argmax(rep_p) == perm[np.argmax(rep)]


class TestEaL2dLoss:
    def test_reduces_to_cross_entropy_when_not_expertise(self):
        rep = rep_from_mu([0.9, 0.5, 0.5])  # expertise class 0
        logits = np.array([0.3, -0.2, 1.0])
        classifier_term, deferral_term = ea_loss(logits, 0.5, 1, rep)
        assert deferral_term == 0.0
        assert classifier_term + deferral_term == pytest.approx(
            -math.log(joint_softmax(logits, 0.5)[1]), abs=1e-12
        )

    def test_uniform_logits_reference_values(self):
        rep = rep_from_mu([0.8, 0.5, 0.5])
        classifier_term, deferral_term = ea_loss(np.zeros(3), 0.0, 0, rep)
        assert classifier_term == pytest.approx(math.log(4), abs=1e-12)
        assert deferral_term == pytest.approx(0.8 * math.log(4), abs=1e-12)

    def test_deferral_term_linear_in_posterior_mean(self):
        logits = np.array([0.4, -1.0, 0.2])
        _, full = ea_loss(logits, 0.7, 0, rep_from_mu([0.8, 0.2, 0.2]))
        _, half = ea_loss(logits, 0.7, 0, rep_from_mu([0.4, 0.2, 0.2]))
        assert half == pytest.approx(full / 2, abs=1e-12)

    def test_far_apart_logits_give_the_exact_finite_loss(self):
        # the label logit and the deferral logit both trail by 800, so their
        # joint softmax entries underflow to 0; the loss is still finite
        rep = rep_from_mu([0.9, 0.5, 0.5])  # expertise class 0, mu 0.9
        logits = np.array([-800.0, 0.0, 0.0])
        c, d = ea_loss(logits, -800.0, 0, rep)
        assert c == pytest.approx(800 + math.log(2), rel=1e-15)
        assert d == pytest.approx(0.9 * (800 + math.log(2)), rel=1e-15)
        clf, rej = constant_net(logits, 2), constant_net(-800.0, 4)
        _, _, cg, rg, _ = call_core(_ea_l2d, clf, rej, np.zeros((1, 2)), np.array([0]), rep[None])
        assert np.isfinite(cg.params).all()
        # d/dg = (1 + w) sigmoid(g - lse) - w, and sigmoid(-800 - log 2) = 0
        assert rg.params[-1] == pytest.approx(-0.9, rel=1e-15)

    def test_signature_consumes_no_expert_prediction(self):
        # the experts enter through ``mu`` alone; the networks, the batch and
        # the buffers the passes write into (``out``, ``ws``) are the rest
        params = list(inspect.signature(_ea_l2d).parameters)
        assert params == [
            "classifier", "rejector", "features", "labels", "mu", "out", "ws"
        ]
        # and it returns its two loss sums, nothing an expert could be read from
        clf, rej = constant_net([0.2, 0.1, 0.0], 2), constant_net(0.5, 4)
        out = (DenseNet(np.zeros_like(clf.params), clf.widths),
               DenseNet(np.zeros_like(rej.params), rej.widths))
        for grads in (out, None):
            sums = _ea_l2d(clf, rej, np.zeros((1, 2)), np.array([0]),
                           rep_from_mu([0.9, 0.5, 0.5])[None], grads)
            assert len(sums) == 2 and all(isinstance(v, float) for v in sums)


class TestPopAvgLoss:
    def test_mode_match_activates_deferral(self):
        assert pop_loss(np.zeros(3), 0.0, 2, [2, 2, 1])[1] > 0

    def test_mode_tie_breaks_low_and_deactivates(self):
        assert pop_loss(np.zeros(3), 0.0, 1, [0, 1])[1] == 0.0

    def test_oracle_population_reduces_to_single_expert_loss(self):
        logits = np.array([0.1, 0.2, -0.5])
        q = joint_softmax(logits, 0.3)
        for y in range(3):
            total = sum(pop_loss(logits, 0.3, y, [y, y, y, y]))
            assert total == pytest.approx(-math.log(q[y]) - math.log(q[3]), abs=1e-12)

    def test_far_apart_logits_give_the_exact_finite_loss(self):
        # label 1 trails the top logit by 800, and so does the deferral logit
        assert pop_loss(np.array([800.0, 0.0]), 0.0, 1, [1, 1]) == (800.0, 800.0)

    def test_empty_predictions_rejected(self):
        with pytest.raises(ValueError):
            pop_loss(np.zeros(3), 0.0, 0, [])

    def test_mode_helpers(self):
        assert mode_weight([2, 2, 1], 2, 3) == 1.0
        assert mode_weight([0, 1], 0, 3) == 1.0
        matrix = np.array([[0, 2], [1, 2], [1, 0]])
        assert mode_labels(matrix, 3).tolist() == [1, 2]


def column_modes(matrix, num_classes):
    """Per-column mode by counting in Python; ties go to the lowest class."""
    modes = []
    for column in np.asarray(matrix).T:
        counts = [0] * num_classes
        for label in column:
            counts[label] += 1
        modes.append(counts.index(max(counts)))
    return modes


class TestModeLabels:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_classes=st.integers(3, 40),
        experts=st.integers(1, 40),
        examples=st.integers(0, 40),
        spread=st.integers(1, 40),
    )
    def test_matches_per_column_counts(self, seed, num_classes, experts, examples, spread):
        # a small ``spread`` crowds the votes onto few classes, so ties are common
        rng = np.random.default_rng(seed)
        matrix = rng.integers(min(spread, num_classes), size=(experts, examples))
        modes = mode_labels(matrix, num_classes)
        assert modes.shape == (examples,)
        assert modes.tolist() == column_modes(matrix, num_classes)

    def test_even_split_breaks_to_lowest_class(self):
        matrix = np.array([[3, 1, 2], [1, 3, 0], [2, 2, 1], [0, 0, 0]])
        assert mode_labels(matrix, 4).tolist() == [0, 0, 0]

    def test_out_of_range_prediction_rejected(self):
        with pytest.raises(ValueError, match="range"):
            mode_labels(np.array([[0, 3]]), 3)
        with pytest.raises(ValueError, match="range"):
            mode_labels(np.array([[0, -1]]), 3)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            mode_labels(np.zeros((0, 4), dtype=np.int64), 3)
        with pytest.raises(ValueError):
            mode_labels(np.zeros(4, dtype=np.int64), 3)


def decision(class_logits, deferral_logit):
    """One case's (priority, defer, predicted class): it defers exactly when
    its priority is >= 0, that is, when the deferral logit reaches the best
    class logit."""
    logits = np.asarray(class_logits, dtype=np.float64)[None, :]
    rejector = constant_net(deferral_logit, 1)
    priority = case_priorities(logits, rejector, np.zeros((1, 1)), None)[0, 0]
    return priority, priority >= 0, int(np.argmax(logits))


class TestDecide:
    def test_defer_is_inclusive_at_equality(self):
        priority, defer, _ = decision([1.0, 2.0, 3.0], 3.0)
        assert priority == 0.0 and defer

    def test_confident_classifier_predicts(self):
        _, defer, predicted = decision([5.0, 0.0, 0.0], -1.0)
        assert not defer and predicted == 0

    def test_strictly_below_max_predicts(self):
        _, defer, predicted = decision([1.0, 3.0], 3.0 - 1e-15)
        assert not defer and predicted == 1


class TestLossGradients:
    def test_joint_loss_gradients_match_finite_differences(self):
        for trial in range(5):
            srng = np.random.default_rng(trial)
            clf = dense_net([5, 8, 4], srng)
            rej = dense_net([4, 8, 8, 1], srng)
            x = srng.normal(size=(1, 5))
            y = np.array([srng.integers(4)])
            a, b = srng.uniform(1, 9, size=(4, 2)).T
            mu = (a / (a + b))[None, :]

            def clf_loss(net):
                cs, ds, cg, _, pat = call_core(_ea_l2d, net, rej, x, y, mu)
                return cs + ds, cg, pat

            def rej_loss(net):
                cs, ds, _, rg, pat = call_core(_ea_l2d, clf, net, x, y, mu)
                return cs + ds, rg, pat

            assert finite_difference_check(clf, clf_loss, 1e-6).max_rel_error < 1e-6
            assert finite_difference_check(rej, rej_loss, 1e-6).max_rel_error < 1e-6

    def test_baseline_loss_gradients_match_finite_differences(self):
        for trial in range(5):
            srng = np.random.default_rng(trial + 100)
            clf = dense_net([5, 8, 4], srng)
            rej = dense_net([5, 8, 1], srng)
            x = srng.normal(size=(1, 5))
            y = np.array([srng.integers(4)])
            weights = mode_weight(srng.integers(4, size=3), y[0], 4)

            def clf_loss(net):
                cs, ds, cg, _, pat = call_core(_pop_avg, net, rej, x, y, weights)
                return cs + ds, cg, pat

            def rej_loss(net):
                cs, ds, _, rg, pat = call_core(_pop_avg, clf, net, x, y, weights)
                return cs + ds, rg, pat

            assert finite_difference_check(clf, clf_loss, 1e-6).max_rel_error < 1e-6
            assert finite_difference_check(rej, rej_loss, 1e-6).max_rel_error < 1e-6


def small_training_setup(seed=0, p=0.0, separation=8.0, num_classes=4):
    spec = SyntheticTaskSpec(
        num_classes=num_classes,
        dim=6,
        separation=separation,
        noise_scale=1.0,
        train_size=160,
        val_size=60,
        test_size=60,
        context_pool_size=120,
        seed=seed,
    )
    task = generate_gaussian_task(spec)
    experts = make_population(num_classes, 2, p, seed=seed)
    ctx_rng = np.random.default_rng(seed + 1)
    contexts = [draw_context_set(e, task.context_pool, 40, num_classes, ctx_rng) for e in experts]
    return task, experts, contexts


METHODS = ("ea_l2d", "pop_avg")


def run_method(method, setup, cfg, hidden=8, patience=None):
    """Train one method from fresh networks on a small setup's query data,
    validating on its val split."""
    task, experts, contexts = setup
    clf = dense_net([6, hidden, 4], 0)
    if method == "ea_l2d":
        rej = dense_net([4, hidden, 1], 1)
        return train(
            clf, rej, task.train, contexts, [None] * len(contexts), cfg, val=task.val,
            patience=patience,
        )
    rng = np.random.default_rng(0)
    query_preds, val_preds = (
        np.stack([expert_predict_batch(e, data.labels, 4, rng) for e in experts])
        for data in (task.train, task.val)
    )
    return train_pop_avg(
        clf, dense_net([6, hidden, 1], 1), task.train, query_preds, cfg,
        val=task.val, val_predictions=val_preds, patience=patience,
    )


class TestTrain:
    # The first four tests cover both methods, which share one training loop.

    def test_zero_epochs_leaves_networks_unchanged(self):
        setup = small_training_setup()
        cfg = TrainConfig(learning_rate=0.1, batch_size=32, epochs=0, seed=0)
        for method in METHODS:
            result = run_method(method, setup, cfg)
            assert np.array_equal(result.classifier.params, dense_net([6, 8, 4], 0).params)
            assert result.history == []

    def test_same_seed_identical_history(self):
        setup = small_training_setup()
        cfg = TrainConfig(learning_rate=0.2, batch_size=32, epochs=8, seed=3)
        for method in METHODS:
            first, second = (run_method(method, setup, cfg) for _ in range(2))
            assert [e.train_loss for e in first.history] == [e.train_loss for e in second.history]
            assert np.array_equal(first.classifier.params, second.classifier.params)
            assert np.array_equal(first.rejector.params, second.rejector.params)

    def test_out_of_range_query_label_rejected(self):
        # a label of K or -1 would otherwise index the deferral column
        task, experts, contexts = small_training_setup()
        preds, val_preds = (
            np.stack([expert_predict_batch(e, data.labels, 4, np.random.default_rng(0))
                      for e in experts])
            for data in (task.train, task.val)
        )
        cfg = TrainConfig(learning_rate=0.1, batch_size=32, epochs=1, seed=0)
        for bad in (4, -1):
            labels = task.train.labels.copy()
            labels[5] = bad
            query = type(task.train)(task.train.features, labels)
            with pytest.raises(ValueError, match="labels"):
                train(dense_net([6, 8, 4], 0), dense_net([4, 8, 1], 1), query, contexts,
                      [None] * len(contexts), cfg, val=task.val)
            with pytest.raises(ValueError, match="labels"):
                train_pop_avg(dense_net([6, 8, 4], 0), dense_net([6, 8, 1], 1), query, preds,
                              cfg, val=task.val, val_predictions=val_preds)

    def test_divergence_names_the_batch(self):
        setup = small_training_setup()
        cfg = TrainConfig(learning_rate=1e12, batch_size=32, epochs=10, seed=0)
        for method in METHODS:
            with pytest.raises(TrainingDivergenceError, match="batch"):
                run_method(method, setup, cfg)

    def test_early_stopping_restores_best_epoch(self):
        setup = small_training_setup(p=0.0, separation=8.0)
        cfg = TrainConfig(learning_rate=0.3, batch_size=32, epochs=40, seed=0)
        for method in METHODS:
            result = run_method(method, setup, cfg, hidden=16, patience=3)
            best = result.best_epoch
            assert best is not None
            val_losses = [e.val_loss for e in result.history]
            assert val_losses[best] == min(val_losses)
            # training stops once patience + 1 epochs pass without a new best
            assert len(result.history) in (40, best + 5)
            # the returned networks are the ones training had after the best
            # epoch: validation draws nothing from the training stream
            ref = run_method(method, setup, TrainConfig(0.3, 32, best + 1, seed=0), hidden=16)
            assert np.array_equal(result.classifier.params, ref.classifier.params)
            assert np.array_equal(result.rejector.params, ref.rejector.params)

    def test_loss_improves_on_separable_task_with_oracle_experts(self):
        task, _, contexts = small_training_setup(p=0.0, separation=8.0)
        clf = dense_net([6, 16, 4], 0)
        rej = dense_net([4, 16, 1], 1)
        cfg = TrainConfig(learning_rate=0.2, batch_size=32, epochs=50, seed=0)
        result = train(clf, rej, task.train, contexts, [None] * len(contexts), cfg, val=task.val)
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_oversized_context_subsample_rejected(self):
        task, _, contexts = small_training_setup()
        clf = dense_net([6, 8, 4], 0)
        rej = dense_net([4, 8, 1], 1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=32, epochs=1, seed=0)
        with pytest.raises(ValueError, match="subsample"):
            train(
                clf, rej, task.train, contexts, [None] * len(contexts), cfg, val=task.val, lam=1000
            )

    def test_empty_query_rejected(self):
        task, _, contexts = small_training_setup()
        clf = dense_net([6, 8, 4], 0)
        rej = dense_net([4, 8, 1], 1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=32, epochs=1, seed=0)
        empty = type(task.train)(np.zeros((0, 6)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="nonempty"):
            train(clf, rej, empty, contexts, [None] * len(contexts), cfg, val=task.val)

    def test_trained_rejector_prefers_strong_expert_inputs(self):
        # after training, an input where the expert is strong at the
        # classifier's predicted class should collect a larger deferral
        # logit than one where the expert is weak, at equal confidence
        task, _, contexts = small_training_setup(p=0.2, separation=2.0)
        clf = dense_net([6, 16, 4], 0)
        rej = dense_net([4, 16, 16, 1], 1)
        cfg = TrainConfig(learning_rate=0.2, batch_size=32, epochs=60, seed=0)
        result = train(clf, rej, task.train, contexts, [None] * len(contexts), cfg, val=task.val)
        strong, weak = forward(result.rejector, np.array([[0.58, 0.58, 0.89, 0.89],
                                                          [0.0, 0.58, 0.22, 0.89]]))[:, 0]
        assert strong > weak


def random_contexts(seed, sizes, num_classes):
    rng = np.random.default_rng(seed)
    return [
        ContextSet(rng.integers(num_classes, size=n), rng.integers(num_classes, size=n))
        for n in sizes
    ]


def context_draw(contexts, lam, num_classes, priors=None):
    priors = priors or [None] * len(contexts)
    alpha0, beta0 = prior_arrays(priors, num_classes)
    return _ContextDraw.build(contexts, _resolve_lambda(lam, contexts), alpha0, beta0)


def subsets(draw, picks):
    return [row[keep] for row, keep in zip(picks, draw.keep)]


class TestContextDraw:
    """The batched per-batch context subsample: one uniform draw for the
    whole cohort, ragged contexts included."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 30), min_size=1, max_size=6),
        lam=st.none() | st.integers(0, 30),
    )
    def test_each_expert_gets_its_size_of_distinct_real_items(self, seed, sizes, lam):
        if lam is not None:
            lam = min(lam, min(sizes))
        contexts = random_contexts(seed, sizes, 3)
        draw = context_draw(contexts, lam, 3)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            for size, subset in zip(sizes, subsets(draw, draw.picks(rng))):
                want = math.ceil(size / 2) if lam is None else lam
                assert len(subset) == len(set(subset.tolist())) == want
                assert np.all((subset >= 0) & (subset < size))

    @pytest.mark.parametrize("lam", [0, 5])
    def test_none_and_all_of_the_smallest_context(self, lam):
        sizes = [5, 9, 7]
        draw = context_draw(random_contexts(0, sizes, 3), lam, 3)
        picked = subsets(draw, draw.picks(np.random.default_rng(0)))
        assert [len(p) for p in picked] == [lam] * 3
        if lam == 5:
            assert sorted(picked[0].tolist()) == list(range(5))

    def test_every_item_is_picked_at_the_uniform_rate(self):
        # a uniform subset of lam out of C includes each item with
        # probability lam / C; the count over n draws is binomial
        sizes, n = [7, 3, 10, 1], 20_000
        draw = context_draw(random_contexts(1, sizes, 3), None, 3)
        rng = np.random.default_rng(2024)
        counts = [np.zeros(size) for size in sizes]
        for _ in range(n):
            for count, subset in zip(counts, subsets(draw, draw.picks(rng))):
                count[subset] += 1
        for size, count in zip(sizes, counts):
            rate = math.ceil(size / 2) / size
            sigma = math.sqrt(n * rate * (1 - rate))
            assert np.all(np.abs(count - n * rate) <= 5 * sigma + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 30), min_size=1, max_size=6),
        num_classes=st.integers(2, 6),
        elicited=st.booleans(),
    )
    def test_mu_equals_build_representation_on_the_same_picks(
        self, seed, sizes, num_classes, elicited
    ):
        contexts = random_contexts(seed, sizes, num_classes)
        rng = np.random.default_rng(seed)
        priors = [
            PriorElicitation(rng.random(num_classes), rng.random(num_classes), 2 + 20 * rng.random())
            if elicited else None
            for _ in sizes
        ]
        draw = context_draw(contexts, None, num_classes, priors)
        mu = draw.mu(np.random.default_rng(seed))
        picked = subsets(draw, draw.picks(np.random.default_rng(seed)))
        alpha0, beta0 = prior_arrays(priors, num_classes)
        expected = build_representation(
            alpha0, beta0,
            [c.labels[p] for c, p in zip(contexts, picked)],
            [c.predictions[p] for c, p in zip(contexts, picked)],
        )
        assert mu.tobytes() == expected.tobytes()


def reference_train(method, setup, clf, rej, cfg, patience=None):
    """``run_method``'s training as a plain loop in test code: the loss
    cores through ``call_core``, and a value-semantics SGD step that builds each
    network's next vector as a new array,
    ``w - lr * (grad * scale + weight_decay * w)``. Returns
    ``(classifier, rejector, history, best_epoch)``."""
    task, experts, contexts = setup
    if method == "ea_l2d":
        draw = context_draw(contexts, None, 4)
        val_aux = build_representation(
            *prior_arrays([None] * len(contexts), 4),
            [c.labels for c in contexts], [c.predictions for c in contexts],
        )
        loss, aux, cohort = _ea_l2d, lambda idx, rng: draw.mu(rng), len(contexts)
    else:
        rng = np.random.default_rng(0)
        weights, val_aux = (
            (mode_labels(np.stack([expert_predict_batch(e, d.labels, 4, rng) for e in experts]), 4)
             == d.labels).astype(np.float64)
            for d in (task.train, task.val)
        )
        loss, aux, cohort = _pop_avg, lambda idx, rng: weights[idx], 1

    def step(net, grads, scale):
        w = net.params
        new = w - cfg.learning_rate * (grads.params * scale + cfg.weight_decay * w)
        return DenseNet(new, net.widths)

    rng = np.random.default_rng(cfg.seed)
    history, best, best_epoch, stale = [], (math.inf, None), None, 0
    n, pairs = len(task.train), len(task.train) * cohort
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        c_sum = d_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            c, d, clf_grads, rej_grads, _ = call_core(
                loss, clf, rej, task.train.features[idx], task.train.labels[idx], aux(idx, rng)
            )
            scale = 1.0 / (len(idx) * cohort)
            clf, rej = step(clf, clf_grads, scale), step(rej, rej_grads, scale)
            c_sum, d_sum = c_sum + c, d_sum + d
        val_c, val_d, *_ = call_core(
            loss, clf, rej, task.val.features, task.val.labels, val_aux, grads=False
        )
        val_loss = (val_c + val_d) / (len(task.val) * cohort)
        history.append(EpochStats(
            epoch, (c_sum + d_sum) / pairs, c_sum / pairs, d_sum / pairs, val_loss
        ))
        if val_loss < best[0]:
            best, best_epoch, stale = (val_loss, (clf, rej)), epoch, 0
        else:
            stale += 1
        if patience is not None and stale > patience:
            break
    if patience is not None and best_epoch is not None:
        clf, rej = best[1]
    return clf, rej, history, best_epoch


class TestPackedTraining:
    """Training steps one packed vector in place; it must equal a loop that
    steps fresh arrays, and must leave its inputs alone."""

    @settings(max_examples=12, deadline=None)
    @given(
        method=st.sampled_from(METHODS),
        seed=st.integers(0, 2**16),
        lr=st.sampled_from([0.1, 0.4, 0.9]),
        wd=st.sampled_from([0.0, 1e-3, 0.05]),
        batch_size=st.sampled_from([16, 48, 160]),
        epochs=st.integers(0, 8),
        patience=st.sampled_from([None, 0, 1]),
    )
    # each of these stops early, on an epoch after the best one
    @example(method="ea_l2d", seed=0, lr=0.9, wd=1e-3, batch_size=16, epochs=8, patience=0)
    @example(method="pop_avg", seed=0, lr=0.9, wd=1e-3, batch_size=16, epochs=8, patience=0)
    def test_matches_a_value_semantics_reference_loop(
        self, method, seed, lr, wd, batch_size, epochs, patience
    ):
        setup = small_training_setup()
        cfg = TrainConfig(lr, batch_size, epochs, weight_decay=wd, seed=seed)
        clf, rej = dense_net([6, 8, 4], 0), dense_net([4 if method == "ea_l2d" else 6, 8, 1], 1)
        given_bytes = clf.params.tobytes(), rej.params.tobytes()
        result = run_method(method, setup, cfg, patience=patience)
        ref_clf, ref_rej, history, best_epoch = reference_train(
            method, setup, clf, rej, cfg, patience
        )
        assert result.classifier.params.tobytes() == ref_clf.params.tobytes()
        assert result.rejector.params.tobytes() == ref_rej.params.tobytes()
        assert result.history == history and result.best_epoch == best_epoch
        assert (clf.params.tobytes(), rej.params.tobytes()) == given_bytes

    def test_given_networks_untouched_and_results_own_their_memory(self):
        setup = small_training_setup()
        task, experts, contexts = setup
        cfg = TrainConfig(learning_rate=0.3, batch_size=32, epochs=3, seed=0)
        for method in METHODS:
            for patience in (None, 1):
                clf = dense_net([6, 8, 4], 0)
                rej = dense_net([4 if method == "ea_l2d" else 6, 8, 1], 1)
                given_bytes = clf.params.tobytes(), rej.params.tobytes()
                if method == "ea_l2d":
                    result = train(clf, rej, task.train, contexts, [None] * len(contexts), cfg,
                                   val=task.val, patience=patience)
                else:
                    preds = np.stack([task.train.labels] * 2)
                    val_preds = np.stack([task.val.labels] * 2)
                    result = train_pop_avg(clf, rej, task.train, preds, cfg, val=task.val,
                                           val_predictions=val_preds, patience=patience)
                assert (clf.params.tobytes(), rej.params.tobytes()) == given_bytes
                out = (result.classifier.params, result.rejector.params)
                assert not np.shares_memory(*out)
                for a in out:
                    assert a.base is None and a.flags.c_contiguous
                    assert not np.shares_memory(a, clf.params)
                    assert not np.shares_memory(a, rej.params)
                assert result.classifier.params.tobytes() != given_bytes[0]

    @pytest.mark.parametrize("network", ["classifier", "rejector"])
    @pytest.mark.parametrize("method", METHODS)
    def test_weight_divergence_names_the_network(self, method, network):
        # Weights scaled to ~1e10 keep the loss finite, but a weight decay of
        # 1e300 times them overflows in the update; the other network's
        # weights, below 1, stay finite for one step.
        task, experts, contexts = small_training_setup()
        clf = dense_net([6, 8, 4], 0)
        rej = dense_net([4 if method == "ea_l2d" else 6, 8, 1], 1)
        if network == "classifier":
            clf = DenseNet(clf.params * 1e10, clf.widths)
        else:
            rej = DenseNet(rej.params * 1e10, rej.widths)
        cfg = TrainConfig(learning_rate=1.0, batch_size=32, epochs=2, weight_decay=1e300)
        with pytest.raises(TrainingDivergenceError) as err:
            if method == "ea_l2d":
                train(clf, rej, task.train, contexts, [None] * len(contexts), cfg, val=task.val)
            else:
                preds, val_preds = np.stack([task.train.labels]), np.stack([task.val.labels])
                train_pop_avg(clf, rej, task.train, preds, cfg, val=task.val,
                              val_predictions=val_preds)
        other = {"classifier": "rejector", "rejector": "classifier"}[network]
        assert str(err.value) == (
            f"non-finite {network} weights after the update at epoch 0, batch 0"
        )
        assert other not in str(err.value)

    def test_empty_validation_set_rejected_by_name(self):
        task, experts, contexts = small_training_setup()
        empty = type(task.val)(np.zeros((0, 6)), np.zeros(0, dtype=np.int64))
        cfg = TrainConfig(learning_rate=0.1, batch_size=32, epochs=1, seed=0)
        with pytest.raises(ValueError, match="validation data must be nonempty"):
            train(dense_net([6, 8, 4], 0), dense_net([4, 8, 1], 1), task.train, contexts,
                  [None] * len(contexts), cfg, val=empty)
        with pytest.raises(ValueError, match="validation data must be nonempty"):
            train_pop_avg(dense_net([6, 8, 4], 0), dense_net([6, 8, 1], 1), task.train,
                          np.stack([task.train.labels]), cfg, val=empty,
                          val_predictions=np.zeros((1, 0), dtype=np.int64))

    @pytest.mark.parametrize("bad", [4, -1])
    def test_out_of_range_validation_label_rejected_by_name(self, bad):
        task, experts, contexts = small_training_setup()
        labels = task.val.labels.copy()
        labels[7] = bad
        val = type(task.val)(task.val.features, labels)
        cfg = TrainConfig(learning_rate=0.1, batch_size=32, epochs=1, seed=0)
        with pytest.raises(ValueError, match=r"validation labels must lie in \[0, 4\)"):
            train(dense_net([6, 8, 4], 0), dense_net([4, 8, 1], 1), task.train, contexts,
                  [None] * len(contexts), cfg, val=val)
        with pytest.raises(ValueError, match=r"validation labels must lie in \[0, 4\)"):
            train_pop_avg(dense_net([6, 8, 4], 0), dense_net([6, 8, 1], 1), task.train,
                          np.stack([task.train.labels]), cfg, val=val,
                          val_predictions=np.stack([labels.clip(0, 3)]))

    @pytest.mark.parametrize("method", METHODS)
    def test_call_core_runs_a_core_in_the_training_error_state(self, method, monkeypatch):
        # the gradient tests call the cores through ``call_core``; they must
        # see the floating-point state training runs them in
        states = []
        name = {"ea_l2d": "_ea_l2d", "pop_avg": "_pop_avg"}[method]
        real = getattr(deferlab.deferral, name)

        def recording(*args):
            states.append(np.geterr())
            return real(*args)

        monkeypatch.setattr(deferlab.deferral, name, recording)
        run_method(method, small_training_setup(), TrainConfig(0.1, 80, 1))
        assert len(states) == 3  # two batches and the validation pass
        call_core(
            lambda *args: states.append(np.geterr()) or (0.0, 0.0),
            None, None, None, None, None, grads=False,
        )
        assert all(state == states[-1] for state in states)
        assert states[-1] != np.geterr()

    def test_labels_checked_once_per_training_call(self, monkeypatch):
        checked = []
        real = deferlab.deferral._check_labels

        def counting(labels, *args):
            checked.append(len(labels))
            return real(labels, *args)

        monkeypatch.setattr(deferlab.deferral, "_check_labels", counting)
        cfg = TrainConfig(learning_rate=0.1, batch_size=16, epochs=3, seed=0)
        for method in METHODS:
            checked.clear()
            run_method(method, small_training_setup(), cfg)
            # the query set and the validation set, not every batch
            assert checked == [160, 60]

    @pytest.mark.parametrize("method", METHODS)
    def test_rejector_with_two_outputs_rejected_by_name(self, method, monkeypatch):
        # checked once per call, before a loss core meets the extra column
        def no_core(*args):
            raise AssertionError("a loss core ran")

        core = {"ea_l2d": "_ea_l2d", "pop_avg": "_pop_avg"}[method]
        monkeypatch.setattr(deferlab.deferral, core, no_core)
        task, experts, contexts = small_training_setup()
        cfg = TrainConfig(learning_rate=0.1, batch_size=16, epochs=1, seed=0)
        clf = dense_net([6, 8, 4], 0)
        with pytest.raises(ValueError, match="rejector must have one output.* has 2"):
            if method == "ea_l2d":
                train(clf, dense_net([4, 8, 2], 1), task.train, contexts,
                      [None] * len(contexts), cfg, val=task.val)
            else:
                train_pop_avg(clf, dense_net([6, 8, 2], 1), task.train,
                              np.stack([task.train.labels]), cfg, val=task.val,
                              val_predictions=np.stack([task.val.labels]))

    @staticmethod
    def train_with_widths(method, monkeypatch, clf_dims, rej_dims, val_columns=6):
        # checked once per call, before the representation or a loss core runs
        def no_work(*args, **kwargs):
            raise AssertionError("training work ran before the width check")

        for name in ("build_representation", "_ea_l2d", "_pop_avg"):
            monkeypatch.setattr(deferlab.deferral, name, no_work)
        task, experts, contexts = small_training_setup()
        val = Dataset(task.val.features[:, :val_columns], task.val.labels)
        cfg = TrainConfig(learning_rate=0.1, batch_size=16, epochs=1, seed=0)
        clf, rej = dense_net(clf_dims, 0), dense_net(rej_dims, 1)
        if method == "ea_l2d":
            train(clf, rej, task.train, contexts, [None] * len(contexts), cfg, val=val)
        else:
            train_pop_avg(clf, rej, task.train, np.stack([task.train.labels]), cfg, val=val,
                          val_predictions=np.stack([val.labels]))

    def test_ea_l2d_rejector_of_the_wrong_width_rejected_by_name(self, monkeypatch):
        with pytest.raises(ValueError, match="rejector reads 5 inputs .* gives it 4$"):
            self.train_with_widths("ea_l2d", monkeypatch, [6, 8, 4], [5, 8, 1])

    def test_pop_avg_rejector_of_the_wrong_width_rejected_by_name(self, monkeypatch):
        with pytest.raises(ValueError, match="rejector reads 4 inputs .* gives it 6$"):
            self.train_with_widths("pop_avg", monkeypatch, [6, 8, 4], [4, 8, 1])

    @pytest.mark.parametrize("method", METHODS)
    def test_classifier_of_the_wrong_width_rejected_by_name(self, method, monkeypatch):
        rej_dims = [4, 8, 1] if method == "ea_l2d" else [6, 8, 1]
        with pytest.raises(
            ValueError, match="classifier reads 5 inputs but the query features have 6 columns"
        ):
            self.train_with_widths(method, monkeypatch, [5, 8, 4], rej_dims)

    @pytest.mark.parametrize("method", METHODS)
    def test_validation_features_of_the_wrong_width_rejected_by_name(self, method, monkeypatch):
        rej_dims = [4, 8, 1] if method == "ea_l2d" else [6, 8, 1]
        with pytest.raises(
            ValueError,
            match="classifier reads 6 inputs but the validation features have 5 columns",
        ):
            self.train_with_widths(method, monkeypatch, [6, 8, 4], rej_dims, val_columns=5)


class TestOneForwardPerBatch:
    """Each training batch runs each network forward once, through the cached
    forward; the plain forward serves only the validation loss."""

    @staticmethod
    def count_forwards(monkeypatch):
        calls = {"cached": 0, "plain": 0}
        real_cached = deferlab.deferral.forward_cached
        real_plain = deferlab.deferral.forward

        def cached(net, x, ws=None):
            calls["cached"] += 1
            return real_cached(net, x, ws)

        def plain(net, x, ws=None):
            calls["plain"] += 1
            return real_plain(net, x, ws)

        monkeypatch.setattr(deferlab.deferral, "forward_cached", cached)
        monkeypatch.setattr(deferlab.deferral, "forward", plain)
        return calls

    def test_ea_l2d_epoch(self, monkeypatch):
        task, _, contexts = small_training_setup()
        calls = self.count_forwards(monkeypatch)
        clf = dense_net([6, 8, 4], 0)
        rej = dense_net([4, 8, 1], 1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=48, epochs=1, seed=0)
        train(clf, rej, task.train, contexts, [None] * len(contexts), cfg, val=task.val)
        batches = -(-len(task.train) // cfg.batch_size)
        assert batches == 4
        # one validation pass: the classifier and the rejector once each
        assert calls == {"cached": 2 * batches, "plain": 2}

    def test_pop_avg_epoch(self, monkeypatch):
        task, experts, _ = small_training_setup(p=0.5)
        rng = np.random.default_rng(0)
        qp = np.stack([expert_predict_batch(e, task.train.labels, 4, rng) for e in experts])
        vp = np.stack([expert_predict_batch(e, task.val.labels, 4, rng) for e in experts])
        calls = self.count_forwards(monkeypatch)
        clf = dense_net([6, 8, 4], 0)
        rej = dense_net([6, 8, 1], 1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=48, epochs=1, seed=0)
        train_pop_avg(clf, rej, task.train, qp, cfg, val=task.val, val_predictions=vp)
        # one validation pass: the classifier and the rejector once each
        assert calls == {"cached": 2 * 4, "plain": 2}


class TestWorkspace:
    """Training writes every pass into one workspace per network: it must
    give the bits of the passes on new arrays, and no batch may allocate a
    layer-sized array."""

    @pytest.mark.parametrize("method", METHODS)
    def test_cores_give_the_same_bits_with_and_without_a_workspace(self, method):
        rng = np.random.default_rng(7)
        clf = dense_net([6, 12, 5], rng)
        if method == "ea_l2d":
            core, rej, experts, val_rows = _ea_l2d, dense_net([4, 10, 10, 1], rng), 5, 1500
            a, b = rng.uniform(1, 9, size=(2, experts, 5))
            aux = a / (a + b)
        else:
            core, rej, experts, val_rows = _pop_avg, dense_net([6, 10, 1], rng), 1, 7500
            aux = (rng.random(val_rows) < 0.5).astype(np.float64)
        features = rng.normal(size=(val_rows, 6))
        labels = rng.integers(5, size=val_rows)
        # as ``_fit`` sizes them, for 48-row batches
        ws = (Workspace.of(clf, 48, val_rows), Workspace.of(rej, 48 * experts, val_rows * experts))
        # the validation pass spans several row blocks of the rejector
        assert len(row_blocks(val_rows * experts)) >= 3

        # a full batch, a short last batch after it (stale rows in every
        # buffer), the validation pass, then a full batch again
        for rows, grads in (
            (slice(0, 48), True), (slice(48, 65), True),
            (slice(0, val_rows), False), (slice(100, 148), True),
        ):
            batch_aux = aux if method == "ea_l2d" else aux[rows]
            args = (core, clf, rej, features[rows], labels[rows], batch_aux)
            fresh = call_core(*args, grads=grads)
            reused = call_core(*args, grads=grads, ws=ws)
            assert reused[:2] == fresh[:2]
            if not grads:
                assert reused[2:] == fresh[2:] == (None, None, None)
                continue
            for got, want in zip(reused[2:4], fresh[2:4]):
                assert got.params.tobytes() == want.params.tobytes()
            assert reused[4].dtype == fresh[4].dtype == np.int64
            assert np.array_equal(reused[4], fresh[4])
            # the masks backward left in the workspaces are the pattern's
            n = rows.stop - rows.start
            left = joined_masks(
                [m[:n] for m in ws[0].masks] + [m[: n * experts] for m in ws[1].masks]
            )
            assert np.array_equal(left, reused[4][: left.size])

    def test_no_training_batch_allocates_a_layer_sized_array(self, monkeypatch):
        # 16 experts of a 64-row batch: each 32-wide rejector layer is
        # 1024 x 32 float64, 256 KB, above the allocator's mmap threshold
        task, _, contexts = small_training_setup()
        contexts = contexts * 8
        cfg = TrainConfig(learning_rate=0.1, batch_size=64, epochs=1, seed=0)
        layer_bytes = len(contexts) * cfg.batch_size * 32 * 8
        assert layer_bytes > 128 * 1024
        peaks = {"train": [], "val": []}
        real = deferlab.deferral._ea_l2d

        def measured(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = real(*args)
            peaks["train" if args[5] is not None else "val"].append(
                tracemalloc.get_traced_memory()[1] - before
            )
            return result

        monkeypatch.setattr(deferlab.deferral, "_ea_l2d", measured)
        tracemalloc.start()
        try:
            train(dense_net([6, 16, 4], 0), dense_net([4, 32, 32, 1], 1), task.train,
                  contexts, [None] * len(contexts), cfg, val=task.val)
        finally:
            tracemalloc.stop()
        assert len(peaks["train"]) == 3 and len(peaks["val"]) == 1
        # what a pass still allocates (the rejector's 4 inputs and 1 output
        # per row, the loss terms) is narrower than one hidden layer; the
        # validation pass's 60 x 16 rejector rows are nearly a batch's 64 x 16
        assert max(peaks["train"] + peaks["val"]) < layer_bytes, peaks


class TestTrainPopAvg:
    def test_loss_improves(self):
        task, experts, _ = small_training_setup(p=0.5)
        rng = np.random.default_rng(0)
        qp = np.stack([expert_predict_batch(e, task.train.labels, 4, rng) for e in experts])
        vp = np.stack([expert_predict_batch(e, task.val.labels, 4, rng) for e in experts])
        clf = dense_net([6, 16, 4], 0)
        rej = dense_net([6, 16, 1], 1)
        cfg = TrainConfig(learning_rate=0.2, batch_size=32, epochs=30, seed=0)
        result = train_pop_avg(clf, rej, task.train, qp, cfg, val=task.val, val_predictions=vp)
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_prediction_alignment_checked(self):
        task, experts, _ = small_training_setup()
        clf = dense_net([6, 8, 4], 0)
        rej = dense_net([6, 8, 1], 1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=32, epochs=1, seed=0)
        bad = np.zeros((2, 3), dtype=np.int64)
        vp = np.stack([expert_predict_batch(e, task.val.labels, 4, np.random.default_rng(0))
                       for e in experts])
        with pytest.raises(ValueError, match="align"):
            train_pop_avg(clf, rej, task.train, bad, cfg, val=task.val, val_predictions=vp)

    @pytest.mark.parametrize("columns", [1, 3, 61])
    def test_validation_prediction_alignment_checked(self, columns):
        # a single column would broadcast its votes over every validation row
        task, _, _ = small_training_setup()
        clf = dense_net([6, 8, 4], 0)
        rej = dense_net([6, 8, 1], 1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=32, epochs=1, seed=0)
        qp = np.stack([task.train.labels] * 2)
        bad = np.zeros((2, columns), dtype=np.int64)
        match = f"validation predictions have {columns} columns.* 60 rows"
        with pytest.raises(ValueError, match=match):
            train_pop_avg(clf, rej, task.train, qp, cfg, val=task.val, val_predictions=bad)


def as_version_1(arrays, meta):
    """Rewrite a saved file's arrays and meta, in place, into the version-1
    format: one weight and one bias array per layer, and an activation list
    per network in the meta."""
    for prefix, name in (("clf", "classifier"), ("rej", "rejector")):
        widths = arrays.pop(f"{prefix}_widths").tolist()
        net = DenseNet(arrays.pop(f"{prefix}_params"), widths)
        for i, (w, b) in enumerate(net.views):
            arrays[f"{prefix}_w{i}"], arrays[f"{prefix}_b{i}"] = w, b
        meta[f"{name}_activations"] = ["relu"] * (len(widths) - 2) + ["identity"]
    meta["format_version"] = 1


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        clf = dense_net([6, 16, 4], 11)
        rej = dense_net([4, 32, 32, 1], 12)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, epochs=7, weight_decay=1e-4, seed=99)
        path = tmp_path / "model.npz"
        save_checkpoint(path, clf, rej, cfg)
        clf2, rej2, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        for a, b in zip(clf.views + rej.views, clf2.views + rej2.views):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_repeated_saves_are_byte_identical(self, tmp_path):
        clf = dense_net([3, 4, 2], 0)
        rej = dense_net([4, 8, 1], 1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=8, epochs=2, seed=5)
        save_checkpoint(tmp_path / "a.npz", clf, rej, cfg)
        save_checkpoint(tmp_path / "b.npz", clf, rej, cfg)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_format_2_stores_each_network_as_its_vector_and_widths(self, tmp_path):
        rng = np.random.default_rng(8)
        pairs = {
            "clf": [(rng.normal(size=(5, 3)), rng.normal(size=5)),
                    (rng.normal(size=(2, 5)), rng.normal(size=2))],
            "rej": [(rng.normal(size=(4, 4)), rng.normal(size=4)),
                    (rng.normal(size=(1, 4)), rng.normal(size=1))],
        }
        clf, rej = net_of(pairs["clf"]), net_of(pairs["rej"])
        cfg = TrainConfig(learning_rate=0.1, batch_size=8, epochs=2, seed=5)
        assert FORMAT_VERSION == 2
        save_checkpoint(tmp_path / "a.npz", clf, rej, cfg)
        with np.load(tmp_path / "a.npz") as data:
            assert sorted(data.files) == [
                "clf_params", "clf_widths", "meta", "rej_params", "rej_widths"
            ]
            assert json.loads(bytes(data["meta"]).decode()) == {
                "format_version": 2,
                "train_config": dataclasses.asdict(cfg),
            }
            for k, widths in (("clf", [3, 5, 2]), ("rej", [4, 4, 1])):
                params = data[f"{k}_params"]
                assert params.dtype == np.float64
                assert params.tobytes() == b"".join(
                    a.tobytes() for pair in pairs[k] for a in pair
                )
                assert data[f"{k}_widths"].dtype == np.int64
                assert data[f"{k}_widths"].tolist() == widths
        assert np.load(tmp_path / "a.npz")["clf_params"].tobytes() == clf.params.tobytes()
        clf2, rej2, _ = load_checkpoint(tmp_path / "a.npz")
        assert clf2.params.tobytes() == clf.params.tobytes()
        assert rej2.params.tobytes() == rej.params.tobytes()
        assert (clf2.widths, rej2.widths) == (clf.widths, rej.widths)
        assert clf2.params.flags.writeable
        save_checkpoint(tmp_path / "b.npz", clf2, rej2, cfg)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(
        widths=st.lists(st.lists(st.integers(1, 8), min_size=3, max_size=5), min_size=2, max_size=2),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3),
    )
    def test_round_trip_keeps_layout_and_bytes(self, widths, seeds):
        # 2 to 4 layers of 1 to 8 units per network
        nets = [dense_net(w, s) for w, s in zip(widths, seeds)]
        cfg = TrainConfig(learning_rate=0.1, batch_size=8, epochs=2, seed=seeds[2])
        first, second = io.BytesIO(), io.BytesIO()
        save_checkpoint(first, *nets, cfg)
        first.seek(0)
        *loaded, cfg2 = load_checkpoint(first)
        assert cfg2 == cfg
        for net, back in zip(nets, loaded):
            assert back.widths == net.widths
            assert back.params.tobytes() == net.params.tobytes()
        save_checkpoint(second, *loaded, cfg2)
        assert second.getvalue() == first.getvalue()

    # Each defect edits a saved file's arrays and decoded meta in place, and
    # names the key the error must report. An edit that replaces the 'meta'
    # array itself keeps its bytes.
    DEFECTS = {
        "meta_not_json": (
            lambda arrays, meta: arrays.update(meta=np.frombuffer(b"{relu", dtype=np.uint8)),
            "meta",
        ),
        "meta_not_utf8": (
            lambda arrays, meta: arrays.update(meta=np.frombuffer(b"\xff{}", dtype=np.uint8)),
            "meta",
        ),
        "meta_a_number": (
            lambda arrays, meta: arrays.update(meta=np.frombuffer(b"7", dtype=np.uint8)),
            "meta",
        ),
        "widths_as_floats": (
            lambda arrays, meta: arrays.update(clf_widths=arrays["clf_widths"].astype(float)),
            "clf_widths",
        ),
        "widths_2d": (
            lambda arrays, meta: arrays.update(clf_widths=arrays["clf_widths"][None, :]),
            "clf_widths",
        ),
        "widths_with_one_entry": (
            lambda arrays, meta: arrays.update(clf_widths=arrays["clf_widths"][:1]),
            "clf_widths",
        ),
        "widths_with_a_zero": (
            lambda arrays, meta: arrays.update(clf_widths=np.array([6, 0, 3])),
            "clf_widths",
        ),
        "params_float32": (
            lambda arrays, meta: arrays.update(rej_params=arrays["rej_params"].astype(np.float32)),
            "rej_params",
        ),
        "params_one_entry_short": (
            lambda arrays, meta: arrays.update(rej_params=arrays["rej_params"][:-1]),
            "rej_params",
        ),
        # ``np.load`` refuses to unpickle it, with a ValueError of its own
        "params_a_pickled_object_array": (
            lambda arrays, meta: arrays.update(clf_params=arrays["clf_params"].astype(object)),
            "clf_params",
        ),
        "extra_array": (lambda arrays, meta: arrays.update(clf_w0=np.zeros((8, 6))), "clf_w0"),
        "missing_array": (lambda arrays, meta: arrays.pop("rej_widths"), "rej_widths"),
        "extra_meta_key": (
            lambda arrays, meta: meta.update(classifier_activations=["relu", "identity"]),
            "classifier_activations",
        ),
        "version_1_file": (as_version_1, "format_version"),
        "missing_format_version": (
            lambda arrays, meta: meta.pop("format_version"),
            "format_version",
        ),
        "missing_meta": (lambda arrays, meta: arrays.pop("meta"), "meta"),
        "missing_train_config_key": (
            lambda arrays, meta: meta["train_config"].pop("epochs"),
            "epochs",
        ),
        "extra_train_config_key": (
            lambda arrays, meta: meta["train_config"].update(momentum=0.9),
            "momentum",
        ),
        "bad_train_config_value": (
            lambda arrays, meta: meta["train_config"].update(learning_rate=0.0),
            "train_config",
        ),
        # JSON ``true`` and ``2.0`` compare equal to 1 and 2 in Python
        "format_version_true": (
            lambda arrays, meta: meta.update(format_version=True),
            "format_version",
        ),
        "format_version_float": (
            lambda arrays, meta: meta.update(format_version=2.0),
            "format_version",
        ),
        "batch_size_true": (
            lambda arrays, meta: meta["train_config"].update(batch_size=True),
            "batch_size",
        ),
        "epochs_float": (
            lambda arrays, meta: meta["train_config"].update(epochs=2.0),
            "epochs",
        ),
        "seed_true": (
            lambda arrays, meta: meta["train_config"].update(seed=True),
            "seed",
        ),
        "learning_rate_true": (
            lambda arrays, meta: meta["train_config"].update(learning_rate=True),
            "learning_rate",
        ),
        "weight_decay_a_string": (
            lambda arrays, meta: meta["train_config"].update(weight_decay="0"),
            "weight_decay",
        ),
        # JSON ``Infinity`` and ``NaN`` decode to floats
        "learning_rate_infinite": (
            lambda arrays, meta: meta["train_config"].update(learning_rate=math.inf),
            "learning_rate",
        ),
        "weight_decay_nan": (
            lambda arrays, meta: meta["train_config"].update(weight_decay=math.nan),
            "weight_decay",
        ),
        # JSON integers decode to Python ints of any size
        "learning_rate_beyond_float64": (
            lambda arrays, meta: meta["train_config"].update(learning_rate=10**400),
            "learning_rate",
        ),
    }

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_malformed_file_rejected_naming_file_and_key(self, tmp_path, defect):
        edit, key = self.DEFECTS[defect]
        clf = dense_net([6, 8, 3], 0)
        rej = dense_net([4, 8, 1], 1)
        save_checkpoint(tmp_path / "good.npz", clf, rej, TrainConfig(0.1, 8, 2))
        with np.load(tmp_path / "good.npz") as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        saved_meta = arrays["meta"]
        edit(arrays, meta)
        if arrays.get("meta") is saved_meta:
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        path = tmp_path / "bad.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and repr(key) in str(err.value)
