import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deferlab.deferral
from deferlab.checkpoint import load_checkpoint, save_checkpoint
from deferlab.deferral import (
    JointLogits,
    RejectorInput,
    assemble_rejector_inputs,
    decide,
    deferral_logit,
    ea_l2d_loss,
    ea_l2d_loss_grads,
    mode_labels,
    mode_prediction,
    pop_avg_loss,
    pop_avg_loss_grads,
    train,
    train_pop_avg,
)
from deferlab.errors import TrainingDivergenceError
from deferlab.experts import BehaviouralRepresentation, BetaParams, build_representation
from deferlab.nets import DenseNet, Layer, TrainConfig, dense_net, finite_difference_check
from deferlab.simulate import (
    SimulatedExpertSpec,
    SyntheticTaskSpec,
    draw_context_set,
    expert_predict_batch,
    generate_gaussian_task,
    make_population,
)


def rep_from_mu(mu_values):
    """Representation with the requested posterior means (denominator 10)."""
    posts = [BetaParams(10.0 * m, 10.0 * (1.0 - m)) for m in mu_values]
    return BehaviouralRepresentation.from_posteriors(posts)


class TestAssembleRejectorInputs:
    def test_reference_example(self):
        rep = rep_from_mu([0.9, 0.5, 0.5])
        inputs = assemble_rejector_inputs(np.array([0.1, 0.7, 0.2]), rep)
        assert inputs.rho_expertise == pytest.approx(0.1)
        assert inputs.rho_max == pytest.approx(0.7)
        assert inputs.mu_at_kstar == pytest.approx(0.5)
        assert inputs.mu_expertise == pytest.approx(0.9)

    def test_one_hot_at_expertise_class(self):
        rep = rep_from_mu([0.9, 0.4, 0.4])
        inputs = assemble_rejector_inputs(np.array([1.0, 0.0, 0.0]), rep)
        assert inputs.rho_expertise == inputs.rho_max == 1.0
        assert inputs.mu_at_kstar == inputs.mu_expertise

    def test_low_confidence_contrast_case(self):
        # classifier puts nothing on the expertise class and the expert is
        # weak at the predicted class
        rep = rep_from_mu([0.9, 0.22, 0.5])
        inputs = assemble_rejector_inputs(np.array([0.0, 0.6, 0.4]), rep)
        assert inputs.rho_expertise == 0.0
        assert inputs.rho_max == pytest.approx(0.6)
        assert inputs.mu_at_kstar == pytest.approx(0.22)

    def test_argmax_tie_breaks_low(self):
        rep = rep_from_mu([0.5, 0.5, 0.9])
        inputs = assemble_rejector_inputs(np.array([0.4, 0.4, 0.2]), rep)
        assert inputs.rho_max == pytest.approx(0.4)
        assert inputs.mu_at_kstar == pytest.approx(0.5)

    def test_dimension_mismatch_rejected(self):
        rep = rep_from_mu([0.5, 0.5])
        with pytest.raises(ValueError):
            assemble_rejector_inputs(np.array([0.2, 0.3, 0.5]), rep)

    def test_non_distribution_rejected(self):
        rep = rep_from_mu([0.5, 0.5])
        with pytest.raises(ValueError):
            assemble_rejector_inputs(np.array([0.5, 0.6]), rep)


class TestDeferralLogit:
    def test_zero_rejector_outputs_zero(self):
        rejector = DenseNet(
            [Layer(np.zeros((8, 4)), np.zeros(8), "relu"), Layer(np.zeros((1, 8)), np.zeros(1), "identity")]
        )
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.dirichlet(np.ones(3))
            inputs = assemble_rejector_inputs(q, rep_from_mu([0.6, 0.5, 0.4]))
            assert deferral_logit(rejector, inputs) == 0.0

    def test_identical_representations_identical_logits(self):
        rejector = dense_net([4, 32, 32, 1], 5)
        rng = np.random.default_rng(6)
        rep_a = rep_from_mu([0.8, 0.3, 0.55])
        rep_b = rep_from_mu([0.8, 0.3, 0.55])
        for _ in range(100):
            rho = rng.dirichlet(np.ones(3))
            ga = deferral_logit(rejector, assemble_rejector_inputs(rho, rep_a))
            gb = deferral_logit(rejector, assemble_rejector_inputs(rho, rep_b))
            assert ga == gb

    def test_wrong_input_dim_rejected(self):
        with pytest.raises(ValueError):
            deferral_logit(dense_net([3, 1], 0), RejectorInput(0.1, 0.5, 0.5, 0.5))


class TestPermutationInvariance:
    def test_joint_relabeling_leaves_inputs_unchanged(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = int(rng.integers(3, 8))
            rho = rng.dirichlet(np.ones(k))
            posts = [BetaParams(float(rng.uniform(1, 9)), float(rng.uniform(1, 9))) for _ in range(k)]
            rep = BehaviouralRepresentation.from_posteriors(posts)
            base = assemble_rejector_inputs(rho, rep)

            perm = rng.permutation(k)
            rho_p = np.empty(k)
            rho_p[perm] = rho
            posts_p = [None] * k
            for i, target in enumerate(perm):
                posts_p[target] = posts[i]
            rep_p = BehaviouralRepresentation.from_posteriors(posts_p)
            permuted = assemble_rejector_inputs(rho_p, rep_p)

            assert permuted == base
            assert rep_p.expertise_class == perm[rep.expertise_class]


class TestEaL2dLoss:
    def test_reduces_to_cross_entropy_when_not_expertise(self):
        rep = rep_from_mu([0.9, 0.5, 0.5])  # expertise class 0
        joint = JointLogits(np.array([0.3, -0.2, 1.0]), 0.5)
        lb = ea_l2d_loss(joint, 1, rep)
        assert lb.deferral_term == 0.0
        q = np.exp(joint.stacked() - joint.stacked().max())
        q /= q.sum()
        assert lb.total == pytest.approx(-math.log(q[1]), abs=1e-12)

    def test_uniform_logits_reference_values(self):
        rep = rep_from_mu([0.8, 0.5, 0.5])
        lb = ea_l2d_loss(JointLogits(np.zeros(3), 0.0), 0, rep)
        assert lb.classifier_term == pytest.approx(math.log(4), abs=1e-12)
        assert lb.deferral_term == pytest.approx(0.8 * math.log(4), abs=1e-12)
        assert lb.total == pytest.approx(lb.classifier_term + lb.deferral_term, abs=1e-12)

    def test_deferral_term_linear_in_posterior_mean(self):
        joint = JointLogits(np.array([0.4, -1.0, 0.2]), 0.7)
        full = ea_l2d_loss(joint, 0, rep_from_mu([0.8, 0.2, 0.2]))
        half = ea_l2d_loss(joint, 0, rep_from_mu([0.4, 0.2, 0.2]))
        assert half.deferral_term == pytest.approx(full.deferral_term / 2, abs=1e-12)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            ea_l2d_loss(JointLogits(np.zeros(3), 0.0), 3, rep_from_mu([0.5, 0.5, 0.5]))

    def test_signature_consumes_no_expert_prediction(self):
        params = list(inspect.signature(ea_l2d_loss).parameters)
        assert params == ["joint", "true_label", "rep"]


class TestPopAvgLoss:
    def test_mode_match_activates_deferral(self):
        lb = pop_avg_loss(JointLogits(np.zeros(3), 0.0), 2, [2, 2, 1])
        assert lb.deferral_term > 0

    def test_mode_tie_breaks_low_and_deactivates(self):
        lb = pop_avg_loss(JointLogits(np.zeros(3), 0.0), 1, [0, 1])
        assert lb.deferral_term == 0.0

    def test_oracle_population_reduces_to_single_expert_loss(self):
        joint = JointLogits(np.array([0.1, 0.2, -0.5]), 0.3)
        rng = np.random.default_rng(0)
        for y in range(3):
            lb = pop_avg_loss(joint, y, [y, y, y, y])
            q = np.exp(joint.stacked() - joint.stacked().max())
            q /= q.sum()
            assert lb.total == pytest.approx(-math.log(q[y]) - math.log(q[3]), abs=1e-12)

    def test_empty_predictions_rejected(self):
        with pytest.raises(ValueError):
            pop_avg_loss(JointLogits(np.zeros(3), 0.0), 0, [])

    def test_mode_helpers(self):
        assert mode_prediction([2, 2, 1], 3) == 2
        assert mode_prediction([0, 1], 3) == 0
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


class TestDecide:
    def test_defer_is_inclusive_at_equality(self):
        d = decide(JointLogits(np.array([1.0, 2.0, 3.0]), 3.0), expert_id=7)
        assert d.defer and d.chosen_expert == 7 and d.predicted_class is None

    def test_confident_classifier_predicts(self):
        d = decide(JointLogits(np.array([5.0, 0.0, 0.0]), -1.0))
        assert not d.defer and d.predicted_class == 0

    def test_strictly_below_max_predicts(self):
        d = decide(JointLogits(np.array([1.0, 3.0]), 3.0 - 1e-15))
        assert not d.defer and d.predicted_class == 1


class TestLossGradients:
    def test_joint_loss_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            srng = np.random.default_rng(trial)
            clf = dense_net([5, 8, 4], srng)
            rej = dense_net([4, 8, 8, 1], srng)
            x = srng.normal(size=5)
            y = int(srng.integers(4))
            posts = [BetaParams(float(srng.uniform(1, 9)), float(srng.uniform(1, 9))) for _ in range(4)]
            rep = BehaviouralRepresentation.from_posteriors(posts)

            def clf_loss(net):
                lb, cg, _, pat = ea_l2d_loss_grads(net, rej, x, y, rep)
                return lb.total, cg, pat

            def rej_loss(net):
                lb, _, rg, pat = ea_l2d_loss_grads(clf, net, x, y, rep)
                return lb.total, rg, pat

            assert finite_difference_check(clf, clf_loss, 1e-6) < 1e-6
            assert finite_difference_check(rej, rej_loss, 1e-6) < 1e-6

    def test_baseline_loss_gradients_match_finite_differences(self):
        for trial in range(5):
            srng = np.random.default_rng(trial + 100)
            clf = dense_net([5, 8, 4], srng)
            rej = dense_net([5, 8, 1], srng)
            x = srng.normal(size=5)
            y = int(srng.integers(4))
            preds = srng.integers(4, size=3).tolist()

            def clf_loss(net):
                lb, cg, _, pat = pop_avg_loss_grads(net, rej, x, y, preds)
                return lb.total, cg, pat

            def rej_loss(net):
                lb, _, rg, pat = pop_avg_loss_grads(clf, net, x, y, preds)
                return lb.total, rg, pat

            assert finite_difference_check(clf, clf_loss, 1e-6) < 1e-6
            assert finite_difference_check(rej, rej_loss, 1e-6) < 1e-6


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
    experts = make_population(num_classes, 2, 0, p, 40, seed=seed)
    ctx_rng = np.random.default_rng(seed + 1)
    contexts = [draw_context_set(e, task.context_pool, num_classes, ctx_rng) for e in experts]
    return task, experts, contexts


class TestTrain:
    def test_zero_epochs_leaves_networks_unchanged(self):
        task, _, contexts = small_training_setup()
        clf = dense_net([6, 8, 4], 0)
        rej = dense_net([4, 8, 1], 1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=32, epochs=0, seed=0)
        result = train(clf, rej, task.train, contexts, None, cfg)
        for a, b in zip(result.classifier.layers, clf.layers):
            assert np.array_equal(a.weights, b.weights)
        assert result.history == []

    def test_loss_improves_on_separable_task_with_oracle_experts(self):
        task, _, contexts = small_training_setup(p=0.0, separation=8.0)
        clf = dense_net([6, 16, 4], 0)
        rej = dense_net([4, 16, 1], 1)
        cfg = TrainConfig(learning_rate=0.2, batch_size=32, epochs=50, seed=0)
        result = train(clf, rej, task.train, contexts, None, cfg)
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_same_seed_identical_history(self):
        task, _, contexts = small_training_setup()
        cfg = TrainConfig(learning_rate=0.2, batch_size=32, epochs=8, seed=3)
        results = []
        for _ in range(2):
            clf = dense_net([6, 8, 4], 0)
            rej = dense_net([4, 8, 1], 1)
            results.append(train(clf, rej, task.train, contexts, None, cfg))
        assert [e.train_loss for e in results[0].history] == [
            e.train_loss for e in results[1].history
        ]
        for a, b in zip(results[0].classifier.layers, results[1].classifier.layers):
            assert np.array_equal(a.weights, b.weights)

    def test_divergence_names_the_batch(self):
        task, _, contexts = small_training_setup()
        clf = dense_net([6, 8, 4], 0)
        rej = dense_net([4, 8, 1], 1)
        cfg = TrainConfig(learning_rate=1e12, batch_size=32, epochs=10, seed=0)
        with pytest.raises(TrainingDivergenceError, match="batch"):
            train(clf, rej, task.train, contexts, None, cfg)

    def test_oversized_context_subsample_rejected(self):
        task, _, contexts = small_training_setup()
        clf = dense_net([6, 8, 4], 0)
        rej = dense_net([4, 8, 1], 1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=32, epochs=1, seed=0)
        with pytest.raises(ValueError, match="subsample"):
            train(clf, rej, task.train, contexts, None, cfg, lam=1000)

    def test_empty_query_rejected(self):
        task, _, contexts = small_training_setup()
        clf = dense_net([6, 8, 4], 0)
        rej = dense_net([4, 8, 1], 1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=32, epochs=1, seed=0)
        empty = type(task.train)(np.zeros((0, 6)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="nonempty"):
            train(clf, rej, empty, contexts, None, cfg)

    def test_early_stopping_restores_best_epoch(self):
        task, _, contexts = small_training_setup(p=0.0, separation=8.0)
        clf = dense_net([6, 16, 4], 0)
        rej = dense_net([4, 16, 1], 1)
        cfg = TrainConfig(learning_rate=0.3, batch_size=32, epochs=40, seed=0)
        result = train(clf, rej, task.train, contexts, None, cfg, val=task.val, patience=3)
        assert result.best_epoch is not None
        val_losses = [e.val_loss for e in result.history]
        assert val_losses[result.best_epoch] == min(val_losses)
        assert len(result.history) <= 40

    def test_trained_rejector_prefers_strong_expert_inputs(self):
        # after training, an input where the expert is strong at the
        # classifier's predicted class should collect a larger deferral
        # logit than one where the expert is weak, at equal confidence
        task, _, contexts = small_training_setup(p=0.2, separation=2.0)
        clf = dense_net([6, 16, 4], 0)
        rej = dense_net([4, 16, 16, 1], 1)
        cfg = TrainConfig(learning_rate=0.2, batch_size=32, epochs=60, seed=0)
        result = train(clf, rej, task.train, contexts, None, cfg)
        strong = RejectorInput(0.58, 0.58, 0.89, 0.89)
        weak = RejectorInput(0.0, 0.58, 0.22, 0.89)
        assert deferral_logit(result.rejector, strong) > deferral_logit(result.rejector, weak)


class TestOneForwardPerBatch:
    """Each training batch runs each network forward once, through the cached
    forward; the plain forward serves only the validation loss."""

    @staticmethod
    def count_forwards(monkeypatch):
        calls = {"cached": 0, "plain": 0}
        real_cached = deferlab.deferral.forward_cached
        real_plain = deferlab.deferral.forward

        def cached(net, x):
            calls["cached"] += 1
            return real_cached(net, x)

        def plain(net, x):
            calls["plain"] += 1
            return real_plain(net, x)

        monkeypatch.setattr(deferlab.deferral, "forward_cached", cached)
        monkeypatch.setattr(deferlab.deferral, "forward", plain)
        return calls

    def test_ea_l2d_epoch(self, monkeypatch):
        task, _, contexts = small_training_setup()
        calls = self.count_forwards(monkeypatch)
        clf = dense_net([6, 8, 4], 0)
        rej = dense_net([4, 8, 1], 1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=48, epochs=1, seed=0)
        train(clf, rej, task.train, contexts, None, cfg, val=task.val)
        batches = -(-len(task.train) // cfg.batch_size)
        assert batches == 4
        # one validation pass: the classifier and the rejector once each
        assert calls == {"cached": 2 * batches, "plain": 2}

    def test_pop_avg_epoch(self, monkeypatch):
        task, experts, _ = small_training_setup(p=0.5)
        rng = np.random.default_rng(0)
        qp = np.stack([expert_predict_batch(e, task.train.labels, 4, rng) for e in experts])
        calls = self.count_forwards(monkeypatch)
        clf = dense_net([6, 8, 4], 0)
        rej = dense_net([6, 8, 1], 1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=48, epochs=1, seed=0)
        train_pop_avg(clf, rej, task.train, qp, cfg)
        assert calls == {"cached": 2 * 4, "plain": 0}


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
        with pytest.raises(ValueError, match="align"):
            train_pop_avg(clf, rej, task.train, bad, cfg)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        clf = dense_net([6, 16, 4], 11)
        rej = dense_net([4, 32, 32, 1], 12)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, epochs=7, weight_decay=1e-4, seed=99)
        path = tmp_path / "model.npz"
        save_checkpoint(path, clf, rej, cfg)
        clf2, rej2, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        for a, b in zip(clf.layers + rej.layers, clf2.layers + rej2.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
            assert a.activation == b.activation

    def test_repeated_saves_are_byte_identical(self, tmp_path):
        clf = dense_net([3, 4, 2], 0)
        rej = dense_net([4, 8, 1], 1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=8, epochs=2, seed=5)
        save_checkpoint(tmp_path / "a.npz", clf, rej, cfg)
        save_checkpoint(tmp_path / "b.npz", clf, rej, cfg)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_flat_layout_round_trip_keeps_per_layer_keys_and_bytes(self, tmp_path):
        rng = np.random.default_rng(8)
        arrays = {
            "clf": [(rng.normal(size=(5, 3)), rng.normal(size=5)),
                    (rng.normal(size=(2, 5)), rng.normal(size=2))],
            "rej": [(rng.normal(size=(4, 4)), rng.normal(size=4)),
                    (rng.normal(size=(1, 4)), rng.normal(size=1))],
        }
        clf, rej = (
            DenseNet([Layer(w, b, act) for (w, b), act in zip(arrays[k], ["relu", "identity"])])
            for k in ("clf", "rej")
        )
        cfg = TrainConfig(learning_rate=0.1, batch_size=8, epochs=2, seed=5)
        save_checkpoint(tmp_path / "a.npz", clf, rej, cfg)
        with np.load(tmp_path / "a.npz") as data:
            assert sorted(data.files) == sorted(
                ["meta"] + [f"{k}_{p}{i}" for k in ("clf", "rej") for p in "wb" for i in (0, 1)]
            )
            for k, layers in arrays.items():
                for i, (w, b) in enumerate(layers):
                    assert data[f"{k}_w{i}"].tobytes() == w.tobytes()
                    assert data[f"{k}_b{i}"].tobytes() == b.tobytes()
        clf2, rej2, _ = load_checkpoint(tmp_path / "a.npz")
        assert clf2.params.tobytes() == clf.params.tobytes()
        assert rej2.params.tobytes() == rej.params.tobytes()
        save_checkpoint(tmp_path / "b.npz", clf2, rej2, cfg)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
