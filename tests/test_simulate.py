import numpy as np
import pytest

from deferlab.errors import DatasetParseError
from deferlab.nets import GradientBundle, TrainConfig, backward, dense_net, forward, sgd_step, softmax
from deferlab.simulate import (
    Dataset,
    SimulatedExpertSpec,
    SyntheticTaskSpec,
    draw_context_set,
    expert_accuracy_by_class,
    expert_predict,
    expert_predict_batch,
    generate_gaussian_task,
    load_csv_dataset,
    make_population,
    save_csv_dataset,
)


def small_spec(**kw):
    defaults = dict(
        num_classes=3,
        dim=4,
        separation=2.0,
        noise_scale=1.0,
        train_size=90,
        val_size=30,
        test_size=60,
        context_pool_size=60,
        seed=0,
    )
    defaults.update(kw)
    return SyntheticTaskSpec(**defaults)


def train_plain_classifier(data, num_classes, epochs=40, lr=0.3, seed=0):
    """Independent softmax-CE training loop built from the net primitives."""
    net = dense_net([data.train.features.shape[1], 16, num_classes], seed)
    cfg = TrainConfig(learning_rate=lr, batch_size=32, epochs=epochs, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(data.train))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = data.train.features[idx]
            y = data.train.labels[idx]
            logits = forward(net, x)
            q = np.apply_along_axis(softmax, 1, logits)
            up = q.copy()
            up[np.arange(len(idx)), y] -= 1.0
            grads = backward(net, x, up / len(idx))
            net = sgd_step(net, grads, cfg)
    preds = np.argmax(forward(net, data.test.features), axis=1)
    return float(np.mean(preds == data.test.labels))


class TestGenerateGaussianTask:
    def test_same_seed_is_bit_identical(self):
        a = generate_gaussian_task(small_spec())
        b = generate_gaussian_task(small_spec())
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.labels, b.test.labels)
        assert np.array_equal(a.class_means, b.class_means)

    def test_partitions_are_label_balanced(self):
        task = generate_gaussian_task(small_spec(train_size=91))
        counts = np.bincount(task.train.labels, minlength=3)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 91

    def test_means_have_requested_norm(self):
        task = generate_gaussian_task(small_spec(separation=5.0))
        norms = np.linalg.norm(task.class_means, axis=1)
        assert np.allclose(norms, 5.0, atol=1e-12)

    def test_separable_task_trains_to_high_accuracy(self):
        task = generate_gaussian_task(small_spec(separation=20.0))
        acc = train_plain_classifier(task, 3, lr=0.05)
        assert acc > 0.99

    def test_indistinguishable_classes_train_to_chance(self):
        task = generate_gaussian_task(small_spec(separation=0.0, test_size=300))
        acc = train_plain_classifier(task, 3)
        sigma = np.sqrt((1 / 3) * (2 / 3) / 300)
        assert abs(acc - 1 / 3) < 3 * sigma + 0.05

    def test_invalid_dim_rejected(self):
        with pytest.raises(ValueError):
            small_spec(dim=0)


class TestCsvDataset:
    def test_round_trip(self, tmp_path):
        data = Dataset(np.array([[0.5, -1.25], [2.0, 3.5]]), np.array([0, 1]))
        path = tmp_path / "data.csv"
        save_csv_dataset(path, data)
        loaded = load_csv_dataset(path)
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)

    def test_two_rows_parsed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,f0,f1\n0,1.5,2.5\n1,0.0,-1.0\n")
        data = load_csv_dataset(path)
        assert len(data) == 2

    def test_label_gap_accepted_with_warning(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,f0\n0,1.0\n2,2.0\n")
        with pytest.warns(UserWarning, match="classes \\[1\\]"):
            data = load_csv_dataset(path)
        assert data.labels.max() == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DatasetParseError, match="no rows"):
            load_csv_dataset(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,f0\n")
        with pytest.raises(DatasetParseError, match="no rows"):
            load_csv_dataset(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,f0,f1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DatasetParseError, match="line 3"):
            load_csv_dataset(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,f0\n0,abc\n")
        with pytest.raises(DatasetParseError, match="line 2"):
            load_csv_dataset(path)

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,f0\n-1,1.0\n")
        with pytest.raises(DatasetParseError, match="negative label"):
            load_csv_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_file_and_line(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"y,f0,f1\n0,1.0,2.0\n1,3.0,2.0\n1,{cell},0.5\n")
        with pytest.raises(DatasetParseError, match=r"d\.csv: line 4: non-finite feature"):
            load_csv_dataset(path)


class TestMakePopulation:
    def test_half_split_covers_all_classes(self):
        experts = make_population(10, 5, 5, 0.2, 150, seed=3)
        assert len(experts) == 10
        classes = [next(iter(e.expertise_classes)) for e in experts]
        assert sorted(classes) == list(range(10))
        assert [e.in_distribution for e in experts] == [True] * 5 + [False] * 5

    def test_multi_expertise_distinct_classes(self):
        experts = make_population(10, 1, 1, 0.5, 60, expertise_per_expert=3, seed=1)
        for e in experts:
            assert len(e.expertise_classes) == 3
        assert not (experts[0].expertise_classes & experts[1].expertise_classes)

    def test_same_seed_identical(self):
        a = make_population(8, 2, 2, 0.4, 40, seed=9)
        b = make_population(8, 2, 2, 0.4, 40, seed=9)
        assert a == b

    def test_infeasible_counts_rejected(self):
        with pytest.raises(ValueError):
            make_population(4, 3, 2, 0.2, 10)
        with pytest.raises(ValueError):
            make_population(10, 2, 2, 0.2, 10, expertise_per_expert=3)


class TestExpertPredict:
    def test_oracle_on_expertise_class(self):
        expert = SimulatedExpertSpec(0, frozenset({2}), 0.0, 0)
        rng = np.random.default_rng(0)
        assert all(expert_predict(expert, 2, 5, rng) == 2 for _ in range(100))

    def test_full_overlap_always_correct(self):
        expert = SimulatedExpertSpec(0, frozenset({0}), 1.0, 0)
        rng = np.random.default_rng(0)
        assert all(expert_predict(expert, 3, 5, rng) == 3 for _ in range(100))

    def test_empirical_accuracy_matches_rule(self):
        num_classes = 10
        rng = np.random.default_rng(1234)
        for p in (0.0, 0.4):
            expert = SimulatedExpertSpec(0, frozenset({0}), p, 0)
            draws = 100_000
            correct = sum(expert_predict(expert, 7, num_classes, rng) == 7 for _ in range(draws))
            expected = p + (1 - p) / num_classes
            sigma = np.sqrt(expected * (1 - expected) / draws)
            assert abs(correct / draws - expected) < 3 * sigma

    def test_batch_version_matches_rule(self):
        num_classes = 6
        expert = SimulatedExpertSpec(0, frozenset({1}), 0.25, 0)
        rng = np.random.default_rng(5)
        labels = rng.integers(num_classes, size=50_000)
        preds = expert_predict_batch(expert, labels, num_classes, rng)
        assert np.all(preds[labels == 1] == 1)
        off = labels != 1
        expected = 0.25 + 0.75 / num_classes
        acc = np.mean(preds[off] == labels[off])
        sigma = np.sqrt(expected * (1 - expected) / off.sum())
        assert abs(acc - expected) < 3 * sigma

    def test_accuracy_by_class_formula(self):
        expert = SimulatedExpertSpec(0, frozenset({0, 3}), 0.4, 0)
        acc = expert_accuracy_by_class(expert, 5)
        assert acc[0] == 1.0 and acc[3] == 1.0
        assert np.allclose(acc[[1, 2, 4]], 0.4 + 0.6 / 5)

    def test_out_of_range_label_rejected(self):
        expert = SimulatedExpertSpec(0, frozenset({0}), 0.2, 0)
        with pytest.raises(ValueError):
            expert_predict(expert, 7, 5, np.random.default_rng(0))


class TestDrawContextSet:
    def test_exact_stratification(self):
        task = generate_gaussian_task(small_spec(num_classes=10, context_pool_size=600, train_size=0, val_size=0, test_size=0))
        expert = SimulatedExpertSpec(0, frozenset({4}), 0.2, 150)
        ctx = draw_context_set(expert, task.context_pool, 10, np.random.default_rng(0))
        assert len(ctx) == 150
        counts = np.bincount(ctx.labels, minlength=10)
        assert np.all(counts == 15)

    def test_uneven_size_within_one(self):
        task = generate_gaussian_task(small_spec(context_pool_size=90))
        expert = SimulatedExpertSpec(0, frozenset({0}), 0.2, 10)
        ctx = draw_context_set(expert, task.context_pool, 3, np.random.default_rng(0))
        counts = np.bincount(ctx.labels, minlength=3)
        assert counts.sum() == 10
        assert counts.max() - counts.min() <= 1

    def test_zero_context_is_empty(self):
        task = generate_gaussian_task(small_spec())
        expert = SimulatedExpertSpec(0, frozenset({0}), 0.2, 0)
        ctx = draw_context_set(expert, task.context_pool, 3, np.random.default_rng(0))
        assert len(ctx) == 0

    def test_oracle_expert_context_is_perfect_on_expertise(self):
        task = generate_gaussian_task(small_spec())
        expert = SimulatedExpertSpec(0, frozenset({1}), 0.0, 30)
        ctx = draw_context_set(expert, task.context_pool, 3, np.random.default_rng(2))
        mask = ctx.labels == 1
        assert np.all(ctx.predictions[mask] == 1)

    def test_insufficient_pool_rejected(self):
        task = generate_gaussian_task(small_spec(context_pool_size=6))
        expert = SimulatedExpertSpec(0, frozenset({0}), 0.2, 30)
        with pytest.raises(ValueError, match="context pool"):
            draw_context_set(expert, task.context_pool, 3, np.random.default_rng(0))
