import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deferlab.errors import DatasetParseError
from deferlab.nets import (
    DenseNet,
    TrainConfig,
    backward,
    dense_net,
    forward,
    forward_cached,
    sgd_step,
    softmax,
)
from deferlab.simulate import (
    Dataset,
    SimulatedExpertSpec,
    SyntheticTaskSpec,
    draw_context_set,
    expert_accuracy_by_class,
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
    grads = DenseNet(np.empty_like(net.params), net.widths)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(data.train))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = data.train.features[idx]
            y = data.train.labels[idx]
            outs = forward_cached(net, x)
            q, _, _ = softmax(outs[-1])
            up = q.copy()
            up[np.arange(len(idx)), y] -= 1.0
            backward(net, outs, up / len(idx), grads)
            sgd_step(net.params, grads.params, cfg)
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

    def test_features_equal_the_means_plus_the_noise_draw_bit_for_bit(self):
        # The class means are added into the noise draw in place, one
        # class's rows at a time; the bits are those of
        # ``means[labels] + noise`` on the whole partition, for partitions
        # of unequal class counts and of one row.
        spec = small_spec(
            num_classes=4, train_size=3071, val_size=2048, test_size=5003, context_pool_size=1
        )
        task = generate_gaussian_task(spec)
        rng = np.random.default_rng(spec.seed)
        directions = rng.normal(size=(spec.num_classes, spec.dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        means = spec.separation * directions
        for data in (task.train, task.val, task.test, task.context_pool):
            noise = rng.normal(scale=spec.noise_scale, size=(len(data), spec.dim))
            want = means[data.labels] + noise
            assert data.features.tobytes() == want.tobytes()

    def test_peak_memory_of_a_partition_is_its_one_array(self):
        # A 20 000 x 16 partition keeps 2.56 MB of features. Adding the
        # means as ``means[labels] + noise`` held a second partition-size
        # array at once, 5.6 MB traced; adding each class's mean in place
        # adds no array of the partition's size, about 3.0 MB.
        spec = small_spec(
            num_classes=10, dim=16, train_size=0, val_size=0, test_size=20_000,
            context_pool_size=0,
        )
        generate_gaussian_task(spec)  # warm numpy's caches before tracing
        tracemalloc.start()
        try:
            task = generate_gaussian_task(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = task.test.features.nbytes
        assert peak < 1.5 * kept, f"peak {peak / 1e6:.2f} MB for {kept / 1e6:.2f} MB of features"

    @pytest.mark.parametrize("field", ["separation", "noise_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scale_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            small_spec(**{field: value})


class TestCsvDataset:
    def test_round_trip(self, tmp_path):
        data = Dataset(np.array([[0.5, -1.25], [2.0, 3.5]]), np.array([0, 1]))
        path = tmp_path / "data.csv"
        save_csv_dataset(path, data)
        loaded = load_csv_dataset(path)
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_round_trip_is_exact(self, tmp_path, data):
        num_classes = data.draw(st.integers(1, 5))
        extra = data.draw(st.lists(st.integers(0, num_classes - 1), max_size=10))
        labels = data.draw(st.permutations(list(range(num_classes)) + extra))
        dim = data.draw(st.integers(1, 4))
        cells = st.floats(allow_nan=False, allow_infinity=False)
        features = np.array(
            [data.draw(st.lists(cells, min_size=dim, max_size=dim)) for _ in labels]
        )
        path = tmp_path / "data.csv"
        save_csv_dataset(path, Dataset(features, np.array(labels)))
        loaded = load_csv_dataset(path)
        assert loaded.features.tobytes() == features.tobytes()
        assert loaded.labels.tolist() == labels

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


    @pytest.mark.parametrize(
        "data, where",
        [
            (b"y,f0\n0,1.0\n1,caf\xe9\n", "line 3: not UTF-8"),
            (b"y,f0\n0," + b"1" * 200_000 + b"\n", "line 2: field larger than"),
            (b'y,f0\n0,"1.0\n"\n1,abc\n', "line 4: non-numeric cell"),
            (b'y,f0\n0,"1.0\n"\n1,nan\n', "line 4: non-finite feature"),
        ],
        ids=["not-utf8", "huge-field", "quoted-newline", "quoted-newline-non-finite"],
    )
    def test_unreadable_file_names_file_and_line(self, tmp_path, data, where):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        with pytest.raises(DatasetParseError, match=rf"d\.csv: {where}"):
            load_csv_dataset(path)


class TestMakePopulation:
    def test_half_split_covers_all_classes(self):
        experts = make_population(10, 10, 0.2, seed=3)
        assert len(experts) == 10
        classes = [next(iter(e.expertise_classes)) for e in experts]
        assert sorted(classes) == list(range(10))

    def test_multi_expertise_distinct_classes(self):
        experts = make_population(10, 2, 0.5, expertise_per_expert=3, seed=1)
        for e in experts:
            assert len(e.expertise_classes) == 3
        assert not (experts[0].expertise_classes & experts[1].expertise_classes)

    def test_same_seed_identical(self):
        a = make_population(8, 4, 0.4, seed=9)
        b = make_population(8, 4, 0.4, seed=9)
        assert a == b

    def test_infeasible_counts_rejected(self):
        with pytest.raises(ValueError):
            make_population(4, 5, 0.2)
        with pytest.raises(ValueError):
            make_population(10, 4, 0.2, expertise_per_expert=3)


class TestExpertPredict:
    def test_oracle_on_expertise_class(self):
        expert = SimulatedExpertSpec(0, frozenset({2}), 0.0)
        rng = np.random.default_rng(0)
        assert np.all(expert_predict_batch(expert, np.full(100, 2), 5, rng) == 2)

    def test_full_overlap_always_correct(self):
        expert = SimulatedExpertSpec(0, frozenset({0}), 1.0)
        rng = np.random.default_rng(0)
        assert np.all(expert_predict_batch(expert, np.full(100, 3), 5, rng) == 3)

    def test_empirical_accuracy_matches_rule(self):
        num_classes = 10
        rng = np.random.default_rng(1234)
        for p in (0.0, 0.4):
            expert = SimulatedExpertSpec(0, frozenset({0}), p)
            draws = 100_000
            preds = expert_predict_batch(expert, np.full(draws, 7), num_classes, rng)
            correct = np.sum(preds == 7)
            expected = p + (1 - p) / num_classes
            sigma = np.sqrt(expected * (1 - expected) / draws)
            assert abs(correct / draws - expected) < 3 * sigma

    def test_batch_version_matches_rule(self):
        num_classes = 6
        expert = SimulatedExpertSpec(0, frozenset({1}), 0.25)
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
        expert = SimulatedExpertSpec(0, frozenset({0, 3}), 0.4)
        acc = expert_accuracy_by_class(expert, 5)
        assert acc[0] == 1.0 and acc[3] == 1.0
        assert np.allclose(acc[[1, 2, 4]], 0.4 + 0.6 / 5)

    def test_out_of_range_label_rejected(self):
        expert = SimulatedExpertSpec(0, frozenset({0}), 0.2)
        for bad in (7, -1):
            with pytest.raises(ValueError, match="out of range"):
                expert_predict_batch(expert, np.array([0, bad]), 5, np.random.default_rng(0))


class TestDrawContextSet:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_classes=st.integers(2, 8),
        per_class=st.integers(0, 6),
        p=st.sampled_from([0.0, 1.0]),
        data=st.data(),
    )
    def test_stratified_and_predicted_by_the_rule(self, seed, num_classes, per_class, p, data):
        # a balanced pool of per_class examples each holds every size up to its length
        rng = np.random.default_rng(seed)
        pool_labels = rng.permutation(np.repeat(np.arange(num_classes), per_class))
        pool = Dataset(np.zeros((len(pool_labels), 1)), pool_labels)
        size = data.draw(st.integers(0, len(pool)), label="size")
        expertise = data.draw(
            st.sets(st.integers(0, num_classes - 1), min_size=1), label="expertise"
        )
        expert = SimulatedExpertSpec(0, frozenset(expertise), p)
        ctx = draw_context_set(expert, pool, size, num_classes, rng)
        assert ctx.labels.dtype == ctx.predictions.dtype == np.int64
        counts = np.bincount(ctx.labels, minlength=num_classes)
        assert counts.sum() == size == len(ctx.predictions)
        assert counts.max() - counts.min() <= 1
        known = np.isin(ctx.labels, list(expertise))
        assert np.array_equal(ctx.predictions[known], ctx.labels[known])
        if p == 1.0:
            assert np.array_equal(ctx.predictions, ctx.labels)

    def test_exact_stratification(self):
        task = generate_gaussian_task(small_spec(num_classes=10, context_pool_size=600, train_size=0, val_size=0, test_size=0))
        expert = SimulatedExpertSpec(0, frozenset({4}), 0.2)
        ctx = draw_context_set(expert, task.context_pool, 150, 10, np.random.default_rng(0))
        assert len(ctx) == 150
        counts = np.bincount(ctx.labels, minlength=10)
        assert np.all(counts == 15)

    def test_uneven_size_within_one(self):
        task = generate_gaussian_task(small_spec(context_pool_size=90))
        expert = SimulatedExpertSpec(0, frozenset({0}), 0.2)
        ctx = draw_context_set(expert, task.context_pool, 10, 3, np.random.default_rng(0))
        counts = np.bincount(ctx.labels, minlength=3)
        assert counts.sum() == 10
        assert counts.max() - counts.min() <= 1

    def test_zero_context_is_empty(self):
        task = generate_gaussian_task(small_spec())
        expert = SimulatedExpertSpec(0, frozenset({0}), 0.2)
        ctx = draw_context_set(expert, task.context_pool, 0, 3, np.random.default_rng(0))
        assert len(ctx) == 0

    def test_oracle_expert_context_is_perfect_on_expertise(self):
        task = generate_gaussian_task(small_spec())
        expert = SimulatedExpertSpec(0, frozenset({1}), 0.0)
        ctx = draw_context_set(expert, task.context_pool, 30, 3, np.random.default_rng(2))
        mask = ctx.labels == 1
        assert np.all(ctx.predictions[mask] == 1)

    def test_insufficient_pool_rejected(self):
        task = generate_gaussian_task(small_spec(context_pool_size=6))
        expert = SimulatedExpertSpec(0, frozenset({0}), 0.2)
        with pytest.raises(ValueError, match="context pool"):
            draw_context_set(expert, task.context_pool, 30, 3, np.random.default_rng(0))
