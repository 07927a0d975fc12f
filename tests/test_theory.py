import tracemalloc

import numpy as np
import pytest

from deferlab.cli import main
from deferlab.errors import UnsupportedTaskError
from deferlab.evaluation import area_under, deferral_curves
from deferlab.experts import sample_complexity_bound
from deferlab.harness import run_theory_checks
from deferlab.simulate import SyntheticTaskSpec, generate_gaussian_task
from deferlab.theory import (
    bayes_optimal_reference,
    median_posterior_errors,
    misidentification_rate,
)


class TestPosteriorConvergence:
    def test_certain_expert_closed_form_error(self):
        # at theta = 1 every draw is all-correct, so every error is 1 / (2 + n)
        rng = np.random.default_rng(0)
        schedule = [1, 10, 100, 1000]
        errors = median_posterior_errors(1.0, schedule, 50, rng)
        for n, err in zip(schedule, errors):
            assert err == pytest.approx(1.0 / (2 + n), abs=1e-15)

    def test_no_observations_uniform_prior(self):
        rng = np.random.default_rng(0)
        assert median_posterior_errors(0.5, [0], 50, rng) == [0.0]

    def test_large_sample_median_error_small(self):
        rng = np.random.default_rng(12)
        assert median_posterior_errors(0.7, [100_000], 1000, rng)[0] < 0.005

    def test_median_errors_shrink_along_schedule(self):
        schedule = [10, 100, 1000, 10_000, 100_000]
        medians = median_posterior_errors(0.7, schedule, 1000, np.random.default_rng(3))
        assert np.all(np.diff(medians) <= 0)

    def test_invalid_theta_rejected(self):
        with pytest.raises(ValueError):
            median_posterior_errors(1.5, [10], 50, np.random.default_rng(0))


class TestMisidentificationRate:
    def test_no_samples_predicts_class_zero(self):
        # with n=0 every posterior mean is 0.5 and the argmax tie-break
        # lands on class 0
        rng = np.random.default_rng(0)
        assert misidentification_rate(np.array([0.5, 0.9, 0.5]), 0, 50, rng) == 1.0
        assert misidentification_rate(np.array([0.9, 0.5, 0.5]), 0, 50, rng) == 0.0

    def test_rate_within_bound_at_reference_cell(self):
        n = sample_complexity_bound(10, 0.05, 0.3)
        assert n == 134
        acc = np.full(10, 0.6)
        acc[3] = 0.9
        assert misidentification_rate(acc, n, 2000, np.random.default_rng(7)) <= 0.05

    def test_rate_shrinks_with_ten_times_bound(self):
        n = sample_complexity_bound(5, 0.1, 0.2)
        acc = np.full(5, 0.55)
        acc[2] = 0.75
        for seed in (0, 1, 2):
            small, at_bound, big = (
                misidentification_rate(acc, count, 2000, np.random.default_rng(seed))
                for count in (max(1, n // 10), n, 10 * n)
            )
            assert big <= at_bound <= small
            assert big < small

    def test_rng_stream_is_the_callers(self):
        # one draw of the (trials, K) binomial matrix from the given generator
        acc = np.array([0.6, 0.7, 0.5])
        t = np.random.default_rng(5).binomial(20, acc, size=(300, 3))
        want = np.mean(np.argmax((1.0 + t) / 22.0, axis=1) != 1)
        assert misidentification_rate(acc, 20, 300, np.random.default_rng(5)) == want

    @pytest.mark.parametrize(
        "acc, trials",
        [([0.9, 0.9, 0.5], 100), ([0.5, 0.5], 100), ([0.9, 1.5], 100), ([-0.1, 0.9], 100),
         ([0.5, 0.9], 0)],
        ids=["tied-best", "all-tied", "above-one", "below-zero", "no-trials"],
    )
    def test_invalid_setup_rejected(self, acc, trials):
        with pytest.raises(ValueError):
            misidentification_rate(np.array(acc), 10, trials, np.random.default_rng(0))


def uniform_task(test_size=2000, separation=0.0):
    return generate_gaussian_task(
        SyntheticTaskSpec(
            num_classes=5,
            dim=6,
            separation=separation,
            noise_scale=1.0,
            train_size=0,
            val_size=0,
            test_size=test_size,
            context_pool_size=0,
            seed=11,
        )
    )


def reference(task, acc):
    """The oracle's curves on a task for one expert or cohort."""
    [curves] = bayes_optimal_reference(task, [acc])
    return curves


def per_call_reference(task, acc):
    """The oracle of one expert or cohort on the whole test partition in
    one pass, its posterior computed one class at a time."""
    acc = np.atleast_2d(acc)
    x, y = task.test.features, task.test.labels
    d2 = np.empty((len(x), task.spec.num_classes))
    for k, mean in enumerate(task.class_means):
        d2[:, k] = ((x - mean) ** 2).sum(axis=1)
    z = -d2 / (2.0 * task.spec.noise_scale**2)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    post = e / e.sum(axis=1, keepdims=True)
    value = post @ acc.T
    return deferral_curves(
        value.max(axis=1) - post.max(axis=1),
        np.argmax(post, axis=1) == y,
        acc[np.argmax(value, axis=1), y],
    )


def broadcast_reference(task, acc):
    """The oracle as first written: one (cases, K, dim) difference block."""
    acc = np.atleast_2d(acc)
    x, y = task.test.features, task.test.labels
    d2 = ((x[:, None, :] - task.class_means[None, :, :]) ** 2).sum(axis=2)
    logp = -d2 / (2.0 * task.spec.noise_scale**2)
    logp -= logp.max(axis=1, keepdims=True)
    post = np.exp(logp)
    post /= post.sum(axis=1, keepdims=True)
    clf_correct = (np.argmax(post, axis=1) == y).astype(np.float64)
    expert_correct = acc[np.argmax(post @ acc.T, axis=1), y]
    priority = (post @ acc.T).max(axis=1) - post.max(axis=1)
    order = np.argsort(-priority, kind="stable")
    exp_prefix = np.concatenate([[0.0], np.cumsum(expert_correct[order])])
    clf_prefix = np.concatenate([[0.0], np.cumsum(clf_correct[order])])
    j = np.arange(len(y) + 1)
    system = (exp_prefix + (clf_prefix[-1] - clf_prefix)) / len(y)
    expert = np.empty(len(y) + 1)
    expert[1:] = exp_prefix[1:] / j[1:]
    expert[0] = expert[1]
    return system, expert


def assert_matches_broadcast_reference(task):
    acc = np.array([[0.9, 0.3, 0.5, 0.3, 0.3], [0.3, 0.8, 0.3, 0.6, 0.3]])
    for experts in (acc, acc[1]):
        system, expert = reference(task, experts)
        ref_system, ref_expert = broadcast_reference(task, experts)
        assert np.array_equal(system.accuracies, ref_system)
        assert np.array_equal(expert.accuracies, ref_expert)


class TestBayesOptimalReference:
    def test_zero_separation_classifier_at_chance_and_full_deferral(self):
        task = uniform_task()
        # any expert better than chance makes deferral worthwhile everywhere
        system, expert = reference(task, np.full(5, 0.6))
        clf_acc = system.accuracies[0]
        assert clf_acc == pytest.approx(0.2, abs=1e-12)  # balanced partition, exact
        # deferring everything reaches the expert's expected accuracy
        assert system.accuracies[-1] == pytest.approx(0.6, abs=1e-12)
        # the deferral value strictly exceeds the top posterior on every case
        assert np.all(expert.accuracies >= 0.6 - 1e-12)

    def test_oracle_expert_defers_everywhere(self):
        task = uniform_task(separation=2.0)
        system, expert = reference(task, np.ones(5))
        # expected expert correctness is 1 on every deferred case
        assert np.all(expert.accuracies == 1.0)
        assert system.accuracies[-1] == 1.0
        # with max posterior < 1 a.s., full deferral is optimal
        assert area_under(system, 0.0, 1.0) <= 1.0

    def test_multi_expert_matrix_takes_best(self):
        task = uniform_task(separation=1.5)
        acc = np.array([[1.0, 0.3, 0.3, 0.3, 0.3], [0.3, 1.0, 0.3, 0.3, 0.3]])
        system_pair, _ = reference(task, acc)
        system_single, _ = reference(task, acc[0])
        assert area_under(system_pair, 0.0, 1.0) >= area_under(system_single, 0.0, 1.0) - 1e-12

    def test_non_gaussian_task_rejected(self):
        with pytest.raises(UnsupportedTaskError):
            bayes_optimal_reference({"kind": "csv"}, [np.ones(5)])
        with pytest.raises(UnsupportedTaskError):
            bayes_optimal_reference(uniform_task().spec, [np.ones(5)])

    def test_empty_test_partition_rejected(self):
        with pytest.raises(ValueError, match="empty test partition"):
            bayes_optimal_reference(uniform_task(test_size=0), [np.ones(5)])

    def test_mismatched_shapes_rejected(self):
        task = uniform_task(test_size=50)
        with pytest.raises(ValueError, match="one column per class: 4 columns for 5 classes"):
            bayes_optimal_reference(task, [np.ones(4)])
        with pytest.raises(ValueError, match="one column per class: 6 columns for 5 classes"):
            bayes_optimal_reference(task, [np.ones(5), np.ones((2, 6))])

    @pytest.mark.parametrize("separation", [0.0, 1.5, 3.0])
    def test_matches_broadcast_reference_exactly(self, separation):
        assert_matches_broadcast_reference(uniform_task(test_size=3001, separation=separation))

    def test_matches_broadcast_reference_across_row_blocks(self):
        # 5 003 cases: the posterior runs in two row blocks
        assert_matches_broadcast_reference(uniform_task(test_size=5003, separation=1.5))

    @pytest.mark.parametrize("test_size", [3071, 3072, 6144])
    def test_matches_broadcast_reference_at_block_edges(self, test_size):
        # the posterior and the oracle's per-case vectors run in one, two
        # and three row blocks, against one whole-partition pass here
        assert_matches_broadcast_reference(uniform_task(test_size=test_size, separation=1.5))

    @pytest.mark.parametrize("test_size", [40, 3071, 3072, 6143, 6144])
    def test_one_pass_equals_per_entry_calls(self, test_size):
        # the harness makes one call per seed, in row blocks, over every
        # cohort of every cell; one call per cohort, and one whole-partition
        # pass per cohort, give the same curves bit for bit
        task = uniform_task(test_size=test_size, separation=1.5)
        cohorts = [
            np.array([[0.9, 0.3, 0.5, 0.3, 0.3], [0.3, 0.8, 0.3, 0.6, 0.3]]),
            np.array([[0.2, 0.2, 0.9, 0.2, 0.7]]),
            np.full(5, 0.6),
        ]
        shared = bayes_optimal_reference(task, cohorts)
        assert len(shared) == len(cohorts)
        for acc, once in zip(cohorts, shared):
            for again in (reference(task, acc), per_call_reference(task, acc)):
                for a, b in zip(once, again):
                    assert a.rates.tobytes() == b.rates.tobytes()
                    assert a.accuracies.tobytes() == b.accuracies.tobytes()

    def test_peak_memory_below_one_posterior_matrix(self):
        # 20 000 cases of 40 classes: a (cases, K) float64 posterior alone
        # would be 6.4 MB, and the one-pass oracle holds no such matrix
        n, k = 20_000, 40
        task = generate_gaussian_task(SyntheticTaskSpec(
            num_classes=k, dim=8, separation=1.5, noise_scale=1.0, train_size=0,
            val_size=0, test_size=n, context_pool_size=0, seed=3,
        ))
        cohort = np.random.default_rng(0).uniform(0.2, 1.0, size=(5, k))
        tracemalloc.start()
        try:
            curves = bayes_optimal_reference(task, [cohort])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(curves) == 1
        assert peak < n * k * 8, f"peak {peak / 1e6:.1f} MB"


class TestRunTheoryChecks:
    def test_default_grid_passes(self, tmp_path):
        rows = run_theory_checks([0], out_dir=tmp_path)
        failing = [r for r in rows if not r.passed]
        assert failing == []
        report = (tmp_path / "theory_report.csv").read_text().splitlines()
        assert report[0] == "check,param_json,observed,threshold,pass"
        assert len(report) == len(rows) + 1
        assert all(line.endswith(",pass") for line in report[1:])

    def test_undersized_bound_is_negative_control(self):
        rows = run_theory_checks([0], bound_scale=0.1)
        id_rows = [r for r in rows if r.check == "identification_bound"]
        assert any(not r.passed for r in id_rows)

    def test_empty_seed_list_uses_default(self, tmp_path, capsys):
        # the default seed is the CLI's: the harness runs the seeds it is given
        assert run_theory_checks([]) == []
        assert main(["theory-check", "--out", str(tmp_path)]) == 0
        assert "no seeds given; using default seed 0" in capsys.readouterr().out
        report = (tmp_path / "theory_report.csv").read_text().splitlines()[1:]
        assert report
        assert all('""seed"": 0' in line for line in report)
