import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from deferlab.deferral import rejector_inputs
from deferlab.evaluation import (
    CURVE_CSV_HEADER,
    Curve,
    ScoredCases,
    area_under,
    build_curves,
    case_priorities,
    deferral_curves,
    score_cases,
    write_curve_csv,
    write_metrics_csv,
)
from deferlab.harness import Record
from deferlab.nets import BLOCK_ROWS, dense_net, forward
from deferlab.simulate import Dataset
from deferlab.tables import write_table
from gradcheck import net_of


def scored(priority, classifier_correct, expert_correct):
    """Scored cases that all went to expert 0."""
    chosen = np.zeros(len(priority), dtype=np.int64)
    return ScoredCases(priority, classifier_correct, expert_correct, chosen)


def brute_force_curves(cases):
    """Independent oracle: enumerate every deferral cutoff directly."""
    n = len(cases)
    order = sorted(range(n), key=lambda i: (-cases.priority[i], i))
    system, expert = [], []
    for j in range(n + 1):
        deferred = set(order[:j])
        correct = 0.0
        for i in range(n):
            correct += cases.expert_correct[i] if i in deferred else cases.classifier_correct[i]
        system.append(correct / n)
        if j > 0:
            expert.append(sum(cases.expert_correct[i] for i in deferred) / j)
    expert = [expert[0]] + expert
    return system, expert


def rep_from_mu(mu_values):
    """One expert's posterior-mean row a / (a + b) from the Beta parameters
    a = 10 mu and b = 10 (1 - mu)."""
    mu = np.asarray(mu_values, dtype=np.float64)
    a, b = 10 * mu, 10 * (1 - mu)
    return a / (a + b)


def linear_rejector(weights, bias=0.0):
    """A one-layer rejector whose deferral logit is ``weights @ x + bias``."""
    return net_of([(np.array([weights], dtype=np.float64), np.array([bias]))])


def priority_of(class_logits, deferral_logit):
    """One case's priority: deferral mass minus the top class mass on the
    joint (K+1)-simplex of its class logits and deferral logit."""
    logits = np.asarray(class_logits, dtype=np.float64)[None, :]
    rejector = linear_rejector([0.0], deferral_logit)
    return case_priorities(logits, rejector, np.zeros((1, 1)), None)[0, 0]


class TestDeferralPriority:
    def test_all_mass_on_deferral_approaches_one(self):
        # joint masses ~ (1e-9, 1e-9, 1 - 2e-9)
        assert priority_of([0.0, 0.0], math.log(1e9)) == pytest.approx(1.0, abs=1e-8)

    def test_certain_classifier_approaches_minus_one(self):
        assert priority_of([math.log(1e9), 0.0, 0.0], 0.0) == pytest.approx(-1.0, abs=1e-8)

    def test_uniform_is_zero(self):
        for k in (2, 5, 11):
            assert priority_of(np.zeros(k), 0.0) == pytest.approx(0.0, abs=1e-12)


def flat_classifier(dim, num_classes):
    """A one-layer classifier whose logits are 0 for every class and case."""
    return net_of([(np.zeros((num_classes, dim)), np.zeros(num_classes))])


def score_cohort(mu_at_expertise, predictions):
    """Score one case (label 0, flat classifier) against experts whose
    expertise class is 0. The rejector's deferral logit is 10 times the
    expert's posterior mean there, so the priorities rank the experts by
    it. Returns the scored case and every expert's priority."""
    data = Dataset(np.zeros((1, 3)), np.zeros(1, dtype=np.int64))
    rejector = linear_rejector([0.0, 0.0, 0.0, 10.0])
    mu = np.stack([rep_from_mu([m, 0.05]) for m in mu_at_expertise])
    correct = np.array(predictions, dtype=np.int64).reshape(len(mu), 1) == data.labels
    [cases] = score_cases(
        flat_classifier(3, 2), rejector, data, mu, correct,
        [(slice(None), np.random.default_rng(0))],
    )
    priorities = case_priorities(np.zeros((1, 2)), rejector, data.features, mu)
    return cases, priorities[:, 0]


class TestSelectExpert:
    """A case goes to the expert of highest priority; ties go to the lowest
    cohort index."""

    def test_single_expert(self):
        cases, priorities = score_cohort([0.3], [0])
        assert cases.chosen_expert.tolist() == [0]
        assert cases.priority[0] == priorities[0]

    def test_tie_goes_to_lowest(self):
        cases, priorities = score_cohort([0.2, 0.9, 0.9], [0, 0, 0])
        assert priorities[1] == priorities[2] > priorities[0]
        assert cases.chosen_expert.tolist() == [1]
        assert cases.priority[0] == priorities[1]

    def test_explicit_ids(self):
        # the chosen index is the expert's row in the correctness matrix
        cases, _ = score_cohort([0.1, 0.8], [1, 0])
        assert cases.chosen_expert.tolist() == [1] and cases.expert_correct.tolist() == [True]
        cases, _ = score_cohort([0.1, 0.8], [0, 1])
        assert cases.chosen_expert.tolist() == [1] and cases.expert_correct.tolist() == [False]

    def test_empty_cohort_rejected(self):
        data = Dataset(np.zeros((2, 3)), np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="empty cohort"):
            score_cases(
                flat_classifier(3, 2), linear_rejector([0.0] * 4), data, np.zeros((0, 2)),
                np.zeros((0, 2), dtype=bool), [(slice(None), np.random.default_rng(0))],
            )


class TestScoredCases:
    def test_priority_outside_unit_interval_rejected(self):
        for bad in (1.5, -1.0 - 1e-9, float("nan")):
            with pytest.raises(ValueError, match="priority"):
                scored([0.0, bad, 0.5], [True] * 3, [True] * 3)

    def test_interval_ends_accepted(self):
        cases = scored([-1.0, 1.0], [True, False], [False, True])
        assert len(cases) == 2

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            ScoredCases([0.1, 0.2], [True], [True, False], [0, 0])
        with pytest.raises(ValueError, match="aligned"):
            ScoredCases(np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)))


class TestCurve:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rate_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Curve(np.array([0.0, bad, 1.0]), np.array([0.2, 0.3, 0.4]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_accuracy_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Curve(np.array([0.0, 0.5, 1.0]), np.array([0.2, bad, 0.4]))


class TestBuildCurves:
    def test_perfect_system_is_constant_one(self):
        cases = scored([0.1 * i - 0.3 for i in range(5)], [True] * 5, [True] * 5)
        system, expert = build_curves(cases)
        assert np.all(system.accuracies == 1.0)
        assert np.all(expert.accuracies == 1.0)

    def test_wrong_classifier_oracle_expert_gives_identity_line(self):
        rng = np.random.default_rng(0)
        cases = scored([float(rng.uniform(-1, 1)) for _ in range(8)], [False] * 8, [True] * 8)
        system, _ = build_curves(cases)
        assert np.allclose(system.accuracies, system.rates, atol=1e-15)

    def test_matches_brute_force_on_random_fixtures(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(1, 21))
            rows = [
                (
                    float(rng.choice([-0.5, 0.0, 0.25, 0.8])),  # ties likely
                    bool(rng.integers(2)),
                    bool(rng.integers(2)),
                )
                for _ in range(n)
            ]
            cases = scored(*zip(*rows))
            system, expert = build_curves(cases)
            bf_system, bf_expert = brute_force_curves(cases)
            assert np.allclose(system.accuracies, bf_system, atol=1e-12)
            assert np.allclose(expert.accuracies, bf_expert, atol=1e-12)

    def test_expert_curve_extends_by_continuity_at_zero(self):
        cases = scored([0.9, 0.1], [True, True], [True, False])
        _, expert = build_curves(cases)
        assert expert.accuracies[0] == expert.accuracies[1] == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_curves(scored([], [], []))

    @pytest.mark.parametrize(
        "shapes",
        [[(3,), (5,), (3,)], [(3,), (3,), (5,)], [(3,), (3,), (2,)], [(3,), (2,), (3,)],
         [(5,), (3,), (3,)], [(2, 2), (2, 2), (2, 2)]],
        ids=str,
    )
    def test_misaligned_inputs_rejected(self, shapes):
        # longer correctness vectors used to be cut to the priorities' length
        with pytest.raises(ValueError, match=re.escape(f"got shapes {shapes}")):
            deferral_curves(*(np.zeros(shape) for shape in shapes))


class TestAreaUnder:
    def test_constant_curve(self):
        curve = Curve(np.linspace(0, 1, 11), np.full(11, 0.8))
        for rng in ((0.0, 1.0), (0.2, 0.7), (0.05, 0.95)):
            assert area_under(curve, *rng) == pytest.approx(0.8, abs=1e-12)

    def test_identity_curve(self):
        curve = Curve(np.linspace(0, 1, 21), np.linspace(0, 1, 21))
        assert area_under(curve, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_matches_analytic_segment_integral(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            rates = np.sort(rng.choice(np.linspace(0, 1, 101), size=n, replace=False))
            rates[0], rates[-1] = 0.0, 1.0
            accs = rng.uniform(size=n)
            curve = Curve(rates, accs)
            lo = float(rng.uniform(0, 0.45))
            hi = float(rng.uniform(0.55, 1.0))

            # closed-form piecewise-linear integral, clipped to [lo, hi]
            total = 0.0
            for (d0, a0), (d1, a1) in zip(zip(rates, accs), zip(rates[1:], accs[1:])):
                left, right = max(d0, lo), min(d1, hi)
                if left >= right:
                    continue
                slope = (a1 - a0) / (d1 - d0)
                al = a0 + slope * (left - d0)
                ar = a0 + slope * (right - d0)
                total += 0.5 * (al + ar) * (right - left)
            expected = total / (hi - lo)
            assert area_under(curve, lo, hi) == pytest.approx(expected, abs=1e-12)

    def test_result_between_curve_extremes(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            accs = rng.uniform(size=12)
            curve = Curve(np.linspace(0, 1, 12), accs)
            val = area_under(curve, 0.0, 1.0)
            assert accs.min() - 1e-12 <= val <= accs.max() + 1e-12

    def test_invalid_range_rejected(self):
        curve = Curve(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            area_under(curve, 0.5, 0.5)
        with pytest.raises(ValueError):
            area_under(curve, 0.8, 0.2)

    def test_uncovered_range_rejected(self):
        curve = Curve(np.array([0.2, 0.8]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            area_under(curve, 0.0, 0.5)


class TestMonotoneTransformInvariance:
    def test_areas_depend_only_on_priority_order(self):
        rng = np.random.default_rng(7)
        rows = [
            (float(p), bool(rng.integers(2)), bool(rng.integers(2)))
            for p in rng.uniform(-1, 1, size=30)
        ]
        cases = scored(*zip(*rows))
        system, expert = build_curves(cases)
        base = (area_under(system, 0.0, 1.0), area_under(expert, 0.0, 1.0))
        for transform in (lambda x: np.tanh(2 * x), lambda x: 0.5 * x + 0.1):
            warped = scored(
                [float(transform(p)) for p in cases.priority],
                cases.classifier_correct,
                cases.expert_correct,
            )
            ws, we = build_curves(warped)
            assert area_under(ws, 0.0, 1.0) == pytest.approx(base[0], abs=1e-12)
            assert area_under(we, 0.0, 1.0) == pytest.approx(base[1], abs=1e-12)


class TestScoreCases:
    def test_expert_aware_scoring_picks_argmax(self):
        clf = dense_net([3, 8, 3], 0)
        rej = dense_net([4, 8, 1], 1)
        data = Dataset(np.random.default_rng(0).normal(size=(12, 3)), np.zeros(12, dtype=np.int64))
        mu = np.stack([rep_from_mu([0.9, 0.4, 0.4]), rep_from_mu([0.4, 0.9, 0.4])])
        correct = np.ones((2, 12), dtype=bool)
        [cases] = score_cases(clf, rej, data, mu, correct, [(slice(None), np.random.default_rng(0))])
        matrix = case_priorities(forward(clf, data.features), rej, data.features, mu)
        expected = np.argmax(matrix, axis=0)
        assert cases.chosen_expert.tolist() == expected.tolist()
        assert all(cases.priority[i] == matrix[e, i] for i, e in enumerate(expected))

    def test_expert_independent_scoring_draws_uniformly(self):
        clf = dense_net([3, 8, 3], 0)
        rej = dense_net([3, 8, 1], 1)
        data = Dataset(np.random.default_rng(1).normal(size=(400, 3)), np.zeros(400, dtype=np.int64))
        correct = np.ones((4, 400), dtype=bool)

        def chosen(seed):
            [cases] = score_cases(
                clf, rej, data, None, correct, [(slice(None), np.random.default_rng(seed))]
            )
            return cases.chosen_expert

        counts = np.bincount(chosen(5), minlength=4)
        assert counts.min() > 0.25 * 400 / 4  # roughly uniform
        # same seed draws identically
        assert chosen(5).tolist() == chosen(5).tolist()

    def test_empty_cohort_rejected(self):
        clf = dense_net([3, 8, 3], 0)
        rej = dense_net([3, 8, 1], 1)
        data = Dataset(np.zeros((2, 3)), np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError):
            score_cases(
                clf, rej, data, None, np.zeros((0, 2), dtype=bool),
                [(slice(None), np.random.default_rng(0))],
            )

    @pytest.mark.parametrize("members", [slice(2, 2), slice(3, None), slice(1, 0)])
    def test_a_cohort_that_selects_no_expert_is_rejected(self, members):
        clf = dense_net([3, 8, 3], 0)
        rej = dense_net([3, 8, 1], 1)
        data = Dataset(np.zeros((2, 3)), np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="empty cohort"):
            score_cases(
                clf, rej, data, None, np.ones((3, 2), dtype=bool),
                [(slice(0, 1), np.random.default_rng(0)), (members, np.random.default_rng(1))],
            )


class TestRowAlignment:
    """Every input to scoring covers the same cases; a mismatch names both
    counts instead of truncating or failing to broadcast."""

    data = Dataset(np.random.default_rng(3).normal(size=(5, 3)), np.zeros(5, dtype=np.int64))
    classifier = dense_net([3, 8, 2], 4)
    rejector = dense_net([3, 8, 1], 5)

    def score(self, classifier=None, correct_cols=5, correct=None, mu=None, rejector=None):
        if correct is None:
            correct = np.zeros((2, correct_cols), dtype=bool)
        return score_cases(
            self.classifier if classifier is None else classifier,
            self.rejector if rejector is None else rejector, self.data, mu, correct,
            [(slice(None), np.random.default_rng(0))],
        )

    @pytest.mark.parametrize("cols", [8, 3])
    def test_correctness_columns_must_match_the_cases(self, cols):
        with pytest.raises(ValueError, match=f"{cols} columns but the data has 5 cases"):
            self.score(correct_cols=cols)

    def test_classifier_inputs_must_match_the_features(self):
        # the logits are the classifier's on the data, so they cannot
        # disagree with it in count; a classifier of another width is named
        with pytest.raises(ValueError, match=r"input shape \(5, 3\) incompatible .* dim 7"):
            self.score(classifier=dense_net([7, 8, 2], 4))

    def test_feature_rows_must_match_the_logits_without_mu(self):
        logits = np.random.default_rng(4).normal(size=(5, 2))
        with pytest.raises(ValueError, match="features have 9 rows but the logits have 5 cases"):
            case_priorities(logits, self.rejector, np.zeros((9, 3)), None)

    def test_mu_rows_must_match_the_cohort(self):
        mu = np.stack([rep_from_mu([0.9, 0.4])] * 3)
        rejector = dense_net([4, 8, 1], 5)
        with pytest.raises(ValueError, match="mu has 3 rows but the correctness matrix has 2 experts"):
            self.score(mu=mu, rejector=rejector)

    @pytest.mark.parametrize(
        "shape, message",
        [((2, 4), "4 columns but the data has 5 cases"),
         ((1, 6), "6 columns but the data has 5 cases"),
         ((5,), r"must be \(experts, cases\), got shape \(5,\)")],
    )
    def test_correctness_shape_must_be_experts_by_cases(self, shape, message):
        with pytest.raises(ValueError, match=message):
            self.score(correct=np.zeros(shape, dtype=bool))

    def test_aligned_inputs_score(self):
        [cases] = self.score()
        assert len(cases) == 5


def whole_array_scores(classifier, rejector, data, mu, correct, cohorts):
    """The scorer before row blocks: one classifier forward and one
    ``case_priorities`` over every case, so whole (cases, K) logits and an
    (experts, cases) priority matrix, then each cohort's argmax (or, with
    one shared row and more than one expert, its draw) over all cases."""
    n = len(data)
    logits = forward(classifier, data.features)
    priorities = case_priorities(logits, rejector, data.features, mu)
    clf_correct = np.argmax(logits, axis=1) == data.labels
    scored = []
    for members, rng in cohorts:
        rows, cohort = (priorities if mu is None else priorities[members]), correct[members]
        if len(rows) == 1 and len(cohort) > 1:
            chosen = rng.integers(len(cohort), size=n)
            priority = rows[0]
        else:
            chosen = np.argmax(rows, axis=0)
            priority = rows[chosen, np.arange(n)]
        scored.append((priority, clf_correct, cohort[chosen, np.arange(n)], chosen))
    return scored


# case counts on both sides of the row-block edges (2 048-row blocks, and a
# tail under 1 024 rows joins the block before it)
BLOCK_EDGE_CASES = [1, 1023, 2047, 2048, 3071, 3072, 5003]


class TestBlockwiseScorer:
    """``score_cases`` walks row blocks and keeps only per-case vectors; it
    gives the whole-array path's results bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(BLOCK_EDGE_CASES), st.integers(1, 6), st.booleans(), st.booleans(),
        st.lists(st.booleans(), min_size=5, max_size=5), st.integers(0, 2**32 - 1),
    )
    # an expert-aware cohort of one expert
    @example(n=5003, experts=1, aware=True, tied=False, cuts=[False] * 5, seed=0)
    # expert-independent cohorts of one and of three
    @example(n=3072, experts=4, aware=False, tied=False, cuts=[True] + [False] * 4, seed=1)
    @example(n=1, experts=2, aware=False, tied=False, cuts=[False] * 5, seed=2)
    # tied priorities within cohorts of one and of more than one
    @example(n=2047, experts=5, aware=True, tied=True, cuts=[True, False, True, False, False],
             seed=3)
    def test_equals_the_whole_array_path_bit_for_bit(self, n, experts, aware, tied, cuts, seed):
        rng = np.random.default_rng(seed)
        num_classes, dim = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        data = Dataset(rng.normal(size=(n, dim)), rng.integers(num_classes, size=n))
        classifier = dense_net([dim, 8, num_classes], rng)
        rejector = dense_net([4 if aware else dim, 8, 1], rng)
        mu = None
        if aware:
            mu = np.stack(
                [rep_from_mu(rng.uniform(0.01, 0.99, size=num_classes)) for _ in range(experts)]
            )
            if tied:  # identical experts get identical priority rows
                mu[1:] = mu[0]
        correct = rng.random((experts, n)) < 0.6
        edges = [0] + [i + 1 for i in range(experts - 1) if cuts[i]]
        members = [slice(a, b) for a, b in zip(edges, edges[1:])] + [slice(edges[-1], None)]

        def cohorts():
            return [(m, np.random.default_rng([seed, c])) for c, m in enumerate(members)]

        got = score_cases(classifier, rejector, data, mu, correct, cohorts())
        want = whole_array_scores(classifier, rejector, data, mu, correct, cohorts())
        assert len(got) == len(want) == len(members)
        for cases, (priority, clf_correct, expert_correct, chosen) in zip(got, want):
            assert cases.priority.tobytes() == priority.tobytes()
            assert cases.classifier_correct.tobytes() == clf_correct.tobytes()
            assert cases.expert_correct.tobytes() == expert_correct.tobytes()
            assert cases.chosen_expert.dtype == chosen.dtype
            assert cases.chosen_expert.tobytes() == chosen.tobytes()
            if aware and tied:
                assert not cases.chosen_expert.any()  # ties go to the lowest index

    def test_peak_memory_holds_no_test_size_matrix(self):
        # Scoring one method of 10 experts in two cohorts on 20 000 cases.
        # The whole-array path held the (cases, K) logits and the
        # (experts, cases) priority matrix, 3.2 MB together, and peaked at
        # 4.6 MB traced; the row blocks keep per-case vectors (0.7 MB) and
        # one block's temporaries, about 2.6 MB.
        cases, experts, num_classes, dim = 20_000, 10, 10, 16
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(cases, dim)), rng.integers(num_classes, size=cases))
        classifier = dense_net([dim, 32, num_classes], 1)
        rejector = dense_net([4, 32, 32, 1], 2)
        mu = np.stack(
            [rep_from_mu(rng.uniform(0.01, 0.99, size=num_classes)) for _ in range(experts)]
        )
        correct = rng.random((experts, cases)) < 0.5

        def score():
            return score_cases(
                classifier, rejector, data, mu, correct,
                [(slice(0, 5), np.random.default_rng(0)), (slice(5, None), np.random.default_rng(1))],
            )

        score()  # warm numpy's caches before tracing
        tracemalloc.start()
        try:
            score()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        test_size_matrices = cases * (num_classes + experts) * 8
        assert peak < test_size_matrices, f"peak {peak / 1e6:.2f} MB"


def reference_softmax(logits):
    """The row softmax on its own: ``exp`` of the max-shifted logits over
    their row sum."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def explicit_joint_priority(logits, g):
    """Deferral mass minus top class mass, from the explicit (cases, K+1)
    joint softmax."""
    q = reference_softmax(np.column_stack([logits, g]))
    return q[:, -1] - q[:, :-1].max(axis=1)


def deferral_logit_rows(logits, rejector, features, mu):
    """Every expert's deferral logits over all cases, one rejector pass per
    expert; one expert-independent row for ``mu=None``."""
    if mu is None:
        return [forward(rejector, features)[:, 0]]
    rho = reference_softmax(logits)
    kstar = np.argmax(rho, axis=1)
    return [forward(rejector, rejector_inputs(rho, kstar, row[None, :]))[:, 0] for row in mu]


def reference_priorities(logits, rejector, features, mu):
    """Priority rows from the explicit joint, one expert at a time."""
    rows = deferral_logit_rows(logits, rejector, features, mu)
    return np.array([explicit_joint_priority(logits, g) for g in rows])


@st.composite
def priority_inputs(draw):
    """Logits (at scale 800 most class masses underflow), a rejector and a
    cohort."""
    num_classes = draw(st.integers(2, 6))
    cases = draw(st.integers(1, 40))
    experts = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0, 800.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(scale=scale, size=(cases, num_classes))
    rejector = dense_net([4, 8, 1], rng)
    mu = np.stack([rep_from_mu(rng.uniform(0.01, 0.99, size=num_classes)) for _ in range(experts)])
    return logits, rejector, mu


# ``case_priorities`` reads the joint through the class softmax, so its
# priorities differ from the explicit joint's in the last bits only: 3.3e-16
# at most over 3 000 random cohorts.
EXPLICIT_JOINT_ATOL = 1e-15


class TestCasePriorityProperties:
    @settings(max_examples=100, deadline=None)
    @given(priority_inputs())
    def test_rows_equal_per_expert_softmax_reference(self, inputs):
        logits, rejector, mu = inputs
        features = np.zeros((len(logits), 4))
        got = case_priorities(logits, rejector, features, mu)
        want = reference_priorities(logits, rejector, features, mu)
        np.testing.assert_allclose(got, want, rtol=0, atol=EXPLICIT_JOINT_ATOL)

    @settings(max_examples=50, deadline=None)
    @given(priority_inputs(), st.integers(0, 2**32 - 1))
    def test_expert_independent_row_equals_reference(self, inputs, seed):
        logits, _, _ = inputs
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(len(logits), 3))
        rejector = dense_net([3, 8, 1], rng)
        got = case_priorities(logits, rejector, features, None)
        assert got.shape == (1, len(logits))
        want = reference_priorities(logits, rejector, features, None)
        np.testing.assert_allclose(got, want, rtol=0, atol=EXPLICIT_JOINT_ATOL)

    @settings(max_examples=100, deadline=None)
    @given(priority_inputs(), st.data())
    def test_permuting_the_cohort_permutes_rows(self, inputs, data):
        logits, rejector, mu = inputs
        perm = data.draw(st.permutations(range(len(mu))))
        features = np.zeros((len(logits), 4))
        rows = case_priorities(logits, rejector, features, mu)
        permuted = case_priorities(logits, rejector, features, mu[perm])
        assert permuted.tobytes() == rows[perm].tobytes()

    @settings(max_examples=50, deadline=None)
    @given(priority_inputs(), st.data())
    def test_a_slice_of_the_cohort_scores_the_slice_of_the_rows(self, inputs, data):
        # the harness scores a cell's whole population once and slices each cohort
        logits, rejector, mu = inputs
        start = data.draw(st.integers(0, len(mu) - 1))
        stop = data.draw(st.integers(start + 1, len(mu)))
        features = np.zeros((len(logits), 4))
        rows = case_priorities(logits, rejector, features, mu)
        part = case_priorities(logits, rejector, features, mu[start:stop])
        assert part.tobytes() == rows[start:stop].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(priority_inputs(), st.data())
    def test_identical_experts_get_identical_rows(self, inputs, data):
        logits, rejector, mu = inputs
        picks = data.draw(st.lists(st.integers(0, len(mu) - 1), min_size=2, max_size=8))
        rows = case_priorities(logits, rejector, np.zeros((len(logits), 4)), mu[picks])
        for r, i in enumerate(picks):
            first = picks.index(i)
            assert rows[r].tobytes() == rows[first].tobytes()


def priorities_at(logits, g):
    """Priority of every case ``i`` against deferral logit ``g[i]``: a
    one-layer rejector that passes its one feature through exactly."""
    return case_priorities(logits, linear_rejector([1.0]), g[:, None], None)[0]


@st.composite
def extreme_logits(draw):
    """Class logits and one deferral logit per case, anywhere in +-1e300."""
    cases = draw(st.integers(1, 20))
    num_classes = draw(st.integers(2, 6))
    values = st.floats(-1e300, 1e300)
    logits = draw(hnp.arrays(np.float64, (cases, num_classes), elements=values))
    return logits, draw(hnp.arrays(np.float64, cases, elements=values))


class TestFactoredPrioritySign:
    """The factored priority's sign is that of ``g - top`` or 0. The explicit
    joint divides both masses by its normaliser before subtracting them, and
    at a near tie two masses one ulp apart can round to one quotient: there
    it gives 0 where the factored form keeps the sign. It never gives the
    opposite sign."""

    @settings(max_examples=100, deadline=None)
    @given(priority_inputs())
    def test_sign_agrees_with_the_explicit_joint_at_near_ties(self, inputs):
        logits, rejector, mu = inputs
        top = logits.max(axis=1)
        g_rows = deferral_logit_rows(logits, rejector, np.zeros((len(logits), 4)), mu)
        g_rows += [top, np.nextafter(top, np.inf), np.nextafter(top, -np.inf)]
        for g in g_rows:
            got = priorities_at(logits, g)
            want = explicit_joint_priority(logits, g)
            assert np.isfinite(got).all() and (np.abs(got) <= 1.0).all()
            assert (got[g == top] == 0.0).all()
            assert (np.sign(got) * np.sign(g - top) >= 0).all()
            # the explicit joint agrees wherever it is not 0, and is 0
            # wherever the factored priority is
            nonzero = want != 0.0
            assert (np.sign(got[nonzero]) == np.sign(want[nonzero])).all()
            assert (want[got == 0.0] == 0.0).all()

    def test_explicit_joint_rounds_a_near_tie_to_zero(self):
        logits = np.array([[0.5, -1.0]])
        below = np.array([np.nextafter(0.5, -np.inf)])
        assert explicit_joint_priority(logits, below)[0] == 0.0
        assert priorities_at(logits, below)[0] < 0.0
        above = np.array([np.nextafter(0.5, np.inf)])
        assert explicit_joint_priority(logits, above)[0] == 0.0
        assert priorities_at(logits, above)[0] > 0.0

    @settings(max_examples=100, deadline=None)
    @given(extreme_logits())
    def test_extreme_logits_give_finite_priorities_without_warnings(self, drawn):
        logits, g = drawn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = priorities_at(logits, g)
        assert np.isfinite(got).all() and (np.abs(got) <= 1.0).all()
        assert (np.sign(got) * np.sign(g - logits.max(axis=1)) >= 0).all()


def whole_forward(net, x):
    """``nets.forward`` without row blocks: every layer on the whole batch."""
    a = x
    for i, layer in enumerate(net.views):
        z = a @ layer.weights.T
        z += layer.bias
        a = np.maximum(z, 0.0) if i < len(net.layout) - 1 else z
    return a


def whole_matrix_priorities(logits, rejector, features, mu):
    """``case_priorities`` on the whole matrix: one class pass, every
    rejector pass and the factored joint priority run on all cases at once,
    one expert at a time."""
    top = logits.max(axis=1)
    total = np.exp(logits - top[:, None]).sum(axis=1)
    if mu is None:
        deferral_logits = [whole_forward(rejector, features)[:, 0]]
    else:
        rho = reference_softmax(logits)
        kstar = np.argmax(rho, axis=1)
        deferral_logits = (
            whole_forward(rejector, rejector_inputs(rho, kstar, mu[e : e + 1]))[:, 0]
            for e in range(len(mu))
        )
    out = np.empty((1 if mu is None else len(mu), len(logits)))
    for i, g in enumerate(deferral_logits):
        m = np.maximum(top, g)
        a = np.exp(g - m)
        b = np.exp(top - m)
        out[i] = (a - b) / (a + total * b)
    return out


def large_cohort_inputs(cases, num_classes=10, dim=16, experts=5, seed=0):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=3.0, size=(cases, num_classes))
    features = rng.normal(size=(cases, dim))
    mu = np.stack([rep_from_mu(rng.uniform(0.01, 0.99, size=num_classes)) for _ in range(experts)])
    return logits, features, mu


class TestBlockedCasePriorities:
    @pytest.mark.parametrize(
        "cases",
        [BLOCK_ROWS + 1, 3 * BLOCK_ROWS // 2 - 1, 3 * BLOCK_ROWS // 2, 2 * BLOCK_ROWS,
         5003, 3 * BLOCK_ROWS + BLOCK_ROWS // 2 - 1, 3 * BLOCK_ROWS + BLOCK_ROWS // 2],
    )
    def test_equals_the_whole_matrix_algorithm_bit_for_bit(self, cases):
        logits, features, mu = large_cohort_inputs(cases, seed=cases)
        rng = np.random.default_rng(cases)
        rejector = dense_net([4, 32, 32, 1], rng)
        got = case_priorities(logits, rejector, features, mu)
        assert got.tobytes() == whole_matrix_priorities(logits, rejector, features, mu).tobytes()
        baseline = dense_net([features.shape[1], 32, 1], rng)
        got = case_priorities(logits, baseline, features, None)
        want = whole_matrix_priorities(logits, baseline, features, None)
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_stays_below_one_full_hidden_activation(self):
        # One (cases, 32) float64 hidden activation of the whole test set is
        # the least that an unblocked rejector pass holds; blocks stay far
        # below it. The (experts, cases) result itself is 2.4 MB here.
        cases = 60_000
        logits, features, mu = large_cohort_inputs(cases)
        rejector = dense_net([4, 32, 32, 1], 1)
        tracemalloc.start()
        try:
            case_priorities(logits, rejector, features, mu)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cases * 32 * 8, f"peak {peak / 1e6:.1f} MB"


class TestCsvWriters:
    def test_curve_csv_header_and_determinism(self, tmp_path):
        system = Curve(np.array([0.0, 0.5, 1.0]), np.array([0.9, 0.8, 0.7]))
        expert = Curve(np.array([0.0, 0.5, 1.0]), np.array([0.6, 0.65, 0.7]))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curve_csv(p1, system, expert)
        write_curve_csv(p2, system, expert)
        text = p1.read_text()
        assert text.splitlines()[0] == "deferral_rate,system_accuracy,expert_accuracy"
        assert p1.read_bytes() == p2.read_bytes()

    def test_mismatched_grids_rejected(self, tmp_path):
        a = Curve(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        b = Curve(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.5, 0.5]))
        with pytest.raises(ValueError):
            write_curve_csv(tmp_path / "c.csv", a, b)

    def test_metrics_csv_header(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, [("aursac", 0.0, 1.0, 0.83, "id", 1)])
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,d_min,d_max,value,cohort,seed"
        assert lines[1].startswith("aursac,0.0,1.0,0.83,id,1")


# One case as (priority, classifier correct, expert correct).
case_rows = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.booleans(), st.booleans()), min_size=1, max_size=60
)


class TestCurveProperties:
    @settings(max_examples=200, deadline=None)
    @given(case_rows)
    def test_endpoints_are_classifier_and_expert_accuracy(self, rows):
        cases = scored(*zip(*rows))
        system, expert = build_curves(cases)
        assert system.accuracies[0] == np.mean(cases.classifier_correct)
        assert system.accuracies[-1] == np.mean(cases.expert_correct)
        assert expert.accuracies[-1] == np.mean(cases.expert_correct)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 3 * BLOCK_ROWS + BLOCK_ROWS // 2),
        seed=st.integers(0, 2**32 - 1),
        rate=st.floats(0.0, 1.0),
    )
    @example(n=1, seed=0, rate=1.0)
    @example(n=3 * BLOCK_ROWS + 1, seed=1, rate=0.5)
    @example(n=60_000, seed=2, rate=0.7)
    def test_system_accuracy_at_rate_zero_is_the_classifier_accuracy_bit_for_bit(
        self, n, seed, rate
    ):
        # a record's classifier accuracy is its system curve at rate 0; it
        # equals the mean of the 0/1 classifier correctness to the last bit
        rng = np.random.default_rng(seed)
        correct = rng.random(n) < rate
        system, _ = deferral_curves(
            rng.uniform(-1.0, 1.0, n), correct.astype(np.float64), rng.random(n)
        )
        assert system.accuracies[0].tobytes() == np.mean(correct).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(case_rows, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_area_is_additive_over_split_ranges(self, rows, a, b, c):
        lo, mid, hi = sorted((a, b, c))
        assume(lo < mid < hi)
        for curve in build_curves(scored(*zip(*rows))):
            whole = area_under(curve, lo, hi) * (hi - lo)
            left = area_under(curve, lo, mid) * (mid - lo)
            right = area_under(curve, mid, hi) * (hi - mid)
            assert whole == pytest.approx(left + right, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_permuting_distinct_priorities_leaves_curves_unchanged(self, data):
        priorities = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60, unique=True))
        n = len(priorities)
        clf = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        exp = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        perm = data.draw(st.permutations(range(n)))
        system, expert = build_curves(scored(priorities, clf, exp))
        p_system, p_expert = build_curves(
            scored([priorities[i] for i in perm], [clf[i] for i in perm], [exp[i] for i in perm])
        )
        assert np.array_equal(system.accuracies, p_system.accuracies)
        assert np.array_equal(expert.accuracies, p_expert.accuracies)


def reference_curve_csv(path, system_curve, expert_curve):
    """The package's one table writer, which the curve fast path must match."""
    rows = zip(system_curve.rates, system_curve.accuracies, expert_curve.accuracies)
    write_table(path, CURVE_CSV_HEADER, rows)


class TestCurveCsvBytes:
    # The writer formats and writes one ``nets.row_blocks`` block of a curve's
    # n + 1 rows at a time, so the counts around block edges are checked too.
    @pytest.mark.parametrize(
        "n",
        [1, 7, BLOCK_ROWS - 2, BLOCK_ROWS - 1, BLOCK_ROWS, 3 * BLOCK_ROWS // 2 - 2,
         3 * BLOCK_ROWS // 2 - 1, 2 * BLOCK_ROWS, 5_003, 60_000],
    )
    @pytest.mark.parametrize("shape", ["on-grid", "off-grid"])
    def test_matches_write_table(self, tmp_path, n, shape):
        rng = np.random.default_rng(n)
        if shape == "on-grid":
            # a trained system: 0/1 correctness puts the system column on the grid
            cases = scored(rng.uniform(-1, 1, size=n), rng.integers(2, size=n),
                           rng.integers(2, size=n))
            system, expert = build_curves(cases)
            assert np.array_equal(np.rint(system.accuracies * n) / n, system.accuracies)
        else:
            # as the oracle writes: expected expert correctness puts both
            # accuracy columns off the grid
            system, expert = deferral_curves(
                rng.uniform(-1, 1, size=n), rng.integers(2, size=n).astype(np.float64),
                rng.uniform(0.2, 0.9, size=n),
            )
            if n > 7:
                for column in (system.accuracies, expert.accuracies):
                    assert np.mean(np.rint(column * n) / n != column) > 0.9
        if n == 60_000:
            assert repr(float(system.rates[1])) == "1.6666666666666667e-05"
        write_curve_csv(tmp_path / "new.csv", system, expert)
        reference_curve_csv(tmp_path / "ref.csv", system, expert)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_peak_memory_of_a_long_curve_stays_at_one_block(self, tmp_path):
        # The whole 60 001-row file's text is about 3 MB, and joining it
        # whole held more than 16 MB at once; one block's text is far less.
        n = 60_000
        rng = np.random.default_rng(0)
        system, expert = deferral_curves(
            rng.uniform(-1, 1, size=n), rng.integers(2, size=n).astype(np.float64),
            rng.uniform(0.2, 0.9, size=n),
        )
        write_curve_csv(tmp_path / "warm.csv", system, expert)  # fills the grid caches
        tracemalloc.start()
        try:
            write_curve_csv(tmp_path / "curve.csv", system, expert)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "curve.csv").stat().st_size > 3_000_000
        assert peak < 4_000_000, f"peak {peak / 1e6:.1f} MB"

    def test_exact_ends_and_inexact_sums(self, tmp_path):
        rates = np.array([0.0, 0.1 + 0.2, 0.5, 1.0])
        system = Curve(rates, np.array([0.0, 1.0, 0.1 + 0.2, 1 / 3]))
        expert = Curve(rates, np.array([1.0, 0.0, 0.7 - 0.4, 2 / 3]))
        write_curve_csv(tmp_path / "new.csv", system, expert)
        reference_curve_csv(tmp_path / "ref.csv", system, expert)
        text = (tmp_path / "new.csv").read_text()
        assert "0.30000000000000004,1.0,0.0" in text and text.endswith("\n")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestSharedRateGrid:
    def test_curves_of_one_case_count_share_one_read_only_grid(self):
        rng = np.random.default_rng(0)
        first = build_curves(scored(rng.uniform(-1, 1, 50), rng.integers(2, size=50),
                                    rng.integers(2, size=50)))
        second = deferral_curves(rng.uniform(-1, 1, 50), rng.random(50), rng.random(50))
        grids = [curve.rates for curve in (*first, *second)]
        assert all(g is grids[0] for g in grids)
        assert np.array_equal(grids[0], np.arange(51) / 50)
        with pytest.raises(ValueError, match="read-only"):
            grids[0][1] = 0.5

    def test_areas_and_record_metrics_read_the_shared_grid(self):
        system, expert = deferral_curves(
            np.array([0.5, -0.5, 0.0, 0.25]), np.array([1.0, 0.0, 1.0, 1.0]),
            np.array([1.0, 1.0, 0.0, 1.0]),
        )
        # hand sums: system (3, 3, 3, 2, 3) / 4, expert (1, 1, 2/2, 2/3, 3/4)
        assert np.array_equal(system.accuracies, np.array([3, 3, 3, 2, 3]) / 4)
        record = Record("ea_l2d", 0.5, 1, 1, "id", system, expert)
        assert record.classifier_accuracy == 0.75
        # trapezoids of width 1/4 over (0.75, 0.75, 0.75, 0.5, 0.75) and,
        # on [1/4, 3/4], over (1, 1, 2/3)
        assert record.aursac() == 0.6875
        assert record.aurdac(0.25, 0.75) == pytest.approx((1 + (1 + 2 / 3) / 2) / 2)
        # a curve built on a fresh writable copy of the grid validates and
        # integrates the same
        copy = Curve(system.rates.copy(), system.accuracies)
        assert area_under(copy, 0.0, 1.0) == area_under(system, 0.0, 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            Curve(system.rates[::-1], system.accuracies)


# Curve values drawn as grid points j/n, off-grid floats, or the edge values
# the writer must not confuse with grid points.
edge_values = st.sampled_from(
    [-0.0, -1e-12, -1e-13, float(np.nextafter(0.0, -1.0)), 1.0 + 1e-12, 1.0 + 1e-13,
     float(np.nextafter(1.0, 2.0)), 0.1 + 0.2, 1 / 3]
)
off_grid_values = st.one_of(st.floats(0.0, 1.0), edge_values)


@st.composite
def curve_pairs(draw):
    n = draw(st.integers(0, 40))
    if n == 0:
        rates = np.array([draw(st.one_of(st.floats(0.0, 1.0), st.just(-0.0)))])
    elif draw(st.booleans()):
        rates = np.arange(n + 1) / n
    else:
        rates = np.array(sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n + 1, max_size=n + 1, unique=True))))
        assume(np.all(np.diff(rates) > 0))
    on_grid_values = st.integers(0, n).map(lambda j: j / n) if n else st.just(0.0)

    def column():
        kind = draw(st.sampled_from(["on-grid", "off-grid", "mixed"]))
        if kind == "off-grid":
            return np.array([draw(off_grid_values) for _ in range(n + 1)])
        values = np.array([draw(on_grid_values) for _ in range(n + 1)])
        if kind == "mixed":
            values[draw(st.integers(0, n))] = draw(off_grid_values)
        return values

    return Curve(rates, column()), Curve(rates, column())


class TestCurveCsvProperties:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(curve_pairs())
    def test_bytes_equal_write_table(self, tmp_path, curves):
        write_curve_csv(tmp_path / "new.csv", *curves)
        reference_curve_csv(tmp_path / "ref.csv", *curves)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
