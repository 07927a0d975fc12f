import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from deferlab.deferral import rejector_inputs
from deferlab.errors import DatasetParseError
from deferlab.experts import (
    PriorElicitation,
    build_representation,
    load_prior_file,
    prior_arrays,
    sample_complexity_bound,
    write_prior_file,
)
from deferlab.simulate import SimulatedExpertSpec, expert_predict_batch


def reference_posterior(labels, predictions, num_classes, prior):
    """Count-and-update in plain Python floats: per class k, n_k items and
    t_k correct ones; Beta(a_k, b_k) becomes Beta(a_k + t_k, b_k + n_k - t_k)
    and the mean is alpha / (alpha + beta). Returns the means."""
    n = [0] * num_classes
    t = [0] * num_classes
    for y, m in zip(labels, predictions):
        n[y] += 1
        t[y] += m == y
    alpha, beta = [], []
    for k in range(num_classes):
        a0 = b0 = 1.0
        if prior is not None:
            p, scale = float(prior.p[k]), float(prior.c[k]) * (prior.s - 2.0)
            a0, b0 = 1.0 + p * scale, 1.0 + (1.0 - p) * scale
        alpha.append(a0 + t[k])
        beta.append(b0 + (n[k] - t[k]))
    return [a / (a + b) for a, b in zip(alpha, beta)]


def expertise_class(mu_row):
    """The expertise class as the rejector reads it: with the class softmax
    set to rho_k = k, rejector input column 0 is the class index, and column
    3 is the posterior mean there."""
    rho = np.arange(len(mu_row), dtype=np.float64)[None, :]
    inputs = rejector_inputs(rho, np.zeros(1, dtype=np.int64), mu_row[None, :])[0]
    assert inputs[3] == mu_row[int(inputs[0])]
    return int(inputs[0])


def one_expert(labels, predictions, num_classes, prior=None):
    """One expert's posterior means, a (K,) row."""
    return build_representation(*prior_arrays([prior], num_classes), [labels], [predictions])[0]


@st.composite
def expert_contexts(draw, num_classes):
    """One expert's context (possibly empty) and a uniform or elicited prior."""
    size = draw(st.integers(0, 30))
    classes = st.integers(0, num_classes - 1)
    labels = draw(st.lists(classes, min_size=size, max_size=size))
    # predictions are often right, so per-class means often tie
    predictions = [y if draw(st.booleans()) else draw(classes) for y in labels]
    unit = st.lists(st.floats(0.0, 1.0), min_size=num_classes, max_size=num_classes)
    prior = draw(st.none() | st.builds(
        PriorElicitation, unit.map(np.array), unit.map(np.array), st.floats(2.0, 50.0)
    ))
    return labels, predictions, prior


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(expert_contexts(k), min_size=1, max_size=4))
))
@example((3, [([], [], None), ([0, 1, 1, 2], [0, 1, 0, 2], None)]))
def test_representation_matches_count_and_update_reference(case):
    num_classes, cohort = case
    alpha0, beta0 = prior_arrays([prior for *_, prior in cohort], num_classes)
    mu = build_representation(alpha0, beta0, *zip(*[(y, m) for y, m, _ in cohort]))
    assert mu.shape == (len(cohort), num_classes)
    for e, (labels, predictions, prior) in enumerate(cohort):
        ref_mu = reference_posterior(labels, predictions, num_classes, prior)
        assert one_expert(labels, predictions, num_classes, prior).tolist() == ref_mu
        assert mu[e].tolist() == ref_mu
        assert expertise_class(mu[e]) == ref_mu.index(max(ref_mu))


def counts(labels, predictions, num_classes):
    """Per-class (items, correct) counts recovered from the means under the
    priors Beta(1, 1) and Beta(1, 2): 1 / mu = (1 + beta0 + n) / (1 + t)."""
    ones = np.ones((1, num_classes))
    mu1, mu2 = (
        build_representation(ones, b * ones, [labels], [predictions])[0] for b in (1.0, 2.0)
    )
    t = 1.0 / (1.0 / mu2 - 1.0 / mu1) - 1.0
    n = (1.0 + t) / mu1 - 2.0
    return np.rint(n).tolist(), np.rint(t).tolist()


class TestCountContext:
    def test_empty_context_all_zero(self):
        n, t = counts([], [], 4)
        assert n == [0, 0, 0, 0] and t == [0, 0, 0, 0]

    def test_small_example(self):
        n, t = counts([0, 0, 1], [0, 1, 1], 2)
        assert n == [2, 1]
        assert t == [1, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            one_expert([0], [3], 2)
        with pytest.raises(ValueError):
            one_expert([-1], [0], 2)

    def test_counts_track_simulated_expert_accuracy(self):
        expert = SimulatedExpertSpec(0, frozenset({1}), 0.3)
        rng = np.random.default_rng(77)
        num_classes = 5
        labels = rng.integers(num_classes, size=1000)
        preds = expert_predict_batch(expert, labels, num_classes, rng)
        n, t = counts(labels, preds, num_classes)
        assert t[1] == n[1]  # oracle on the expertise class
        expected = 0.3 + 0.7 / num_classes
        for k in (0, 2, 3, 4):
            sigma = np.sqrt(expected * (1 - expected) / n[k])
            assert abs(t[k] / n[k] - expected) < 3 * sigma + 1e-9


def elicited(p, c, s):
    """The Beta prior one elicitation gives its single class."""
    alpha0, beta0 = prior_arrays([PriorElicitation(np.array([p]), np.array([c]), s)], 1)
    return alpha0[0, 0], beta0[0, 0]


class TestElicitPrior:
    def test_zero_confidence_gives_uniform(self):
        for p in (0.0, 0.3, 1.0):
            assert elicited(p, 0.0, 10.0) == (1.0, 1.0)

    def test_reference_inputs(self):
        alpha, beta = elicited(0.8, 0.8, 15.0)
        assert alpha == pytest.approx(9.32, abs=1e-12)
        assert beta == pytest.approx(3.08, abs=1e-12)

    def test_full_confidence_boundary(self):
        alpha, beta = elicited(1.0, 1.0, 10.0)
        assert alpha == pytest.approx(9.0, abs=1e-12)
        assert beta == pytest.approx(1.0, abs=1e-12)

    def test_weak_strength_rejected(self):
        with pytest.raises(ValueError):
            PriorElicitation(np.array([0.5]), np.array([0.5]), 1.9)

    def test_out_of_range_inputs_rejected(self):
        with pytest.raises(ValueError):
            PriorElicitation(np.array([1.5]), np.array([0.5]), 10.0)
        with pytest.raises(ValueError):
            PriorElicitation(np.array([0.5]), np.array([-0.1]), 10.0)


def updated(alpha, beta, n, t):
    """Class 0's posterior mean from a Beta(alpha, beta) prior after t
    correct answers out of n (the wrong answers name class 1)."""
    mu = build_representation(
        np.array([[alpha, 1.0]]), np.array([[beta, 1.0]]), [[0] * n], [[0] * t + [1] * (n - t)]
    )
    return mu[0, 0]


def mean(alpha, beta):
    return updated(alpha, beta, 0, 0)


class TestUpdatePosterior:
    def test_no_observations_is_identity(self):
        assert updated(1.0, 1.0, 0, 0) == 1.0 / (1.0 + 1.0)

    def test_uniform_prior_update(self):
        assert updated(1.0, 1.0, 10, 8) == 9.0 / (9.0 + 3.0)

    def test_informative_prior_update(self):
        assert updated(9.32, 3.08, 5, 5) == pytest.approx(14.32 / (14.32 + 3.08), abs=1e-12)


class TestPosteriorMean:
    def test_uniform_is_half(self):
        assert mean(1.0, 1.0) == 0.5

    def test_uniform_plus_counts(self):
        assert updated(1.0, 1.0, 10, 8) == pytest.approx(0.75)

    def test_elicited(self):
        assert mean(9.32, 3.08) == pytest.approx(9.32 / 12.40, abs=1e-12)

    def test_exactness_over_random_tuples(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            alpha = rng.uniform(0.01, 50)
            beta = rng.uniform(0.01, 50)
            n = int(rng.integers(0, 500))
            t = int(rng.integers(0, n + 1))
            assert updated(alpha, beta, n, t) == pytest.approx(
                (alpha + t) / (alpha + beta + n), abs=1e-12
            )

    def test_monotone_in_observations(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            alpha, beta = rng.uniform(0.1, 20), rng.uniform(0.1, 20)
            up = updated(alpha, beta, 1, 1)
            down = updated(alpha, beta, 1, 0)
            assert up > mean(alpha, beta) > down

    def test_sequential_equals_batch(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            # quarter-step params are exactly representable, so equality is exact
            prior = (rng.integers(1, 40) / 4, rng.integers(1, 40) / 4)
            chunks = [
                (int(n), int(rng.integers(0, n + 1)))
                for n in rng.integers(0, 30, size=4)
            ]
            batch = updated(*prior, sum(n for n, _ in chunks), sum(t for _, t in chunks))
            # updating on the first i chunks gives the prior of the rest
            for i in range(len(chunks) + 1):
                done, rest = chunks[:i], chunks[i:]
                posterior = (
                    prior[0] + sum(t for _, t in done),
                    prior[1] + sum(n - t for n, t in done),
                )
                n_rest, t_rest = sum(n for n, _ in rest), sum(t for _, t in rest)
                assert updated(*posterior, n_rest, t_rest) == batch


class TestBuildRepresentation:
    def test_empty_context_uniform_prior(self):
        mu = one_expert([], [], 3)
        assert np.allclose(mu, 0.5)
        assert expertise_class(mu) == 0  # tie-break to lowest index

    def test_counts_example(self):
        labels = [0] * 10 + [1] * 10
        preds = [0] * 10 + [1] * 5 + [0] * 5
        mu = one_expert(labels, preds, 2)
        assert mu[0] == pytest.approx(11 / 12)
        assert mu[1] == pytest.approx(6 / 12)
        assert expertise_class(mu) == 0

    def test_prior_only_representation(self):
        priors = PriorElicitation(np.array([0.8, 0.5]), np.array([0.8, 0.0]), 15.0)
        mu = one_expert([], [], 2, priors)
        assert mu[0] == pytest.approx(0.7516129032258065, abs=1e-12)
        assert mu[1] == 0.5
        assert expertise_class(mu) == 0

    def test_mismatched_prior_size_rejected(self):
        with pytest.raises(ValueError):
            one_expert([], [], 3, PriorElicitation(np.full(2, 0.5), np.zeros(2)))


class TestSampleComplexityBound:
    def test_reference_values(self):
        assert sample_complexity_bound(10, 0.05, 0.3) == 134
        assert sample_complexity_bound(2, 0.5, 1.0) == 5
        assert sample_complexity_bound(10, 0.05, 0.1) == 1199

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            sample_complexity_bound(10, 0.05, 0.0)
        with pytest.raises(ValueError):
            sample_complexity_bound(10, 0.0, 0.5)
        with pytest.raises(ValueError):
            sample_complexity_bound(10, 1.0, 0.5)

    def test_tighter_gap_needs_more_samples(self):
        assert sample_complexity_bound(10, 0.05, 0.05) > sample_complexity_bound(10, 0.05, 0.5)


class TestPriorFile:
    def test_round_trip(self, tmp_path):
        priors = {
            0: PriorElicitation(np.array([0.8, 0.5, 0.2]), np.array([0.8, 0.0, 1.0]), 15.0),
            3: PriorElicitation(np.full(3, 0.5), np.zeros(3)),
        }
        path = tmp_path / "priors.csv"
        write_prior_file(path, priors)
        loaded = load_prior_file(path, 3)
        assert set(loaded) == {0, 3}
        assert np.array_equal(loaded[0].p, priors[0].p)
        assert np.array_equal(loaded[0].c, priors[0].c)
        assert loaded[0].s == 15.0

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_round_trip_is_exact(self, tmp_path, data):
        num_classes = data.draw(st.integers(1, 6))
        unit = st.lists(st.floats(0.0, 1.0), min_size=num_classes, max_size=num_classes)
        ids = data.draw(st.sets(st.integers(0, 10_000), min_size=1, max_size=4))
        priors = {
            i: PriorElicitation(
                np.array(data.draw(unit)), np.array(data.draw(unit)), data.draw(st.floats(2.0, 1e300))
            )
            for i in ids
        }
        path = tmp_path / "priors.csv"
        write_prior_file(path, priors)
        loaded = load_prior_file(path, num_classes)
        assert set(loaded) == ids
        for i, el in priors.items():
            assert loaded[i].p.tobytes() == el.p.tobytes()
            assert loaded[i].c.tobytes() == el.c.tobytes()
            assert loaded[i].s == el.s

    def test_missing_class_entry_rejected(self, tmp_path):
        path = tmp_path / "priors.csv"
        path.write_text("expert_id,class,p,c,s\n0,0,0.8,0.8,15\n")
        with pytest.raises(DatasetParseError, match="missing class"):
            load_prior_file(path, 2)

    def test_inconsistent_strength_rejected(self, tmp_path):
        path = tmp_path / "priors.csv"
        path.write_text("expert_id,class,p,c,s\n0,0,0.8,0.8,15\n0,1,0.5,0.0,10\n")
        with pytest.raises(DatasetParseError, match="strength"):
            load_prior_file(path, 2)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "priors.csv"
        path.write_text("who,class,p,c,s\n")
        with pytest.raises(DatasetParseError, match="header"):
            load_prior_file(path, 2)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "priors.csv"
        path.write_text("expert_id,class,p,c,s\n0,0,high,0.8,15\n")
        with pytest.raises(DatasetParseError, match="line 2"):
            load_prior_file(path, 2)

    @pytest.mark.parametrize(
        "row", ["0,1,nan,0.8,15", "0,1,0.5,nan,15", "0,1,0.5,0.8,nan", "0,1,1.5,0.8,15",
                "0,1,0.5,0.8,inf", "0,1,0.5,0.8,1"]
    )
    def test_non_finite_or_out_of_range_value_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "priors.csv"
        path.write_text(f"expert_id,class,p,c,s\n0,0,0.8,0.8,15\n{row}\n")
        with pytest.raises(DatasetParseError, match=r"priors\.csv: line 3"):
            load_prior_file(path, 2)

    @pytest.mark.parametrize(
        "data, where",
        [
            (b"expert_id,class,p,c,s\n0,0,0.8,0.8,15\n0,1,0.8,0.8,1\xff\n", "line 3: not UTF-8"),
            (b"expert_id,class,p,c,s\n0,0,0.8,0.8," + b"1" * 200_000 + b"\n",
             "line 2: field larger than"),
            (b'expert_id,class,p,c,s\n0,0,"0.8\n",0.8,15\n0,1,high,0.8,15\n',
             "line 4: non-numeric field"),
        ],
        ids=["not-utf8", "huge-field", "quoted-newline"],
    )
    def test_unreadable_file_names_file_and_line(self, tmp_path, data, where):
        path = tmp_path / "priors.csv"
        path.write_bytes(data)
        with pytest.raises(DatasetParseError, match=rf"priors\.csv: {where}"):
            load_prior_file(path, 2)

    def test_nan_elicitation_rejected(self):
        with pytest.raises(ValueError, match="p must lie"):
            PriorElicitation(np.array([0.5, np.nan]), np.zeros(2))
        with pytest.raises(ValueError, match="c must lie"):
            PriorElicitation(np.full(2, 0.5), np.array([np.nan, 0.0]))
        with pytest.raises(ValueError, match="strength"):
            PriorElicitation(np.full(2, 0.5), np.zeros(2), float("nan"))
