import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deferlab.errors import DatasetParseError
from deferlab.experts import (
    BehaviouralRepresentation,
    BetaParams,
    PriorElicitation,
    build_representation,
    count_context,
    elicit_prior,
    load_prior_file,
    posterior_mean,
    sample_complexity_bound,
    update_posterior,
    write_prior_file,
)
from deferlab.simulate import SimulatedExpertSpec, expert_predict


class TestCountContext:
    def test_empty_context_all_zero(self):
        counts = count_context([], 4)
        assert np.all(counts.n == 0) and np.all(counts.t == 0)

    def test_small_example(self):
        counts = count_context([(0, 0), (0, 1), (1, 1)], 2)
        assert counts.n.tolist() == [2, 1]
        assert counts.t.tolist() == [1, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            count_context([(0, 3)], 2)
        with pytest.raises(ValueError):
            count_context([(-1, 0)], 2)

    def test_counts_track_simulated_expert_accuracy(self):
        expert = SimulatedExpertSpec(0, frozenset({1}), 0.3, 0)
        rng = np.random.default_rng(77)
        num_classes = 5
        labels = rng.integers(num_classes, size=1000)
        pairs = [(int(y), expert_predict(expert, int(y), num_classes, rng)) for y in labels]
        counts = count_context(pairs, num_classes)
        assert counts.t[1] == counts.n[1]  # oracle on the expertise class
        expected = 0.3 + 0.7 / num_classes
        for k in (0, 2, 3, 4):
            n_k = counts.n[k]
            sigma = np.sqrt(expected * (1 - expected) / n_k)
            assert abs(counts.t[k] / n_k - expected) < 3 * sigma + 1e-9


class TestElicitPrior:
    def test_zero_confidence_gives_uniform(self):
        for p in (0.0, 0.3, 1.0):
            el = PriorElicitation(np.array([p]), np.array([0.0]), 10.0)
            bp = elicit_prior(el, 0)
            assert bp.alpha == 1.0 and bp.beta == 1.0

    def test_reference_inputs(self):
        el = PriorElicitation(np.array([0.8]), np.array([0.8]), 15.0)
        bp = elicit_prior(el, 0)
        assert bp.alpha == pytest.approx(9.32, abs=1e-12)
        assert bp.beta == pytest.approx(3.08, abs=1e-12)

    def test_full_confidence_boundary(self):
        el = PriorElicitation(np.array([1.0]), np.array([1.0]), 10.0)
        bp = elicit_prior(el, 0)
        assert bp.alpha == pytest.approx(9.0, abs=1e-12)
        assert bp.beta == pytest.approx(1.0, abs=1e-12)

    def test_weak_strength_rejected(self):
        with pytest.raises(ValueError):
            PriorElicitation(np.array([0.5]), np.array([0.5]), 1.9)

    def test_out_of_range_inputs_rejected(self):
        with pytest.raises(ValueError):
            PriorElicitation(np.array([1.5]), np.array([0.5]), 10.0)
        with pytest.raises(ValueError):
            PriorElicitation(np.array([0.5]), np.array([-0.1]), 10.0)


class TestUpdatePosterior:
    def test_no_observations_is_identity(self):
        bp = update_posterior(BetaParams(1, 1), 0, 0)
        assert bp.alpha == 1 and bp.beta == 1

    def test_uniform_prior_update(self):
        bp = update_posterior(BetaParams(1, 1), 10, 8)
        assert bp.alpha == 9 and bp.beta == 3

    def test_informative_prior_update(self):
        bp = update_posterior(BetaParams(9.32, 3.08), 5, 5)
        assert bp.alpha == pytest.approx(14.32, abs=1e-12)
        assert bp.beta == pytest.approx(3.08, abs=1e-12)

    def test_more_correct_than_total_rejected(self):
        with pytest.raises(ValueError):
            update_posterior(BetaParams(1, 1), 3, 4)


class TestPosteriorMean:
    def test_uniform_is_half(self):
        assert posterior_mean(BetaParams(1, 1)) == 0.5

    def test_uniform_plus_counts(self):
        assert posterior_mean(update_posterior(BetaParams(1, 1), 10, 8)) == pytest.approx(0.75)

    def test_elicited(self):
        assert posterior_mean(BetaParams(9.32, 3.08)) == pytest.approx(9.32 / 12.40, abs=1e-12)

    def test_exactness_over_random_tuples(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            alpha = rng.uniform(0.01, 50)
            beta = rng.uniform(0.01, 50)
            n = int(rng.integers(0, 500))
            t = int(rng.integers(0, n + 1))
            post = update_posterior(BetaParams(alpha, beta), n, t)
            assert posterior_mean(post) == pytest.approx(
                (alpha + t) / (alpha + beta + n), abs=1e-12
            )

    def test_monotone_in_observations(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            bp = BetaParams(rng.uniform(0.1, 20), rng.uniform(0.1, 20))
            up = update_posterior(bp, 1, 1)
            down = update_posterior(bp, 1, 0)
            assert posterior_mean(up) > posterior_mean(bp) > posterior_mean(down)

    def test_sequential_equals_batch(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            # quarter-step params are exactly representable, so equality is exact
            prior = BetaParams(rng.integers(1, 40) / 4, rng.integers(1, 40) / 4)
            chunks = [
                (int(n), int(rng.integers(0, n + 1)))
                for n in rng.integers(0, 30, size=4)
            ]
            seq = prior
            for n, t in chunks:
                seq = update_posterior(seq, n, t)
            batch = update_posterior(
                prior, sum(n for n, _ in chunks), sum(t for _, t in chunks)
            )
            assert seq.alpha == batch.alpha and seq.beta == batch.beta


class TestBuildRepresentation:
    def test_empty_context_uniform_prior(self):
        rep = build_representation([], 3)
        assert np.allclose(rep.mu, 0.5)
        assert rep.expertise_class == 0  # tie-break to lowest index

    def test_counts_example(self):
        ctx = [(0, 0)] * 10 + [(1, 1)] * 5 + [(1, 0)] * 5
        rep = build_representation(ctx, 2)
        assert rep.mu[0] == pytest.approx(11 / 12)
        assert rep.mu[1] == pytest.approx(6 / 12)
        assert rep.expertise_class == 0

    def test_prior_only_representation(self):
        priors = PriorElicitation(np.array([0.8, 0.5]), np.array([0.8, 0.0]), 15.0)
        rep = build_representation([], 2, priors)
        assert rep.mu[0] == pytest.approx(0.7516129032258065, abs=1e-12)
        assert rep.mu[1] == 0.5
        assert rep.expertise_class == 0

    def test_invariant_checked_on_construction(self):
        with pytest.raises(ValueError):
            BehaviouralRepresentation(
                np.array([0.9, 0.5]), [BetaParams(1, 1), BetaParams(1, 1)], 0
            )

    def test_mismatched_prior_size_rejected(self):
        with pytest.raises(ValueError):
            build_representation([], 3, PriorElicitation.uniform(2))


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
            3: PriorElicitation.uniform(3),
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

    def test_nan_elicitation_rejected(self):
        with pytest.raises(ValueError, match="p must lie"):
            PriorElicitation(np.array([0.5, np.nan]), np.zeros(2))
        with pytest.raises(ValueError, match="c must lie"):
            PriorElicitation(np.full(2, 0.5), np.array([np.nan, 0.0]))
        with pytest.raises(ValueError, match="strength"):
            PriorElicitation(np.full(2, 0.5), np.zeros(2), float("nan"))
