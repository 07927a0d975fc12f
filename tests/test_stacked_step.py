"""The stacked cohort step against a per-expert reference loop.

``reference_cohort`` below is the per-expert computation the stacked step
replaces: one classifier forward/backward and one rejector forward/backward
per expert, gradients summed over experts afterwards. It lives here, not in
the package, so the package keeps one loss/gradient path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferlab.deferral import _ea_stacked, _joint_grad_rows, _loss_sums, _softmax_rows
from deferlab.experts import (
    PriorElicitation,
    build_representation,
    posterior_means,
    prior_arrays,
)
from deferlab.nets import GradientBundle, backward, dense_net, forward


def reference_expert(classifier, rejector, features, labels, mu):
    """Loss sums and gradients of one expert, computed on its own."""
    batch = len(labels)
    num_classes = classifier.output_dim
    logits = forward(classifier, features)
    rho = _softmax_rows(logits)
    kstar = np.argmax(rho, axis=1)
    estar = int(np.argmax(mu))
    rows = np.arange(batch)
    feats = np.column_stack(
        [rho[:, estar], rho[rows, kstar], mu[kstar], np.full(batch, mu[estar])]
    )
    g_defer = forward(rejector, feats)[:, 0]
    q = _softmax_rows(np.column_stack([logits, g_defer]))
    weights = np.where(labels == estar, mu[labels], 0.0)
    cs, ds = _loss_sums(q, labels, weights, num_classes)

    d_joint = _joint_grad_rows(q, labels, weights)
    rej_grads = backward(rejector, feats, d_joint[:, num_classes][:, None])
    d_feats = rej_grads.input_grad
    d_rho = np.zeros_like(rho)
    d_rho[:, estar] += d_feats[:, 0]
    d_rho[rows, kstar] += d_feats[:, 1]
    d_logits = d_joint[:, :num_classes] + rho * (
        d_rho - (d_rho * rho).sum(axis=1, keepdims=True)
    )
    clf_grads = backward(classifier, features, d_logits)
    return cs, ds, clf_grads, rej_grads


def reference_cohort(classifier, rejector, features, labels, mu):
    clf_acc = GradientBundle.zeros_like(classifier)
    rej_acc = GradientBundle.zeros_like(rejector)
    c_total = d_total = 0.0
    for row in mu:
        cs, ds, cg, rg = reference_expert(classifier, rejector, features, labels, row)
        c_total += cs
        d_total += ds
        clf_acc.add_(cg)
        rej_acc.add_(rg)
    return c_total, d_total, clf_acc, rej_acc


def assert_bundles_close(a, b, tol=1e-12):
    for ga, gb in zip(a.weight_grads + a.bias_grads, b.weight_grads + b.bias_grads):
        np.testing.assert_allclose(ga, gb, rtol=0, atol=tol)


def random_cohort(seed, experts, num_classes=5, context=30, elicited=False):
    """Contexts and priors for a random cohort, with its stacked mu."""
    rng = np.random.default_rng(seed)
    labels = [rng.integers(num_classes, size=context) for _ in range(experts)]
    preds = [
        np.where(rng.random(context) < rng.random(), y, rng.integers(num_classes, size=context))
        for y in labels
    ]
    priors = [
        PriorElicitation(rng.random(num_classes), rng.random(num_classes), 2 + 20 * rng.random())
        if elicited
        else None
        for _ in range(experts)
    ]
    alpha0, beta0 = prior_arrays(priors, num_classes)
    return labels, preds, priors, posterior_means(alpha0, beta0, labels, preds)


def nets_and_batch(seed, num_classes=5, dim=6, batch=16):
    rng = np.random.default_rng(seed + 1000)
    clf = dense_net([dim, 12, num_classes], rng)
    rej = dense_net([4, 10, 10, 1], rng)
    features = rng.normal(size=(batch, dim))
    labels = rng.integers(num_classes, size=batch)
    return clf, rej, features, labels


class TestStackedMatchesReference:
    @pytest.mark.parametrize("experts", [1, 3, 7])
    @pytest.mark.parametrize("elicited", [False, True])
    def test_loss_and_gradients(self, experts, elicited):
        _, _, _, mu = random_cohort(experts, experts, elicited=elicited)
        clf, rej, features, labels = nets_and_batch(experts)
        cs, ds, cg, rg, _ = _ea_stacked(clf, rej, features, labels, mu)
        ref_c, ref_d, ref_cg, ref_rg = reference_cohort(clf, rej, features, labels, mu)
        assert cs == pytest.approx(ref_c, rel=0, abs=1e-12)
        assert ds == pytest.approx(ref_d, rel=0, abs=1e-12)
        assert_bundles_close(cg, ref_cg)
        assert_bundles_close(rg, ref_rg)

    @pytest.mark.parametrize("experts", [1, 3, 7])
    def test_tied_expertise_class(self, experts):
        # every expert shares expertise class 2, and the first one ties
        # classes 2 and 4, which must break to the lower index
        num_classes = 5
        rng = np.random.default_rng(experts)
        mu = rng.uniform(0.1, 0.6, size=(experts, num_classes))
        mu[:, 2] = 0.9
        mu[0, 4] = 0.9
        assert np.all(np.argmax(mu, axis=1) == 2)
        clf, rej, features, labels = nets_and_batch(experts, num_classes)
        labels[:4] = 2  # make the deferral term active
        cs, ds, cg, rg, _ = _ea_stacked(clf, rej, features, labels, mu)
        ref_c, ref_d, ref_cg, ref_rg = reference_cohort(clf, rej, features, labels, mu)
        assert ds > 0
        assert cs == pytest.approx(ref_c, rel=0, abs=1e-12)
        assert ds == pytest.approx(ref_d, rel=0, abs=1e-12)
        assert_bundles_close(cg, ref_cg)
        assert_bundles_close(rg, ref_rg)

    def test_validation_path_gives_the_same_sums(self):
        _, _, _, mu = random_cohort(5, 4)
        clf, rej, features, labels = nets_and_batch(5)
        with_grads = _ea_stacked(clf, rej, features, labels, mu)
        without = _ea_stacked(clf, rej, features, labels, mu, want_grads=False)
        assert without[:2] == with_grads[:2]
        assert without[2:] == (None, None, None)

    def test_single_expert_pattern_layout(self):
        # E = 1 is the finite-difference entry point: relu signs of both
        # networks, then the classifier argmax per example
        _, _, _, mu = random_cohort(2, 1)
        clf, rej, features, labels = nets_and_batch(2, batch=3)
        *_, pattern = _ea_stacked(clf, rej, features, labels, mu)
        assert len(pattern) == 3 * 12 + 3 * (10 + 10) + 3


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    experts=st.integers(2, 6),
    elicited=st.booleans(),
)
def test_permuting_experts_leaves_loss_and_gradients_unchanged(seed, experts, elicited):
    _, _, _, mu = random_cohort(seed, experts, elicited=elicited)
    clf, rej, features, labels = nets_and_batch(seed % 1000)
    perm = np.random.default_rng(seed).permutation(experts)
    cs, ds, cg, rg, _ = _ea_stacked(clf, rej, features, labels, mu)
    pcs, pds, pcg, prg, _ = _ea_stacked(clf, rej, features, labels, mu[perm])
    assert pcs == pytest.approx(cs, rel=0, abs=1e-12)
    assert pds == pytest.approx(ds, rel=0, abs=1e-12)
    assert_bundles_close(pcg, cg)
    assert_bundles_close(prg, rg)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    experts=st.integers(1, 5),
    num_classes=st.integers(2, 8),
    context=st.integers(0, 40),
    elicited=st.booleans(),
)
def test_bincount_mu_equals_build_representation(seed, experts, num_classes, context, elicited):
    labels, preds, priors, _ = random_cohort(seed, experts, num_classes, context, elicited)
    rng = np.random.default_rng(seed)
    picks = [rng.choice(context, size=context // 2, replace=False) for _ in range(experts)]
    sub_labels = [y[i] for y, i in zip(labels, picks)]
    sub_preds = [m[i] for m, i in zip(preds, picks)]
    alpha0, beta0 = prior_arrays(priors, num_classes)
    mu = posterior_means(alpha0, beta0, sub_labels, sub_preds)
    for e in range(experts):
        rep = build_representation(zip(sub_labels[e], sub_preds[e]), num_classes, priors[e])
        assert np.array_equal(mu[e], rep.mu)
        assert int(np.argmax(mu[e])) == rep.expertise_class


class TestPosteriorArrays:
    def test_out_of_range_context_rejected(self):
        alpha0, beta0 = prior_arrays([None], 3)
        with pytest.raises(ValueError, match="out-of-range"):
            posterior_means(alpha0, beta0, [np.array([0, 3])], [np.array([0, 1])])
        with pytest.raises(ValueError, match="out-of-range"):
            posterior_means(alpha0, beta0, [np.array([0, 1])], [np.array([-1, 1])])

    def test_empty_contexts_give_the_prior_mean(self):
        prior = PriorElicitation(np.array([0.9, 0.2]), np.array([1.0, 0.5]), 12.0)
        alpha0, beta0 = prior_arrays([None, prior], 2)
        empty = np.zeros(0, dtype=np.int64)
        mu = posterior_means(alpha0, beta0, [empty, empty], [empty, empty])
        assert mu[0].tolist() == [0.5, 0.5]
        assert np.array_equal(mu[1], build_representation([], 2, prior).mu)

    def test_prior_class_count_checked(self):
        with pytest.raises(ValueError, match="class count"):
            prior_arrays([PriorElicitation.uniform(3)], 4)
