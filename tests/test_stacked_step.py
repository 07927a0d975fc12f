"""The stacked cohort step against a per-expert reference loop.

``reference_cohort`` below is the per-expert computation the stacked step
replaces: one classifier forward/backward and one rejector forward/backward
per expert, gradients summed over experts afterwards, each through the
explicit (K+1)-way joint softmax that the package's factored loss never
builds (``joint_loss_sums``, ``joint_grad_rows``). It lives here, not in
the package, so the package keeps one loss/gradient path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferlab.deferral import _ea_l2d, _joint_terms, _pop_avg, mode_labels
from deferlab.experts import PriorElicitation, build_representation, prior_arrays
from deferlab.nets import backward, dense_net, forward_cached, relu_pattern, softmax
from gradcheck import call_core, grads_of, joined_masks, zero_grads


def reference_softmax(logits):
    """The row softmax on its own: ``exp`` of the max-shifted logits over
    their row sum."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def joint_loss_sums(q, labels, weights, num_classes):
    """Summed loss terms of explicit joint softmax rows ``q`` (rows, K+1); an
    inactive deferral term stays zero even when the deferral probability
    underflows."""
    with np.errstate(divide="ignore"):
        classifier_sum = float(-np.log(q[np.arange(len(labels)), labels]).sum())
        defer_nll = -np.log(q[:, num_classes])
    deferral_sum = float((weights * np.where(weights > 0, defer_nll, 0.0)).sum())
    return classifier_sum, deferral_sum


def joint_grad_rows(q, labels, weights):
    """d/d(joint logits) of sum_i [-log q_y - w_i * log q_defer], one row per
    (expert, example) pair."""
    batch, width = q.shape
    d = (1.0 + weights)[:, None] * q
    d[np.arange(batch), labels] -= 1.0
    d[:, width - 1] -= weights
    return d


def reference_expert(classifier, rejector, features, labels, mu):
    """Loss sums and gradients of one expert, computed on its own."""
    batch = len(labels)
    num_classes = classifier.output_dim
    clf_outs = forward_cached(classifier, features)
    logits = clf_outs[-1]
    rho = reference_softmax(logits)
    kstar = np.argmax(rho, axis=1)
    estar = int(np.argmax(mu))
    rows = np.arange(batch)
    feats = np.column_stack(
        [rho[:, estar], rho[rows, kstar], mu[kstar], np.full(batch, mu[estar])]
    )
    rej_outs = forward_cached(rejector, feats)
    g_defer = rej_outs[-1][:, 0]
    q = reference_softmax(np.column_stack([logits, g_defer]))
    weights = np.where(labels == estar, mu[labels], 0.0)
    cs, ds = joint_loss_sums(q, labels, weights, num_classes)

    d_joint = joint_grad_rows(q, labels, weights)
    rej_grads = zero_grads(rejector)
    d_feats = backward(
        rejector, rej_outs, d_joint[:, num_classes][:, None], rej_grads, want_input_grad=True
    )
    d_rho = np.zeros_like(rho)
    d_rho[:, estar] += d_feats[:, 0]
    d_rho[rows, kstar] += d_feats[:, 1]
    d_logits = d_joint[:, :num_classes] + rho * (
        d_rho - (d_rho * rho).sum(axis=1, keepdims=True)
    )
    clf_grads = grads_of(classifier, clf_outs, d_logits)
    return cs, ds, clf_grads, rej_grads


def reference_cohort(classifier, rejector, features, labels, mu):
    clf_acc, rej_acc = zero_grads(classifier), zero_grads(rejector)
    c_total = d_total = 0.0
    for row in mu:
        cs, ds, cg, rg = reference_expert(classifier, rejector, features, labels, row)
        c_total += cs
        d_total += ds
        clf_acc.params[:] += cg.params
        rej_acc.params[:] += rg.params
    return c_total, d_total, clf_acc, rej_acc


def assert_grads_close(a, b, tol=1e-12):
    assert a.widths == b.widths
    np.testing.assert_allclose(a.params, b.params, rtol=0, atol=tol)


def random_cohort(seed, experts, num_classes=5, context=30, elicited=False):
    """Contexts and priors for a random cohort, with its stacked mu.
    ``context`` is every expert's context length, or a list of them."""
    rng = np.random.default_rng(seed)
    sizes = context if isinstance(context, list) else [context] * experts
    labels = [rng.integers(num_classes, size=n) for n in sizes]
    preds = [
        np.where(rng.random(len(y)) < rng.random(), y, rng.integers(num_classes, size=len(y)))
        for y in labels
    ]
    priors = [
        PriorElicitation(rng.random(num_classes), rng.random(num_classes), 2 + 20 * rng.random())
        if elicited
        else None
        for _ in range(experts)
    ]
    alpha0, beta0 = prior_arrays(priors, num_classes)
    return labels, preds, priors, build_representation(alpha0, beta0, labels, preds)


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
        cs, ds, cg, rg, _ = call_core(_ea_l2d, clf, rej, features, labels, mu)
        ref_c, ref_d, ref_cg, ref_rg = reference_cohort(clf, rej, features, labels, mu)
        assert cs == pytest.approx(ref_c, rel=0, abs=1e-12)
        assert ds == pytest.approx(ref_d, rel=0, abs=1e-12)
        assert_grads_close(cg, ref_cg)
        assert_grads_close(rg, ref_rg)

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
        cs, ds, cg, rg, _ = call_core(_ea_l2d, clf, rej, features, labels, mu)
        ref_c, ref_d, ref_cg, ref_rg = reference_cohort(clf, rej, features, labels, mu)
        assert ds > 0
        assert cs == pytest.approx(ref_c, rel=0, abs=1e-12)
        assert ds == pytest.approx(ref_d, rel=0, abs=1e-12)
        assert_grads_close(cg, ref_cg)
        assert_grads_close(rg, ref_rg)

    def test_validation_path_gives_the_same_sums(self):
        _, _, _, mu = random_cohort(5, 4)
        clf, rej, features, labels = nets_and_batch(5)
        with_grads = call_core(_ea_l2d, clf, rej, features, labels, mu)
        without = call_core(_ea_l2d, clf, rej, features, labels, mu, grads=False)
        assert without[:2] == with_grads[:2]
        assert without[2:] == (None, None, None)

    def test_single_expert_pattern_layout(self):
        # E = 1 is the finite-difference entry point: relu signs of both
        # networks, then the classifier argmax per example
        _, _, _, mu = random_cohort(2, 1)
        clf, rej, features, labels = nets_and_batch(2, batch=3)
        *_, pattern = call_core(_ea_l2d, clf, rej, features, labels, mu)
        assert len(pattern) == 3 * 12 + 3 * (10 + 10) + 3
        clf_outs = forward_cached(clf, features)
        assert np.array_equal(pattern[: 3 * 12], joined_masks(relu_pattern(clf, clf_outs)))
        assert np.array_equal(pattern[-3:], np.argmax(clf_outs[-1], axis=1))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    experts=st.integers(1, 5),
    batch=st.integers(1, 6),
    num_classes=st.integers(2, 6),
)
def test_factored_joint_terms_match_the_explicit_softmax(seed, experts, batch, num_classes):
    # logits and deferral logits from +-30; about half the weights inactive
    rng = np.random.default_rng(seed)
    logits = rng.uniform(-30, 30, size=(batch, num_classes))
    g = rng.uniform(-30, 30, size=(experts, batch))
    labels = rng.integers(num_classes, size=batch)
    weights = np.where(rng.random((experts, batch)) < 0.5, rng.random((experts, batch)), 0.0)
    rho, top, total = softmax(logits)
    lse = top + np.log(total)
    cs, ds, d_g, d_logits = _joint_terms(logits, rho, lse, g, labels, weights)

    joint = np.concatenate([np.broadcast_to(logits, (experts, batch, num_classes)),
                            g[:, :, None]], axis=2).reshape(experts * batch, num_classes + 1)
    q = reference_softmax(joint)
    pair_labels = np.tile(labels, experts)
    ref_c, ref_d = joint_loss_sums(q, pair_labels, weights.ravel(), num_classes)
    d_joint = joint_grad_rows(q, pair_labels, weights.ravel()).reshape(experts, batch, -1)
    assert np.array_equal(rho, reference_softmax(logits))
    np.testing.assert_allclose([cs, ds], [ref_c, ref_d], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(d_g, d_joint[:, :, num_classes], rtol=0, atol=1e-12)
    np.testing.assert_allclose(d_logits, d_joint[:, :, :num_classes].sum(axis=0), rtol=0, atol=1e-12)


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
    cs, ds, cg, rg, _ = call_core(_ea_l2d, clf, rej, features, labels, mu)
    pcs, pds, pcg, prg, _ = call_core(_ea_l2d, clf, rej, features, labels, mu[perm])
    assert pcs == pytest.approx(cs, rel=0, abs=1e-12)
    assert pds == pytest.approx(ds, rel=0, abs=1e-12)
    assert_grads_close(pcg, cg)
    assert_grads_close(prg, rg)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_classes=st.integers(2, 8),
    contexts=st.lists(st.integers(0, 40), min_size=1, max_size=6),
    split=st.integers(1, 6),
    elicited=st.booleans(),
)
def test_bincount_mu_equals_build_representation(seed, num_classes, contexts, split, elicited):
    # the cohort's one bincount keeps experts apart: each row equals that
    # expert counted on its own, and the harness's id/ood slices of the
    # cohort's matrix equal each cohort counted on its own
    # (tests/test_experts.py checks rows against a plain-Python reference)
    experts = len(contexts)
    labels, preds, priors, mu = random_cohort(seed, experts, num_classes, contexts, elicited)
    alpha0, beta0 = prior_arrays(priors, num_classes)
    assert mu.shape == (experts, num_classes)
    for e in range(experts):
        one = build_representation(alpha0[e : e + 1], beta0[e : e + 1], [labels[e]], [preds[e]])
        assert mu[e].tobytes() == one[0].tobytes()
    for idx in (slice(0, min(split, experts)), slice(min(split, experts), None)):
        if len(labels[idx]):
            part = build_representation(alpha0[idx], beta0[idx], labels[idx], preds[idx])
            assert mu[idx].tobytes() == part.tobytes()


class TestPosteriorArrays:
    def test_out_of_range_context_rejected(self):
        alpha0, beta0 = prior_arrays([None], 3)
        with pytest.raises(ValueError, match="out-of-range"):
            build_representation(alpha0, beta0, [np.array([0, 3])], [np.array([0, 1])])
        with pytest.raises(ValueError, match="out-of-range"):
            build_representation(alpha0, beta0, [np.array([0, 1])], [np.array([-1, 1])])

    def test_empty_contexts_give_the_prior_mean(self):
        prior = PriorElicitation(np.array([0.9, 0.2]), np.array([1.0, 0.5]), 12.0)
        alpha0, beta0 = prior_arrays([None, prior], 2)
        empty = np.zeros(0, dtype=np.int64)
        mu = build_representation(alpha0, beta0, [empty, empty], [empty, empty])
        assert mu[0].tolist() == [0.5, 0.5]
        assert np.array_equal(mu[1], alpha0[1] / (alpha0[1] + beta0[1]))

    def test_prior_class_count_checked(self):
        with pytest.raises(ValueError, match="class count"):
            prior_arrays([PriorElicitation(np.full(3, 0.5), np.zeros(3))], 4)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 9),
    experts=st.integers(1, 5),
    pop_avg=st.booleans(),
)
def test_batch_sums_equal_the_sum_of_one_row_calls(seed, batch, experts, pop_avg):
    # what lets the one-row tests of the loss cores speak for batches
    num_classes = 5
    clf, rej, features, labels = nets_and_batch(seed % 1000, num_classes, batch=batch)
    if pop_avg:
        rej = dense_net([features.shape[1], 10, 1], np.random.default_rng(seed))
        preds = np.random.default_rng(seed).integers(num_classes, size=(experts, batch))
        aux = (mode_labels(preds, num_classes) == labels).astype(np.float64)
        core = _pop_avg
    else:
        aux = random_cohort(seed, experts, num_classes)[3]
        core = _ea_l2d

    cs, ds, cg, rg, _ = call_core(core, clf, rej, features, labels, aux)
    sums = np.zeros(2)
    clf_flat, rej_flat = np.zeros_like(clf.params), np.zeros_like(rej.params)
    for i in range(batch):
        one = slice(i, i + 1)
        rcs, rds, rcg, rrg, _ = call_core(
            core, clf, rej, features[one], labels[one], aux[one] if pop_avg else aux
        )
        sums += (rcs, rds)
        clf_flat += rcg.params
        rej_flat += rrg.params
    np.testing.assert_allclose([cs, ds], sums, rtol=0, atol=1e-12)
    np.testing.assert_allclose(cg.params, clf_flat, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rg.params, rej_flat, rtol=0, atol=1e-12)
