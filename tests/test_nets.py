import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import deferlab.nets
from deferlab.errors import TrainingDivergenceError
from deferlab.nets import (
    ACTIVATIONS,
    BLOCK_ROWS,
    DenseNet,
    GradientBundle,
    Layer,
    TrainConfig,
    backward,
    dense_net,
    finite_difference_check,
    forward,
    forward_cached,
    relu_pattern,
    row_blocks,
    sgd_step,
    softmax,
)


# Finite values with signed zeros, ones and subnormals drawn often.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@st.composite
def layer_stacks(draw, max_width=5):
    """Composable layers whose every weight and bias is drawn from ``VALUES``."""
    dims = draw(st.lists(st.integers(1, max_width), min_size=2, max_size=4))
    return [
        Layer(
            draw(hnp.arrays(np.float64, (fan_out, fan_in), elements=VALUES)),
            draw(hnp.arrays(np.float64, fan_out, elements=VALUES)),
            draw(st.sampled_from(ACTIVATIONS)),
        )
        for fan_in, fan_out in zip(dims, dims[1:])
    ]


def layered_nets():
    return layer_stacks().map(DenseNet.from_layers)


def layer_grads(grads, net):
    """Every layer's (weight gradient, bias gradient): views into
    ``grads.flat`` at ``net.layout``'s offsets."""
    return [
        (grads.flat[w0:b0].reshape(out_dim, in_dim), grads.flat[b0:end])
        for out_dim, in_dim, w0, b0, end in net.layout
    ]


def reference_forward_cached(net, x):
    """The unfused forward pass: ``a @ W.T + b``, then ``np.maximum``."""
    pre, post = [], [x]
    a = x
    for layer in net.layers:
        z = a @ layer.weights.T + layer.bias
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
        pre.append(z)
        post.append(a)
    return pre, post


def reference_backward(net, x, upstream):
    """Unfused backprop, its relu masks read from ``reference_forward_cached``'s
    pre-activations, each bias gradient the product ``ones @ delta``: (flat
    gradient, input gradient)."""
    pre, post = reference_forward_cached(net, x)
    parts, delta = [], upstream
    for layer, z, a in reversed(list(zip(net.layers, pre, post))):
        if layer.activation == "relu":
            delta = delta * (z > 0)
        parts[:0] = [(delta.T @ a).ravel(), np.ones(len(delta)) @ delta]
        delta = delta @ layer.weights
    return np.concatenate(parts), delta


def reference_sgd_step(net, grads, cfg, scale):
    """The update layer by layer, every term kept: (weights, bias) per layer."""
    lr, wd = cfg.learning_rate, cfg.weight_decay
    return [
        (
            layer.weights - lr * (wg * scale + wd * layer.weights),
            layer.bias - lr * (bg * scale + wd * layer.bias),
        )
        for layer, (wg, bg) in zip(net.layers, layer_grads(grads, net))
    ]


def zero_grads(net):
    return GradientBundle(np.zeros_like(net.params), net.layout)


def zero_net(dims, activation="identity"):
    layers = [
        Layer(np.zeros((o, i)), np.zeros(o), activation)
        for i, o in zip(dims, dims[1:])
    ]
    return DenseNet.from_layers(layers)


class TestForward:
    def test_zero_net_gives_zero_logits(self):
        net = zero_net([3, 4, 2])
        assert np.array_equal(forward(net, np.ones((1, 3))), np.zeros((1, 2)))

    def test_identity_layer_passes_input_through(self):
        net = DenseNet.from_layers([Layer(np.eye(4), np.zeros(4), "identity")])
        v = np.array([[0.5, -2.0, 3.25, 0.0]])
        assert np.array_equal(forward(net, v), v)

    def test_matches_independent_matrix_recomputation(self):
        rng = np.random.default_rng(7)
        net = dense_net([4, 8, 1], rng)
        x = rng.normal(size=4)
        # recompute with explicit loops, no shared helpers
        h = np.empty(8)
        w0, b0 = net.layers[0].weights, net.layers[0].bias
        for j in range(8):
            z = b0[j]
            for i in range(4):
                z += w0[j, i] * x[i]
            h[j] = max(z, 0.0)
        w1, b1 = net.layers[1].weights, net.layers[1].bias
        out = b1[0]
        for j in range(8):
            out += w1[0, j] * h[j]
        assert forward(net, x[None, :])[0, 0] == pytest.approx(out, abs=1e-12)

    def test_batched_forward_matches_per_row(self):
        # a batch and its one-row slices may differ in the last ulp (BLAS)
        rng = np.random.default_rng(3)
        net = dense_net([5, 6, 3], rng)
        xs = rng.normal(size=(10, 5))
        batched = forward(net, xs)
        for i in range(len(xs)):
            assert np.allclose(batched[i], forward(net, xs[i : i + 1])[0], atol=1e-12, rtol=0)

    def test_dimension_mismatch_rejected(self):
        net = dense_net([3, 2], 0)
        with pytest.raises(ValueError):
            forward(net, np.ones((1, 4)))
        with pytest.raises(ValueError):
            forward_cached(net, np.ones((1, 4)))

    def test_input_must_be_a_matrix_of_rows(self):
        net = dense_net([3, 2], 0)
        for x in (np.ones(3), np.ones((1, 1, 3)), np.float64(1.0)):
            with pytest.raises(ValueError):
                forward(net, x)
            with pytest.raises(ValueError):
                forward_cached(net, x)

    def test_mismatched_layer_dims_rejected(self):
        with pytest.raises(ValueError):
            DenseNet.from_layers(
                [
                    Layer(np.zeros((4, 3)), np.zeros(4), "relu"),
                    Layer(np.zeros((2, 5)), np.zeros(2), "identity"),
                ]
            )


def whole_forward(net, x):
    """``forward`` without row blocks: every layer on the whole batch."""
    a = x
    for layer in net.layers:
        z = a @ layer.weights.T
        z += layer.bias
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return a


# Every batch size at or next to a block edge or a tail-merge threshold.
BOUNDARY_ROWS = sorted(
    {0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1}
    | {
        k * BLOCK_ROWS + d
        for k in range(1, 7)
        for d in (-1, 0, 1, BLOCK_ROWS // 2 - 1, BLOCK_ROWS // 2)
    }
)

# The networks the benchmark workloads run inference on: the acceptance
# grid's classifier, the expert-aware rejector, the baseline's rejector and
# the wide cohort's classifier.
WORKLOAD_DIMS = [[16, 32, 10], [4, 32, 32, 1], [16, 32, 1], [32, 32, 40]]


class TestRowBlocks:
    def test_blocks_cover_every_row_in_order(self):
        for n in range(6 * BLOCK_ROWS + 1):
            blocks = row_blocks(n)
            assert blocks[0].start == 0 and blocks[-1].stop == n
            for a, b in zip(blocks, blocks[1:]):
                assert a.stop == b.start
            sizes = [b.stop - b.start for b in blocks]
            assert all(b.step is None for b in blocks)
            if len(blocks) > 1:
                assert min(sizes) >= BLOCK_ROWS // 2
                assert all(size == BLOCK_ROWS for size in sizes[:-1])

    def test_short_inputs_stay_one_pass(self):
        assert row_blocks(0) == [slice(0, 0)]
        assert row_blocks(3 * BLOCK_ROWS // 2 - 1) == [slice(0, 3 * BLOCK_ROWS // 2 - 1)]
        assert len(row_blocks(3 * BLOCK_ROWS // 2)) == 2

    @pytest.mark.parametrize("dims", WORKLOAD_DIMS, ids=str)
    def test_blocked_forward_is_the_whole_batch_forward_bit_for_bit(self, dims):
        rng = np.random.default_rng(sum(dims))
        net = dense_net(dims, rng)
        big = rng.normal(size=(BOUNDARY_ROWS[-1], dims[0]))
        for n in BOUNDARY_ROWS:
            x = big[:n]
            out = forward(net, x)
            assert out.shape == (n, dims[-1])
            assert out.tobytes() == whole_forward(net, x).tobytes(), n

    def test_blocked_forward_of_a_strided_input(self):
        rng = np.random.default_rng(5)
        net = dense_net([4, 32, 32, 1], rng)
        x = rng.normal(size=(5 * BLOCK_ROWS + 7, 8))[:, ::2]
        assert forward(net, x).tobytes() == whole_forward(net, x).tobytes()


class TestForwardCached:
    def test_output_equals_plain_forward_exactly(self):
        rng = np.random.default_rng(17)
        net = dense_net([5, 7, 6, 3], rng)
        for x in (rng.normal(size=(1, 5)), rng.normal(size=(9, 5))):
            outs = forward_cached(net, x)
            assert len(outs) == 4
            assert np.array_equal(outs[0], x)
            assert np.array_equal(outs[-1], forward(net, x))

    @settings(max_examples=150, deadline=None)
    @given(net=layered_nets(), rows=st.integers(0, 6), data=st.data())
    def test_activations_follow_from_pre_activations(self, net, rows, data):
        # non-finite inputs give NaN pre-activations too
        elements = st.one_of(VALUES, st.sampled_from([np.nan, np.inf, -np.inf]))
        x = data.draw(hnp.arrays(np.float64, (rows, net.input_dim), elements=elements))
        with np.errstate(invalid="ignore", over="ignore"):
            ref_pre, _ = reference_forward_cached(net, x)
            outs = forward_cached(net, x)
        for out, z, activation in zip(outs[1:], ref_pre, net.activations):
            assert np.array_equal(out > 0, z > 0)
            expected = np.maximum(z, 0.0) if activation == "relu" else z
            assert np.array_equal(out, expected, equal_nan=True)

    def test_relu_pattern_reads_signs_of_relu_layers_only(self):
        rng = np.random.default_rng(19)
        net = dense_net([3, 4, 5, 2], rng)
        x = rng.normal(size=(6, 3))
        pattern = relu_pattern(net, forward_cached(net, x))
        ref_pre, _ = reference_forward_cached(net, x)
        expected = np.concatenate([(ref_pre[0] > 0).ravel(), (ref_pre[1] > 0).ravel()])
        assert pattern.dtype == bool
        assert np.array_equal(pattern, expected)
        linear = dense_net([3, 2], rng)
        assert relu_pattern(linear, forward_cached(linear, np.ones((1, 3)))).size == 0

    @settings(max_examples=150, deadline=None)
    @given(net=layered_nets(), rows=st.integers(0, 6), data=st.data())
    def test_both_forwards_equal_the_unfused_path_bit_for_bit(self, net, rows, data):
        x = data.draw(hnp.arrays(np.float64, (rows, net.input_dim), elements=VALUES))
        _, ref_post = reference_forward_cached(net, x)
        outs = forward_cached(net, x)
        assert forward(net, x).tobytes() == ref_post[-1].tobytes()
        assert len(outs) == len(ref_post)
        for a, b in zip(outs, ref_post):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        assert np.allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    def test_large_logits_do_not_overflow(self):
        q = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(q))
        assert q[0] == pytest.approx(1.0, abs=1e-12)
        assert q[1] == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.normal(scale=5, size=rng.integers(2, 12))
            c = rng.normal()
            assert np.allclose(softmax(v), softmax(v + c), atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            v = rng.normal(scale=10, size=rng.integers(1, 15))
            q = softmax(v)
            assert abs(q.sum() - 1.0) < 1e-12
            assert np.all(q > 0) and np.all(q < 1 + 1e-12)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.zeros(0))

    def test_rows_match_one_row_calls_bit_for_bit(self):
        m = np.random.default_rng(13).normal(scale=5, size=(7, 4))
        rows = softmax(m)
        for i in range(len(m)):
            assert rows[i].tobytes() == softmax(m[i]).tobytes()

    def test_nonfinite_logits_are_not_validated(self):
        # training relies on this: the NaN reaches the loss, whose check
        # raises TrainingDivergenceError
        with np.errstate(invalid="ignore"):
            q = softmax(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        assert np.isnan(q[0]).any() and np.isfinite(q[1]).all()


class TestBackward:
    def test_zero_upstream_gives_zero_bundle(self):
        net = dense_net([3, 5, 2], 1)
        g = backward(net, forward_cached(net, np.ones((1, 3))), np.zeros((1, 2)))
        assert all(np.all(wg == 0) for wg, _ in layer_grads(g, net))
        assert all(np.all(bg == 0) for _, bg in layer_grads(g, net))

    def test_linear_layer_squared_error_closed_form(self):
        # loss = 0.5 * (w x - y)^2, dW = (yhat - y) x^T
        rng = np.random.default_rng(5)
        w = rng.normal(size=(2, 3))
        net = DenseNet.from_layers([Layer(w, np.zeros(2), "identity")])
        x = rng.normal(size=(1, 3))
        y = rng.normal(size=(1, 2))
        yhat = forward(net, x)
        g = backward(net, forward_cached(net, x), yhat - y)
        [(wg, bg)] = layer_grads(g, net)
        assert np.allclose(wg, np.outer(yhat - y, x), atol=1e-14)
        assert np.allclose(bg, (yhat - y)[0], atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        target = rng.normal(size=1)

        def loss_fn(net):
            outs = forward_cached(net, x)
            diff = outs[-1] - target
            g = backward(net, outs, diff)
            return 0.5 * float((diff * diff).sum()), g

        for seed in range(5):
            srng = np.random.default_rng(seed)
            net = dense_net([4, 8, 8, 1], srng)
            x = srng.normal(size=(1, 4))
            assert finite_difference_check(net, loss_fn, 1e-6).max_rel_error < 1e-5

    def test_shape_mismatch_rejected(self):
        net = dense_net([3, 2], 0)
        with pytest.raises(ValueError):
            backward(net, forward_cached(net, np.ones((1, 3))), np.zeros((1, 3)))

    def test_runs_no_forward_of_its_own(self, monkeypatch):
        rng = np.random.default_rng(15)
        net = dense_net([4, 6, 6, 2], rng)
        outs = forward_cached(net, rng.normal(size=(5, 4)))

        def no_forward(*args, **kwargs):
            raise AssertionError("backward ran a forward pass")

        for name in ("forward", "forward_cached", "_layer", "_check_input"):
            monkeypatch.setattr(deferlab.nets, name, no_forward)
        g = backward(net, outs, rng.normal(size=(5, 2)))
        assert g.matches(net)
        assert relu_pattern(net, outs).size == 5 * 12

    def test_activations_of_another_depth_rejected(self):
        net = dense_net([3, 2], 0)
        deeper = dense_net([3, 4, 2], 0)
        with pytest.raises(ValueError):
            backward(net, forward_cached(deeper, np.ones((1, 3))), np.zeros((1, 2)))

    def test_column_view_upstream_matches_contiguous_copy(self):
        rng = np.random.default_rng(14)
        net = dense_net([4, 8, 1], rng)
        outs = forward_cached(net, rng.normal(size=(12, 4)))
        block = rng.normal(size=(12, 3))
        from_view = backward(net, outs, block[:, 2:], want_input_grad=True)
        from_copy = backward(net, outs, block[:, 2:].copy(), want_input_grad=True)
        assert np.array_equal(from_view.flat, from_copy.flat)
        assert np.array_equal(from_view.input_grad, from_copy.input_grad)

    def test_batched_grads_sum_per_example(self):
        rng = np.random.default_rng(13)
        net = dense_net([3, 4, 2], rng)
        xs = rng.normal(size=(6, 3))
        ups = rng.normal(size=(6, 2))
        batched = backward(net, forward_cached(net, xs), ups)
        acc = zero_grads(net)
        for x, u in zip(xs, ups):
            acc.flat += backward(net, forward_cached(net, x[None, :]), u[None, :]).flat
        for (a, _), (b, _) in zip(layer_grads(batched, net), layer_grads(acc, net)):
            assert np.allclose(a, b, atol=1e-12)


class TestSgdStep:
    def test_zero_gradient_leaves_net_unchanged(self):
        net = dense_net([3, 2], 0)
        cfg = TrainConfig(learning_rate=0.1, batch_size=1, epochs=1)
        out = sgd_step(net, zero_grads(net), cfg)
        for a, b in zip(out.layers, net.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_unit_rate_with_self_gradient_zeroes_weights(self):
        net = dense_net([3, 2], 0)
        grads = GradientBundle(net.params.copy(), net.layout)
        cfg = TrainConfig(learning_rate=1.0, batch_size=1, epochs=1)
        out = sgd_step(net, grads, cfg)
        assert all(np.all(l.weights == 0) and np.all(l.bias == 0) for l in out.layers)

    def test_one_step_reduces_quadratic_loss(self):
        # single parameter w, loss = (w - 3)^2
        net = DenseNet.from_layers([Layer(np.array([[0.0]]), np.zeros(1), "identity")])
        cfg = TrainConfig(learning_rate=0.1, batch_size=1, epochs=1)

        def loss(n):
            w = n.layers[0].weights[0, 0]
            return (w - 3.0) ** 2

        # flat layout: the one weight, then the one bias
        grads = GradientBundle(
            np.array([2 * (net.layers[0].weights[0, 0] - 3.0), 0.0]), net.layout
        )
        stepped = sgd_step(net, grads, cfg)
        assert loss(stepped) < loss(net)

    def test_nonfinite_gradient_raises(self):
        net = dense_net([2, 2], 0)
        grads = zero_grads(net)
        layer_grads(grads, net)[0][0][0, 0] = np.nan
        cfg = TrainConfig(learning_rate=0.1, batch_size=1, epochs=1)
        with pytest.raises(TrainingDivergenceError):
            sgd_step(net, grads, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("layer", [0, 1, 2])
    @pytest.mark.parametrize("attr", ["weight_grads", "bias_grads"])
    def test_nonfinite_value_in_any_single_array_raises(self, attr, layer, bad):
        net = dense_net([3, 5, 4, 2], 0)
        grads = zero_grads(net)
        arr = layer_grads(grads, net)[layer][("weight_grads", "bias_grads").index(attr)]
        arr.flat[arr.size // 2] = bad
        cfg = TrainConfig(learning_rate=0.1, batch_size=1, epochs=1)
        with pytest.raises(TrainingDivergenceError):
            sgd_step(net, grads, cfg)

    def test_scale_matches_prescaled_gradient_exactly(self):
        rng = np.random.default_rng(6)
        net = dense_net([3, 5, 2], rng)
        grads = GradientBundle(rng.normal(size=net.params.size), net.layout)
        prescaled = GradientBundle(grads.flat * (1 / 96), net.layout)
        cfg = TrainConfig(learning_rate=0.2, batch_size=1, epochs=1, weight_decay=1e-3)
        a = sgd_step(net, grads, cfg, 1 / 96)
        b = sgd_step(net, prescaled, cfg)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)

    def test_weight_decay_applied(self):
        net = DenseNet.from_layers([Layer(np.array([[2.0]]), np.zeros(1), "identity")])
        cfg = TrainConfig(learning_rate=0.5, batch_size=1, epochs=1, weight_decay=0.1)
        out = sgd_step(net, zero_grads(net), cfg)
        assert out.layers[0].weights[0, 0] == pytest.approx(2.0 - 0.5 * 0.1 * 2.0)

    SCALES = st.one_of(
        st.just(1.0),
        st.builds(lambda b, e: 1.0 / (b * e), st.integers(1, 128), st.integers(1, 40)),
    )
    DECAYS = st.one_of(st.just(0.0), st.floats(1e-6, 0.5))

    @settings(max_examples=200, deadline=None)
    @given(net=layered_nets(), lr=st.floats(1e-3, 1.0), wd=DECAYS, scale=SCALES, data=st.data())
    def test_fused_update_equals_per_layer_reference_bit_for_bit(
        self, net, lr, wd, scale, data
    ):
        grads = GradientBundle(
            data.draw(hnp.arrays(np.float64, net.params.size, elements=VALUES)), net.layout
        )
        cfg = TrainConfig(learning_rate=lr, batch_size=1, epochs=1, weight_decay=wd)
        out = sgd_step(net, grads, cfg, scale)
        for layer, (w, b) in zip(out.layers, reference_sgd_step(net, grads, cfg, scale)):
            assert layer.weights.tobytes() == w.tobytes()
            assert layer.bias.tobytes() == b.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        net=layered_nets(),
        wd=DECAYS,
        scale=SCALES,
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        data=st.data(),
    )
    def test_nonfinite_value_in_any_single_gradient_raises(self, net, wd, scale, bad, data):
        grads = zero_grads(net)
        grads.flat[data.draw(st.integers(0, net.params.size - 1))] = bad
        cfg = TrainConfig(learning_rate=0.1, batch_size=1, epochs=1, weight_decay=wd)
        with pytest.raises(TrainingDivergenceError):
            sgd_step(net, grads, cfg, scale)


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0, batch_size=1, epochs=1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, batch_size=0, epochs=1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, batch_size=1, epochs=1, weight_decay=-1)


class TestFiniteDifferenceCheck:
    def test_linear_net_squared_loss_is_tight(self):
        rng = np.random.default_rng(21)
        net = dense_net([3, 2], rng)  # one identity layer: a linear map
        x = rng.normal(size=(1, 3))
        y = rng.normal(size=(1, 2))

        def loss_fn(n):
            out = forward(n, x)
            return 0.5 * float(((out - y) ** 2).sum()), backward(n, forward_cached(n, x), out - y)

        assert finite_difference_check(net, loss_fn, 1e-5).max_rel_error < 1e-8

    def test_relu_kink_parameter_is_skipped(self):
        # w=0, x=1 puts the relu pre-activation exactly at the kink
        net = DenseNet.from_layers(
            [
                Layer(np.array([[0.0]]), np.zeros(1), "relu"),
                Layer(np.array([[1.0]]), np.zeros(1), "identity"),
            ]
        )
        x = np.array([[1.0]])

        def loss_fn(n):
            outs = forward_cached(n, x)
            g = backward(n, outs, np.ones((1, 1)))
            return float(outs[-1][0, 0]), g, relu_pattern(n, outs).astype(np.int64)

        report = finite_difference_check(net, loss_fn, 1e-6)
        assert report.n_skipped >= 1

    def test_epsilon_range_enforced(self):
        net = dense_net([2, 1], 0)

        def loss_fn(n):
            return 0.0, zero_grads(n)

        with pytest.raises(ValueError):
            finite_difference_check(net, loss_fn, 1e-8)
        with pytest.raises(ValueError):
            finite_difference_check(net, loss_fn, 1e-2)

    def test_report_equals_a_per_layer_perturbation_loop(self):
        def reference(net, loss_fn, epsilon):
            analytic = loss_fn(net)[1]
            work = net.copy()
            max_err, n_checked, n_skipped = 0.0, 0, 0
            for layer, (wg, bg) in zip(work.layers, layer_grads(analytic, net)):
                for arr, grad in ((layer.weights, wg), (layer.bias, bg)):
                    for idx in np.ndindex(arr.shape):
                        original = arr[idx]
                        arr[idx] = original + epsilon
                        plus = loss_fn(work)
                        arr[idx] = original - epsilon
                        minus = loss_fn(work)
                        arr[idx] = original
                        if not np.array_equal(plus[2], minus[2]):
                            n_skipped += 1
                            continue
                        central = (plus[0] - minus[0]) / (2.0 * epsilon)
                        err = abs(grad[idx] - central) / max(1.0, abs(central))
                        max_err = max(max_err, err)
                        n_checked += 1
            return max_err, n_checked, n_skipped

        for seed in range(4):
            rng = np.random.default_rng(40 + seed)
            net = dense_net([3, 4, 4, 2], rng)
            x = rng.normal(size=(3, 3))
            # one pre-activation exactly at the relu kink, so a parameter is skipped
            net.layers[0].bias[0] = -(x[0] @ net.layers[0].weights[0])

            def loss_fn(n):
                outs = forward_cached(n, x)
                out = outs[-1]
                return 0.5 * float((out * out).sum()), backward(n, outs, out), relu_pattern(n, outs)

            report = finite_difference_check(net, loss_fn, 1e-6)
            expected = reference(net, loss_fn, 1e-6)
            assert (report.max_rel_error, report.n_checked, report.n_skipped) == expected
            assert report.n_skipped >= 1


class TestDeterminism:
    def test_same_seed_same_network(self):
        a = dense_net([4, 8, 3], 42)
        b = dense_net([4, 8, 3], 42)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_different_seed_different_network(self):
        a = dense_net([4, 8, 3], 42)
        b = dense_net([4, 8, 3], 43)
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_glorot_limits_respected(self):
        net = dense_net([100, 50], 0)
        limit = np.sqrt(6.0 / 150)
        w = net.layers[0].weights
        assert np.all(np.abs(w) <= limit)
        assert np.all(net.layers[0].bias == 0)


class TestFlatLayout:
    @settings(max_examples=150, deadline=None)
    @given(
        layers=layer_stacks(),
        wd=TestSgdStep.DECAYS,
        scale=TestSgdStep.SCALES,
        data=st.data(),
    )
    def test_layers_view_params_and_copy_and_step_own_new_vectors(
        self, layers, wd, scale, data
    ):
        net = DenseNet.from_layers(layers)
        packed = b"".join(a.tobytes() for l in layers for a in (l.weights, l.bias))
        assert net.params.dtype == np.float64 and net.params.flags.c_contiguous
        assert net.params.tobytes() == packed
        assert net.activations == tuple(l.activation for l in layers)
        assert net.input_dim == layers[0].weights.shape[1]
        assert net.output_dim == layers[-1].weights.shape[0]
        for l in layers:
            assert not np.shares_memory(net.params, l.weights)
            assert not np.shares_memory(net.params, l.bias)

        grads = GradientBundle(
            data.draw(hnp.arrays(np.float64, net.params.size, elements=VALUES)), net.layout
        )
        cfg = TrainConfig(learning_rate=0.3, batch_size=1, epochs=1, weight_decay=wd)
        dup = net.copy()
        stepped = sgd_step(net, grads, cfg, scale)
        assert net.params.tobytes() == packed and dup.params.tobytes() == packed
        for new in (dup, stepped):
            assert new.layout == net.layout and new.activations == net.activations
            assert not np.shares_memory(new.params, net.params)
        dup.params[:] = 0.0
        assert net.params.tobytes() == packed

        # ``layers`` reads every layer back as views into ``params``, in
        # layout order.
        for other in (net, dup, stepped):
            start = other.params.__array_interface__["data"][0]
            views = other.layers
            assert len(views) == len(layers)
            for view, built, (out_dim, in_dim, w0, b0, end) in zip(views, layers, other.layout):
                assert view.activation == built.activation
                assert view.weights.shape == built.weights.shape == (out_dim, in_dim)
                assert view.bias.shape == built.bias.shape == (end - b0,)
                assert view.weights.flags.c_contiguous
                assert view.weights.__array_interface__["data"][0] == start + 8 * w0
                assert view.bias.__array_interface__["data"][0] == start + 8 * b0
            read_back = b"".join(a.tobytes() for v in views for a in (v.weights, v.bias))
            assert read_back == other.params.tobytes()
        for view, built in zip(net.layers, layers):
            assert view.weights.tobytes() == built.weights.tobytes()
            assert view.bias.tobytes() == built.bias.tobytes()

    def test_gradient_bundle_views_and_layout_check(self):
        net = dense_net([3, 5, 2], 3)
        g = zero_grads(net)
        (_, b0), (w1, _) = layer_grads(g, net)
        w1[1, 2] = 4.0
        b0[3] = -1.0
        _, in_dim, w0, _, _ = net.layout[1]
        assert g.flat[w0 + in_dim + 2] == 4.0
        assert g.flat[net.layout[0][3] + 3] == -1.0
        assert g.matches(net)
        # same parameter count (32), other shapes
        other = dense_net([2, 6, 2], 0)
        assert other.params.size == net.params.size
        assert not zero_grads(other).matches(net)
        with pytest.raises(ValueError):
            sgd_step(net, zero_grads(other), TrainConfig(0.1, 1, 1))
        with pytest.raises(ValueError):
            GradientBundle(np.zeros(net.params.size + 1), net.layout)

    @settings(max_examples=150, deadline=None)
    @given(net=layered_nets(), rows=st.integers(0, 6), data=st.data())
    def test_backward_fills_the_flat_gradient_per_layer(self, net, rows, data):
        x = data.draw(hnp.arrays(np.float64, (rows, net.input_dim), elements=VALUES))
        up = data.draw(hnp.arrays(np.float64, (rows, net.output_dim), elements=VALUES))
        g = backward(net, forward_cached(net, x), up, want_input_grad=True)
        assert g.matches(net) and g.flat.shape == net.params.shape
        flat, input_grad = reference_backward(net, x, up)
        assert g.flat.tobytes() == flat.tobytes()
        assert g.input_grad.shape == input_grad.shape
        assert g.input_grad.tobytes() == input_grad.tobytes()
        # without the input gradient, the same parameter gradients
        plain = backward(net, forward_cached(net, x), up)
        assert plain.input_grad is None
        assert plain.flat.tobytes() == flat.tobytes()
