import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import deferlab.nets
from deferlab.errors import TrainingDivergenceError
from deferlab.nets import (
    BLOCK_ROWS,
    DenseNet,
    Layer,
    TrainConfig,
    Workspace,
    backward,
    check_widths,
    dense_net,
    forward,
    forward_cached,
    relu_pattern,
    row_blocks,
    sgd_step,
    softmax,
)
from gradcheck import (
    finite_difference_check,
    grads_of,
    joined_masks,
    layer_grads,
    net_of,
    zero_grads,
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
        )
        for fan_in, fan_out in zip(dims, dims[1:])
    ]


def layered_nets():
    return layer_stacks().map(net_of)


@st.composite
def backward_cases(draw):
    """A network from ``layered_nets``, an input of 1 to 6 rows and an
    upstream gradient, every value from ``VALUES``."""
    net = draw(layered_nets())
    rows = draw(st.integers(1, 6))
    x = draw(hnp.arrays(np.float64, (rows, net.input_dim), elements=VALUES))
    up = draw(hnp.arrays(np.float64, (rows, net.output_dim), elements=VALUES))
    return net, x, up


def squared_error_case(seed):
    """A [4, 8, 8, 1] network and one input row from ``seed``, with the
    upstream gradient of the squared error to a fixed target at its output."""
    rng = np.random.default_rng(seed)
    net = dense_net([4, 8, 8, 1], rng)
    x = rng.normal(size=(1, 4))
    return net, x, forward(net, x) - np.random.default_rng(9).normal(size=(1, 1))


def reference_forward_cached(net, x):
    """The unfused forward pass: ``a @ W.T + b``, then ``np.maximum`` on
    every layer but the last."""
    pre, post = [], [x]
    a = x
    for i, layer in enumerate(net.views):
        z = a @ layer.weights.T + layer.bias
        a = np.maximum(z, 0.0) if i < len(net.views) - 1 else z
        pre.append(z)
        post.append(a)
    return pre, post


def reference_backward(net, x, upstream):
    """Unfused backprop, its relu masks read from ``reference_forward_cached``'s
    pre-activations, each bias gradient the product ``ones @ delta``: (flat
    gradient, input gradient)."""
    pre, post = reference_forward_cached(net, x)
    parts, delta = [], upstream
    for i, (layer, z, a) in reversed(list(enumerate(zip(net.views, pre, post)))):
        if i < len(net.views) - 1:
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
        for layer, (wg, bg) in zip(net.views, layer_grads(grads, net))
    ]


def zero_net(dims):
    return net_of([(np.zeros((o, i)), np.zeros(o)) for i, o in zip(dims, dims[1:])])


class TestForward:
    def test_zero_net_gives_zero_logits(self):
        net = zero_net([3, 4, 2])
        assert np.array_equal(forward(net, np.ones((1, 3))), np.zeros((1, 2)))

    def test_identity_layer_passes_input_through(self):
        net = net_of([(np.eye(4), np.zeros(4))])
        v = np.array([[0.5, -2.0, 3.25, 0.0]])
        assert np.array_equal(forward(net, v), v)

    def test_matches_independent_matrix_recomputation(self):
        rng = np.random.default_rng(7)
        net = dense_net([4, 8, 1], rng)
        x = rng.normal(size=4)
        # recompute with explicit loops, no shared helpers
        h = np.empty(8)
        w0, b0 = net.views[0].weights, net.views[0].bias
        for j in range(8):
            z = b0[j]
            for i in range(4):
                z += w0[j, i] * x[i]
            h[j] = max(z, 0.0)
        w1, b1 = net.views[1].weights, net.views[1].bias
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

    @pytest.mark.parametrize(
        "widths",
        [[], [3], [3, 2.0], [3, "2"], [3, True, 2], [3, np.float64(4.0), 2], [3, 0, 2], [-1, 2]],
    )
    def test_widths_that_build_no_layout_rejected(self, widths):
        # fewer than two widths, a width that is not an int, or one below 1
        with pytest.raises(ValueError, match="widths"):
            check_widths(widths)
        with pytest.raises(ValueError, match="widths"):
            dense_net(widths)
        # a network checks its own widths, whatever vector it is given
        for size in (0, 1, 9):
            with pytest.raises(ValueError, match="widths"):
                DenseNet(np.zeros(size), widths)

    def test_views_pack_each_layer_weights_then_bias(self):
        net = DenseNet(np.arange(26.0), (3, np.int64(4), 2))
        (w0, b0), (w1, b1) = net.views
        assert w0.tolist() == np.arange(12.0).reshape(4, 3).tolist()
        assert b0.tolist() == [12.0, 13.0, 14.0, 15.0]
        assert w1.tolist() == np.arange(16.0, 24.0).reshape(2, 4).tolist()
        assert b1.tolist() == [24.0, 25.0]
        assert net.widths == (3, 4, 2)
        assert all(type(v) is int for v in net.widths)
        assert all(type(v) is int for v in check_widths(np.array([3, 4, 2])))

    @settings(max_examples=100, deadline=None)
    @given(widths=st.lists(st.integers(1, 9), min_size=3, max_size=6))
    def test_views_tile_the_vector_once_in_order(self, widths):
        # 2 to 5 layers of 1 to 9 units: every layer's weights then bias,
        # contiguous views that cover the vector once, in order
        size = sum((a + 1) * b for a, b in zip(widths, widths[1:]))
        net = DenseNet(np.zeros(size), widths)
        base, offset = net.params.__array_interface__["data"][0], 0
        for (w, b), fan_in, fan_out in zip(net.views, widths, widths[1:]):
            for arr, shape in ((w, (fan_out, fan_in)), (b, (fan_out,))):
                assert arr.shape == shape and arr.flags.c_contiguous
                assert arr.base is net.params
                assert arr.__array_interface__["data"][0] == base + 8 * offset
                offset += arr.size
        assert offset == size
        for wrong in (size - 1, size + 1):
            with pytest.raises(ValueError, match="do not fit"):
                DenseNet(np.zeros(wrong), widths)


def whole_forward(net, x):
    """``forward`` without row blocks: every layer on the whole batch."""
    a = x
    for i, layer in enumerate(net.views):
        z = a @ layer.weights.T
        z += layer.bias
        a = np.maximum(z, 0.0) if i < len(net.views) - 1 else z
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
        # One workspace for every n, as ``_fit`` reuses one across validation
        # passes, sized for the largest row block: a lone block of one row
        # under 1.5 blocks.
        ws = Workspace.of(net, 64, 3 * BLOCK_ROWS // 2 - 1)
        for n in BOUNDARY_ROWS:
            x = big[:n]
            expected = whole_forward(net, x).tobytes()
            out = forward(net, x)
            assert out.shape == (n, dims[-1])
            assert out.tobytes() == expected, n
            reused = forward(net, x, ws)
            assert reused.tobytes() == expected, n
            assert not np.shares_memory(reused, ws.outs[-1])
            forward(net, -x, ws)
            assert reused.tobytes() == expected, n

    def test_forward_runs_forward_cached_once_per_block(self, monkeypatch):
        net = dense_net([4, 8, 1], 0)
        real = deferlab.nets.forward_cached
        calls = []

        def counted(net, x, ws=None):
            calls.append(len(x))
            return real(net, x, ws)

        monkeypatch.setattr(deferlab.nets, "forward_cached", counted)
        big = np.ones((BOUNDARY_ROWS[-1], 4))
        for n in BOUNDARY_ROWS:
            calls.clear()
            forward(net, big[:n])
            assert calls == [s.stop - s.start for s in row_blocks(n)], n

    def test_a_block_longer_than_the_workspace_is_named(self):
        # a workspace for 13 312 rows holds blocks of 2 048 rows, but 2 049
        # to 3 071 rows run as one longer block
        net = dense_net([4, 8, 1], 0)
        x = np.random.default_rng(3).normal(size=(13 * BLOCK_ROWS // 2, 4))
        ws = Workspace.of(net, 64, len(x))
        assert len(ws.outs[0]) == BLOCK_ROWS
        for n in (BLOCK_ROWS + 1, 3 * BLOCK_ROWS // 2 - 1):
            message = f"a pass on {n} rows does not fit a workspace of {BLOCK_ROWS} output rows"
            for run in (forward, forward_cached):
                with pytest.raises(ValueError) as err:
                    run(net, x[:n], ws)
                assert str(err.value) == message
        for n in (BLOCK_ROWS, 3 * BLOCK_ROWS // 2, len(x)):
            assert forward(net, x[:n], ws).tobytes() == forward(net, x[:n]).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        batch_rows=st.integers(1, 3 * BLOCK_ROWS),
        val_rows=st.integers(1, 7 * BLOCK_ROWS),
        experts=st.sampled_from([1, 3]),
    )
    @example(batch_rows=BLOCK_ROWS + 1, val_rows=13 * BLOCK_ROWS // 2, experts=1)
    @example(batch_rows=64, val_rows=3 * BLOCK_ROWS // 2 - 1, experts=3)
    def test_the_workspaces_of_a_training_call_fit_its_passes(
        self, batch_rows, val_rows, experts
    ):
        # ``_fit``'s shapes: the full batch and a shorter last one with
        # gradients, and the whole validation split through ``forward``,
        # each times the cohort size for the rejector
        net = dense_net([4, 8, 1], 0)
        batch, val = batch_rows * experts, val_rows * experts
        ws = Workspace.of(net, batch, val)
        x = np.ones((max(batch, val), 4))
        for n in (batch, batch - experts):
            outs = forward_cached(net, x[:n], ws)
            backward(net, outs, np.ones((n, 1)), zero_grads(net), ws=ws)
        assert forward(net, x[:val], ws).shape == (val, 1)

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
        for i, (out, z) in enumerate(zip(outs[1:], ref_pre)):
            assert np.array_equal(out > 0, z > 0)
            expected = np.maximum(z, 0.0) if i < len(net.views) - 1 else z
            assert np.array_equal(out, expected, equal_nan=True)

    def test_relu_pattern_reads_signs_of_relu_layers_only(self):
        rng = np.random.default_rng(19)
        net = dense_net([3, 4, 5, 2], rng)
        x = rng.normal(size=(6, 3))
        masks = relu_pattern(net, forward_cached(net, x))
        assert [(mask.shape, mask.dtype) for mask in masks] == [((6, 4), bool), ((6, 5), bool)]
        pattern = joined_masks(masks)
        ref_pre, _ = reference_forward_cached(net, x)
        expected = np.concatenate([(ref_pre[0] > 0).ravel(), (ref_pre[1] > 0).ravel()])
        assert pattern.dtype == bool
        assert np.array_equal(pattern, expected)
        linear = dense_net([3, 2], rng)
        assert relu_pattern(linear, forward_cached(linear, np.ones((1, 3)))) == []
        assert joined_masks([]).size == 0

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


def reference_softmax(logits):
    """The row softmax on its own: ``exp`` of the max-shifted logits over
    their row sum."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        rho, top, total = softmax(np.zeros((1, 3)))
        assert np.allclose(rho, np.full((1, 3), 1 / 3), atol=1e-15)
        assert top[0] == 0.0 and total[0] == 3.0

    def test_large_logits_do_not_overflow(self):
        rho, _, _ = softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(rho))
        assert rho[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert rho[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.normal(scale=5, size=(1, rng.integers(2, 12)))
            c = rng.normal()
            assert np.allclose(softmax(v)[0], softmax(v + c)[0], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            rho, _, _ = softmax(rng.normal(scale=10, size=(1, rng.integers(1, 15))))
            assert abs(rho.sum() - 1.0) < 1e-12
            assert np.all(rho > 0) and np.all(rho < 1 + 1e-12)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.zeros((1, 0)))

    def test_rows_match_one_row_calls_bit_for_bit(self):
        m = np.random.default_rng(13).normal(scale=5, size=(7, 4))
        rows = softmax(m)
        for i in range(len(m)):
            one = softmax(m[i : i + 1])
            for whole, single in zip(rows, one):
                assert whole[i].tobytes() == single[0].tobytes()

    def test_nonfinite_logits_are_not_validated(self):
        # training relies on this: the NaN reaches the loss, whose check
        # raises TrainingDivergenceError
        rho, _, _ = softmax(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        assert np.isnan(rho[0]).any() and np.isfinite(rho[1]).all()

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.one_of(VALUES, st.floats(-50.0, 50.0), st.sampled_from([1e300, -1e300])),
        )
    )
    def test_rho_is_the_reference_and_the_terms_give_the_logsumexp(self, logits):
        rho, top, total = softmax(logits)
        assert rho.tobytes() == reference_softmax(logits).tobytes()
        # atol for rows whose logsumexp cancels to near 0
        np.testing.assert_allclose(
            top + np.log(total), np.logaddexp.reduce(logits, axis=1), rtol=1e-12, atol=1e-12
        )


class TestBackward:
    def test_zero_upstream_gives_zero_bundle(self):
        net = dense_net([3, 5, 2], 1)
        g = grads_of(net, forward_cached(net, np.ones((1, 3))), np.zeros((1, 2)))
        assert all(np.all(wg == 0) for wg, _ in layer_grads(g, net))
        assert all(np.all(bg == 0) for _, bg in layer_grads(g, net))

    def test_linear_layer_squared_error_closed_form(self):
        # loss = 0.5 * (w x - y)^2, dW = (yhat - y) x^T
        rng = np.random.default_rng(5)
        w = rng.normal(size=(2, 3))
        net = net_of([(w, np.zeros(2))])
        x = rng.normal(size=(1, 3))
        y = rng.normal(size=(1, 2))
        yhat = forward(net, x)
        g = grads_of(net, forward_cached(net, x), yhat - y)
        [(wg, bg)] = layer_grads(g, net)
        assert np.allclose(wg, np.outer(yhat - y, x), atol=1e-14)
        assert np.allclose(bg, (yhat - y)[0], atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(case=backward_cases())
    @example(case=squared_error_case(0))
    def test_matches_finite_differences(self, case):
        net, x, up = case
        # a workspace for more rows than the case has, dirtied by a larger pass
        ws = Workspace.of(net, 8)
        big = np.linspace(-2.0, 2.0, 8 * net.input_dim).reshape(8, net.input_dim)
        backward(net, forward_cached(net, big, ws), np.ones((8, net.output_dim)),
                 zero_grads(net), ws=ws)

        def loss_fn(n):
            # sum(up * output) is linear in every parameter while the relu
            # masks hold, so central differences are exact up to rounding,
            # and epsilon 1e-3 keeps that rounding under the bound for
            # outputs up to about 3e4 (three 5-wide layers of weights up to 4)
            outs = forward_cached(n, x, ws)
            grads = zero_grads(n)
            backward(n, outs, up, grads, ws=ws)
            return float((outs[-1] * up).sum()), grads, joined_masks(relu_pattern(n, outs, ws))

        report = finite_difference_check(net, loss_fn, 1e-3)
        assert report.max_rel_error < 1e-6 and report.n_checked >= 1
        fresh = grads_of(net, forward_cached(net, x), up)
        assert loss_fn(net)[1].params.tobytes() == fresh.params.tobytes()

    def test_masks_come_from_one_relu_pattern_call(self, monkeypatch):
        # through the module attribute, so the benchmark's span wraps it;
        # all-zero masks stop the gradient below the top layer
        rng = np.random.default_rng(16)
        net = dense_net([4, 6, 6, 2], rng)
        outs = forward_cached(net, rng.normal(size=(5, 4)))
        calls = []
        real = deferlab.nets.relu_pattern

        def closed(net, outs, ws):
            calls.append(net)
            return [mask * False for mask in real(net, outs, ws)]

        monkeypatch.setattr(deferlab.nets, "relu_pattern", closed)
        grads = zero_grads(net)
        backward(net, outs, rng.normal(size=(5, 2)), grads)
        assert calls == [net]
        *below, top = layer_grads(grads, net)
        assert all(not w.any() and not b.any() for w, b in below)
        assert top[0].any() and top[1].any()

    def test_shape_mismatch_rejected(self):
        net = dense_net([3, 2], 0)
        with pytest.raises(ValueError):
            backward(net, forward_cached(net, np.ones((1, 3))), np.zeros((1, 3)), zero_grads(net))

    def test_runs_no_forward_of_its_own(self, monkeypatch):
        rng = np.random.default_rng(15)
        net = dense_net([4, 6, 6, 2], rng)
        outs = forward_cached(net, rng.normal(size=(5, 4)))

        def no_forward(*args, **kwargs):
            raise AssertionError("backward ran a forward pass")

        grads = zero_grads(net)
        for name in ("forward", "forward_cached", "_check_input"):
            monkeypatch.setattr(deferlab.nets, name, no_forward)
        assert backward(net, outs, rng.normal(size=(5, 2)), grads) is None
        assert np.any(grads.params != 0)
        assert joined_masks(relu_pattern(net, outs)).size == 5 * 12

    def test_activations_of_another_depth_rejected(self):
        net = dense_net([3, 2], 0)
        deeper = dense_net([3, 4, 2], 0)
        with pytest.raises(ValueError):
            outs = forward_cached(deeper, np.ones((1, 3)))
            backward(net, outs, np.zeros((1, 2)), zero_grads(net))

    def test_column_view_upstream_matches_contiguous_copy(self):
        rng = np.random.default_rng(14)
        net = dense_net([4, 8, 1], rng)
        outs = forward_cached(net, rng.normal(size=(12, 4)))
        block = rng.normal(size=(12, 3))
        from_view, from_copy = zero_grads(net), zero_grads(net)
        view_in = backward(net, outs, block[:, 2:], from_view, want_input_grad=True)
        copy_in = backward(net, outs, block[:, 2:].copy(), from_copy, want_input_grad=True)
        assert np.array_equal(from_view.params, from_copy.params)
        assert np.array_equal(view_in, copy_in)

    def test_batched_grads_sum_per_example(self):
        rng = np.random.default_rng(13)
        net = dense_net([3, 4, 2], rng)
        xs = rng.normal(size=(6, 3))
        ups = rng.normal(size=(6, 2))
        batched = grads_of(net, forward_cached(net, xs), ups)
        acc = zero_grads(net)
        for x, u in zip(xs, ups):
            acc.params[:] += grads_of(net, forward_cached(net, x[None, :]), u[None, :]).params
        for (a, _), (b, _) in zip(layer_grads(batched, net), layer_grads(acc, net)):
            assert np.allclose(a, b, atol=1e-12)


def stepped(net, grads, cfg, scale=1.0):
    """A copy of ``net`` after one ``sgd_step`` on copies of its vector and
    of ``grads``; ``net`` and ``grads`` stay untouched."""
    out = DenseNet(net.params.copy(), net.widths)
    sgd_step(out.params, grads.params.copy(), cfg, scale)
    return out


class TestSgdStep:
    """``sgd_step(params, grads, cfg, scale)`` updates ``params`` in place
    and consumes ``grads``."""

    def test_zero_gradient_leaves_net_unchanged(self):
        net = dense_net([3, 2], 0)
        cfg = TrainConfig(learning_rate=0.1, batch_size=1, epochs=1)
        out = stepped(net, zero_grads(net), cfg)
        for a, b in zip(out.views, net.views):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_unit_rate_with_self_gradient_zeroes_weights(self):
        net = dense_net([3, 2], 0)
        grads = DenseNet(net.params.copy(), net.widths)
        cfg = TrainConfig(learning_rate=1.0, batch_size=1, epochs=1)
        out = stepped(net, grads, cfg)
        assert all(np.all(l.weights == 0) and np.all(l.bias == 0) for l in out.views)

    def test_one_step_reduces_quadratic_loss(self):
        # single parameter w, loss = (w - 3)^2
        net = net_of([(np.array([[0.0]]), np.zeros(1))])
        cfg = TrainConfig(learning_rate=0.1, batch_size=1, epochs=1)

        def loss(n):
            w = n.views[0].weights[0, 0]
            return (w - 3.0) ** 2

        # flat layout: the one weight, then the one bias
        grads = DenseNet(np.array([2 * (net.views[0].weights[0, 0] - 3.0), 0.0]), net.widths)
        assert loss(stepped(net, grads, cfg)) < loss(net)

    def test_nonfinite_gradient_raises(self):
        net = dense_net([2, 2], 0)
        grads = zero_grads(net)
        layer_grads(grads, net)[0][0][0, 0] = np.nan
        cfg = TrainConfig(learning_rate=0.1, batch_size=1, epochs=1)
        with pytest.raises(TrainingDivergenceError):
            sgd_step(net.params, grads.params, cfg)

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
            sgd_step(net.params, grads.params, cfg)

    def test_scale_matches_prescaled_gradient_exactly(self):
        rng = np.random.default_rng(6)
        net = dense_net([3, 5, 2], rng)
        grads = DenseNet(rng.normal(size=net.params.size), net.widths)
        prescaled = DenseNet(grads.params * (1 / 96), net.widths)
        cfg = TrainConfig(learning_rate=0.2, batch_size=1, epochs=1, weight_decay=1e-3)
        a = stepped(net, grads, cfg, 1 / 96)
        b = stepped(net, prescaled, cfg)
        for la, lb in zip(a.views, b.views):
            assert np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)

    def test_weight_decay_applied(self):
        net = net_of([(np.array([[2.0]]), np.zeros(1))])
        cfg = TrainConfig(learning_rate=0.5, batch_size=1, epochs=1, weight_decay=0.1)
        out = stepped(net, zero_grads(net), cfg)
        assert out.views[0].weights[0, 0] == pytest.approx(2.0 - 0.5 * 0.1 * 2.0)

    def test_shape_mismatch_rejected(self):
        net = dense_net([3, 2], 0)
        cfg = TrainConfig(learning_rate=0.1, batch_size=1, epochs=1)
        with pytest.raises(ValueError, match="shape"):
            sgd_step(net.params, np.zeros(net.params.size + 1), cfg)

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
        grads = DenseNet(
            data.draw(hnp.arrays(np.float64, net.params.size, elements=VALUES)), net.widths
        )
        cfg = TrainConfig(learning_rate=lr, batch_size=1, epochs=1, weight_decay=wd)
        expected = reference_sgd_step(net, grads, cfg, scale)
        # in place: views taken before the step read the updated weights
        out = DenseNet(net.params.copy(), net.widths)
        views, buffer = out.views, out.params.__array_interface__["data"][0]
        sgd_step(out.params, grads.params.copy(), cfg, scale)
        assert out.params.__array_interface__["data"][0] == buffer
        for layer, (w, b) in zip(views, expected):
            assert layer.weights.tobytes() == w.tobytes()
            assert layer.bias.tobytes() == b.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        nets=st.lists(layered_nets(), min_size=1, max_size=3),
        wd=DECAYS,
        scale=SCALES,
        data=st.data(),
    )
    def test_one_step_over_packed_networks_equals_a_step_each(self, nets, wd, scale, data):
        cfg = TrainConfig(learning_rate=0.3, batch_size=1, epochs=1, weight_decay=wd)
        flats = [
            data.draw(hnp.arrays(np.float64, n.params.size, elements=VALUES)) for n in nets
        ]
        packed = np.concatenate([n.params for n in nets])
        sgd_step(packed, np.concatenate(flats), cfg, scale)
        alone = [stepped(n, DenseNet(f, n.widths), cfg, scale) for n, f in zip(nets, flats)]
        assert packed.tobytes() == b"".join(n.params.tobytes() for n in alone)

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
        grads.params[data.draw(st.integers(0, net.params.size - 1))] = bad
        cfg = TrainConfig(learning_rate=0.1, batch_size=1, epochs=1, weight_decay=wd)
        with pytest.raises(TrainingDivergenceError):
            sgd_step(net.params, grads.params, cfg, scale)


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0, batch_size=1, epochs=1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, batch_size=0, epochs=1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.1, batch_size=1, epochs=1, weight_decay=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", float("inf")),
            ("learning_rate", float("nan")),
            ("learning_rate", True),
            ("learning_rate", "0.1"),
            ("weight_decay", float("inf")),
            ("weight_decay", float("nan")),
            ("weight_decay", np.float64("nan")),
            ("weight_decay", False),
            # integers beyond float64, which ``sgd_step`` could not convert
            ("learning_rate", 10**400),
            ("weight_decay", 10**400),
            ("batch_size", True),
            ("batch_size", 8.0),
            ("epochs", np.float64(2.0)),
            ("epochs", "2"),
            ("seed", True),
            ("seed", 0.5),
            ("seed", -1),
        ],
    )
    def test_rejects_a_non_finite_or_mistyped_field_by_name(self, field, value):
        args = dict(learning_rate=0.1, batch_size=8, epochs=1, weight_decay=0.0, seed=0)
        args[field] = value
        with pytest.raises(ValueError, match=repr(field)):
            TrainConfig(**args)

    def test_numpy_scalars_and_int_rates_accepted(self):
        cfg = TrainConfig(np.float64(0.1), np.int64(8), np.int32(2), np.float32(0.5), np.uint8(3))
        assert (cfg.batch_size, cfg.epochs, cfg.seed) == (8, 2, 3)
        assert TrainConfig(1, 8, 1, weight_decay=0).learning_rate == 1


class TestDeterminism:
    def test_same_seed_same_network(self):
        a = dense_net([4, 8, 3], 42)
        b = dense_net([4, 8, 3], 42)
        for la, lb in zip(a.views, b.views):
            assert np.array_equal(la.weights, lb.weights)

    def test_different_seed_different_network(self):
        a = dense_net([4, 8, 3], 42)
        b = dense_net([4, 8, 3], 43)
        assert not np.array_equal(a.views[0].weights, b.views[0].weights)

    @pytest.mark.parametrize("dims", [[3, 2], [4, 8, 3], [5, 7, 6, 1]])
    @pytest.mark.parametrize("as_generator", [False, True])
    def test_draws_are_one_uniform_call_per_layer_then_zero_biases(self, dims, as_generator):
        # the same draws in the same order as drawing each layer alone
        seed = 1234 + len(dims)
        net = dense_net(dims, np.random.default_rng(seed) if as_generator else seed)
        rng = np.random.default_rng(seed)
        parts = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            parts += [rng.uniform(-limit, limit, (fan_out, fan_in)).ravel(), np.zeros(fan_out)]
        assert net.params.tobytes() == np.concatenate(parts).tobytes()
        assert net.widths == check_widths(dims)

    def test_a_given_generator_is_advanced_by_exactly_the_draws(self):
        given_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
        dense_net([4, 8, 3], given_rng)
        rng.uniform(size=8 * 4)
        rng.uniform(size=3 * 8)
        assert given_rng.uniform() == rng.uniform()

    def test_glorot_limits_respected(self):
        net = dense_net([100, 50], 0)
        limit = np.sqrt(6.0 / 150)
        w = net.views[0].weights
        assert np.all(np.abs(w) <= limit)
        assert np.all(net.views[0].bias == 0)


class TestFlatLayout:
    @settings(max_examples=150, deadline=None)
    @given(
        layers=layer_stacks(),
        wd=TestSgdStep.DECAYS,
        scale=TestSgdStep.SCALES,
        data=st.data(),
    )
    def test_views_built_once_follow_params_and_copy_owns_a_new_vector(
        self, layers, wd, scale, data
    ):
        net = net_of(layers)
        packed = b"".join(a.tobytes() for l in layers for a in (l.weights, l.bias))
        assert net.params.dtype == np.float64 and net.params.flags.c_contiguous
        assert net.params.tobytes() == packed
        assert [f.name for f in dataclasses.fields(net)] == ["params", "widths", "views"]
        assert Layer._fields == ("weights", "bias")
        assert all(type(view) is Layer for view in net.views)
        assert len(net.layers) == len(net.views)
        assert all(a is b for a, b in zip(net.layers, net.views))
        assert net.input_dim == layers[0].weights.shape[1]
        assert net.output_dim == layers[-1].weights.shape[0]
        for l in layers:
            assert not np.shares_memory(net.params, l.weights)
            assert not np.shares_memory(net.params, l.bias)
        # frozen: the vector under the views is never rebound
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.params = net.params.copy()

        grads = DenseNet(
            data.draw(hnp.arrays(np.float64, net.params.size, elements=VALUES)), net.widths
        )
        cfg = TrainConfig(learning_rate=0.3, batch_size=1, epochs=1, weight_decay=wd)
        dup = DenseNet(net.params.copy(), net.widths)
        assert dup.widths == net.widths
        assert not np.shares_memory(dup.params, net.params)
        views = dup.views
        sgd_step(dup.params, grads.params.copy(), cfg, scale)
        assert dup.views is views
        assert net.params.tobytes() == packed
        dup.params[:] = 0.0
        assert net.params.tobytes() == packed

        # ``views`` and ``layers`` read every layer as views into ``params``,
        # layer by layer, and follow every change to its values. The
        # offsets are counted here from the widths.
        for other in (net, dup):
            start = other.params.__array_interface__["data"][0]
            assert len(other.views) == len(other.layers) == len(layers)
            end = 0
            for (w, b), view, built, in_dim, out_dim in zip(
                other.views, other.layers, layers, other.widths, other.widths[1:]
            ):
                w0 = end
                b0 = w0 + out_dim * in_dim
                end = b0 + out_dim
                for arr in (w, view.weights):
                    assert arr.shape == built.weights.shape == (out_dim, in_dim)
                    assert arr.flags.c_contiguous
                    assert arr.__array_interface__["data"][0] == start + 8 * w0
                for arr in (b, view.bias):
                    assert arr.shape == built.bias.shape == (end - b0,)
                    assert arr.__array_interface__["data"][0] == start + 8 * b0
            read_back = b"".join(a.tobytes() for v in other.layers for a in (v.weights, v.bias))
            assert read_back == other.params.tobytes()
        for view, built in zip(net.layers, layers):
            assert view.weights.tobytes() == built.weights.tobytes()
            assert view.bias.tobytes() == built.bias.tobytes()

    def test_network_over_a_slice_of_a_longer_vector(self):
        a, b = dense_net([3, 4, 2], 0), dense_net([4, 3, 1], 1)
        packed = np.concatenate([a.params, b.params])
        split = a.params.size
        first, second = DenseNet(packed[:split], a.widths), DenseNet(packed[split:], b.widths)
        x = np.arange(12.0).reshape(4, 3) / 7
        assert forward(first, x).tobytes() == forward(a, x).tobytes()
        packed[split:] *= 2.0
        assert np.array_equal(second.views[-1].bias, 2.0 * b.views[-1].bias)
        assert np.array_equal(second.views[0][0], 2.0 * b.views[0][0])
        for bad in (packed, packed[:split].astype(np.float32), packed[:split].reshape(1, -1)):
            with pytest.raises(ValueError, match="do not fit"):
                DenseNet(bad, a.widths)

    def test_gradient_destination_views_and_layout_check(self):
        net = dense_net([3, 5, 2], 3)
        g = zero_grads(net)
        (_, b0), (w1, _) = layer_grads(g, net)
        w1[1, 2] = 4.0
        b0[3] = -1.0
        # layer 0's weights, then its bias; layer 1's weights follow
        n_in, n_hidden, _ = net.widths
        bias0 = n_hidden * n_in
        weights1 = bias0 + n_hidden
        assert g.params[weights1 + n_hidden + 2] == 4.0
        assert g.params[bias0 + 3] == -1.0
        assert all(
            np.shares_memory(view, g.params) and np.array_equal(view, ref)
            for built, refs in zip(g.views, layer_grads(g, net))
            for view, ref in zip(built, refs)
        )
        # same parameter count (32), other shapes
        other = dense_net([2, 6, 2], 0)
        assert other.params.size == net.params.size
        outs = forward_cached(net, np.ones((1, 3)))
        with pytest.raises(ValueError, match="widths"):
            backward(net, outs, np.ones((1, 2)), zero_grads(other))
        with pytest.raises(ValueError):
            DenseNet(np.zeros(net.params.size + 1), net.widths)

    def test_destination_over_a_float32_vector_rejected(self):
        # a float32 buffer cannot hold the gradient in place; converting it
        # would write into a copy and leave the caller's buffer untouched
        net = dense_net([3, 5, 2], 3)
        with pytest.raises(ValueError, match="do not fit"):
            DenseNet(np.zeros(net.params.size, dtype=np.float32), net.widths)

    @settings(max_examples=100, deadline=None)
    @given(net=layered_nets(), rows=st.integers(0, 6), data=st.data())
    def test_backward_writes_into_a_destination_over_a_slice_of_a_longer_vector(
        self, net, rows, data
    ):
        x = data.draw(hnp.arrays(np.float64, (rows, net.input_dim), elements=VALUES))
        up = data.draw(hnp.arrays(np.float64, (rows, net.output_dim), elements=VALUES))
        outs = forward_cached(net, x)
        fresh = zero_grads(net)
        fresh_input = backward(net, outs, up, fresh, want_input_grad=True)
        # a slice of a longer vector, filled with garbage first
        buffer = np.full(net.params.size + 3, np.nan)
        dest = DenseNet(buffer[2:-1], net.widths)
        for want in (True, False):
            got = backward(net, outs, up, dest, want_input_grad=want)
            assert dest.params.base is buffer
            assert buffer[2:-1].tobytes() == fresh.params.tobytes()
            if want:
                assert got.tobytes() == fresh_input.tobytes()
            else:
                assert got is None
        assert np.isnan(buffer[:2]).all() and np.isnan(buffer[-1])

    @settings(max_examples=150, deadline=None)
    @given(net=layered_nets(), rows=st.integers(0, 6), data=st.data())
    def test_backward_fills_the_flat_gradient_per_layer(self, net, rows, data):
        x = data.draw(hnp.arrays(np.float64, (rows, net.input_dim), elements=VALUES))
        up = data.draw(hnp.arrays(np.float64, (rows, net.output_dim), elements=VALUES))
        g = zero_grads(net)
        got_input = backward(net, forward_cached(net, x), up, g, want_input_grad=True)
        flat, input_grad = reference_backward(net, x, up)
        assert g.params.tobytes() == flat.tobytes()
        assert got_input.shape == input_grad.shape
        assert got_input.tobytes() == input_grad.tobytes()
        # without the input gradient, the same parameter gradients
        plain = zero_grads(net)
        assert backward(net, forward_cached(net, x), up, plain) is None
        assert plain.params.tobytes() == flat.tobytes()
