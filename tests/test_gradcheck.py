"""The test suite's finite-difference check (``tests/gradcheck.py``)."""

import numpy as np
import pytest

from deferlab.nets import (
    DenseNet,
    dense_net,
    forward,
    forward_cached,
    relu_pattern,
)
from gradcheck import finite_difference_check, grads_of, joined_masks, net_of, zero_grads


def layer_grads(grads, net):
    """Every layer's (weight gradient, bias gradient): views into
    ``grads.params`` at ``net.layout``'s offsets."""
    return [
        (grads.params[w0:b0].reshape(out_dim, in_dim), grads.params[b0:end])
        for out_dim, in_dim, w0, b0, end in net.layout
    ]


class TestFiniteDifferenceCheck:
    def test_linear_net_squared_loss_is_tight(self):
        rng = np.random.default_rng(21)
        net = dense_net([3, 2], rng)  # one identity layer: a linear map
        x = rng.normal(size=(1, 3))
        y = rng.normal(size=(1, 2))

        def loss_fn(n):
            out = forward(n, x)
            return 0.5 * float(((out - y) ** 2).sum()), grads_of(n, forward_cached(n, x), out - y)

        assert finite_difference_check(net, loss_fn, 1e-5).max_rel_error < 1e-8

    def test_relu_kink_parameter_is_skipped(self):
        # w=0, x=1 puts the relu pre-activation exactly at the kink
        net = net_of([(np.array([[0.0]]), np.zeros(1)), (np.array([[1.0]]), np.zeros(1))])
        x = np.array([[1.0]])

        def loss_fn(n):
            outs = forward_cached(n, x)
            g = grads_of(n, outs, np.ones((1, 1)))
            return float(outs[-1][0, 0]), g, joined_masks(relu_pattern(n, outs)).astype(np.int64)

        report = finite_difference_check(net, loss_fn, 1e-6)
        assert report.n_skipped >= 1

    @pytest.mark.parametrize(
        "pattern",
        [
            (np.zeros(2, dtype=bool), np.zeros(3, dtype=bool)),  # masks, not joined
            [0, 1],
            np.zeros((2, 2), dtype=bool),
            np.zeros(3),
        ],
        ids=["tuple", "list", "2-D", "float"],
    )
    def test_pattern_not_a_1d_int_or_bool_array_rejected(self, pattern):
        # ``np.array_equal`` is False on two ragged tuples, so per-layer
        # masks not joined would skip every parameter and the check would
        # pass empty
        net = dense_net([2, 1], 0)

        def loss_fn(n):
            return 0.0, zero_grads(n), pattern

        with pytest.raises(TypeError, match="1-D bool or integer ndarray"):
            finite_difference_check(net, loss_fn, 1e-6)

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
            work = DenseNet(net.params.copy(), net.layout)
            max_err, n_checked, n_skipped = 0.0, 0, 0
            for layer, (wg, bg) in zip(work.views, layer_grads(analytic, net)):
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
            net.views[0].bias[0] = -(x[0] @ net.views[0].weights[0])

            def loss_fn(n):
                outs = forward_cached(n, x)
                out = outs[-1]
                loss = 0.5 * float((out * out).sum())
                return loss, grads_of(n, outs, out), joined_masks(relu_pattern(n, outs))

            report = finite_difference_check(net, loss_fn, 1e-6)
            expected = reference(net, loss_fn, 1e-6)
            assert (report.max_rel_error, report.n_checked, report.n_skipped) == expected
            assert report.n_skipped >= 1
