import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netshrink import tensor as T
from netshrink.errors import NetshrinkError, ParseError, ShapeError

from reference import (
    finite_difference_grads,
    loop_conv2d,
    loop_dense,
    normalized_max_error,
    relative_error,
)


class TestConv2d:
    def test_all_ones_center_is_nine(self):
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        y = T.conv2d_forward(x, w, stride=1)
        assert y.shape == (1, 1, 3, 3)
        assert y[0, 0, 1, 1] == pytest.approx(9.0)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for i in range(3):
            w[i, i, 1, 1] = 1.0
        y = T.conv2d_forward(x, w, stride=1)
        np.testing.assert_allclose(y, x, rtol=1e-6)

    @pytest.mark.parametrize(
        "stride,k,hw",
        [
            # the 8x8 cases keep their ids: kernel, then stride
            pytest.param(s, k, hw, id=f"{k}-{s}" if hw == (8, 8) else f"{k}-{s}-{hw[0]}x{hw[1]}")
            for k, hw in ((3, (8, 8)), (5, (8, 8)), (3, (7, 9)), (5, (7, 9)), (5, (5, 5)), (7, (8, 8)))
            for s in (1, 2)
        ],
    )
    def test_matches_loop_oracle(self, stride, k, hw):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, *hw)).astype(np.float32)
        w = rng.standard_normal((4, 3, k, k)).astype(np.float32)
        got = T.conv2d_forward(x, w, stride=stride)
        want = loop_conv2d(x, w, stride=stride)
        assert got.shape == want.shape
        assert normalized_max_error(got, want) < 1e-5

    def test_odd_spatial_output_shape(self):
        x = np.zeros((1, 2, 7, 9), dtype=np.float32)
        w = np.zeros((5, 2, 3, 3), dtype=np.float32)
        assert T.conv2d_forward(x, w, stride=2).shape == (1, 5, 4, 5)

    def test_channel_mismatch_names_axis(self):
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        w = np.zeros((4, 2, 3, 3), dtype=np.float32)
        with pytest.raises(ShapeError, match="axis 1"):
            T.conv2d_forward(x, w)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            T.conv2d_forward(np.zeros((1, 1, 8, 8)), np.zeros((1, 1, 4, 4)))

    def test_spatial_smaller_than_kernel_rejected(self):
        with pytest.raises(ShapeError, match="spatial"):
            T.conv2d_forward(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)))

    @pytest.mark.parametrize(
        "stride,k,hw,precomputed_cols",
        [
            # the base case (k=3, 5x5, no cols) keeps its id: the stride alone
            pytest.param(
                s, k, hw, cols,
                id=f"{s}" if (k, hw, cols) == (3, (5, 5), False)
                else f"{s}-k{k}-{hw[0]}x{hw[1]}" + ("-cols" if cols else ""),
            )
            for s in (1, 2)
            for k in (3, 5)
            for hw in ((5, 5), (5, 7))
            for cols in (False, True)
        ],
    )
    def test_backward_matches_finite_differences(self, stride, k, hw, precomputed_cols):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 2, *hw))
        w = T.Parameter(rng.standard_normal((3, 2, k, k)))
        target = rng.standard_normal(T.conv2d_forward(x, w.value, stride).shape)

        def loss():
            d = T.conv2d_forward(x, w.value, stride) - target
            return float((d * d).sum())

        cols = T.im2col(x, k, stride) if precomputed_cols else None
        y = T.conv2d_forward(x, w.value, stride, cols=cols)
        dx, dw = T.conv2d_backward(2 * (y - target), x, w.value, stride, cols=cols)
        (fd_w,) = finite_difference_grads(loss, [w], h=1e-5)
        assert relative_error(dw, fd_w) < 1e-5

        xp = T.Parameter(x)

        def loss_x():
            d = T.conv2d_forward(xp.value, w.value, stride) - target
            return float((d * d).sum())

        (fd_x,) = finite_difference_grads(loss_x, [xp], h=1e-5)
        assert relative_error(dx, fd_x) < 1e-5

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 5),
        f=st.integers(1, 5),
        k=st.sampled_from([3, 5, 7]),
        stride=st.sampled_from([1, 2]),
        # H, W in [k, k + 6]: H = k, and odd extents whose stride-2 phases differ in length
        extra_h=st.integers(0, 6),
        extra_w=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dx_is_the_adjoint_of_the_forward(self, n, c, f, k, stride, extra_h, extra_w, seed):
        # <conv(x), dy> = <x, dx> for every x and dy: dx is the transposed convolution
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, k + extra_h, k + extra_w))
        w = rng.standard_normal((f, c, k, k))
        y = T.conv2d_forward(x, w, stride)
        dy = rng.standard_normal(y.shape)
        dx, _ = T.conv2d_backward(dy, x, w, stride)
        assert dx.shape == x.shape
        lhs, rhs = float(np.vdot(y, dy)), float(np.vdot(x, dx))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestConvColsContract:
    """im2col columns handed in, and the input layer's skipped dx, change no bits."""

    @staticmethod
    def _case(stride, k, hw=(8, 6)):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4, *hw)).astype(np.float32)
        w = rng.standard_normal((5, 4, k, k)).astype(np.float32)
        dy = rng.standard_normal(T.conv2d_forward(x, w, stride).shape).astype(np.float32)
        return x, w, dy

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_cols_give_bitwise_equal_results(self, stride, k):
        x, w, dy = self._case(stride, k)
        cols = T.im2col(x, k, stride)
        np.testing.assert_array_equal(
            T.conv2d_forward(x, w, stride, cols=cols), T.conv2d_forward(x, w, stride)
        )
        dx, dw = T.conv2d_backward(dy, x, w, stride)
        dx_c, dw_c = T.conv2d_backward(dy, x, w, stride, cols=cols)
        np.testing.assert_array_equal(dx_c, dx)
        np.testing.assert_array_equal(dw_c, dw)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_need_dx_false_returns_none_and_the_same_dw(self, stride):
        x, w, dy = self._case(stride, 3)
        _, dw = T.conv2d_backward(dy, x, w, stride)
        dx_skip, dw_skip = T.conv2d_backward(
            dy, x, w, stride, cols=T.im2col(x, 3, stride), need_dx=False
        )
        assert dx_skip is None
        np.testing.assert_array_equal(dw_skip, dw)

    def test_im2col_shape(self):
        # [C*k*k, N*H_out*Wq]: Wq is W_out at stride 2 and the padded width W+k-1 at stride 1
        x, _, _ = self._case(2, 5, hw=(7, 9))
        assert T.im2col(x, 5, 2).shape == (4 * 25, 3 * 4 * 5)
        assert T.im2col(x, 5, 1).shape == (4 * 25, 3 * 7 * 13)

    @pytest.mark.parametrize(
        "bad,match",
        [
            (lambda x, w, dy, cols: (dy[0], x, w, cols), "gradient must be 4-D"),
            (lambda x, w, dy, cols: (dy, x[0], w, cols), "input must be 4-D"),
            (lambda x, w, dy, cols: (dy, x, w[0], cols), "weights must be 4-D"),
            (lambda x, w, dy, cols: (dy[:2], x, w, cols), "dy axis 0 has 2"),
            (lambda x, w, dy, cols: (dy[:, :4], x, w, cols), "dy axis 1 has 4"),
            (lambda x, w, dy, cols: (dy[:, :, :3], x, w, cols), "dy axis 2 has 3"),
            (lambda x, w, dy, cols: (dy[:, :, :, :2], x, w, cols), "dy axis 3 has 2"),
            (lambda x, w, dy, cols: (dy, x, w, cols[0]), "cols must be 2-D"),
            (lambda x, w, dy, cols: (dy, x, w, cols[:2]), "cols axis 0 has 2"),
            (lambda x, w, dy, cols: (dy, x, w, cols[:, :5]), "cols axis 1 has 5"),
            # the stride-1 columns of x: 8 rows of the padded width 8, not 4 rows of 3
            (lambda x, w, dy, cols: (dy, x, w, T.im2col(x, 3, 1)), "cols axis 1 has 192"),
        ],
    )
    def test_backward_shape_checks_name_the_axis(self, bad, match):
        x, w, dy = self._case(2, 3)
        dy_b, x_b, w_b, cols_b = bad(x, w, dy, T.im2col(x, 3, 2))
        with pytest.raises(ShapeError, match=match):
            T.conv2d_backward(dy_b, x_b, w_b, 2, cols=cols_b)

    @pytest.mark.parametrize(
        "bad,match",
        [
            (lambda x, w, cols: (x[0], w, 2, cols), r"conv input must be 4-D NCHW, got rank 3"),
            (
                lambda x, w, cols: (x, w[0], 2, cols),
                r"conv weights must be 4-D \[F,C,k,k\], got rank 3",
            ),
            (
                lambda x, w, cols: (x, w[..., :1], 2, cols),
                r"kernel must be square, got 3x1 on axes \(2,3\)",
            ),
            (lambda x, w, cols: (x, w, 0, cols), r"stride must be >= 1, got 0"),
            (
                lambda x, w, cols: (x[:, :, :2], w, 2, cols),
                r"spatial extents \(2x6\) must be >= kernel \(3\) on axes \(2,3\)",
            ),
            (
                lambda x, w, cols: (x, w, 2, cols[0]),
                r"cols must be 2-D \[C\*k\*k, N\*H_out\*Wq\], got rank 1",
            ),
            (
                lambda x, w, cols: (x, w, 2, cols[:2]),
                r"cols axis 0 has 2, im2col of input \(3, 4, 8, 6\) with k=3 needs 36",
            ),
            (
                lambda x, w, cols: (x, w, 2, cols[:, :5]),
                r"cols axis 1 has 5, im2col of input \(3, 4, 8, 6\) with k=3 needs 36",
            ),
        ],
        ids=[
            "x-rank-3", "w-rank-3", "non-square", "stride-0", "below-kernel",
            "cols-rank-1", "cols-axis-0", "cols-axis-1",
        ],
    )
    def test_forward_shape_checks_give_their_message(self, bad, match):
        # with test_channel_mismatch_names_axis and test_even_kernel_rejected, every
        # branch of the checks, so a fast path that skips one fails here
        x, w, _ = self._case(2, 3)
        x_b, w_b, stride, cols_b = bad(x, w, T.im2col(x, 3, 2))
        with pytest.raises(ShapeError, match=match):
            T.conv2d_forward(x_b, w_b, stride, cols=cols_b)

    def test_forward_rejects_cols_of_another_kernel(self):
        x, w, _ = self._case(1, 3)
        with pytest.raises(ShapeError, match="cols axis 0"):
            T.conv2d_forward(x, w, 1, cols=T.im2col(x, 5, 1))


class TestDense:
    def test_identity(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        np.testing.assert_array_equal(T.dense_forward(x, np.eye(3, dtype=np.float32)), x)

    def test_hand_arithmetic(self):
        x = np.array([[1.0, 2.0]], dtype=np.float32)
        w = np.array([[3.0, 4.0], [5.0, 6.0]], dtype=np.float32)
        np.testing.assert_allclose(T.dense_forward(x, w), [[11.0, 17.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 7)).astype(np.float32)
        w = rng.standard_normal((5, 7)).astype(np.float32)
        assert normalized_max_error(T.dense_forward(x, w), loop_dense(x, w)) < 1e-5

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError, match="inner axis"):
            T.dense_forward(np.zeros((2, 3)), np.zeros((4, 5)))

    def test_squared_loss_gradient_is_analytic(self):
        # single dense layer, L = (pred - target)^2: dL/dw = 2 (pred - target) x
        rng = np.random.default_rng(21)
        x = rng.standard_normal((1, 4))
        w = rng.standard_normal((1, 4))
        target = 0.7
        pred = T.dense_forward(x, w)
        _, dw = T.dense_backward(2 * (pred - target), x, w)
        np.testing.assert_allclose(dw, 2 * (pred[0, 0] - target) * x, rtol=1e-12)


class TestActivationsAndLoss:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(T.relu(x), [0.0, 0.0, 2.0])

    def test_global_avg_pool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        assert T.global_avg_pool(x)[0, 0] == pytest.approx(7.5)

    def test_uniform_logits_loss_is_ln_classes(self):
        logits = np.zeros((3, 4), dtype=np.float32)
        loss, _ = T.softmax_cross_entropy(logits, np.array([0, 1, 2]))
        assert loss == pytest.approx(math.log(4), rel=1e-6)

    def test_matching_huge_logit_loss_near_zero(self):
        logits = np.zeros((1, 4), dtype=np.float32)
        logits[0, 2] = 50.0
        loss, _ = T.softmax_cross_entropy(logits, np.array([2]))
        assert loss < 1e-6

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        p = T.softmax(rng.standard_normal((10, 6)).astype(np.float32) * 3)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError, match=r"\[0, 4\)"):
            T.softmax_cross_entropy(np.zeros((2, 4)), np.array([0, 4]))

    def test_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        logits = T.Parameter(rng.standard_normal((3, 5)))
        labels = np.array([1, 4, 0])
        _, dlogits = T.softmax_cross_entropy(logits.value, labels)
        (fd,) = finite_difference_grads(
            lambda: T.softmax_cross_entropy(logits.value, labels)[0], [logits], h=1e-3
        )
        assert relative_error(dlogits, fd) < 1e-3


class TestSgd:
    def test_no_grad_no_decay_unchanged(self):
        p = T.Parameter(np.array([1.0, -2.0]))
        T.sgd_step([p], lr=0.1)
        np.testing.assert_array_equal(p.value, [1.0, -2.0])

    def test_single_step(self):
        p = T.Parameter(np.array([1.0]))
        p.grad[:] = 1.0
        T.sgd_step([p], lr=0.1)
        assert p.value[0] == pytest.approx(0.9)

    def test_converges_on_quadratic(self):
        # f(p) = 0.5 * (p - p*)^T A (p - p*), optimum known in closed form
        a = np.array([[3.0, 0.4], [0.4, 1.0]])
        opt = np.array([0.7, -1.3])
        p = T.Parameter(np.zeros(2))
        for _ in range(1000):
            p.zero_grad()
            p.grad += a @ (p.value - opt)
            T.sgd_step([p], lr=0.2)
        assert np.abs(p.value - opt).max() < 1e-6

    def test_gradient_accumulates_until_zeroed(self):
        p = T.Parameter(np.zeros(3))
        p.grad += 1.0
        p.grad += 1.0
        np.testing.assert_array_equal(p.grad, [2.0, 2.0, 2.0])
        p.zero_grad()
        np.testing.assert_array_equal(p.grad, [0.0, 0.0, 0.0])

    def test_weight_decay_step_is_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal(257).astype(np.float32)
        g = rng.standard_normal(257).astype(np.float32)
        lr, wd = 0.07, 3e-2
        p = T.Parameter(v.copy())
        p.grad[...] = g
        T.sgd_step([p], lr, weight_decay=wd)
        want = v - lr * (g + wd * v)
        assert want.dtype == np.float32 and not np.array_equal(want, v - lr * g)
        np.testing.assert_array_equal(p.value, want)


class TestFlatten:
    def params(self):
        rng = np.random.default_rng(3)
        return [T.Parameter(rng.standard_normal(s).astype(np.float32), n)
                for s, n in (((2, 3), "a"), ((4,), "b"), ((1, 2, 2), "c"))]

    def test_parameters_become_views_of_the_flat_vectors(self):
        ps = self.params()
        values = [p.value.copy() for p in ps]
        ps[1].grad += 2.0
        flat = T.flatten(ps)
        np.testing.assert_array_equal(flat.value, np.concatenate([v.ravel() for v in values]))
        np.testing.assert_array_equal(flat.grad, [0] * 6 + [2] * 4 + [0] * 4)
        for p, v in zip(ps, values):
            np.testing.assert_array_equal(p.value, v)
            assert np.shares_memory(p.value, flat.value) and np.shares_memory(p.grad, flat.grad)
        flat.grad += 1.0
        np.testing.assert_array_equal(ps[1].grad, [3.0] * 4)
        flat.zero_grad()
        assert all(not p.grad.any() for p in ps)

    def test_assigning_a_value_writes_through_to_the_flat_vector(self):
        ps = self.params()
        flat = T.flatten(ps)
        ps[2].value = np.full((1, 2, 2), 5.0)
        np.testing.assert_array_equal(flat.value[10:], [5.0] * 4)
        assert ps[2].value.dtype == np.float32
        with pytest.raises(ShapeError, match=r"Parameter\(c, shape=\(1, 2, 2\)\) value"):
            ps[2].value = np.zeros(4)

    def test_one_dtype(self):
        ps = self.params() + [T.Parameter(np.zeros(2), "d")]
        with pytest.raises(ShapeError, match="one dtype"):
            T.flatten(ps)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = {
            "layer0.weight": rng.standard_normal((2, 3, 3, 3)).astype(np.float32),
            "head.bias": rng.standard_normal(4).astype(np.float32),
        }
        path = tmp_path / "ckpt.json"
        T.save_checkpoint(path, tensors, meta={"note": "test"})
        loaded, meta = T.load_checkpoint(path)
        assert meta == {"note": "test"}
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "tensors": {}}')
        with pytest.raises(ParseError, match="format"):
            T.load_checkpoint(path)

    def test_truncated_json_rejected(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"format": "netshrink-che')
        with pytest.raises(ParseError, match="offset"):
            T.load_checkpoint(path)

    @pytest.mark.parametrize(
        "payload,match",
        [
            ({"format": T.CHECKPOINT_FORMAT}, "field 'tensors'"),
            ([1, 2, 3], ": must be a JSON object, got list"),
            ({"format": T.CHECKPOINT_FORMAT, "tensors": {"w": {"shape": [2]}}}, "tensor w .*'data'"),
            (
                {"format": T.CHECKPOINT_FORMAT, "tensors": {"w": {"shape": [2], "data": ["a", "b"]}}},
                "tensor w field 'data'",
            ),
            (
                {"format": T.CHECKPOINT_FORMAT, "tensors": {"w": {"shape": "2", "data": [1, 2]}}},
                "tensor w field 'shape'",
            ),
            ({"format": T.CHECKPOINT_FORMAT, "tensors": {}, "meta": []}, "field 'meta'"),
            # a bool is no dimension, a string no number, and the data is one flat list
            (
                {"format": T.CHECKPOINT_FORMAT, "tensors": {"w": {"shape": [True, 2], "data": [1, 2]}}},
                "tensor w field 'shape': must be an integer >= 0, got True",
            ),
            (
                {"format": T.CHECKPOINT_FORMAT, "tensors": {"w": {"shape": [2], "data": ["1", "2"]}}},
                "tensor w field 'data': must be a flat list of 2 numbers",
            ),
            (
                {"format": T.CHECKPOINT_FORMAT, "tensors": {"w": {"shape": [2], "data": [[1, 2]]}}},
                "tensor w field 'data': must be a flat list of 2 numbers",
            ),
            # a finite value that float32 cannot hold; NaN and Infinity load as they are
            (
                {"format": T.CHECKPOINT_FORMAT, "tensors": {"w": {"shape": [2], "data": [1.0, 1e300]}}},
                r"tensor w field 'data': 1e\+300 is beyond the float32 range",
            ),
            (
                {"format": T.CHECKPOINT_FORMAT, "tensors": {"w": {"shape": [1], "data": [-1e39]}}},
                r"tensor w field 'data': -1e\+39 is beyond the float32 range",
            ),
            # no element, but numpy cannot hold the product of the other extents
            (
                {"format": T.CHECKPOINT_FORMAT, "tensors": {"w": {"shape": [2**62, 0], "data": []}}},
                r"tensor w field 'shape': \[4611686018427387904, 0\] is too big",
            ),
            (
                {"format": T.CHECKPOINT_FORMAT,
                 "tensors": {"w": {"shape": [2**40, 2**40, 0], "data": []}}},
                r"tensor w field 'shape': \[1099511627776, 1099511627776, 0\] is too big",
            ),
        ],
    )
    def test_malformed_payload_names_path_and_field(self, tmp_path, payload, match):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=match) as exc:
            T.load_checkpoint(path)
        assert str(path) in str(exc.value)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        shape=st.lists(st.integers(0, 3) | st.booleans(), max_size=3),
        data=st.data(),
    )
    def test_only_netshrink_errors_escape_the_checkpoint_loader(self, tmp_path_factory, shape, data):
        # as many leaves as the shape needs, so the size check passes and the
        # element and shape checks are what is exercised
        leaf = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2)
        leaves = data.draw(st.lists(leaf, min_size=math.prod(shape), max_size=math.prod(shape)))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(leaves)), max_size=3)))
        if cuts:  # nested lists, equal or ragged
            leaves = [leaves[a:b] for a, b in zip([0, *cuts], [*cuts, len(leaves)])]
        path = tmp_path_factory.mktemp("fuzz") / "ckpt.json"
        tensors = {"w": {"shape": shape, "data": leaves}}
        path.write_text(json.dumps({"format": T.CHECKPOINT_FORMAT, "tensors": tensors}))
        try:
            loaded, _ = T.load_checkpoint(path)
        except NetshrinkError:
            return
        assert all(type(d) is int for d in shape)
        assert loaded["w"].dtype == np.float32 and loaded["w"].shape == tuple(shape)

    def test_non_finite_values_load_as_they_are(self, tmp_path):
        """A diverged run saves NaN and +-Infinity, and its checkpoint still loads."""
        top = float(np.finfo(np.float32).max)
        path = tmp_path / "ckpt.json"
        w = np.array([np.nan, np.inf, -np.inf, top, -top], dtype=np.float32)
        T.save_checkpoint(path, {"w": w})
        loaded, _ = T.load_checkpoint(path)
        np.testing.assert_array_equal(loaded["w"], w)
