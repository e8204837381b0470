import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netshrink import tensor as T
from netshrink.errors import GridError, NetshrinkError, ParseError, ShapeError, StateError
from netshrink.search import min_resource_choice
from netshrink.supernet import (
    ChannelSource,
    Layer,
    LayerSpec,
    SubNetChoice,
    SuperNetwork,
    _layer_forward,
    bypass_channel_map,
    cbc_output_channels,
    channel_flow,
    check_choice,
    choice_from_rows,
    default_kernel_grid,
    default_width_grid,
    full_width_choice,
    kernel_window,
    ordered_dropout_mask,
    prefix_slice,
    sample_width_assignments,
    sliced_layer,
)

from reference import (
    finite_difference_grads,
    loop_conv2d,
    normalized_max_error,
    relative_error,
    simulate_bypass,
)


def toy_specs():
    """Three stride-1 layers, including an expanding one and a bottleneck cap."""
    return [
        LayerSpec(index=0, c=3, t=6, k_max=3, stride=1),
        LayerSpec(index=1, c=6, t=6, k_max=5, stride=1),
        LayerSpec(index=2, c=6, t=4, k_max=3, stride=1),
    ]


def toy_net(seed=0, specs=None, hw=(6, 6), classes=3):
    return SuperNetwork(specs or toy_specs(), hw, classes, rng=np.random.default_rng(seed))


class TestCbcArithmetic:
    @pytest.mark.parametrize(
        "c,t,m,z",
        [
            (4, 2, 2, 2),  # bottleneck cap: no bypass until M < T
            (4, 4, 0, 4),  # all inputs bypassed = layer removed
            (4, 6, 6, 6),  # nothing removed
            (4, 6, 2, 4),  # expansion shrunk below C
        ],
    )
    def test_worked_values(self, c, t, m, z):
        assert cbc_output_channels(c, t, m) == z

    def test_map_examples(self):
        assert bypass_channel_map(4, 4, 2) == [
            ChannelSource("filter", 0),
            ChannelSource("filter", 1),
            ChannelSource("input", 2),
            ChannelSource("input", 3),
        ]
        assert bypass_channel_map(4, 4, 4) == [ChannelSource("filter", j) for j in range(4)]
        assert bypass_channel_map(4, 2, 0) == [
            ChannelSource("input", 0),
            ChannelSource("input", 1),
        ]

    def test_exhaustive_against_simulation(self):
        for c in range(1, 9):
            for t in range(1, 9):
                for m in range(0, t + 1):
                    sim = simulate_bypass(c, t, m)
                    assert cbc_output_channels(c, t, m) == len(sim)
                    got = [(s.origin, s.index) for s in bypass_channel_map(c, t, m)]
                    assert got == sim, (c, t, m)

    def test_live_layers_route_channels_as_the_simulation(self):
        """`sliced_layer` at width M, and `_layer_forward` at full width under a width-M
        keep mask, put each filter and input where `simulate_bypass` puts them."""

        def sources(out):
            # filter j emits relu(0 + 100 + j), input i carries i + 1, a cut channel 0
            assert np.all(out == out[:, :, :1, :1]), "every channel is one constant plane"
            return [
                ("filter", v - 100) if v >= 100 else ("input", v - 1) if v else None
                for v in out[0, :, 0, 0].astype(int).tolist()
            ]

        for c in range(1, 9):
            x = np.tile(np.arange(1, c + 1, dtype=np.float32)[None, :, None, None], (1, 1, 3, 3))
            for t in range(1, 9):
                spec = LayerSpec(index=0, c=c, t=t, k_max=3, width_grid=tuple(range(t + 1)))
                weight = np.zeros((t, c, 3, 3), np.float32)
                bias = 100 + np.arange(t, dtype=np.float32)
                full = Layer(spec, t, 3, c, T.Parameter(weight, "w"), T.Parameter(bias, "b"))
                for m in range(0, t + 1):
                    sim = simulate_bypass(c, t, m)
                    params = (weight[:m], bias[:m]) if m else (None, None)
                    assert sources(sliced_layer(spec, x, m, *params)[0]) == sim, (c, t, m)
                    keep = ordered_dropout_mask([m], t)[:, :, None, None]
                    masked = _layer_forward(full, x, False, keep)[0]
                    assert sources(masked) == sim + [None] * (t - len(sim)), (c, t, m)

    def test_z_never_zero_and_monotone(self):
        for c in range(1, 9):
            for t in range(1, 9):
                zs = [cbc_output_channels(c, t, m) for m in range(t + 1)]
                assert min(zs) >= 1
                assert zs == sorted(zs)  # non-increasing as M decreases
                for m in range(min(c, t) + 1):
                    assert zs[m] == min(c, t)

    def test_domain_errors(self):
        with pytest.raises(GridError):
            cbc_output_channels(4, 2, 3)
        with pytest.raises(GridError):
            cbc_output_channels(0, 2, 1)
        with pytest.raises(GridError):
            cbc_output_channels(4, 2, -1)


class TestOrderedDropout:
    def test_prefix_examples(self):
        np.testing.assert_array_equal(
            ordered_dropout_mask([3, 0, 8], 8),
            [[1, 1, 1, 0, 0, 0, 0, 0], [0] * 8, [1] * 8],
        )
        assert ordered_dropout_mask([0], 4).sum() == 0
        assert ordered_dropout_mask([4], 4).sum() == 4
        assert ordered_dropout_mask([2], 4).dtype == bool

    def test_width_beyond_total_rejected(self):
        with pytest.raises(GridError):
            ordered_dropout_mask([2, 5], 4)
        with pytest.raises(GridError):
            ordered_dropout_mask([-1], 4)
        with pytest.raises(GridError):
            ordered_dropout_mask(2, 4)  # a scalar is not a per-image vector

    @settings(max_examples=100, derandomize=True)
    @given(total=st.integers(1, 64), widths=st.lists(st.integers(0, 64), min_size=1, max_size=8))
    def test_prefix_property_and_complement(self, total, widths):
        if max(widths) > total:
            with pytest.raises(GridError):
                ordered_dropout_mask(widths, total)
            return
        mask = ordered_dropout_mask(widths, total)
        comp = 1 - mask  # the training path's bypass complement
        for row, m in zip(mask, widths):
            assert all((row[i] == 1) == (i < m) for i in range(total))
        np.testing.assert_array_equal(comp, (np.arange(total) >= np.array(widths)[:, None]))
        np.testing.assert_array_equal(mask + comp, np.ones((len(widths), total)))


class TestWidthSampling:
    def test_exact_partition(self):
        rng = np.random.default_rng(0)
        widths = sample_width_assignments(8, [2, 4, 6, 8], rng)
        assert sorted(widths.tolist()) == [2, 2, 4, 4, 6, 6, 8, 8]

    def test_remainder_spread(self):
        rng = np.random.default_rng(1)
        widths = sample_width_assignments(5, [0, 4], rng)
        counts = [int((widths == v).sum()) for v in (0, 4)]
        assert sorted(counts) == [2, 3]

    def test_deviation_never_exceeds_one_over_many_batches(self):
        rng = np.random.default_rng(2)
        grid = [0, 2, 5, 8]
        for _ in range(1000):
            widths = sample_width_assignments(14, grid, rng)
            counts = np.array([(widths == v).sum() for v in grid])
            assert counts.max() - counts.min() <= 1

    def test_order_is_randomized(self):
        rng = np.random.default_rng(3)
        draws = {tuple(sample_width_assignments(6, [1, 2, 3], rng)) for _ in range(20)}
        assert len(draws) > 1


class TestSuperkernel:
    def test_full_size_unchanged(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        view = prefix_slice(w, 2, 3, 5)
        np.testing.assert_array_equal(view, w)
        assert np.shares_memory(view, w)

    def test_zeroed_tap_count(self):
        # writing through the k=3 window of a 5x5 kernel leaves the 16 outer taps untouched
        w = np.zeros((2, 3, 5, 5), dtype=np.float32)
        prefix_slice(w, 2, 3, 3)[...] = 1.0
        for f in range(2):
            for c in range(3):
                assert (w[f, c] == 0).sum() == 16
        np.testing.assert_array_equal(w[:, :, 1:4, 1:4], 1.0)
        assert kernel_window(5, 3) == slice(1, 4)

    def test_invalid_sizes_rejected(self):
        w = np.ones((1, 1, 5, 5))
        for k in (2, 4, 7, 1):
            with pytest.raises(GridError):
                kernel_window(5, k)
            with pytest.raises(GridError):
                prefix_slice(w, 1, 1, k)

    @pytest.mark.parametrize("k,kmax", [(3, 5), (3, 7), (5, 7)])
    def test_masked_equals_cropped_convolution(self, k, kmax):
        # training convolves with the centered window; with same padding that is
        # the full-size kernel whose outer taps are zeroed
        spec = LayerSpec(index=0, c=3, t=4, k_max=kmax, stride=1)
        net = SuperNetwork([spec], (8, 8), 3, rng=np.random.default_rng(4))
        x = np.random.default_rng(5).standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = net.weights[0].value
        taps = np.zeros((kmax, kmax), dtype=w.dtype)
        taps[kernel_window(kmax, k), kernel_window(kmax, k)] = 1.0
        masked = T.relu(
            T.conv2d_forward(x, w * taps, stride=1) + net.biases[0].value[None, :, None, None]
        )
        cropped, cache = train_layer(net, 0, x, spec.t, k)
        assert cache["cols"].shape == (3 * k * k, 2 * 8 * (8 + k - 1))  # [C*k*k, N*H_out*Wq]
        assert normalized_max_error(masked, cropped) < 1e-6


class TestLayerSpec:
    def test_default_width_grid_nine_points(self):
        assert default_width_grid(8, stride=1) == (0, 1, 2, 3, 4, 5, 6, 7, 8)
        assert default_width_grid(16, stride=1) == (0, 2, 4, 6, 8, 10, 12, 14, 16)
        assert default_width_grid(8, stride=2)[0] == 1

    def test_small_t_deduplicates(self):
        grid = default_width_grid(4, stride=1)
        assert grid == (0, 1, 2, 3, 4)

    def test_default_kernel_grid(self):
        assert default_kernel_grid(7) == (3, 5, 7)
        assert default_kernel_grid(3) == (3,)

    def test_zero_in_stride2_grid_rejected(self):
        with pytest.raises(GridError, match="stride 1"):
            LayerSpec(index=0, c=4, t=4, k_max=3, stride=2, width_grid=(0, 2, 4))

    def test_grid_must_contain_t(self):
        with pytest.raises(GridError, match="contain T"):
            LayerSpec(index=0, c=4, t=4, k_max=3, width_grid=(0, 2))

    def test_even_kernel_in_grid_rejected(self):
        with pytest.raises(GridError):
            LayerSpec(index=0, c=4, t=4, k_max=5, kernel_grid=(3, 4, 5))


def eval_layer(net, li, x, m, k):
    """Layer li as an extracted network runs it: `sliced_layer` on the prefix slice."""
    weight = bias = None
    if m > 0:
        weight = prefix_slice(net.weights[li].value, m, x.shape[1], k)
        bias = net.biases[li].value[:m]
    return sliced_layer(net.specs[li], x, m, weight, bias)[0]


def train_layer(net, li, x, m, k):
    """Layer li in training mode, every image at width m; returns (out, cache)."""
    spec = net.specs[li]
    keep = ordered_dropout_mask(np.full(x.shape[0], m), spec.t)[:, :, None, None]
    layer = Layer(spec, spec.t, k, spec.c, net.weights[li], net.biases[li])
    return _layer_forward(layer, x, True, keep)


class TestForwardWithCbc:
    def test_width_zero_is_identity_on_first_channels(self):
        net = toy_net()
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6, 6, 6)).astype(np.float32)
        np.testing.assert_array_equal(eval_layer(net, 1, x, 0, 5), x)  # C = T = 6 here
        np.testing.assert_array_equal(train_layer(net, 1, x, 0, 5)[0], x)

    def test_width_zero_truncates_to_bypass_cap(self):
        net = toy_net()
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 6, 6, 6)).astype(np.float32)
        out = eval_layer(net, 2, x, 0, 3)  # C=6, T=4
        np.testing.assert_array_equal(out, x[:, :4])

    def test_full_width_is_plain_convolution(self):
        net = toy_net()
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 6, 6, 6)).astype(np.float32)
        out = eval_layer(net, 1, x, 6, 5)
        want = T.relu(
            loop_conv2d(x, net.weights[1].value, 1)
            + net.biases[1].value[None, :, None, None]
        )
        assert normalized_max_error(out, want) < 1e-5

    def test_training_matches_eval_on_every_grid_point(self):
        net = toy_net(seed=1)
        rng = np.random.default_rng(8)
        for li, spec in enumerate(net.specs):
            x = rng.standard_normal((3, spec.c, 6, 6)).astype(np.float32)
            for m in spec.width_grid:
                for k in spec.kernel_grid:
                    masked = train_layer(net, li, x, m, k)[0]
                    sliced = eval_layer(net, li, x, m, k)
                    z = sliced.shape[1]
                    assert normalized_max_error(masked[:, :z], sliced) < 1e-5
                    assert np.all(masked[:, z:] == 0)


@st.composite
def random_stack(draw):
    """(specs, input size, one grid choice per layer, seed) for a random 2-5 layer stack.

    It reaches shapes that hand-picked stacks miss: one input channel, T < C,
    stride-2 layers in a row, a removed first layer, odd extents after stride 2.
    """
    hw = (draw(st.integers(5, 9)), draw(st.integers(5, 9)))
    n = draw(st.integers(2, 5))
    specs, c, e = [], draw(st.integers(1, 5)), min(hw)
    for i in range(n):
        # a layer's input extent must be at least its max kernel
        k_max = draw(st.sampled_from([k for k in (3, 5) if k <= e]))
        stride = draw(st.sampled_from([1, 2] if i == n - 1 or -(-e // 2) >= 3 else [1]))
        specs.append(LayerSpec(index=i, c=c, t=draw(st.integers(1, 8)), k_max=k_max, stride=stride))
        c, e = specs[-1].t, -(-e // stride)
    pairs = tuple(
        (draw(st.sampled_from(s.width_grid)), draw(st.sampled_from(s.kernel_grid))) for s in specs
    )
    return specs, hw, SubNetChoice(pairs), draw(st.integers(0, 2**16))


class TestNetworkForward:
    def mixed_specs(self):
        return [
            LayerSpec(index=0, c=3, t=8, k_max=5, stride=1),
            LayerSpec(index=1, c=8, t=8, k_max=3, stride=2),
            LayerSpec(index=2, c=8, t=4, k_max=3, stride=1),
            LayerSpec(index=3, c=4, t=8, k_max=3, stride=1),
        ]

    def all_choices_sample(self, net, rng, n=60):
        """Random grid choices covering removals, bottlenecks and kernels."""
        out = []
        for _ in range(n):
            pairs = tuple(
                (int(rng.choice(s.width_grid)), int(rng.choice(s.kernel_grid)))
                for s in net.specs
            )
            out.append(SubNetChoice(pairs))
        return out

    def test_mask_slice_equivalence_whole_net(self):
        net = SuperNetwork(self.mixed_specs(), (8, 8), 4, rng=np.random.default_rng(2))
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 3, 8, 8)).astype(np.float32)
        for choice in self.all_choices_sample(net, rng):
            widths = np.tile(choice.widths, (x.shape[0], 1))
            logits_train = net.forward_train(x, widths, choice.kernels)
            net._cache = None
            logits_eval = net.forward_eval(x, choice)
            assert normalized_max_error(logits_train, logits_eval) < 1e-5, choice

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=random_stack())
    def test_mask_slice_equivalence_random_stacks(self, case):
        specs, hw, choice, seed = case
        net = SuperNetwork(specs, hw, 3, rng=np.random.default_rng(seed))
        x = np.random.default_rng(seed + 1).standard_normal((3, specs[0].c, *hw)).astype(np.float32)
        logits_train = net.forward_train(x, np.tile(choice.widths, (len(x), 1)), choice.kernels)
        net._cache = None
        logits_eval = net.forward_eval(x, choice)
        assert normalized_max_error(logits_train, logits_eval) < 1e-5, (specs, choice)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=random_stack())
    def test_gradient_equivalence_random_stacks(self, case):
        """Criterion 04 over random stacks: at uniform widths the super-network's
        gradients are the extracted network's on its slices, and exactly 0 elsewhere."""
        specs, hw, choice, seed = case
        net = SuperNetwork(specs, hw, 3, rng=np.random.default_rng(seed), dtype=np.float64)
        sub = net.extract(choice)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal((3, specs[0].c, *hw))
        labels = rng.integers(0, 3, size=3)
        logits = net.forward_train(x, np.tile(choice.widths, (len(x), 1)), choice.kernels)
        net.backward(T.softmax_cross_entropy(logits, labels)[1])
        sub.backward(T.softmax_cross_entropy(sub.forward(x, record=True), labels)[1])

        def assert_grad_on_slice(grad, inside, extracted):
            if extracted is not None:
                np.testing.assert_allclose(
                    grad[inside].reshape(extracted.grad.shape), extracted.grad, rtol=1e-9, atol=1e-12
                )
            assert not grad[~inside].any(), (specs, choice)

        flow = channel_flow(specs, choice)
        for i, ((m, k), layer) in enumerate(zip(choice.pairs, sub.layers)):
            inside = np.zeros(net.weights[i].grad.shape, bool)
            prefix_slice(inside, m, flow[i], k)[...] = True
            assert_grad_on_slice(net.weights[i].grad, inside, layer.weight)
            assert_grad_on_slice(net.biases[i].grad, np.arange(specs[i].t) < m, layer.bias)
        inside = np.zeros(net.head_w.grad.shape, bool)
        inside[:, : flow[-1]] = True
        assert_grad_on_slice(net.head_w.grad, inside, sub.head_w)
        np.testing.assert_allclose(net.head_b.grad, sub.head_b.grad, rtol=1e-9, atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=random_stack())
    def test_full_width_training_step_is_bitwise_the_extracted_networks(self, case):
        """Both network kinds run one layer: a float32 step at full width, every
        layer at its drawn kernel, gives the same logits and gradients bit for bit."""
        specs, hw, choice, seed = case
        net = SuperNetwork(specs, hw, 3, rng=np.random.default_rng(seed))
        full = SubNetChoice(tuple((s.t, k) for s, k in zip(specs, choice.kernels)))
        sub = net.extract(full)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal((3, specs[0].c, *hw)).astype(np.float32)
        labels = rng.integers(0, 3, size=3)
        logits = net.forward_train(x, np.tile(full.widths, (len(x), 1)), full.kernels)
        net.backward(T.softmax_cross_entropy(logits, labels)[1])
        sub_logits = sub.forward(x, record=True)
        sub.backward(T.softmax_cross_entropy(sub_logits, labels)[1])
        np.testing.assert_array_equal(logits, sub_logits)
        for i, (s, layer) in enumerate(zip(specs, sub.layers)):
            window = prefix_slice(net.weights[i].grad, s.t, s.c, layer.k)
            np.testing.assert_array_equal(window, layer.weight.grad, err_msg=f"layer {i}")
            np.testing.assert_array_equal(net.biases[i].grad, layer.bias.grad, err_msg=f"layer {i}")
        np.testing.assert_array_equal(net.head_w.grad, sub.head_w.grad)
        np.testing.assert_array_equal(net.head_b.grad, sub.head_b.grad)

    @pytest.mark.parametrize("channels", [2, 4])
    def test_eval_rejects_the_wrong_input_channel_count(self, channels):
        net = toy_net()  # built for 3 input channels
        x = np.zeros((2, channels, 6, 6), dtype=np.float32)
        # full width; the first layer removed; every layer removed (only the head is left)
        for pairs in (((6, 3), (6, 5), (4, 3)), ((0, 3), (6, 5), (4, 3)), ((0, 3), (0, 3), (0, 3))):
            with pytest.raises(ShapeError, match="axis 1"):
                net.forward_eval(x, SubNetChoice(pairs))

    @pytest.mark.parametrize(
        "widths_shape,kernels,message",
        [
            ((2, 2), [3, 3, 3], r"widths must be \[batch=2, layers=3\], got \(2, 2\)"),
            ((2, 3), [3, 3], r"kernels must be \[layers=3\], got 2 entries"),
            ((2, 3), [3, 3, 3, 3], r"kernels must be \[layers=3\], got 4 entries"),
        ],
    )
    def test_train_rejects_widths_or_kernels_of_the_wrong_shape(self, widths_shape, kernels, message):
        net = toy_net()
        x = np.zeros((2, 3, 6, 6), dtype=np.float32)
        with pytest.raises(ShapeError, match=message):
            net.forward_train(x, np.full(widths_shape, 4), kernels)

    @pytest.mark.parametrize("kernel", [5, 1, 9])
    def test_train_rejects_an_off_grid_kernel(self, kernel):
        spec = LayerSpec(index=0, c=3, t=4, k_max=7, stride=1, kernel_grid=(3, 7))
        net = SuperNetwork([spec], (8, 8), 3, rng=np.random.default_rng(0))
        x = np.zeros((2, 3, 8, 8), dtype=np.float32)
        with pytest.raises(GridError, match=rf"layer 0: kernel {kernel} not in grid \(3, 7\)"):
            net.forward_train(x, np.full((2, 1), 4), [kernel])
        assert [sorted(d) for d in net._train_layer] == [[3, 7]]

    def test_extraction_matches_supernet_eval(self):
        net = SuperNetwork(self.mixed_specs(), (8, 8), 4, rng=np.random.default_rng(3))
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
        for choice in self.all_choices_sample(net, rng, n=30):
            sub = net.extract(choice)
            got = sub.forward(x)
            want = net.forward_eval(x, choice)
            assert normalized_max_error(got, want) < 1e-6, choice

    def test_full_width_extraction_identical(self):
        net = toy_net(seed=4)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 3, 6, 6)).astype(np.float32)
        sub = net.extract(net.full_choice())
        np.testing.assert_array_equal(sub.forward(x), net.forward_eval(x, net.full_choice()))

    def test_removed_layer_matches_physically_rebuilt_network(self):
        # 3 stride-1 layers; drop the middle one and rebuild a 2-layer net
        specs = [
            LayerSpec(index=0, c=3, t=6, k_max=3, stride=1),
            LayerSpec(index=1, c=6, t=6, k_max=3, stride=1),
            LayerSpec(index=2, c=6, t=5, k_max=3, stride=1),
        ]
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(5))
        choice = net.full_choice().replace(1, 0, 3)
        rebuilt_specs = [
            LayerSpec(index=0, c=3, t=6, k_max=3, stride=1),
            LayerSpec(index=1, c=6, t=5, k_max=3, stride=1),
        ]
        rebuilt = SuperNetwork(rebuilt_specs, (6, 6), 3, rng=np.random.default_rng(0))
        rebuilt.weights[0].value = net.weights[0].value.copy()
        rebuilt.biases[0].value = net.biases[0].value.copy()
        rebuilt.weights[1].value = net.weights[2].value.copy()
        rebuilt.biases[1].value = net.biases[2].value.copy()
        rebuilt.head_w.value = net.head_w.value.copy()
        rebuilt.head_b.value = net.head_b.value.copy()
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = rng.standard_normal((4, 3, 6, 6)).astype(np.float32)
            got = net.forward_eval(x, choice)
            want = rebuilt.forward_eval(x, rebuilt.full_choice())
            assert np.abs(got - want).max() <= 1e-6

    def test_zeroed_block_amid_nonzero_blocks_is_valid(self):
        net = SuperNetwork(self.mixed_specs(), (8, 8), 4, rng=np.random.default_rng(6))
        choice = net.full_choice().replace(2, 0, 3)
        sub = net.extract(choice)
        x = np.random.default_rng(13).standard_normal((2, 3, 8, 8)).astype(np.float32)
        assert sub.forward(x).shape == (2, 4)
        rows = net.architecture_json(choice)
        assert rows[2]["M"] == 0 and rows[2]["k"] == 0

    def test_backward_before_forward_raises(self):
        net = toy_net()
        with pytest.raises(StateError):
            net.backward(np.zeros((2, 3)))


class TestGradients:
    def small_net_f64(self, seed=0):
        specs = [
            LayerSpec(index=0, c=2, t=4, k_max=3, stride=1),
            LayerSpec(index=1, c=4, t=4, k_max=3, stride=2),
            LayerSpec(index=2, c=4, t=3, k_max=3, stride=1),
        ]
        return SuperNetwork(specs, (5, 5), 3, rng=np.random.default_rng(seed), dtype=np.float64)

    def test_all_parameter_gradients_match_finite_differences(self):
        net = self.small_net_f64()
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 2, 5, 5))
        labels = np.array([0, 1, 2, 1])
        widths = np.tile([4, 4, 3], (4, 1))
        kernels = [3, 3, 3]

        def loss_fn():
            logits = net.forward_train(x, widths, kernels)
            net._cache = None
            return T.softmax_cross_entropy(logits, labels)[0]

        net.zero_grad()
        logits = net.forward_train(x, widths, kernels)
        _, dlogits = T.softmax_cross_entropy(logits, labels)
        net.backward(dlogits)
        fd = finite_difference_grads(loss_fn, net.parameters(), h=1e-3)
        for p, g in zip(net.parameters(), fd):
            assert relative_error(p.grad, g, floor=1e-6) < 1e-3, p.name

    def test_masked_width_gradients_match_finite_differences(self):
        # per-image widths: gradients must still be exact for the masked net
        net = self.small_net_f64(seed=1)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((4, 2, 5, 5))
        labels = np.array([2, 0, 1, 1])
        widths = np.array([[1, 2, 3], [4, 1, 0], [0, 4, 2], [2, 3, 1]])
        kernels = [3, 3, 3]

        def loss_fn():
            logits = net.forward_train(x, widths, kernels)
            net._cache = None
            return T.softmax_cross_entropy(logits, labels)[0]

        net.zero_grad()
        logits = net.forward_train(x, widths, kernels)
        _, dlogits = T.softmax_cross_entropy(logits, labels)
        net.backward(dlogits)
        fd = finite_difference_grads(loss_fn, net.parameters(), h=1e-3)
        for p, g in zip(net.parameters(), fd):
            assert relative_error(p.grad, g, floor=1e-6) < 1e-3, p.name

    @pytest.mark.parametrize("k", [3, 5])
    def test_windowed_kernel_gradients_match_finite_differences(self, k):
        # a K=5 layer trained at k=3 and at k=5, with per-image widths
        specs = [
            LayerSpec(index=0, c=2, t=3, k_max=3, stride=1),
            LayerSpec(index=1, c=3, t=4, k_max=5, stride=1),
            LayerSpec(index=2, c=4, t=3, k_max=3, stride=2),
        ]
        net = SuperNetwork(specs, (5, 5), 3, rng=np.random.default_rng(23), dtype=np.float64)
        x = np.random.default_rng(24).standard_normal((3, 2, 5, 5))
        labels = np.array([0, 2, 1])
        widths = np.array([[3, 4, 3], [1, 2, 2], [3, 0, 3]])
        kernels = [3, k, 3]

        def loss_fn():
            logits = net.forward_train(x, widths, kernels)
            net._cache = None
            return T.softmax_cross_entropy(logits, labels)[0]

        net.zero_grad()
        logits = net.forward_train(x, widths, kernels)
        # central differences are only exact away from the ReLU kink: every kept
        # pre-activation must sit well beyond what a 1e-3 weight step can move
        kept = []
        for i, (spec, lc) in enumerate(zip(specs, net._cache["caches"])):
            w = prefix_slice(net.weights[i].value, spec.t, spec.c, kernels[i])
            y = sliced_layer(spec, lc["x"], spec.t, w, net.biases[i].value)[1]
            kept.append(y[ordered_dropout_mask(widths[:, i], spec.t)])
        assert min(np.abs(y).min() for y in kept) > 4e-3
        _, dlogits = T.softmax_cross_entropy(logits, labels)
        net.backward(dlogits)
        fd = finite_difference_grads(loss_fn, net.parameters(), h=1e-3)
        for p, g in zip(net.parameters(), fd):
            assert relative_error(p.grad, g, floor=1e-6) < 1e-3, p.name

    def test_weight_gradient_outside_the_sampled_window_is_zero(self):
        net = toy_net(seed=9)  # layer 1 has K=5
        rng = np.random.default_rng(22)
        x = rng.standard_normal((4, 3, 6, 6)).astype(np.float32)
        net.zero_grad()
        logits = net.forward_train(x, np.tile([6, 6, 4], (4, 1)), [3, 3, 3])
        net.backward(T.softmax_cross_entropy(logits, rng.integers(0, 3, size=4))[1])
        grad = net.weights[1].grad
        win = kernel_window(5, 3)
        outside = np.ones((5, 5), dtype=bool)
        outside[win, win] = False
        assert np.all(grad[:, :, outside] == 0.0)
        assert np.all(np.any(grad[:, :, win, win] != 0.0, axis=(1, 2, 3)))

    def test_gradient_isolation_beyond_batch_max_width(self):
        net = toy_net(seed=7)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((6, 3, 6, 6)).astype(np.float32)
        labels = rng.integers(0, 3, size=6)
        widths = np.column_stack(
            [
                rng.choice([1, 2, 3], size=6),  # max 3 of T=6
                rng.choice([2, 4], size=6),  # max 4 of T=6
                rng.choice([1, 2], size=6),  # max 2 of T=4
            ]
        )
        net.zero_grad()
        logits = net.forward_train(x, widths, [3, 5, 3])
        _, dlogits = T.softmax_cross_entropy(logits, labels)
        net.backward(dlogits)
        for li in range(3):
            cap = widths[:, li].max()
            assert np.all(net.weights[li].grad[cap:] == 0.0)
            assert np.all(net.biases[li].grad[cap:] == 0.0)
            assert np.any(net.weights[li].grad[:cap] != 0.0)

    def test_masked_image_contributes_zero_filter_gradient(self):
        # one image at width 0 in layer 0: that image's contribution vanishes
        net = toy_net(seed=8)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        labels = np.array([0, 1])
        widths_both = np.array([[6, 6, 4], [0, 6, 4]])
        net.zero_grad()
        logits = net.forward_train(x, widths_both, [3, 5, 3])
        _, d = T.softmax_cross_entropy(logits, labels)
        net.backward(d)
        both = net.weights[0].grad.copy()

        net.zero_grad()
        logits = net.forward_train(x[:1], widths_both[:1], [3, 5, 3])
        _, d1 = T.softmax_cross_entropy(logits, labels[:1])
        net.backward(d1)
        solo = net.weights[0].grad * 0.5  # batch-mean loss: half weight per image
        assert normalized_max_error(both, solo) < 1e-5


def plain_training_step(net, x, widths, kernels, labels):
    """One super-network forward and backward written with the plain masked formulas.

    Forward: ``relu(y)*mask + x*(1 - mask)`` on the first min(C, T) channels of
    a stride-1 layer, with a float 0/1 mask.  Backward: ``(dout*mask)*(y > 0)``
    into ``conv2d_backward``, plus the bypass term ``dout*(1 - mask)``.
    Returns (per-layer outputs, logits, gradients by parameter name).
    """
    grads = {p.name: np.zeros_like(p.value) for p in net.parameters()}
    outs, saved, out = [], [], x
    for spec, k in zip(net.specs, kernels):
        xin, mct = out, min(spec.c, spec.t)
        cols = T.im2col(xin, k, spec.stride)
        w = prefix_slice(net.weights[spec.index].value, spec.t, spec.c, k)
        y = T.conv2d_forward(xin, w, spec.stride, cols=cols)
        y = y + net.biases[spec.index].value[None, :, None, None]
        mask = (np.arange(spec.t) < widths[:, spec.index, None]).astype(xin.dtype)
        mask = mask[:, :, None, None]
        out = T.relu(y) * mask
        if spec.stride == 1:
            out[:, :mct] += xin[:, :mct] * (1 - mask[:, :mct])
        outs.append(out)
        saved.append((spec, k, xin, cols, w, y, mask, mct))
    feat = T.global_avg_pool(out)
    logits = T.dense_forward(feat, net.head_w.value) + net.head_b.value
    _, dlogits = T.softmax_cross_entropy(logits, labels)
    dfeat, dw = T.dense_backward(dlogits, feat, net.head_w.value)
    grads["head.weight"] += dw
    grads["head.bias"] += dlogits.sum(axis=0)
    dout = T.global_avg_pool_backward(dfeat, out.shape)
    for spec, k, xin, cols, w, y, mask, mct in reversed(saved):
        dy = (dout * mask) * (y > 0)
        dx, dw = T.conv2d_backward(dy, xin, w, spec.stride, cols=cols, need_dx=spec.index > 0)
        gw = prefix_slice(grads[f"layer{spec.index}.weight"], spec.t, spec.c, k)
        gw += dw
        grads[f"layer{spec.index}.bias"] += dy.sum(axis=(0, 2, 3))
        if dx is not None and spec.stride == 1:
            dx[:, :mct] += dout[:, :mct] * (1 - mask[:, :mct])
        dout = dx
    return outs, logits, grads


class TestFlatParameters:
    def test_one_flat_step_equals_a_step_per_parameter(self):
        net = toy_net(seed=8)
        x = np.random.default_rng(9).standard_normal((4, 3, 6, 6)).astype(np.float32)
        widths = np.array([[6, 5, 4], [3, 6, 0], [0, 2, 4], [6, 6, 1]])
        net.zero_grad()
        logits = net.forward_train(x, widths, [3, 5, 3])
        net.backward(T.softmax_cross_entropy(logits, np.array([0, 1, 2, 1]))[1])
        alone = []
        for p in net.parameters():
            q = T.Parameter(p.value.copy(), p.name)
            q.grad[...] = p.grad
            alone.append(q)
        assert all(q.grad.any() for q in alone)
        T.sgd_step(alone, 0.05, weight_decay=1e-3)
        T.sgd_step([net.flat], 0.05, weight_decay=1e-3)
        for p, q in zip(net.parameters(), alone):
            np.testing.assert_array_equal(p.value, q.value, err_msg=p.name)

    def test_load_writes_into_the_views(self, tmp_path):
        net, other = toy_net(seed=1), toy_net(seed=2)
        other.save(tmp_path / "c.json")
        net.forward_train(np.zeros((1, 3, 6, 6), np.float32), np.array([[6, 6, 4]]), [3, 5, 3])
        net._cache = None
        layer = net._train_layer[1][5]
        net.flat.grad += 1.0
        net.load(tmp_path / "c.json")
        np.testing.assert_array_equal(net.flat.value, other.flat.value)
        assert not net.flat.grad.any()
        np.testing.assert_array_equal(layer.w, other.weights[1].value)  # k = K = 5: every tap


    def test_training_layers_are_kept_per_layer_and_kernel(self):
        net = toy_net()
        x = np.zeros((1, 3, 6, 6), np.float32)
        for kernels in [(3, 5, 3), (3, 3, 3), (3, 5, 3), (3, 3, 3)]:
            net.forward_train(x, np.array([[6, 6, 4]]), kernels)
            net._cache = None
        assert [sorted(d) for d in net._train_layer] == [[3], [3, 5], [3]]
        assert [layer.z_in for layer in net._train_layer[1].values()] == [6, 6]


class TestTrainingLayerIsExact:
    """The training layer's float mask and masked-output gate change no bit of the plain formulas."""

    @pytest.mark.parametrize("kernels", [(3, 3, 3), (5, 3, 3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bitwise_equal_to_the_plain_masked_formulas(self, seed, kernels):
        # T > C at every layer; stride 1, 2, 1; widths 0 and T share a batch
        specs = [
            LayerSpec(index=0, c=3, t=5, k_max=5, stride=1),
            LayerSpec(index=1, c=5, t=8, k_max=3, stride=2),
            LayerSpec(index=2, c=8, t=10, k_max=3, stride=1),
        ]
        net = SuperNetwork(specs, (7, 7), 4, rng=np.random.default_rng(40 + seed))
        rng = np.random.default_rng(50 + seed)
        x = (rng.standard_normal((5, 3, 7, 7)) - 0.5).astype(np.float32)  # mostly negative
        widths = np.array([[0, 1, 0], [5, 8, 10], [2, 4, 3], [5, 1, 0], [0, 8, 10]])
        labels = rng.integers(0, 4, size=5)
        outs, logits, grads = plain_training_step(net, x, widths, kernels, labels)

        net.zero_grad()
        got = net.forward_train(x, widths, kernels)
        layer_outputs = [lc["x"] for lc in net._cache["caches"][1:]]
        for li, (a, b) in enumerate(zip(layer_outputs, outs)):
            assert a.dtype == b.dtype == np.float32
            assert a.tobytes() == b.tobytes(), f"layer {li} output"
        assert got.tobytes() == logits.tobytes()
        net.backward(T.softmax_cross_entropy(got, labels)[1])
        for p in net.parameters():
            assert p.grad.tobytes() == grads[p.name].tobytes(), p.name
        # the case covers what it claims: bypassed negatives and both extreme widths
        assert np.any(outs[0][widths[:, 0] == 0] < 0)
        assert {0, 10} <= set(widths[:, 2]) and {1, 8} <= set(widths[:, 1])

    def test_gate_is_keep_and_y_positive_at_inf_and_nan(self):
        spec = LayerSpec(index=0, c=3, t=4, k_max=3)
        weight = np.ones((4, 3, 3, 3), np.float32)
        weight[1] *= -1
        layer = Layer(spec, 4, 3, 3, T.Parameter(weight), T.Parameter(np.zeros(4, np.float32)))
        x = np.zeros((3, 3, 4, 4), np.float32)
        x[0, 0, 1, 1], x[1, 1, 2, 2], x[2, 2, 0, 3] = np.inf, np.nan, 1.0
        mask = ordered_dropout_mask([2, 4, 0], 4)[:, :, None, None]
        y = sliced_layer(spec, x, 4, weight, layer.bias.value)[1]
        assert np.isinf(y[0, 2:]).any() and np.isnan(y[1]).any()  # inf under a dropped channel
        with np.errstate(invalid="ignore"):  # inf * 0
            gate = _layer_forward(layer, x, True, mask.astype(np.float32))[1]["gate"]
        np.testing.assert_array_equal(gate, mask & (y > 0))


class TestSubNetworkTraining:
    def test_extracted_network_gradients_match_finite_differences(self):
        specs = [
            LayerSpec(index=0, c=2, t=4, k_max=5, stride=1),
            LayerSpec(index=1, c=4, t=3, k_max=3, stride=1),
        ]
        # seed chosen so no pre-activation sits within the FD step of a relu kink
        net = SuperNetwork(specs, (5, 5), 3, rng=np.random.default_rng(1), dtype=np.float64)
        sub = net.extract(SubNetChoice(((2, 3), (1, 3))))
        rng = np.random.default_rng(18)
        x = rng.standard_normal((3, 2, 5, 5))
        labels = np.array([0, 2, 1])

        def loss_fn():
            return T.softmax_cross_entropy(sub.forward(x), labels)[0]

        sub.zero_grad()
        logits = sub.forward(x, record=True)
        _, d = T.softmax_cross_entropy(logits, labels)
        sub.backward(d)
        fd = finite_difference_grads(loss_fn, sub.parameters(), h=1e-3)
        for p, g in zip(sub.parameters(), fd):
            assert relative_error(p.grad, g, floor=1e-6) < 1e-3, p.name

    def test_bypass_only_layer_gradients_match_finite_differences(self):
        # layer 1 keeps no filter but truncates 4 channels to its T=3 bypass cap
        specs = [
            LayerSpec(index=0, c=2, t=4, k_max=3, stride=1),
            LayerSpec(index=1, c=4, t=3, k_max=3, stride=1),
            LayerSpec(index=2, c=3, t=3, k_max=3, stride=1),
        ]
        net = SuperNetwork(specs, (5, 5), 3, rng=np.random.default_rng(1), dtype=np.float64)
        sub = net.extract(SubNetChoice(((4, 3), (0, 3), (2, 3))))
        assert [l.m for l in sub.layers] == [4, 0, 2]
        rng = np.random.default_rng(19)
        x = rng.standard_normal((3, 2, 5, 5))
        labels = np.array([1, 0, 2])

        def loss_fn():
            return T.softmax_cross_entropy(sub.forward(x), labels)[0]

        sub.zero_grad()
        _, d = T.softmax_cross_entropy(sub.forward(x, record=True), labels)
        sub.backward(d)
        fd = finite_difference_grads(loss_fn, sub.parameters(), h=1e-3)
        for p, g in zip(sub.parameters(), fd):
            assert relative_error(p.grad, g, floor=1e-6) < 1e-3, p.name

    def test_removed_layer_trains_bitwise_like_the_rebuilt_network(self):
        # criterion 02's construction: layer 1 removed against a net built without it
        specs = [
            LayerSpec(index=0, c=3, t=6, k_max=3, stride=1),
            LayerSpec(index=1, c=6, t=6, k_max=3, stride=1),
            LayerSpec(index=2, c=6, t=5, k_max=3, stride=1),
        ]
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(40))
        sub = net.extract(net.full_choice().replace(1, 0, 3))
        assert [(l.m, l.weight) for l in sub.layers[1:2]] == [(0, None)]
        rebuilt = SuperNetwork(
            [LayerSpec(index=0, c=3, t=6, k_max=3), LayerSpec(index=1, c=6, t=5, k_max=3)],
            (6, 6), 3, rng=np.random.default_rng(0),
        )
        for dst, src in zip(rebuilt.parameters(), [net.weights[0], net.weights[2], net.biases[0],
                                                    net.biases[2], net.head_w, net.head_b]):
            dst.value = src.value.copy()
        plain = rebuilt.extract(rebuilt.full_choice())
        x = np.random.default_rng(41).standard_normal((4, 3, 6, 6)).astype(np.float32)
        labels = np.array([0, 2, 1, 2])
        grads = []
        for model in (sub, plain):
            model.zero_grad()
            logits = model.forward(x, record=True)
            model.backward(T.softmax_cross_entropy(logits, labels)[1])
            grads.append([logits] + [p.grad for p in model.parameters()])
        assert [g.dtype for g in grads[0]] == [np.float32] * 7
        assert [g.tobytes() for g in grads[0]] == [g.tobytes() for g in grads[1]]

    def test_shrink_reuses_overlapping_slices(self):
        net = toy_net(seed=10)
        full = net.extract(net.full_choice())
        smaller = full.shrink_to(SubNetChoice(((3, 3), (4, 3), (2, 3))))
        for s, l in zip(full.layers, smaller.layers):
            win = kernel_window(s.k, l.k) if l.k < s.k else slice(None)
            np.testing.assert_array_equal(
                l.weight.value, s.weight.value[: l.m, : l.z_in, win, win]
            )

    def test_shrink_rejects_a_choice_of_another_length_or_a_growth(self):
        net = toy_net()
        sub = net.extract(SubNetChoice(((4, 3), (4, 3), (2, 3))))
        with pytest.raises(GridError, match="choice has 1 layers, network has 3"):
            sub.shrink_to(SubNetChoice(((3, 3),)))
        with pytest.raises(GridError, match=r"layer 1: \(5,3\) does not shrink \(4,3\)"):
            sub.shrink_to(SubNetChoice(((4, 3), (5, 3), (2, 3))))

    def test_backward_without_forward_raises(self):
        net = toy_net()
        sub = net.extract(net.full_choice())
        with pytest.raises(StateError):
            sub.backward(np.zeros((1, 3)))


def mixed_small_specs():
    """Expansion (T > C) with removal, a stride-2 layer, and a second expansion."""
    return [
        LayerSpec(index=0, c=3, t=6, k_max=5, stride=1, width_grid=(0, 2, 6)),
        LayerSpec(index=1, c=6, t=4, k_max=3, stride=2, width_grid=(1, 2, 4)),
        LayerSpec(index=2, c=4, t=8, k_max=3, stride=1, width_grid=(0, 2, 4, 8)),
        LayerSpec(index=3, c=8, t=8, k_max=3, stride=1, width_grid=(0, 4, 8)),
    ]


def every_choice(specs):
    per_layer = [
        [(m, k) for m in s.width_grid for k in (s.kernel_grid if m > 0 else s.kernel_grid[:1])]
        for s in specs
    ]
    return [SubNetChoice(pairs) for pairs in itertools.product(*per_layer)]


def layer_structure(sub):
    return [(l.spec.index, l.m, l.k, l.z_in) for l in sub.layers] + [sub.head_w.value.shape]


class TestUnifiedPaths:
    @pytest.mark.parametrize("specs", [toy_specs(), mixed_small_specs()], ids=["toy", "mixed"])
    def test_eval_is_bitwise_the_extracted_forward(self, specs):
        net = SuperNetwork(specs, (8, 8), 3, rng=np.random.default_rng(20))
        x = np.random.default_rng(21).standard_normal((2, 3, 8, 8)).astype(np.float32)
        choices = every_choice(specs)
        assert any(c.widths[0] == 0 for c in choices)
        for choice in choices:
            np.testing.assert_array_equal(
                net.extract(choice).forward(x), net.forward_eval(x, choice), err_msg=str(choice)
            )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=random_stack())
    def test_eval_on_shared_tensors_is_bitwise_the_extracted_forward_on_random_stacks(self, case):
        """The view path (shared tensors, the head's first z columns) against the copy path."""
        specs, hw, choice, seed = case
        net = SuperNetwork(specs, hw, 3, rng=np.random.default_rng(seed))
        x = np.random.default_rng(seed + 1).standard_normal((3, specs[0].c, *hw)).astype(np.float32)
        got = net.forward_eval(x, choice)
        assert got.tobytes() == net.extract(choice).forward(x).tobytes(), (specs, choice)

    def test_forward_from_any_layer_on_captured_inputs_is_bitwise_equal(self):
        specs = mixed_small_specs()
        net = SuperNetwork(specs, (8, 8), 3, rng=np.random.default_rng(22))
        x = np.random.default_rng(23).standard_normal((2, 3, 8, 8)).astype(np.float32)
        passed_through = 0
        for choice in every_choice(specs):
            sub = net.extract(choice)
            assert [l.spec.index for l in sub.layers] == list(range(len(specs)))
            inputs = [None] * len(specs)
            want = net.forward_eval(x, choice, capture=inputs)
            assert inputs[0] is x
            for i, layer in enumerate(sub.layers):
                nxt = inputs[i + 1] if i + 1 < len(specs) else None
                if layer.weight is None and nxt is not None and nxt.shape == inputs[i].shape:
                    passed_through += 1  # a removed layer's output is its input
                    out = _layer_forward(layer, inputs[i], False)[0]
                    assert layer.m == 0 and np.shares_memory(out, inputs[i])
                    assert nxt.tobytes() == inputs[i].tobytes()
                tail = [None] * len(specs)
                got = net.forward_eval(inputs[i], choice, i, capture=tail)
                assert got.tobytes() == want.tobytes(), (choice, i)
                assert tail[:i] == [None] * i
                assert tail[i] is inputs[i]
                assert [a.tobytes() for a in tail[i:]] == [a.tobytes() for a in inputs[i:]]
        assert passed_through

    def test_predict_captures_whole_inputs_across_batches(self):
        specs = mixed_small_specs()
        net = SuperNetwork(specs, (8, 8), 3, rng=np.random.default_rng(24))
        x = np.random.default_rng(25).standard_normal((70, 3, 8, 8)).astype(np.float32)
        choice = SubNetChoice(((2, 3), (2, 3), (0, 3), (4, 3)))
        inputs = [None] * len(specs)
        want = net.forward_eval(x, choice, capture=inputs)
        assert [a.shape[0] for a in inputs] == [70] * len(specs)
        assert inputs[0] is x
        # 64 + 6 images against one forward over all 70
        np.testing.assert_allclose(want, net.extract(choice).forward(x), rtol=1e-5, atol=1e-6)
        for start in range(len(specs)):
            got = net.forward_eval(inputs[start], choice, start)
            assert got.tobytes() == want.tobytes(), start
            for stop in range(len(specs)):  # a shorter list captures only its own entries
                short = [None] * stop
                got = net.forward_eval(inputs[start], choice, start, capture=short)
                assert got.tobytes() == want.tobytes(), (start, stop)
                assert len(short) == stop and short[:start] == [None] * min(start, stop)
                assert [a.tobytes() for a in short[start:]] == [
                    a.tobytes() for a in inputs[start:stop]
                ], (start, stop)

    def test_channel_flow_is_what_the_extracted_forward_produces(self):
        specs = [
            LayerSpec(index=0, c=3, t=6, k_max=3, width_grid=(0, 2, 6)),  # expands
            LayerSpec(index=1, c=6, t=4, k_max=3, width_grid=(0, 1, 4)),  # contracts
            LayerSpec(index=2, c=4, t=6, k_max=3, stride=2, width_grid=(1, 3, 6)),
            LayerSpec(index=3, c=6, t=6, k_max=3, width_grid=(0, 2, 6)),
        ]
        net = SuperNetwork(specs, (6, 6), 3, rng=np.random.default_rng(24))
        x = np.zeros((1, 3, 6, 6), dtype=np.float32)
        below_z = 0  # layers whose real output is below Z, after a shrunk expanding layer
        for choice in every_choice(specs):
            sub = net.extract(choice)
            sub.forward(x, record=True)
            real = [c["x"].shape[1] for c in sub._cache["caches"]]
            real.append(sub._cache["head"]["conv_shape"][1])
            assert channel_flow(specs, choice) == real, choice
            for spec, (m, _), z_in, z_out in zip(specs, choice.pairs, real, real[1:]):
                if spec.stride == 1:
                    assert z_out == cbc_output_channels(z_in, spec.t, m), (choice, spec.index)
                    below_z += z_out < cbc_output_channels(spec.c, spec.t, m)
        assert below_z > 0

    def test_shrink_is_bitwise_a_direct_extraction(self):
        net = SuperNetwork(mixed_small_specs(), (8, 8), 3, rng=np.random.default_rng(22))
        choices = every_choice(net.specs)
        pairs_checked = 0
        for c1 in choices[::7]:
            big = net.extract(c1)
            for c2 in choices:
                if any(m2 > m1 or (m2 > 0 and k2 > k1)
                       for (m1, k1), (m2, k2) in zip(c1.pairs, c2.pairs)):
                    continue
                shrunk, direct = big.shrink_to(c2), net.extract(c2)
                assert layer_structure(shrunk) == layer_structure(direct)
                got, want = shrunk.state_dict(), direct.state_dict()
                assert list(got) == list(want)
                for name in want:
                    np.testing.assert_array_equal(got[name], want[name], err_msg=name)
                pairs_checked += 1
        assert pairs_checked > 100

    def test_fresh_extraction_uses_own_fan_in(self):
        specs = [
            LayerSpec(index=0, c=3, t=16, k_max=5, stride=1),
            LayerSpec(index=1, c=16, t=32, k_max=3, stride=2),
            LayerSpec(index=2, c=32, t=32, k_max=3, stride=1),
        ]
        net = SuperNetwork(specs, (8, 8), 4, rng=np.random.default_rng(23))
        choice = SubNetChoice(((16, 3), (24, 3), (16, 3)))
        fresh = net.extract(choice, rng=np.random.default_rng(5))
        again = net.extract(choice, rng=np.random.default_rng(5))
        other = net.extract(choice, rng=np.random.default_rng(6))
        assert layer_structure(fresh) == layer_structure(net.extract(choice))
        for a, b, c in zip(fresh.parameters(), again.parameters(), other.parameters()):
            np.testing.assert_array_equal(a.value, b.value)
            assert a.value.dtype == np.float32
            if a.name.endswith("weight"):
                assert not np.array_equal(a.value, c.value)
        for layer in fresh.layers:
            want = np.sqrt(2.0 / (layer.z_in * layer.k**2))
            assert layer.weight.value.std() == pytest.approx(want, rel=0.1), layer.spec.index
            assert np.all(layer.bias.value == 0)
        assert fresh.head_w.value.std() == pytest.approx(np.sqrt(2.0 / 24), rel=0.2)
        # the shared super-network weights are left untouched
        untouched = SuperNetwork(specs, (8, 8), 4, rng=np.random.default_rng(23))
        for a, b in zip(net.parameters(), untouched.parameters()):
            np.testing.assert_array_equal(a.value, b.value)


# toy_net's full choice as `architecture_json` writes it
TOY_ROWS = [
    {"index": 0, "kind": "conv", "C": 3, "T": 6, "M": 6, "k": 3, "stride": 1},
    {"index": 1, "kind": "conv", "C": 6, "T": 6, "M": 6, "k": 5, "stride": 1},
    {"index": 2, "kind": "conv", "C": 6, "T": 4, "M": 4, "k": 3, "stride": 1},
    {"index": 3, "kind": "dense", "C": 4, "T": 3, "M": 3, "k": 1, "stride": 1},
]


class TestPersistence:
    def test_checkpoint_round_trip_and_fingerprint(self, tmp_path):
        net = toy_net(seed=11)
        path = tmp_path / "super.json"
        net.save(path)
        other = toy_net(seed=99)
        other.load(path)
        for a, b in zip(net.parameters(), other.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

        different = SuperNetwork(
            [LayerSpec(index=0, c=3, t=4, k_max=3)], (6, 6), 3, rng=np.random.default_rng(0)
        )
        with pytest.raises(ShapeError, match="fingerprint"):
            different.load(path)

    def test_architecture_json_shape(self):
        net = toy_net()
        rows = net.architecture_json(net.full_choice())
        assert [r["kind"] for r in rows] == ["conv", "conv", "conv", "dense"]
        assert set(rows[0]) == {"index", "kind", "C", "T", "M", "k", "stride"}

    def test_architecture_rows_round_trip(self):
        net = toy_net(seed=12)
        for choice in (net.full_choice(), SubNetChoice(((4, 3), (0, 3), (2, 3)))):
            rows = net.architecture_json(choice)
            assert choice_from_rows(rows, net, "arch") == choice

    @pytest.mark.parametrize(
        "rows,field",
        [
            ({"kind": "conv"}, "must be a list"),
            ([{"M": 6, "k": 3}], "row 0: field 'kind'"),
            ([[6, 3]], "row 0: must be a JSON object"),
            ([{"kind": "conv", "M": "x", "k": 3}], "row 0: field 'M'"),
            ([{"kind": "conv", "M": 6, "k": 3}, {"kind": "conv", "M": 6}], "row 1: field 'k'"),
            ([{"kind": "conv", "M": 7, "k": 3}, *TOY_ROWS[1:3]], "arch.json: layer 0: width 7"),
            ([{"kind": "conv", "M": 6, "k": 3}], "choice has 1 layers, network has 3"),
            ([{"kind": "conv", "M": True, "k": 3}], "row 0: field 'M'"),
            (
                [{"kind": "conv", "C": 99, "M": 6, "k": 3}, *TOY_ROWS[1:3]],
                "row 0: field 'C' must be 3 for this network, got 99",
            ),
            (
                [{"kind": "conv", "T": 1, "M": 6, "k": 3}, *TOY_ROWS[1:3]],
                "row 0: field 'T' must be 6 for this network, got 1",
            ),
            (
                [{"kind": "conv", "M": 6, "k": 3, "stride": 2}, *TOY_ROWS[1:3]],
                "row 0: field 'stride' must be 1 for this network, got 2",
            ),
            (
                [{"kind": "conv", "C": "3", "M": 6, "k": 3}, *TOY_ROWS[1:3]],
                "row 0: field 'C' must be 3 for this network, got '3'",
            ),
            (
                [{"index": 7, "kind": "conv", "M": 6, "k": 3}, *TOY_ROWS[1:3]],
                "row 0: field 'index' must be 0 for this network, got 7",
            ),
            (
                [*TOY_ROWS[:3], {**TOY_ROWS[3], "C": 999}],
                "row 3: field 'C' must be 4 for this network, got 999",
            ),
            (
                [*TOY_ROWS[:3], {**TOY_ROWS[3], "index": 2}],
                "row 3: field 'index' must be 3 for this network, got 2",
            ),
            ([*TOY_ROWS[:3], {**TOY_ROWS[3], "classes": 50}], "row 3: unknown field 'classes'"),
            ([{**TOY_ROWS[0], "m": 6}, *TOY_ROWS[1:3]], "row 0: unknown field 'm'"),
            ([TOY_ROWS[3], *TOY_ROWS[:3]], "row 0: field 'kind' must be 'conv', got 'dense'"),
            ([*TOY_ROWS, TOY_ROWS[3]], "row 4: the network has 3 conv rows and one head row"),
            (
                [*TOY_ROWS[:3], {**TOY_ROWS[3], "T": 50, "M": 7, "k": 9, "stride": 2}],
                "row 3: field 'T' must be 3 for this network, got 50",
            ),
        ],
    )
    def test_malformed_rows_name_the_row_and_field(self, rows, field):
        net = toy_net()
        with pytest.raises(ParseError, match=field) as info:
            choice_from_rows(rows, net, "arch.json")
        assert str(info.value).startswith("arch.json")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=random_stack())
    def test_rows_round_trip_and_every_edit_names_its_row_on_random_stacks(self, case):
        specs, hw, choice, _ = case
        net = SuperNetwork(specs, hw, 3)
        rows = net.architecture_json(choice)
        head = len(specs)
        # a removed layer's kernel is not written, so compare the canonical keys
        assert choice_from_rows(rows, net, "arch").key() == choice.key()
        assert choice_from_rows(rows[:head], net, "arch").key() == choice.key()  # head row optional

        def fails_at(r, edited):
            # a grid error names the layer, which is conv row r
            with pytest.raises(ParseError, match=rf"^arch( row {r}|: layer {r}): "):
                choice_from_rows(edited, net, "arch")

        for r, row in enumerate(rows):
            for key, value in row.items():
                if r < head and key == "k" and row["M"] == 0:  # not read: any value loads
                    edited = [*rows[:r], {**row, "k": "x"}, *rows[r + 1 :]]
                    assert choice_from_rows(edited, net, "arch").key() == choice.key()
                    continue
                if key == "kind":
                    edits = ["dense" if value == "conv" else "conv", None]
                else:  # M past T leaves the width grid; every grid kernel is odd
                    edits = [row["T"] + 1 if key == "M" else value + 1, float(value), str(value)]
                for bad in edits:
                    fails_at(r, [*rows[:r], {**row, key: bad}, *rows[r + 1 :]])
            fails_at(r, [*rows[:r], {**row, "extra": 0}, *rows[r + 1 :]])
        fails_at(head + 1, [*rows, rows[head]])
        for r in range(head):
            fails_at(r, [*rows[:r], rows[head], *rows[r:head]])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        rows=st.recursive(
            st.none() | st.booleans() | st.integers(-2, 8) | st.floats() | st.text(max_size=4)
            | st.sampled_from(["conv", "dense"]),
            lambda inner: st.lists(inner, max_size=5)
            | st.dictionaries(
                st.sampled_from(["kind", "M", "k", "index", "C", "T", "stride"]) | st.text(max_size=3),
                inner,
                max_size=4,
            ),
            max_leaves=20,
        )
    )
    def test_only_netshrink_errors_escape_the_row_parser(self, rows):
        net = toy_net()
        try:
            choice = choice_from_rows(rows, net, "fuzz")
        except NetshrinkError:
            return
        check_choice(net.specs, choice)


class TestChannelFlowHelper:
    def test_flow_tracks_real_channels(self):
        specs = [
            LayerSpec(index=0, c=2, t=8, k_max=3, stride=1),
            LayerSpec(index=1, c=8, t=8, k_max=3, stride=1),
        ]
        # expansion layer shrunk below T: only max(M, min(C, T)) real channels flow
        choice = SubNetChoice(((4, 3), (0, 3)))
        assert channel_flow(specs, choice) == [2, 4, 4]
        choice2 = SubNetChoice(((8, 3), (0, 3)))
        assert channel_flow(specs, choice2) == [2, 8, 8]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=random_stack())
    def test_flow_never_grows_as_a_width_shrinks(self, case):
        """So the minimum-resource choice has the least flow at every layer."""
        specs, _, choice, _ = case
        flow = channel_flow(specs, choice)
        for i, (spec, (m, k)) in enumerate(zip(specs, choice.pairs)):
            for smaller in (w for w in spec.width_grid if w < m):
                shrunk = channel_flow(specs, choice.replace(i, smaller, k))
                assert all(a <= b for a, b in zip(shrunk, flow)), (specs, choice, i, smaller)
        least = channel_flow(specs, min_resource_choice(specs))
        assert all(a <= b for a, b in zip(least, flow)), (specs, choice)
