import numpy as np
import pytest

from petseg import nn
from petseg.errors import ShapeError
from petseg.nn import (
    AdamW,
    Conv2DSpec,
    FlattenSpec,
    LinearSpec,
    Network,
    ReLUSpec,
    SigmoidSpec,
    analytic_gradients,
    bce_loss,
    bce_with_logits,
    conv2d_backward,
    conv2d_forward,
    grad_check,
    gradient_relative_errors,
    infer_shapes,
    linear_backward,
    linear_forward,
    load_model,
    numeric_gradients,
    relu_backward,
    relu_forward,
    save_model,
    sigmoid,
)

from oracles import naive_conv2d, naive_conv2d_input_grad, scalar_adamw

TINY_SPECS = (
    Conv2DSpec(1, 2, 3, 2, 1), ReLUSpec(),
    Conv2DSpec(2, 4, 3, 2, 1), ReLUSpec(),
    FlattenSpec(),
    LinearSpec(4 * 3 * 3, 8), ReLUSpec(),
    LinearSpec(8, 1),
    SigmoidSpec(),
)
TINY_INPUT = (1, 12, 12)


class TestConv2d:
    def test_all_ones_sum(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        b = np.array([0.25])
        y, _ = conv2d_forward(x, w, b, stride=1, pad=0)
        assert y.shape == (1, 1, 1, 1)
        assert y[0, 0, 0, 0] == 9.25

    def test_1x1_identity_kernel(self, rng):
        x = rng.standard_normal((2, 1, 4, 5))
        w = np.ones((1, 1, 1, 1))
        b = np.zeros(1)
        y, _ = conv2d_forward(x, w, b)
        assert np.array_equal(y[:, 0], x[:, 0])

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        y, _ = conv2d_forward(x, w, b, stride=2, pad=1)
        ref = naive_conv2d(x, w, b, stride=2, pad=1)
        assert y.shape == ref.shape
        assert np.max(np.abs(y - ref)) < 1e-12

    def test_oracle_shape_sweep(self, rng):
        # N,C,F <= 3; H,W <= 7; k in {1,3}; s in {1,2}; p in {0,1}
        for trial in range(30):
            n, c, f = rng.integers(1, 4, size=3)
            h, wd = rng.integers(3, 8, size=2)
            k = int(rng.choice([1, 3]))
            s = int(rng.choice([1, 2]))
            p = int(rng.choice([0, 1]))
            if (h + 2 * p - k) < 0 or (wd + 2 * p - k) < 0:
                continue
            x = rng.standard_normal((n, c, h, wd))
            w = rng.standard_normal((f, c, k, k))
            b = rng.standard_normal(f)
            y, _ = conv2d_forward(x, w, b, stride=s, pad=p)
            ref = naive_conv2d(x, w, b, stride=s, pad=p)
            assert np.max(np.abs(y - ref)) < 1e-12

    def test_backward_zero_grad(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        y, cache = conv2d_forward(x, w, b, stride=1, pad=1)
        gx, gw, gb = conv2d_backward(np.zeros_like(y), cache)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_backward_scalar_chain_rule(self):
        x = np.array([[[[3.0]]]])
        w = np.array([[[[2.0]]]])
        b = np.zeros(1)
        y, cache = conv2d_forward(x, w, b)
        gx, gw, gb = conv2d_backward(np.ones_like(y), cache)
        assert gw[0, 0, 0, 0] == 3.0  # d(w*x)/dw = x
        assert gx[0, 0, 0, 0] == 2.0  # d(w*x)/dx = w
        assert gb[0] == 1.0

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_input_grad_matches_naive_reference(self, rng, stride, k, pad):
        x = rng.standard_normal((2, 3, 7, 6))
        w = rng.standard_normal((4, 3, k, k))
        y, cache = conv2d_forward(x, w, np.zeros(4), stride=stride, pad=pad)
        g = rng.standard_normal(y.shape)
        gx, _, _ = conv2d_backward(g, cache)
        assert gx.shape == x.shape
        assert np.max(np.abs(gx - naive_conv2d_input_grad(g, w, x.shape, stride, pad))) < 1e-12

    def test_shape_error(self, rng):
        with pytest.raises(ShapeError):
            conv2d_forward(rng.standard_normal((1, 2, 4, 4)),
                           rng.standard_normal((3, 1, 3, 3)), np.zeros(3))


class TestSimpleLayers:
    def test_relu_values(self):
        y, _ = relu_forward(np.array([-3.0, 0.0, 3.0]))
        assert y.tolist() == [0.0, 0.0, 3.0]

    def test_relu_grad_at_zero_is_zero(self):
        y, cache = relu_forward(np.array([-1.0, 0.0, 2.0]))
        g = relu_backward(np.ones(3), cache)
        assert g.tolist() == [0.0, 0.0, 1.0]

    def test_sigmoid_center(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_extreme_negative_no_nan(self):
        val = sigmoid(-800.0)
        assert val == 0.0
        assert np.isfinite(val)

    def test_sigmoid_extreme_positive(self):
        assert sigmoid(800.0) == 1.0

    def test_sigmoid_strictly_inside_unit_interval_on_representable_range(self, rng):
        # float64 saturates to exactly 0/1 beyond roughly [-745, 36.7];
        # inside that band the output must stay strictly inside (0, 1)
        x = rng.uniform(-700, 36.0, size=1000)
        p = sigmoid(x)
        assert np.all(p > 0.0) and np.all(p < 1.0)
        assert np.all(np.isfinite(sigmoid(rng.uniform(-1e6, 1e6, size=100))))

    def test_linear_forward_backward(self, rng):
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        y, cache = linear_forward(x, w, b)
        assert np.allclose(y, x @ w.T + b)
        g = rng.standard_normal(y.shape)
        gx, gw, gb = linear_backward(g, cache)
        assert np.allclose(gx, g @ w)
        assert np.allclose(gw, g.T @ x)
        assert np.allclose(gb, g.sum(0))


class TestBce:
    def test_half_probability(self):
        loss, _ = bce_loss(0.5, 1.0)
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_limit_towards_zero(self):
        loss, _ = bce_loss(1.0 - 1e-13, 1.0)
        assert loss < 1e-10

    def test_nonnegative(self, rng):
        p = rng.uniform(0, 1, size=200)
        y = rng.integers(0, 2, size=200).astype(float)
        loss, _ = bce_loss(p, y)
        assert np.all(loss >= 0.0)

    def test_fused_matches_reference_at_logit_two(self):
        z, y = 2.0, 0.0
        fused, dz = bce_with_logits(z, y)
        expected = np.log1p(np.exp(2.0))  # ln(1 + e^2) ~ 2.126928
        assert abs(fused - expected) < 1e-12
        assert abs(fused - 2.126928) < 1e-6
        unfused, _ = bce_loss(sigmoid(z), y)
        assert abs(fused - unfused) < 1e-9
        assert abs(dz - (sigmoid(2.0) - 0.0)) < 1e-15

    def test_fused_and_unfused_agree_across_logits(self, rng):
        # beyond |z| ~ 15 the probability-space path loses ulp/(1-p)
        # absolute accuracy, which is the reason the fused path exists
        z = rng.uniform(-15, 15, size=100)
        y = rng.integers(0, 2, size=100).astype(float)
        fused, _ = bce_with_logits(z, y)
        unfused, _ = bce_loss(sigmoid(z), y)
        assert np.max(np.abs(fused - unfused)) < 1e-9


class TestAdamW:
    def test_decay_only_step(self):
        p = {"w": np.array([1.0])}
        opt = AdamW(p, lr=1e-4, weight_decay=0.01)
        opt.step({"w": np.array([0.0])})
        expected = 1.0 - 1e-4 * 0.01 * 1.0
        assert p["w"][0] == expected
        assert opt.m["w"][0] == 0.0 and opt.v["w"][0] == 0.0
        assert opt.t == 1

    def test_zero_grad_zero_decay_is_identity(self, rng):
        arr = rng.standard_normal(5)
        p = {"w": arr.copy()}
        opt = AdamW(p, lr=1e-3, weight_decay=0.0)
        opt.step({"w": np.zeros(5)})
        assert np.array_equal(p["w"], arr)

    def test_matches_scalar_oracle(self):
        p = {"w": np.array([1.0])}
        opt = AdamW(p, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01)
        opt.step({"w": np.array([0.5])})
        ref = scalar_adamw(1.0, 0.5, 1, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8,
                           weight_decay=0.01)
        assert abs(p["w"][0] - ref) < 1e-15

    def test_matches_scalar_oracle_many_steps(self):
        p = {"w": np.array([0.7])}
        opt = AdamW(p, lr=1e-3, weight_decay=0.02)
        for _ in range(25):
            opt.step({"w": np.array([-0.3])})
        ref = scalar_adamw(0.7, -0.3, 25, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                           weight_decay=0.02)
        assert abs(p["w"][0] - ref) < 1e-14

    def test_shape_check(self):
        opt = AdamW({"w": np.zeros(3)})
        with pytest.raises(ShapeError):
            opt.step({"w": np.zeros(4)})
        with pytest.raises(ShapeError):
            opt.step({})


class TestNetworkAndGradCheck:
    def test_shape_inference(self):
        shapes = infer_shapes(TINY_SPECS, TINY_INPUT)
        assert shapes[-1] == (1,)

    def test_shape_inference_rejects_bad_chain(self):
        with pytest.raises(ShapeError):
            infer_shapes((Conv2DSpec(2, 4, 3), ), (1, 8, 8))
        with pytest.raises(ShapeError):
            infer_shapes((FlattenSpec(), LinearSpec(10, 4)), (3, 2, 2))

    def test_linear_only_grad_check(self, rng):
        specs = (FlattenSpec(), LinearSpec(12, 6), ReLUSpec(), LinearSpec(6, 1), SigmoidSpec())
        net = Network(specs, rng, input_shape=(3, 2, 2))
        x = rng.standard_normal((4, 3, 2, 2))
        y = rng.integers(0, 2, size=(4, 1)).astype(float)
        assert grad_check(net, x, y) < 1e-7

    def test_tiny_conv_stack_grad_check(self, rng):
        net = Network(TINY_SPECS, rng, input_shape=TINY_INPUT)
        x = rng.standard_normal((2, *TINY_INPUT))
        y = rng.integers(0, 2, size=(2, 1)).astype(float)
        assert grad_check(net, x, y) < 1e-5

    def test_corrupted_gradient_detected(self, rng):
        net = Network(TINY_SPECS, rng, input_shape=TINY_INPUT)
        x = rng.standard_normal((2, *TINY_INPUT))
        y = rng.integers(0, 2, size=(2, 1)).astype(float)
        analytic = analytic_gradients(net, x, y)
        numeric = numeric_gradients(net, x, y)
        name = max(analytic, key=lambda k: np.abs(analytic[k]).max())
        flat = analytic[name].reshape(-1)
        flat[np.argmax(np.abs(flat))] *= 2.0
        errs = gradient_relative_errors(analytic, numeric)
        worst = max(float(e.max()) for e in errs.values())
        assert worst > 0.3

    def test_backward_skips_the_input_gradient_and_frees_caches(self, rng, monkeypatch):
        calls = []
        conv2d_backward = nn.conv2d_backward

        def counting_backward(g, cache):
            calls.append(cache[0])
            return conv2d_backward(g, cache)

        monkeypatch.setattr(nn, "conv2d_backward", counting_backward)
        net = Network(TINY_SPECS, rng, input_shape=TINY_INPUT)
        x = rng.standard_normal((2, *TINY_INPUT))
        net.forward_logits(x)
        net.backward_from_logits(np.ones((2, 1)))
        assert calls == [(2, 2, 6, 6)]  # the second conv; the network input needs no gradient
        assert all(getattr(layer, "_cache", None) is None for layer in net.layers)
        assert all(g is not None for g in net.gradients().values())

    def test_replica_shares_weights_but_not_gradients(self, rng):
        net = Network(TINY_SPECS, rng, input_shape=TINY_INPUT)
        twin = net.replica()
        for name, arr in net.parameters().items():
            assert twin.parameters()[name] is arr
        x = rng.standard_normal((2, *TINY_INPUT))
        twin.forward_logits(x)
        twin.backward_from_logits(np.ones((2, 1)))
        assert all(g is None for g in net.gradients().values())
        assert all(g is not None for g in twin.gradients().values())

    def test_forward_matches_fused_probability(self, rng):
        net = Network(TINY_SPECS, rng, input_shape=TINY_INPUT)
        x = rng.standard_normal((3, *TINY_INPUT))
        p = net.forward(x)
        z = net.forward_logits(x)
        assert np.allclose(p, sigmoid(z), atol=1e-15)


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        net = Network(TINY_SPECS, rng, input_shape=TINY_INPUT)
        path = tmp_path / "model.json"
        save_model(path, net.parameters(), net.specs, seed=7)
        params, specs, manifest = load_model(path)
        assert specs == net.specs
        assert manifest["seed"] == 7
        for name, arr in net.parameters().items():
            assert np.array_equal(params[name], arr)

    def test_loaded_network_predicts_identically(self, tmp_path, rng):
        net = Network(TINY_SPECS, rng, input_shape=TINY_INPUT)
        x = rng.standard_normal((2, *TINY_INPUT))
        expected = net.forward(x)
        path = tmp_path / "model.json"
        save_model(path, net.parameters(), net.specs, seed=3)
        params, specs, _ = load_model(path)
        net2 = Network(specs, np.random.default_rng(99), input_shape=TINY_INPUT)
        net2.set_parameters(params)
        assert np.array_equal(net2.forward(x), expected)
