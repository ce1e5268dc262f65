"""The autodiff core (Tensor, the backward walk, gradient checking)
exercised through the generic per-op reference in reference_ops."""

import math

import numpy as np
import pytest
from reference_ops import (
    add,
    affine,
    check_gradients,
    elu,
    exp,
    matmul,
    mul,
    neg,
    pairwise_mean_distance,
    reduce_mean,
    reduce_sum,
    relu,
    sigmoid,
    softplus,
    sqrt,
    square,
    sub,
)

from pnsrisk.autodiff import Tensor, parameter, sigmoid_np


def naive_matmul(a, b):
    """Triple-loop reference for the matmul forward pass."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestForward:
    def test_matmul_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((4, 6))
            b = rng.standard_normal((6, 3))
            got = matmul(Tensor(a), Tensor(b)).data
            assert np.allclose(got, naive_matmul(a, b), atol=1e-12)

    def test_affine_bias_broadcast(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        w = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([10.0, 20.0])
        out = affine(x, w, b)
        assert np.allclose(out.data, [[11.0, 22.0], [13.0, 24.0]])

    def test_affine_shape_errors(self):
        x = Tensor(np.zeros((2, 3)))
        w = Tensor(np.zeros((4, 2)))
        b = Tensor(np.zeros(2))
        with pytest.raises(ValueError):
            affine(x, w, b)

    def test_elu_continuous_at_zero(self):
        eps = 1e-9
        lo = elu(Tensor([-eps])).data[0]
        hi = elu(Tensor([eps])).data[0]
        assert abs(hi - lo) < 1e-8
        assert elu(Tensor([0.0])).data[0] == 0.0

    def test_elu_values(self):
        out = elu(Tensor([-1.0, 0.5])).data
        assert np.allclose(out, [math.expm1(-1.0), 0.5])

    def test_sigmoid_saturation_no_overflow(self):
        out = sigmoid(Tensor([-1000.0, 0.0, 1000.0])).data
        assert out[0] == 0.0
        assert out[1] == 0.5
        assert out[2] == 1.0

    def test_softplus_saturation(self):
        out = softplus(Tensor([-1000.0, 0.0, 1000.0])).data
        assert out[0] == 0.0
        assert abs(out[1] - math.log(2.0)) < 1e-15
        assert out[2] == 1000.0

    def test_overflow_raises_rather_than_inf(self):
        x = Tensor([800.0])
        with pytest.raises(FloatingPointError):
            exp(x)

    def test_nan_input_rejected(self):
        with pytest.raises(FloatingPointError, match="entering the graph"):
            Tensor([float("nan")])

    def test_non_finite_op_result_names_the_op(self):
        with np.errstate(over="ignore"), \
                pytest.raises(FloatingPointError, match="^mul produced a non-finite value$"):
            mul(Tensor([1e308]), Tensor([10.0]))

    def test_sigmoid_np_matches_two_branch_formula_bitwise(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = [0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 36.0, -36.0, 709.0, -709.0,
                 745.0, -745.0, 1e308, -1e308]
        x = np.concatenate([edges, np.random.default_rng(0).standard_normal(1000) * 8.0])
        want = np.empty_like(x)
        pos = x >= 0.0
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        want[~pos] = ex / (1.0 + ex)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = sigmoid_np(x)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_forward_bitwise_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 4))
        w = rng.standard_normal((4, 2))

        def run():
            return sigmoid(matmul(Tensor(x), Tensor(w))).data.tobytes()

        assert run() == run()


class TestBackward:
    def test_requires_scalar(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            x.backward()

    def test_sigmoid_grad_at_zero(self):
        x = parameter([0.0])
        reduce_sum(sigmoid(x)).backward()
        assert abs(x.grad[0] - 0.25) < 1e-15

    def test_softplus_grad_is_sigmoid(self):
        x = parameter([-2.0, 0.0, 3.0])
        reduce_sum(softplus(x)).backward()
        expected = 1.0 / (1.0 + np.exp(-x.data))
        assert np.allclose(x.grad, expected, atol=1e-15)

    @pytest.mark.parametrize("second_path", [False, True])
    def test_a_rule_short_of_a_gradient_is_refused(self, second_path):
        # d(a * b + 3b)/db is 4; a rule that drops b's share must not
        # leave b's gradient at the other path's 3 or die on a bare key
        a, b = parameter([1.0]), parameter([2.0])
        short = Tensor(a.data * b.data, (a, b), lambda g: (g * b.data,), "short")
        parents = [short, Tensor(3.0 * b.data, (b,), lambda g: (3.0 * g,), "triple")]
        parents = parents if second_path else parents[:1]
        loss = Tensor(sum(p.data for p in parents), parents,
                      lambda g: (g,) * len(parents), "total")
        with pytest.raises(ValueError, match="^short backward gave 1 gradients for 2 parents$"):
            loss.backward()

    def test_reused_node_accumulates_once_per_path(self):
        x = parameter([3.0])
        z = mul(x, x)
        loss = reduce_sum(add(z, z))
        loss.backward()
        # d/dx 2x^2 = 4x
        assert abs(x.grad[0] - 12.0) < 1e-12

    def test_matmul_grad_against_explicit_formula(self):
        rng = np.random.default_rng(1)
        a = parameter(rng.standard_normal((3, 4)))
        b = parameter(rng.standard_normal((4, 2)))
        reduce_sum(matmul(a, b)).backward()
        ones = np.ones((3, 2))
        assert np.allclose(a.grad, ones @ b.data.T, atol=1e-12)
        assert np.allclose(b.grad, a.data.T @ ones, atol=1e-12)

    def test_bias_grad_sums_rows(self):
        x = Tensor(np.ones((5, 3)))
        b = parameter(np.zeros(3))
        reduce_sum(add(x, b)).backward()
        assert np.allclose(b.grad, 5.0 * np.ones(3))

    def test_mean_axis(self):
        x = parameter(np.arange(6.0).reshape(2, 3))
        reduce_sum(reduce_mean(x, axis=1)).backward()
        assert np.allclose(x.grad, np.full((2, 3), 1.0 / 3.0))

    def test_leaf_grad_overwritten_between_passes(self):
        x = parameter([2.0])
        reduce_sum(mul(x, x)).backward()
        first = x.grad.copy()
        reduce_sum(mul(x, x)).backward()
        assert np.allclose(x.grad, first)


class TestCheckGradients:
    def test_step_domain(self):
        x = parameter([1.0])
        with pytest.raises(ValueError):
            check_gradients(lambda: reduce_sum(mul(x, x)), [x], step=1e-2)
        with pytest.raises(ValueError):
            check_gradients(lambda: reduce_sum(mul(x, x)), [x], step=0.0)

    def test_linear_loss_exact(self):
        rng = np.random.default_rng(7)
        w = parameter(rng.standard_normal(4))
        x = Tensor(rng.standard_normal((6, 4)))

        def loss():
            return reduce_sum(matmul(x, w))

        assert check_gradients(loss, [w]) < 1e-9

    def test_mlp_logistic_loss(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((8, 3)))
        w1 = parameter(rng.standard_normal((3, 5)) * 0.5)
        b1 = parameter(np.zeros(5))
        w2 = parameter(rng.standard_normal((5, 1)) * 0.5)
        b2 = parameter(np.zeros(1))
        y = Tensor(rng.integers(0, 2, size=8).astype(float) * 2.0 - 1.0)

        def loss():
            h = elu(affine(x, w1, b1))
            z = reduce_sum(affine(h, w2, b2), axis=1)
            return reduce_mean(softplus(neg(mul(y, z))))

        assert check_gradients(loss, [w1, b1, w2, b2]) < 1e-6

    def test_random_graphs_many_seeds(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.standard_normal((4, 3)))
            w = parameter(rng.standard_normal((3, 2)))
            b = parameter(rng.standard_normal(2))
            v = parameter(rng.standard_normal(2))

            def loss():
                h = sigmoid(affine(x, w, b))
                return add(reduce_mean(square(matmul(h, v))), mul(reduce_sum(softplus(v)), 0.1))

            assert check_gradients(loss, [w, b, v]) < 1e-6

    def test_relu_and_sqrt_chain(self):
        rng = np.random.default_rng(5)
        a = parameter(rng.standard_normal((4, 3)) + 0.5)
        b = Tensor(rng.standard_normal((2, 3)))

        def loss():
            d2 = pairwise_mean_distance(a, b)
            return add(square(relu(sub(Tensor(2.0), d2))),
                       reduce_mean(sqrt(add(reduce_sum(square(a), axis=1), 1.0))))

        assert check_gradients(loss, [a]) < 1e-6

    def test_pairwise_mean_distance_value(self):
        a = Tensor([[0.0, 0.0], [1.0, 0.0]])
        b = Tensor([[0.0, 3.0]])
        out = pairwise_mean_distance(a, b)
        expected = (3.0 + math.hypot(1.0, 3.0)) / 2.0
        assert abs(out.item() - expected) < 1e-9
