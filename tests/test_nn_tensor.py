"""Autograd correctness: every op is checked against numerical gradients."""

import numpy as np

from repro.nn import Tensor

RNG = np.random.default_rng(7)


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued fn at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build, x_data, atol=1e-5):
    """Compare autograd gradient of build(Tensor) against finite differences."""
    x = Tensor(x_data.copy(), requires_grad=True)
    out = build(x)
    out.backward()

    def scalar_fn(arr):
        return build(Tensor(arr)).data.sum()

    expected = numerical_grad(scalar_fn, x_data.copy())
    np.testing.assert_allclose(x.grad, expected, atol=atol)


class TestForward:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3.0))
        np.testing.assert_array_equal((a + b).data, np.ones((2, 3)) + np.arange(3.0))

    def test_scalar_ops(self):
        x = Tensor([1.0, 2.0])
        np.testing.assert_array_equal((2.0 * x).data, [2.0, 4.0])
        np.testing.assert_array_equal((x - 1.0).data, [0.0, 1.0])
        np.testing.assert_array_equal((1.0 - x).data, [0.0, -1.0])
        np.testing.assert_allclose((1.0 / x).data, [1.0, 0.5])

    def test_matmul_shapes(self):
        a = Tensor(RNG.normal(size=(4, 3)))
        b = Tensor(RNG.normal(size=(3, 5)))
        assert (a @ b).shape == (4, 5)

    def test_relu_clips_negatives(self):
        x = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(x.relu().data, [0.0, 0.0, 2.0])

    def test_reductions(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x.sum().item() == 15.0
        assert x.mean().item() == 2.5
        np.testing.assert_array_equal(x.sum(axis=0).data, [3.0, 5.0, 7.0])
        np.testing.assert_array_equal(x.max(axis=1).data, [2.0, 5.0])

    def test_reshape_transpose(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x.reshape(3, 2).shape == (3, 2)
        assert x.reshape(-1).shape == (6,)
        assert x.transpose().shape == (3, 2)

    def test_getitem(self):
        x = Tensor(np.arange(10.0))
        np.testing.assert_array_equal(x[2:5].data, [2.0, 3.0, 4.0])

    def test_pad2d(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        padded = x.pad2d(1)
        assert padded.shape == (1, 1, 4, 4)
        assert padded.data.sum() == 4.0

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = x.detach()
        assert not y.requires_grad

    def test_item_and_numpy(self):
        x = Tensor([[3.5]])
        assert x.item() == 3.5
        assert x.numpy() is x.data

    def test_repr(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))


class TestBackward:
    def test_add(self):
        check_gradient(lambda x: (x + 2.0).sum(), RNG.normal(size=(3, 4)))

    def test_add_broadcast_unbroadcasts(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, np.full(3, 2.0))

    def test_mul(self):
        check_gradient(lambda x: (x * x).sum(), RNG.normal(size=(3, 3)))

    def test_div(self):
        check_gradient(lambda x: (1.0 / x).sum(), RNG.uniform(1.0, 2.0, size=(4,)))

    def test_pow(self):
        check_gradient(lambda x: (x ** 3.0).sum(), RNG.uniform(0.5, 1.5, size=(5,)))

    def test_matmul(self):
        w = RNG.normal(size=(4, 2))

        def build(x):
            return (x @ Tensor(w)).sum()

        check_gradient(build, RNG.normal(size=(3, 4)))

    def test_relu_subgradient(self):
        check_gradient(lambda x: x.relu().sum(), RNG.normal(size=(10,)) + 0.1)

    def test_exp_log_tanh_sigmoid(self):
        check_gradient(lambda x: x.exp().sum(), RNG.normal(size=(4,)))
        check_gradient(lambda x: x.log().sum(), RNG.uniform(0.5, 2.0, size=(4,)))
        check_gradient(lambda x: x.tanh().sum(), RNG.normal(size=(4,)))
        check_gradient(lambda x: x.sigmoid().sum(), RNG.normal(size=(4,)))

    def test_sum_axis_keepdims(self):
        check_gradient(lambda x: (x.sum(axis=1, keepdims=True) * 2.0).sum(), RNG.normal(size=(3, 4)))
        check_gradient(lambda x: x.sum(axis=(0, 2)).sum(), RNG.normal(size=(2, 3, 4)))

    def test_mean(self):
        check_gradient(lambda x: x.mean(), RNG.normal(size=(3, 4)))
        check_gradient(lambda x: x.mean(axis=0).sum(), RNG.normal(size=(3, 4)))

    def test_max_axis(self):
        # Keep entries distinct so the max is differentiable at x.
        data = np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 4.0]])
        check_gradient(lambda x: x.max(axis=1).sum(), data)

    def test_reshape_transpose_grad(self):
        check_gradient(lambda x: x.reshape(6).sum(), RNG.normal(size=(2, 3)))
        check_gradient(lambda x: (x.transpose() * 2.0).sum(), RNG.normal(size=(2, 3)))

    def test_getitem_grad(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x[1:3].sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0, 0.0, 0.0])

    def test_pad2d_grad(self):
        check_gradient(lambda x: (x.pad2d(1) * 3.0).sum(), RNG.normal(size=(1, 1, 2, 2)))

    def test_grad_accumulates_on_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])  # 2x + 1

    def test_backward_through_diamond(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        (a * b).backward()  # d/dx 6x^2 = 12x
        np.testing.assert_allclose(x.grad, [12.0])

    def test_no_grad_without_requires(self):
        x = Tensor([1.0])
        y = x * 2.0
        y.backward()
        assert x.grad is None

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_does_not_recurse(self):
        # backward is iterative; 5000-op chains must not hit recursion limits.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 1.0
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])
