"""Tests for losses, optimisers, data pipeline, trainer, serialization, taps."""

import numpy as np
import pytest

from repro.nn import (
    ActivationTap,
    Adam,
    ArrayDataset,
    CrossEntropyLoss,
    DataLoader,
    Linear,
    Module,
    MSELoss,
    ReLU,
    SGD,
    Sequential,
    Subset,
    Tensor,
    Trainer,
    load_model,
    predict,
    predict_logits,
    random_split,
    save_model,
    stack_dataset,
)
from repro.nn import functional as F

RNG = np.random.default_rng(5)


def toy_problem(n=200, seed=0):
    """Linearly separable 2-class blobs."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.concatenate(
        [rng.normal(-2.0, 1.0, size=(half, 2)), rng.normal(2.0, 1.0, size=(n - half, 2))]
    )
    y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(n - half, dtype=np.int64)])
    return ArrayDataset(x, y)


class TestLosses:
    def test_cross_entropy_value_matches_manual(self):
        logits = Tensor(RNG.normal(size=(4, 3)))
        labels = np.array([0, 1, 2, 1])
        loss = CrossEntropyLoss()(logits, labels)
        expected = -F.log_softmax(logits.data)[np.arange(4), labels].mean()
        np.testing.assert_allclose(loss.item(), expected)

    def test_cross_entropy_gradient_numerical(self):
        logits_data = RNG.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        logits = Tensor(logits_data.copy(), requires_grad=True)
        CrossEntropyLoss()(logits, labels).backward()
        eps = 1e-6
        numeric = np.zeros_like(logits_data)
        for idx in np.ndindex(*logits_data.shape):
            orig = logits_data[idx]
            logits_data[idx] = orig + eps
            plus = -F.log_softmax(logits_data)[np.arange(3), labels].mean()
            logits_data[idx] = orig - eps
            minus = -F.log_softmax(logits_data)[np.arange(3), labels].mean()
            logits_data[idx] = orig
            numeric[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(logits.grad, numeric, atol=1e-6)

    def test_cross_entropy_shape_validation(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss()(Tensor(np.zeros(3)), np.array([0]))
        with pytest.raises(ValueError):
            CrossEntropyLoss()(Tensor(np.zeros((2, 3))), np.array([0]))

    def test_mse(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = MSELoss()(pred, np.array([0.0, 0.0]))
        np.testing.assert_allclose(loss.item(), 2.5)
        loss.backward()
        np.testing.assert_allclose(pred.grad, [1.0, 2.0])

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            MSELoss()(Tensor(np.zeros(2)), np.zeros(3))


class TestOptimizers:
    def test_sgd_descends_quadratic(self):
        w = Tensor(np.array([10.0]), requires_grad=True)
        opt = SGD([w], lr=0.1)
        for _ in range(100):
            loss = (w * w).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert abs(w.data[0]) < 1e-4

    def test_sgd_momentum_faster_on_ravine(self):
        def run(momentum):
            w = Tensor(np.array([5.0, 5.0]), requires_grad=True)
            opt = SGD([w], lr=0.02, momentum=momentum)
            for _ in range(50):
                loss = (w * w * Tensor(np.array([1.0, 10.0]))).sum()
                opt.zero_grad()
                loss.backward()
                opt.step()
            return np.abs(w.data).sum()

        assert run(0.9) < run(0.0)

    def test_adam_descends(self):
        w = Tensor(np.array([3.0, -4.0]), requires_grad=True)
        opt = Adam([w], lr=0.1)
        for _ in range(200):
            loss = (w * w).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.abs(w.data).max() < 1e-3

    def test_weight_decay_shrinks_weights(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([w], lr=0.1, weight_decay=0.5)
        loss = (w * 0.0).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert w.data[0] < 1.0

    def test_invalid_hyperparameters(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([w], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([w], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            Adam([w], lr=0.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_step_skips_params_without_grad(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        SGD([w], lr=0.1).step()  # no backward happened
        assert w.data[0] == 1.0


class TestData:
    def test_array_dataset_basics(self):
        ds = toy_problem(10)
        assert len(ds) == 10
        x, y = ds[0]
        assert x.shape == (2,)
        assert isinstance(y, int)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4))

    def test_random_split_partitions(self):
        ds = toy_problem(100)
        train, val = random_split(ds, [0.8, 0.2], seed=1)
        assert len(train) == 80 and len(val) == 20
        all_indices = sorted(train.indices + val.indices)
        assert all_indices == list(range(100))

    def test_random_split_validates_fractions(self):
        ds = toy_problem(10)
        with pytest.raises(ValueError):
            random_split(ds, [0.5, 0.2])
        with pytest.raises(ValueError):
            random_split(ds, [-0.5, 1.5])

    def test_subset_indexing(self):
        ds = toy_problem(10)
        sub = Subset(ds, [3, 7])
        np.testing.assert_array_equal(sub[0][0], ds[3][0])
        assert len(sub) == 2

    def test_loader_covers_everything_once(self):
        ds = toy_problem(17)
        loader = DataLoader(ds, batch_size=5, shuffle=True, seed=2)
        seen = np.concatenate([y for _, y in loader])
        assert len(seen) == 17

    def test_loader_drop_last(self):
        ds = toy_problem(17)
        loader = DataLoader(ds, batch_size=5, drop_last=True)
        assert len(loader) == 3
        assert sum(len(y) for _, y in loader) == 15

    def test_loader_shuffles_differently_each_epoch(self):
        ds = toy_problem(32)
        loader = DataLoader(ds, batch_size=32, shuffle=True, seed=0)
        first = next(iter(loader))[1]
        second = next(iter(loader))[1]
        assert not np.array_equal(first, second)

    def test_loader_without_shuffle_is_ordered(self):
        ds = toy_problem(8)
        loader = DataLoader(ds, batch_size=8, shuffle=False)
        _, labels = next(iter(loader))
        np.testing.assert_array_equal(labels, ds.labels)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(toy_problem(4), batch_size=0)

    def test_stack_dataset_on_subset(self):
        ds = toy_problem(10)
        sub = Subset(ds, [1, 4])
        xs, ys = stack_dataset(sub)
        assert xs.shape == (2, 2)
        np.testing.assert_array_equal(ys, [ds[1][1], ds[4][1]])


class TestTrainer:
    def test_learns_separable_problem(self):
        ds = toy_problem(200)
        model = Sequential(Linear(2, 16, rng=np.random.default_rng(0)), ReLU(), Linear(16, 2, rng=np.random.default_rng(1)))
        trainer = Trainer(model, SGD(model.parameters(), lr=0.05))
        trainer.fit(DataLoader(ds, batch_size=32, shuffle=True), epochs=10)
        assert trainer.evaluate(ds) > 0.95

    def test_history_recorded(self):
        ds = toy_problem(50)
        model = Sequential(Linear(2, 2, rng=np.random.default_rng(0)))
        trainer = Trainer(model, SGD(model.parameters(), lr=0.01))
        history = trainer.fit(DataLoader(ds, batch_size=16), epochs=3, val_dataset=ds)
        assert len(history) == 3
        assert history[0].val_accuracy is not None
        assert history[-1].train_loss <= history[0].train_loss * 1.5

    def test_predict_shapes(self):
        ds = toy_problem(20)
        model = Sequential(Linear(2, 2, rng=np.random.default_rng(0)))
        assert predict(model, ds).shape == (20,)
        logits = predict_logits(model, ds.inputs)
        assert logits.shape == (20, 2)

    @staticmethod
    def _autograd_logits(model, inputs):
        model.eval()
        return model(Tensor(inputs)).data

    @pytest.mark.parametrize("shape", ["conv", "mlp"])
    def test_prediction_runs_the_inference_plan(self, shape):
        """``predict``/``predict_logits`` serve a Sequential from the
        plan (no fallback) and agree with the autograd forward pass."""
        from repro.nn import Conv2d, Flatten, MaxPool2d
        from repro.nn import inference

        rng = np.random.default_rng(7)
        if shape == "conv":
            model = Sequential(
                Conv2d(2, 4, 3, padding=1, rng=rng), ReLU(), MaxPool2d(2),
                Flatten(), Linear(4 * 3 * 3, 5, rng=rng),
            )
            inputs = rng.normal(size=(37, 2, 6, 6))
        else:
            model = Sequential(Linear(6, 16, rng=rng), ReLU(), Linear(16, 4, rng=rng))
            inputs = rng.normal(size=(37, 6))
        labels = rng.integers(0, 4, size=len(inputs))
        expected = self._autograd_logits(model, inputs)
        before = dict(inference.FALLBACKS)
        logits = predict_logits(model, inputs, batch_size=16)
        predictions = predict(model, ArrayDataset(inputs, labels), batch_size=16)
        assert dict(inference.FALLBACKS) == before
        assert np.abs(logits - expected).max() < 1e-12
        np.testing.assert_array_equal(logits.argmax(axis=1), expected.argmax(axis=1))
        np.testing.assert_array_equal(predictions, expected.argmax(axis=1))

    def test_prediction_of_other_models_keeps_autograd(self):
        class Wrapped(Module):
            def __init__(self):
                super().__init__()
                self.inner = Sequential(Linear(3, 2, rng=np.random.default_rng(2)))

            def forward(self, x):
                return self.inner(x)

        model = Wrapped()
        inputs = np.random.default_rng(3).normal(size=(9, 3))
        np.testing.assert_array_equal(
            predict_logits(model, inputs), self._autograd_logits(model, inputs)
        )
        assert predict(model, ArrayDataset(inputs, np.zeros(9, dtype=np.int64))).shape == (9,)
        assert predict(model, ArrayDataset(inputs[:0], np.zeros(0, dtype=np.int64))).shape == (0,)


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        model = Sequential(Linear(2, 4, rng=np.random.default_rng(0)), ReLU(), Linear(4, 2, rng=np.random.default_rng(1)))
        path = tmp_path / "model.npz"
        save_model(model, path)
        clone = Sequential(Linear(2, 4, rng=np.random.default_rng(9)), ReLU(), Linear(4, 2, rng=np.random.default_rng(8)))
        load_model(clone, path)
        x = Tensor(RNG.normal(size=(3, 2)))
        np.testing.assert_allclose(model(x).data, clone(x).data)


class TestActivationTap:
    def test_captures_batches(self):
        model = Sequential(Linear(2, 3, rng=np.random.default_rng(0)), ReLU())
        with ActivationTap(model[1]) as tap:
            model(Tensor(RNG.normal(size=(4, 2))))
            model(Tensor(RNG.normal(size=(2, 2))))
        assert tap.concatenated().shape == (6, 3)
        assert tap.last().shape == (2, 3)

    def test_detach_stops_capture(self):
        model = Sequential(Linear(2, 3, rng=np.random.default_rng(0)), ReLU())
        tap = ActivationTap(model[1])
        tap.attach()
        model(Tensor(RNG.normal(size=(1, 2))))
        tap.detach()
        model(Tensor(RNG.normal(size=(1, 2))))
        assert len(tap.outputs) == 1

    def test_clear_and_empty_error(self):
        tap = ActivationTap(ReLU())
        assert tap.last() is None
        with pytest.raises(RuntimeError):
            tap.concatenated()
        tap.outputs.append(np.zeros((1, 2)))
        tap.clear()
        assert tap.outputs == []

    def test_double_attach_is_noop(self):
        model = ReLU()
        tap = ActivationTap(model)
        tap.attach()
        tap.attach()
        model(Tensor(np.array([1.0])))
        assert len(tap.outputs) == 1
