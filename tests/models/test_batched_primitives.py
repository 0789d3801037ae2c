"""Batched (stacked-parameter) model primitives vs the serial reference.

The vectorized multi-coalition trainer leans on ``batch_gradient`` /
``batch_predict`` being *per-slice identical* to the serial `_gradient` /
``predict`` — these tests pin that down bitwise for every model that
advertises ``supports_vectorized``, and check the base-class per-slice
defaults for one that does not (the CNN).
"""

import numpy as np
import pytest

from repro.datasets import make_classification_blobs
from repro.models import (
    GradientBoostedTrees,
    LogisticRegressionModel,
    MLPClassifier,
    SimpleCNN,
)
from repro.models.linear import LinearRegressionModel

B, M, F, C = 6, 9, 5, 3


def stacked_models():
    return [
        LogisticRegressionModel(n_features=F, n_classes=C),
        MLPClassifier(n_features=F, n_classes=C, hidden_sizes=(4, 3)),
        LinearRegressionModel(n_features=F),
    ]


def targets_for(model, rng, shape):
    if isinstance(model, LinearRegressionModel):
        return rng.normal(size=shape)
    return rng.integers(0, C, size=shape)


class TestSupportsVectorizedFlag:
    def test_vectorized_models_advertise_it(self):
        for model in stacked_models():
            assert model.supports_vectorized

    def test_cnn_and_gbdt_do_not(self):
        assert not SimpleCNN(image_size=6, n_classes=2).supports_vectorized
        assert not getattr(
            GradientBoostedTrees(n_classes=2), "supports_vectorized", False
        )


class TestBatchGradient:
    @pytest.mark.parametrize("model", stacked_models(), ids=lambda m: type(m).__name__)
    def test_bitwise_identical_to_per_slice_gradient(self, model):
        rng = np.random.default_rng(0)
        parameters = rng.normal(size=(B, model.num_parameters()))
        features = rng.normal(size=(B, M, F))
        targets = targets_for(model, rng, (B, M))
        batched = model.batch_gradient(parameters, features, targets)
        reference = np.stack(
            [model._gradient(parameters[b], features[b], targets[b]) for b in range(B)]
        )
        assert batched.shape == (B, model.num_parameters())
        np.testing.assert_array_equal(batched, reference)

    @pytest.mark.parametrize("model", stacked_models(), ids=lambda m: type(m).__name__)
    def test_out_contract(self, model):
        rng = np.random.default_rng(4)
        P = model.num_parameters()
        parameters = rng.normal(size=(B, P))
        features = rng.normal(size=(B, M, F))
        targets = targets_for(model, rng, (B, M))
        inputs = (parameters, features, targets)
        before = [array.copy() for array in inputs]
        expected = model.batch_gradient(parameters, features, targets)
        # A strided view (every other row, offset columns) of a larger,
        # NaN-filled buffer: the gradient must land in it bit for bit and
        # nothing outside it may be touched.
        buffer = np.full((2 * B, P + 3), np.nan)
        out = buffer[::2, 1 : P + 1]
        result = model.batch_gradient(parameters, features, targets, out=out)
        assert result is out
        np.testing.assert_array_equal(out, expected)
        outside = np.ones(buffer.shape, dtype=bool)
        outside[::2, 1 : P + 1] = False
        assert np.isnan(buffer[outside]).all()
        for array, original in zip(inputs, before):
            np.testing.assert_array_equal(array, original)

    def test_out_of_wrong_shape_is_rejected(self):
        model = LogisticRegressionModel(n_features=F, n_classes=C)
        with pytest.raises(ValueError, match="out must be"):
            model.batch_gradient(
                np.zeros((B, model.num_parameters())),
                np.zeros((B, M, F)),
                np.zeros((B, M), dtype=int),
                out=np.zeros((B, model.num_parameters() + 1)),
            )

    def test_default_per_slice_loop_for_cnn(self):
        model = SimpleCNN(image_size=6, n_classes=2, n_filters=2)
        rng = np.random.default_rng(1)
        parameters = rng.normal(size=(3, model.num_parameters()))
        features = rng.normal(size=(3, 4, 6, 6))
        targets = rng.integers(0, 2, size=(3, 4))
        batched = model.batch_gradient(parameters, features, targets)
        reference = np.stack(
            [model._gradient(parameters[b], features[b], targets[b]) for b in range(3)]
        )
        np.testing.assert_array_equal(batched, reference)

    def test_rejects_wrong_parameter_shape(self):
        model = LogisticRegressionModel(n_features=F, n_classes=C)
        with pytest.raises(ValueError, match="stacked parameters"):
            model.batch_gradient(
                np.zeros(model.num_parameters()), np.zeros((1, M, F)), np.zeros((1, M))
            )


class TestBatchPredictAndEvaluate:
    @pytest.mark.parametrize("model", stacked_models(), ids=lambda m: type(m).__name__)
    def test_predict_matches_per_slice(self, model):
        rng = np.random.default_rng(2)
        parameters = rng.normal(size=(B, model.num_parameters()))
        features = rng.normal(size=(11, F))
        batched = model.batch_predict(parameters, features)
        engine = model.clone()
        for b in range(B):
            engine.set_parameters(parameters[b])
            np.testing.assert_array_equal(batched[b], engine.predict(features))

    def test_evaluate_matches_per_slice(self):
        dataset = make_classification_blobs(40, n_features=F, n_classes=C, seed=3)
        model = LogisticRegressionModel(n_features=F, n_classes=C)
        rng = np.random.default_rng(3)
        parameters = rng.normal(size=(B, model.num_parameters()))
        values = model.batch_evaluate(parameters, dataset)
        engine = model.clone()
        for b in range(B):
            engine.set_parameters(parameters[b])
            assert values[b] == engine.evaluate(dataset)


class TestBatchInitParameters:
    @pytest.mark.parametrize("model", stacked_models(), ids=lambda m: type(m).__name__)
    def test_consumes_generators_like_initialize(self, model):
        seeds = [11, 12, 13]
        batched = model.batch_init_parameters(
            [np.random.default_rng(s) for s in seeds]
        )
        for row, seed in zip(batched, seeds):
            reference = model.clone().initialize(np.random.default_rng(seed))
            np.testing.assert_array_equal(row, reference.get_parameters())

    def test_empty_batch(self):
        model = LogisticRegressionModel(n_features=F, n_classes=C)
        assert model.batch_init_parameters([]).shape == (0, model.num_parameters())
