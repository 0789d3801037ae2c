"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    make_adult_like,
    make_classification_blobs,
    make_femnist_like,
    make_linear_regression,
    make_mnist_like,
    make_sent140_like,
)
from repro.models import LogisticRegressionModel
from repro.datasets.base import Dataset
from repro.datasets.mnist_like import TEMPLATE_SEED, _digit_templates
from repro.utils.rng import RandomState


def _mnist_like_rolled(n_samples, image_size, n_classes, pixel_noise, max_shift, seed):
    """``make_mnist_like`` as it was written before its one-gather shift:
    one ``np.roll`` per image."""
    rng = RandomState(seed)
    templates = _digit_templates(
        image_size, n_classes, np.random.default_rng(TEMPLATE_SEED)
    )
    targets = rng.integers(0, n_classes, size=n_samples)
    images = np.empty((n_samples, image_size, image_size))
    for idx, cls in enumerate(targets):
        image = templates[cls].copy()
        if max_shift > 0:
            shift_r = int(rng.integers(-max_shift, max_shift + 1))
            shift_c = int(rng.integers(-max_shift, max_shift + 1))
            image = np.roll(image, shift=(shift_r, shift_c), axis=(0, 1))
        image = image + rng.normal(0.0, pixel_noise, size=image.shape)
        images[idx] = image
    return images, targets


class TestLinearRegression:
    def test_shapes(self):
        dataset = make_linear_regression(50, n_features=4, seed=0)
        assert dataset.features.shape == (50, 4)
        assert dataset.targets.shape == (50,)
        assert not dataset.is_classification

    def test_respects_given_coefficients(self):
        coefficients = np.array([1.0, -2.0, 0.5])
        dataset = make_linear_regression(
            200, n_features=3, coefficients=coefficients, noise_std=0.0, seed=1
        )
        recovered, *_ = np.linalg.lstsq(dataset.features, dataset.targets, rcond=None)
        assert np.allclose(recovered, coefficients, atol=1e-8)

    def test_wrong_coefficient_shape_raises(self):
        with pytest.raises(ValueError):
            make_linear_regression(10, n_features=3, coefficients=np.ones(4))

    def test_noise_increases_residual(self):
        clean = make_linear_regression(300, noise_std=0.0, seed=2)
        noisy = make_linear_regression(300, noise_std=1.0, seed=2)
        assert noisy.targets.var() > clean.targets.var() * 0.99

    def test_deterministic_with_seed(self):
        a = make_linear_regression(20, seed=5)
        b = make_linear_regression(20, seed=5)
        assert np.array_equal(a.features, b.features)

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            make_linear_regression(0)
        with pytest.raises(ValueError):
            make_linear_regression(10, n_features=0)


class TestBlobs:
    def test_shapes_and_classes(self):
        dataset = make_classification_blobs(60, n_features=5, n_classes=4, seed=0)
        assert dataset.features.shape == (60, 5)
        assert dataset.num_classes == 4
        assert set(np.unique(dataset.targets)).issubset(set(range(4)))

    def test_separated_blobs_are_learnable(self):
        dataset = make_classification_blobs(
            300, n_features=6, n_classes=3, class_separation=5.0, cluster_std=0.5, seed=1
        )
        model = LogisticRegressionModel(n_features=6, n_classes=3, epochs=20)
        model.fit(dataset, seed=0)
        assert model.evaluate(dataset) > 0.9


class TestMnistLike:
    def test_shapes(self):
        dataset = make_mnist_like(40, image_size=8, seed=0)
        assert dataset.features.shape == (40, 8, 8)
        assert dataset.num_classes == 10

    def test_all_classes_can_appear(self):
        dataset = make_mnist_like(500, seed=1)
        assert len(np.unique(dataset.targets)) == 10

    def test_task_is_learnable(self):
        dataset = make_mnist_like(400, image_size=8, pixel_noise=0.15, seed=2)
        model = LogisticRegressionModel(n_features=64, n_classes=10, epochs=20)
        model.fit(dataset, seed=0)
        # Training accuracy well above chance (10%) shows class structure exists.
        assert model.evaluate(dataset) > 0.5

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_samples=st.integers(1, 40),
        image_size=st.integers(1, 10),
        n_classes=st.integers(1, 10),
        max_shift=st.integers(0, 12),
        pixel_noise=st.sampled_from([0.0, 0.25, 1.5]),
    )
    def test_gathered_shifts_match_per_image_rolls_bitwise(
        self, seed, n_samples, image_size, n_classes, max_shift, pixel_noise
    ):
        dataset = make_mnist_like(
            n_samples,
            image_size=image_size,
            n_classes=n_classes,
            pixel_noise=pixel_noise,
            max_shift=max_shift,
            seed=seed,
        )
        images, targets = _mnist_like_rolled(
            n_samples, image_size, n_classes, pixel_noise, max_shift, seed
        )
        assert dataset.features.dtype == images.dtype
        assert dataset.features.tobytes() == images.tobytes()
        assert np.array_equal(dataset.targets, targets)
        assert dataset.targets.dtype == targets.dtype

    def test_different_seeds_share_task_structure(self):
        a = make_mnist_like(100, seed=1)
        b = make_mnist_like(100, seed=2)
        model = LogisticRegressionModel(n_features=64, n_classes=10, epochs=25)
        model.fit(a, seed=0)
        # A model trained on one draw transfers to another draw of the same task.
        assert model.evaluate(b) > 0.4


class TestFemnistLike:
    def test_has_writer_groups(self):
        dataset = make_femnist_like(80, n_writers=6, seed=0)
        assert dataset.group_ids is not None
        assert set(np.unique(dataset.group_ids)).issubset(set(range(6)))

    def test_style_strength_zero_matches_templates_more_closely(self):
        plain = make_femnist_like(200, n_writers=5, style_strength=0.0, seed=3)
        styled = make_femnist_like(200, n_writers=5, style_strength=1.5, seed=3)
        # Stronger styles increase overall feature variance across writers.
        assert styled.features.var() > plain.features.var()

    def test_shapes(self):
        dataset = make_femnist_like(30, image_size=10, seed=0)
        assert dataset.features.shape == (30, 10, 10)


class TestAdultLike:
    def test_shapes_and_binary_target(self):
        dataset = make_adult_like(120, seed=0)
        assert dataset.num_classes == 2
        assert set(np.unique(dataset.targets)).issubset({0, 1})
        assert dataset.group_ids is not None

    def test_occupation_groups_within_range(self):
        dataset = make_adult_like(200, n_occupations=7, seed=1)
        assert dataset.group_ids.max() < 7

    def test_task_is_learnable(self):
        dataset = make_adult_like(600, seed=2)
        model = LogisticRegressionModel(
            n_features=dataset.n_features, n_classes=2, epochs=20
        )
        model.fit(dataset, seed=0)
        majority = max(dataset.label_distribution())
        assert model.evaluate(dataset) > majority

    def test_both_classes_present(self):
        dataset = make_adult_like(500, seed=3)
        assert len(np.unique(dataset.targets)) == 2


class TestSent140Like:
    def test_counts_are_non_negative_integers(self):
        dataset = make_sent140_like(50, seed=0)
        assert np.all(dataset.features >= 0)
        assert np.allclose(dataset.features, np.round(dataset.features))

    def test_document_length_respected(self):
        dataset = make_sent140_like(30, document_length=15, seed=1)
        assert np.allclose(dataset.features.sum(axis=1), 15)

    def test_has_user_groups_and_binary_labels(self):
        dataset = make_sent140_like(80, n_users=9, seed=2)
        assert dataset.group_ids.max() < 9
        assert set(np.unique(dataset.targets)).issubset({0, 1})

    def test_sentiment_signal_is_learnable(self):
        dataset = make_sent140_like(500, seed=3)
        model = LogisticRegressionModel(
            n_features=dataset.n_features, n_classes=2, epochs=20
        )
        model.fit(dataset, seed=0)
        assert model.evaluate(dataset) > 0.7


class TestGeneratorValidation:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: make_mnist_like(0),
            lambda: make_femnist_like(0),
            lambda: make_adult_like(0),
            lambda: make_sent140_like(0),
            lambda: make_classification_blobs(0),
        ],
    )
    def test_zero_samples_raise(self, factory):
        with pytest.raises(ValueError):
            factory()

    def test_generators_return_dataset_instances(self):
        for dataset in (
            make_mnist_like(10, seed=0),
            make_femnist_like(10, seed=0),
            make_adult_like(10, seed=0),
            make_sent140_like(10, seed=0),
            make_linear_regression(10, seed=0),
        ):
            assert isinstance(dataset, Dataset)
