"""Multinomial (softmax) logistic regression.

A cheap parametric classifier used in unit tests, the quickstart example and
as a fast stand-in whenever an experiment only needs *a* classification model
rather than specifically an MLP or CNN.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datasets.base import Dataset
from repro.models.activations import softmax
from repro.models.base import ParametricModel
from repro.models.metrics import accuracy_score
from repro.utils.rng import SeedLike


class LogisticRegressionModel(ParametricModel):
    """Softmax regression over flattened features.

    Parameters are stored as a flat vector of shape
    ``n_classes * n_features + n_classes`` (weights followed by biases).
    """

    supports_vectorized = True

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        learning_rate: float = 0.5,
        epochs: int = 10,
        batch_size: int = 32,
        l2: float = 0.0,
        init_scale: float = 0.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(
            learning_rate=learning_rate,
            epochs=epochs,
            batch_size=batch_size,
            l2=l2,
            init_scale=init_scale,
            seed=seed,
        )
        if n_features <= 0 or n_classes < 2:
            raise ValueError("n_features must be positive and n_classes >= 2")
        self.n_features = n_features
        self.n_classes = n_classes

    def num_parameters(self) -> int:
        return self.n_classes * self.n_features + self.n_classes

    def _init_parameters(self, rng: np.random.Generator) -> np.ndarray:
        if self.init_scale == 0.0:
            return np.zeros(self.num_parameters())
        return rng.normal(0.0, self.init_scale, size=self.num_parameters())

    def _unpack(self, parameters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        split = self.n_classes * self.n_features
        weights = parameters[:split].reshape(self.n_features, self.n_classes)
        biases = parameters[split:]
        return weights, biases

    def _probabilities(self, parameters: np.ndarray, features: np.ndarray) -> np.ndarray:
        weights, biases = self._unpack(parameters)
        logits = features.reshape(len(features), -1) @ weights + biases
        return softmax(logits)

    def _gradient(
        self, parameters: np.ndarray, features: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        features = features.reshape(len(features), -1)
        targets = targets.astype(int)
        n = len(features)
        probabilities = self._probabilities(parameters, features)
        one_hot = np.zeros_like(probabilities)
        one_hot[np.arange(n), targets] = 1.0
        delta = (probabilities - one_hot) / n
        grad_w = features.T @ delta
        grad_b = delta.sum(axis=0)
        return np.concatenate([grad_w.ravel(), grad_b])

    # ------------------------------------------------------------------ #
    # Batched (stacked-parameter) kernels
    # ------------------------------------------------------------------ #
    def _batch_unpack(self, parameters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        split = self.n_classes * self.n_features
        weights = parameters[:, :split].reshape(-1, self.n_features, self.n_classes)
        biases = parameters[:, split:]
        return weights, biases

    def _batch_probabilities(
        self, parameters: np.ndarray, features: np.ndarray
    ) -> np.ndarray:
        weights, biases = self._batch_unpack(parameters)
        logits = np.matmul(features, weights)
        logits += biases[:, None, :]
        return softmax(logits, out=logits)

    def batch_gradient(
        self,
        parameters: np.ndarray,
        features: np.ndarray,
        targets: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Stacked cross-entropy gradients: ``(B, P) × (B, m, ...) → (B, P)``.

        The same operations as :meth:`_gradient`, lifted one batch axis up:
        each slice's matmuls see operands of identical shape and layout to
        the serial path, which is what keeps vectorized training numerically
        aligned with serial training (see ``docs/performance.md``).  The
        weight and bias gradients are written straight into their views of
        ``out`` (allocated when ``None``), which is returned.
        """
        parameters = self._check_stacked(parameters)
        features = np.asarray(features, dtype=float)
        batch, m = parameters.shape[0], features.shape[1]
        features = features.reshape(batch, m, -1)
        targets = np.asarray(targets).astype(int)
        out = self._gradient_out(parameters, out)
        grad_w, grad_b = self._batch_unpack(out)
        # (p - one_hot) / m in place on the probabilities, without
        # materialising the one-hot tensor; the per-element arithmetic is
        # identical to the serial expression.
        delta = self._batch_probabilities(parameters, features)
        delta[np.arange(batch)[:, None], np.arange(m)[None, :], targets] -= 1.0
        delta /= m
        np.matmul(features.transpose(0, 2, 1), delta, out=grad_w)
        np.sum(delta, axis=1, out=grad_b)
        return out

    def batch_predict(self, parameters: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Class predictions of every stacked model on shared features."""
        parameters = self._check_stacked(parameters)
        features = np.asarray(features, dtype=float)
        features = features.reshape(1, len(features), -1)
        probabilities = self._batch_probabilities(
            parameters, np.broadcast_to(features, (parameters.shape[0],) + features.shape[1:])
        )
        return np.argmax(probabilities, axis=-1)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        return self._probabilities(self.get_parameters(), features)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(features), axis=1)

    def evaluate(self, dataset: Dataset) -> float:
        """Test accuracy (the paper's classification utility)."""
        if len(dataset) == 0:
            return 0.0
        predictions = self.predict(dataset.flat_features)
        return accuracy_score(dataset.targets, predictions)
