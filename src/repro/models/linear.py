"""Linear regression model.

Used both as an FL model in its own right and as the analytical setting of the
paper's theory (Thm. 2 variance comparison, Lemma 1 / Thm. 3 error bounds),
which assume an FL linear-regression model trained on Gaussian data.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datasets.base import Dataset
from repro.models.base import ParametricModel
from repro.models.metrics import negative_mse
from repro.utils.rng import SeedLike


class LinearRegressionModel(ParametricModel):
    """Linear regression ``y = X w + b`` trained with mini-batch SGD.

    The utility reported by :meth:`evaluate` is the *negative* mean squared
    error so that, consistently with classification accuracy, larger is better.

    Parameters
    ----------
    n_features:
        Input dimensionality.
    fit_intercept:
        Whether to learn a bias term.
    """

    supports_vectorized = True

    def __init__(
        self,
        n_features: int,
        fit_intercept: bool = True,
        learning_rate: float = 0.05,
        epochs: int = 20,
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
        if n_features <= 0:
            raise ValueError(f"n_features must be positive, got {n_features}")
        self.n_features = n_features
        self.fit_intercept = fit_intercept

    def num_parameters(self) -> int:
        return self.n_features + (1 if self.fit_intercept else 0)

    def _init_parameters(self, rng: np.random.Generator) -> np.ndarray:
        if self.init_scale == 0.0:
            return np.zeros(self.num_parameters())
        return rng.normal(0.0, self.init_scale, size=self.num_parameters())

    def _split(self, parameters: np.ndarray) -> tuple[np.ndarray, float]:
        if self.fit_intercept:
            return parameters[:-1], float(parameters[-1])
        return parameters, 0.0

    def _predict_with(self, parameters: np.ndarray, features: np.ndarray) -> np.ndarray:
        weights, bias = self._split(parameters)
        return features.reshape(len(features), -1) @ weights + bias

    def _gradient(
        self, parameters: np.ndarray, features: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        features = features.reshape(len(features), -1)
        residual = self._predict_with(parameters, features) - targets
        n = len(features)
        grad_w = 2.0 * features.T @ residual / n
        if self.fit_intercept:
            grad_b = 2.0 * residual.mean()
            return np.concatenate([grad_w, [grad_b]])
        return grad_w

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        return self._predict_with(self.get_parameters(), features.reshape(len(features), -1))

    # ------------------------------------------------------------------ #
    # Batched (stacked-parameter) kernels
    # ------------------------------------------------------------------ #
    def _batch_split(self, parameters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.fit_intercept:
            return parameters[:, :-1], parameters[:, -1]
        return parameters, np.zeros(parameters.shape[0])

    def _batch_predict_with(
        self, parameters: np.ndarray, features: np.ndarray
    ) -> np.ndarray:
        weights, biases = self._batch_split(parameters)
        predictions = np.matmul(features, weights[..., None])[..., 0]
        predictions += biases[:, None]
        return predictions

    def batch_gradient(
        self,
        parameters: np.ndarray,
        features: np.ndarray,
        targets: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Stacked squared-error gradients: ``(B, P) × (B, m, ...) → (B, P)``.

        The same operations as :meth:`_gradient`, lifted one batch axis up
        and written straight into ``out`` (allocated when ``None``), which is
        returned.  Note the serial path computes ``X.T @ r`` as a BLAS GEMV
        while the stacked path runs a width-1 GEMM per slice; the kernels
        may round differently in the last ulps, which is exactly the
        divergence the equivalence policy in ``docs/performance.md`` bounds
        and tests.
        """
        parameters = self._check_stacked(parameters)
        features = np.asarray(features, dtype=float)
        batch, m = parameters.shape[0], features.shape[1]
        features = features.reshape(batch, m, -1)
        targets = np.asarray(targets, dtype=float)
        out = self._gradient_out(parameters, out)
        residual = self._batch_predict_with(parameters, features)
        residual -= targets
        # 2.0 * (X.T @ r) / m, one in-place op at a time.
        grad_w = out[:, : self.n_features]
        np.matmul(
            features.transpose(0, 2, 1), residual[..., None], out=grad_w[..., None]
        )
        grad_w *= 2.0
        grad_w /= m
        if self.fit_intercept:
            grad_b = out[:, -1]
            np.mean(residual, axis=1, out=grad_b)
            grad_b *= 2.0
        return out

    def batch_predict(self, parameters: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Regression predictions of every stacked model on shared features."""
        parameters = self._check_stacked(parameters)
        features = np.asarray(features, dtype=float)
        flat = features.reshape(1, len(features), -1)
        stacked = np.broadcast_to(flat, (parameters.shape[0],) + flat.shape[1:])
        return self._batch_predict_with(parameters, stacked)

    def evaluate(self, dataset: Dataset) -> float:
        """Negative MSE on ``dataset`` (higher is better)."""
        if len(dataset) == 0:
            return float("-inf")
        predictions = self.predict(dataset.flat_features)
        return negative_mse(dataset.targets, predictions)

    def fit_closed_form(self, dataset: Dataset, ridge: float = 1e-8) -> "LinearRegressionModel":
        """Ordinary least squares with a tiny ridge term, for exact solutions.

        Used by the theory module and tests as the "fully trained" reference
        that SGD should approach.
        """
        features = dataset.flat_features
        targets = dataset.targets.astype(float)
        if self.fit_intercept:
            design = np.column_stack([features, np.ones(len(features))])
        else:
            design = features
        gram = design.T @ design + ridge * np.eye(design.shape[1])
        solution = np.linalg.solve(gram, design.T @ targets)
        self.set_parameters(solution)
        return self
